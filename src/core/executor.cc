#include "core/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "base/mutex.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace seedb::core {

const char* ExecutionStrategyToString(ExecutionStrategy strategy) {
  switch (strategy) {
    case ExecutionStrategy::kPerQuery:
      return "per-query";
    case ExecutionStrategy::kPhasedSharedScan:
      return "phased-shared-scan";
  }
  return "?";
}

namespace {

double MeanOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double total = 0.0;
  for (double s : v) total += s;
  return total / static_cast<double>(v.size());
}

}  // namespace

double ExecutionReport::MeanQuerySeconds() const {
  return MeanOf(query_seconds);
}

double ExecutionReport::MaxQuerySeconds() const {
  if (query_seconds.empty()) return 0.0;
  return *std::max_element(query_seconds.begin(), query_seconds.end());
}

double ExecutionReport::MeanPhaseSeconds() const {
  return MeanOf(phase_seconds);
}

bool RanksBefore(const ViewEstimate& a, const ViewEstimate& b) {
  if (a.utility != b.utility) return a.utility > b.utility;
  return a.view.Id() < b.view.Id();
}

namespace {

// The MAB pruner halves by per-boundary estimate ORDER, and cache adoption
// makes adopted views' estimates final from phase 1 — a warm MAB run would
// halve different views than the cold run that seeded it. Such runs bypass
// the cache so warm and cold MAB runs stay bit-identical; the safe CI
// pruner (bound-based, never discards a potential top-k view) adopts
// freely, and so does a one-phase run, which has no boundary to halve at.
bool HalvesByEstimateOrder(const OnlinePruningOptions& pruning) {
  return pruning.pruner == OnlinePruner::kMultiArmedBandit &&
         pruning.num_phases > 1;
}

db::SharedScanOptions MakeScanOptions(const ExecutorOptions& options) {
  db::SharedScanOptions scan;
  scan.num_threads = options.parallelism;
  scan.morsel_rows = options.morsel_rows;
  scan.cancel = options.cancel;
  scan.enable_simd = options.enable_simd;
  scan.trace = options.trace;
  scan.use_result_cache = !HalvesByEstimateOrder(options.online_pruning);
  return scan;
}

bool CancelRequested(const ExecutorOptions& options) {
  return options.cancel != nullptr &&
         options.cancel->load(std::memory_order_relaxed);
}

std::vector<db::GroupingSetsQuery> PlanQueries(const ExecutionPlan& plan) {
  std::vector<db::GroupingSetsQuery> queries;
  queries.reserve(plan.queries.size());
  for (const PlannedQuery& pq : plan.queries) queries.push_back(pq.query);
  return queries;
}

}  // namespace

PhasedPlanExecution::PhasedPlanExecution(const ExecutionPlan* plan,
                                         DistanceMetric metric,
                                         ExecutorOptions options,
                                         db::SharedScanSession session)
    : plan_(plan),
      metric_(metric),
      options_(std::move(options)),
      session_(std::move(session)),
      live_views_(plan->queries.size()),
      pruner_(0, options_.online_pruning) {
  // Dense view index across the plan, plus the wiring from each view to the
  // (query, grouping set, aggregate) triples its halves read. A triple is
  // retired from the scan once every view reading it has been pruned. A
  // combined query's slot names both halves in one set; a split plan's
  // target-only and comparison-only slots name one each.
  std::unordered_map<ViewDescriptor, size_t, ViewDescriptorHash> view_index;
  for (size_t q = 0; q < plan_->queries.size(); ++q) {
    const db::GroupingSetsQuery& query = plan_->queries[q].query;
    std::unordered_map<std::string, size_t> agg_index;
    for (size_t j = 0; j < query.aggregates.size(); ++j) {
      agg_index.emplace(query.aggregates[j].EffectiveName(), j);
    }
    live_views_[q].assign(query.grouping_sets.size(),
                          std::vector<size_t>(query.aggregates.size(), 0));
    const size_t first_pair = pairs_.size();
    for (size_t s = 0; s < query.grouping_sets.size(); ++s) {
      pairs_.emplace_back(q, s);
    }
    for (const ViewSlot& slot : plan_->queries[q].slots) {
      auto [it, inserted] = view_index.emplace(slot.view, views_.size());
      if (inserted) {
        views_.push_back(slot.view);
        aggs_of_view_.emplace_back();
        halves_.emplace_back();
      }
      if (slot.result_index >= query.grouping_sets.size()) continue;
      for (bool target : {true, false}) {
        auto agg = agg_index.find(target ? slot.target_column
                                         : slot.comparison_column);
        if (agg == agg_index.end()) continue;  // a half this query lacks
        HalfRef& half = target ? halves_[it->second].target
                               : halves_[it->second].comparison;
        half.pair = first_pair + slot.result_index;
        half.aggregate = agg->second;
        half.func = query.aggregates[agg->second].func;
        aggs_of_view_[it->second].push_back(
            {q, slot.result_index, agg->second});
        ++live_views_[q][slot.result_index][agg->second];
      }
    }
  }
  merged_.resize(pairs_.size());
  merged_pass_.assign(pairs_.size(), 0);
  utilities_.assign(views_.size(), 0.0);
  pruner_ = OnlinePruningState(views_.size(), options_.online_pruning);
  total_phases_ = std::max<size_t>(1, options_.online_pruning.num_phases);
}

Result<double> AutoUtilityRange(db::Engine* engine, const ExecutionPlan& plan,
                                DistanceMetric metric) {
  if (plan.queries.empty()) return MetricUtilityRange(metric, 1);
  SEEDB_ASSIGN_OR_RETURN(
      const db::TableStats* stats,
      engine->catalog()->GetStats(plan.queries[0].query.table));
  double range = 0.0;
  for (const PlannedQuery& pq : plan.queries) {
    for (const ViewSlot& slot : pq.slots) {
      size_t groups = 1;
      if (Result<const db::ColumnStats*> col =
              stats->Find(slot.view.dimension);
          col.ok()) {
        groups = (*col)->distinct_count + ((*col)->null_count > 0 ? 1 : 0);
      }
      range = std::max(range, MetricUtilityRange(metric, groups));
    }
  }
  return range > 0.0 ? range : MetricUtilityRange(metric, 1);
}

Result<PhasedPlanExecution> PhasedPlanExecution::Begin(
    db::Engine* engine, const ExecutionPlan& plan, DistanceMetric metric,
    const ExecutorOptions& options) {
  ExecutorOptions resolved = options;
  // utility_range <= 0 asks for auto-calibration from the metric and the
  // plan's per-view group counts (the EMD case the manual knob cannot
  // cover); every CI computation downstream sees the resolved range.
  if (resolved.online_pruning.utility_range <= 0.0) {
    SEEDB_ASSIGN_OR_RETURN(resolved.online_pruning.utility_range,
                           AutoUtilityRange(engine, plan, metric));
  }
  SEEDB_ASSIGN_OR_RETURN(
      db::SharedScanSession session,
      engine->BeginShared(PlanQueries(plan), MakeScanOptions(resolved)));
  PhasedPlanExecution run(&plan, metric, resolved, std::move(session));
  // Same bit-identity gate as MakeScanOptions: prior-tightened intervals
  // would also shift the MAB's estimate-order halving.
  if (db::PartialAggCache* cache = engine->result_cache();
      cache != nullptr && !HalvesByEstimateOrder(resolved.online_pruning)) {
    run.SeedUtilityPriors(
        cache,
        engine->catalog()->TableVersion(plan.queries[0].query.table));
  }
  return run;
}

void PhasedPlanExecution::SeedUtilityPriors(db::PartialAggCache* cache,
                                            uint64_t table_version) {
  prior_cache_ = cache;
  prior_key_prefix_ = StringPrintf(
      "%s#v%llu|%s|u:", plan_->queries[0].query.table.c_str(),
      static_cast<unsigned long long>(table_version),
      DistanceMetricToString(metric_));
  if (views_.empty()) return;
  std::vector<double> priors(views_.size(), 0.0);
  uint64_t min_weight = std::numeric_limits<uint64_t>::max();
  for (size_t v = 0; v < views_.size(); ++v) {
    double utility = 0.0;
    uint64_t weight = 0;
    if (!cache->LookupUtilityPrior(prior_key_prefix_ + views_[v].Id(),
                                   &utility, &weight)) {
      return;  // a cold view: warm-starting the rest would mis-prune it
    }
    priors[v] = utility;
    min_weight = std::min(min_weight, weight);
  }
  options_.online_pruning.prior_estimates = std::move(priors);
  options_.online_pruning.prior_weight = static_cast<size_t>(min_weight);
  pruner_ = OnlinePruningState(views_.size(), options_.online_pruning);
}

bool PhasedPlanExecution::done() const {
  return finished_ || cancelled_ || early_stopped_ ||
         phases_run() >= total_phases_;
}

size_t PhasedPlanExecution::rows_consumed() const {
  return session_.rows_consumed();
}

size_t PhasedPlanExecution::num_rows() const { return session_.num_rows(); }

size_t PhasedPlanExecution::agg_state_bytes() const {
  return session_.stats().agg_state_bytes;
}

Status PhasedPlanExecution::Resume() {
  if (finished_) {
    return Status::Internal("phased execution already finished");
  }
  if (!cancelled_) {
    return Status::InvalidArgument("phased execution is not cancelled");
  }
  if (session_.cancelled()) {
    SEEDB_RETURN_IF_ERROR(session_.ResumeAfterCancel());
    // The token may have fired again mid-resume; stay cancelled then.
    if (session_.cancelled()) return Status::OK();
  }
  cancelled_ = false;
  return Status::OK();
}

Result<const db::MergedSet*> PhasedPlanExecution::ReadPair(size_t p) {
  if (merged_pass_[p] != scoring_pass_) {
    SEEDB_ASSIGN_OR_RETURN(
        merged_[p], session_.ReadSet(pairs_[p].first, pairs_[p].second));
    merged_pass_[p] = scoring_pass_;
  }
  return &merged_[p];
}

// Bins exactly as AlignFromCombined / AlignFromTables build them from the
// tables' rows in key order: std::map keys a run of groups whose keys
// compare equal by its first group and keeps its last group's value, and a
// split view's two sides merge on the union of keys (the comparison side's
// key where both have one), an absent side reading 0. Then normalizes and
// scores as ViewProcessor does.
Result<double> PhasedPlanExecution::ScoreView(size_t v, bool with_keys,
                                              AlignedPair* pair) {
  const ViewHalves& h = halves_[v];
  if (h.target.pair == SIZE_MAX || h.comparison.pair == SIZE_MAX) {
    return Status::Internal("view '" + views_[v].Id() +
                            "' is missing a target or comparison half");
  }
  SEEDB_ASSIGN_OR_RETURN(const db::MergedSet* t, ReadPair(h.target.pair));
  SEEDB_ASSIGN_OR_RETURN(const db::MergedSet* c, ReadPair(h.comparison.pair));
  const std::vector<int32_t>& t_order = *t->order;
  const std::vector<int32_t>& c_order = *c->order;
  const db::AggState* t_states = (*t->states)[h.target.aggregate];
  const db::AggState* c_states = (*c->states)[h.comparison.aggregate];
  const auto run_end = [](const db::MergedSet& m, size_t i) {
    do {
      ++i;
    } while (i < m.order->size() && (*m.same_key)[i]);
    return i;
  };
  pair->target_raw.clear();
  pair->comparison_raw.clear();
  pair->target.keys.clear();
  size_t i = 0;  // next group of t_order
  size_t k = 0;  // next group of c_order
  while (i < t_order.size() || k < c_order.size()) {
    // <0: the next key is the target side's alone, >0: the comparison
    // side's alone, 0: both sides'. A combined view's sides share groups.
    int cmp = 0;
    if (h.target.pair != h.comparison.pair) {
      if (i == t_order.size()) {
        cmp = 1;
      } else if (k == c_order.size()) {
        cmp = -1;
      } else {
        cmp = db::CompareKeys(*t, t_order[i], *c, c_order[k]);
      }
    }
    const size_t t_end = cmp <= 0 ? run_end(*t, i) : i;
    const size_t c_end = cmp >= 0 ? run_end(*c, k) : k;
    pair->target_raw.push_back(
        cmp <= 0 ? t_states[t_order[t_end - 1]].Finalize(h.target.func)
                 : 0.0);
    pair->comparison_raw.push_back(
        cmp >= 0 ? c_states[c_order[c_end - 1]].Finalize(h.comparison.func)
                 : 0.0);
    if (with_keys) {
      pair->target.keys.push_back(cmp >= 0 ? c->KeyOf(c_order[k])
                                           : t->KeyOf(t_order[i]));
    }
    i = t_end;
    k = c_end;
  }
  if (with_keys) pair->comparison.keys = pair->target.keys;
  NormalizeToProbabilities(pair->target_raw, &pair->target.probabilities);
  NormalizeToProbabilities(pair->comparison_raw,
                           &pair->comparison.probabilities);
  return Distance(pair->target.probabilities, pair->comparison.probabilities,
                  metric_);
}

// Scores every surviving view on its running (un-finalized) aggregates.
// Early slices can leave a view with two empty halves (nothing matched
// yet), which has no defined utility — callers skip that boundary rather
// than act on undefined estimates; the next boundary sees more rows.
Status PhasedPlanExecution::EstimateSurvivors() {
  ++scoring_pass_;
  for (size_t v = 0; v < views_.size(); ++v) {
    if (!pruner_.IsActive(v)) continue;
    SEEDB_ASSIGN_OR_RETURN(utilities_[v],
                           ScoreView(v, /*with_keys=*/false, &scratch_));
  }
  return Status::OK();
}

// Drops pruned view `v`'s reads and retires every aggregate of the sets it
// read that no live view reads any more — including aggregates no view ever
// read there (a combined query carries the union of its sets' payloads), so
// a set whose views are all gone stops being scanned.
Status PhasedPlanExecution::RetireUnreadAggregates(size_t v) {
  for (const AggRef& ref : aggs_of_view_[v]) {
    --live_views_[ref.query][ref.set][ref.aggregate];
  }
  for (const AggRef& ref : aggs_of_view_[v]) {
    const bool was_active = session_.query_active(ref.query);
    const std::vector<size_t>& readers = live_views_[ref.query][ref.set];
    for (size_t j = 0; j < readers.size(); ++j) {
      if (readers[j] == 0) {
        SEEDB_RETURN_IF_ERROR(session_.RetireAggregate(ref.query, ref.set, j));
      }
    }
    if (was_active && !session_.query_active(ref.query)) {
      ++queries_deactivated_;
    }
  }
  return Status::OK();
}

// The top-k is "CI-stable" when the same ordered top-k appeared at
// `early_stop_stable_phases` consecutive boundaries and every adjacent pair
// in the ranking — including the boundary pair against the best excluded
// view — is separated by more than 2*eps, i.e. the intervals cannot overlap
// into a swap. Conservative by construction: infinite eps (delta <= 0)
// never stops, reproducing the exhaustive scan.
bool PhasedPlanExecution::EvaluateEarlyStop(
    const std::vector<ViewEstimate>& estimates, double eps) {
  const size_t stable = options_.online_pruning.early_stop_stable_phases;
  if (stable == 0 || estimates.empty()) return false;
  const size_t k = std::max<size_t>(1, options_.online_pruning.keep_k);

  std::vector<const ViewEstimate*> order;
  order.reserve(estimates.size());
  for (const ViewEstimate& e : estimates) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const ViewEstimate* a, const ViewEstimate* b) {
              return RanksBefore(*a, *b);
            });

  std::vector<std::string> top_ids;
  const size_t top_n = std::min(k, order.size());
  top_ids.reserve(top_n);
  for (size_t i = 0; i < top_n; ++i) top_ids.push_back(order[i]->view.Id());
  stable_streak_ = top_ids == last_top_ids_ ? stable_streak_ + 1 : 1;
  last_top_ids_ = std::move(top_ids);
  if (stable_streak_ < stable || !std::isfinite(eps)) return false;

  // Adjacent separation over the top-k plus the best excluded view.
  const size_t pairs = std::min(order.size() - 1, k);
  for (size_t i = 0; i < pairs; ++i) {
    if (order[i]->utility - eps <= order[i + 1]->utility + eps) return false;
  }
  return true;
}

Result<PhaseSnapshot> PhasedPlanExecution::Step(bool collect_estimates) {
  if (done()) {
    return Status::Internal("phased execution already done");
  }
  Stopwatch phase_timer;
  const size_t p = phases_run();
  const size_t n = session_.num_rows();
  const size_t begin = n * p / total_phases_;
  const size_t end = n * (p + 1) / total_phases_;
  SEEDB_RETURN_IF_ERROR(session_.RunPhase(begin, end));

  PhaseSnapshot snap;
  snap.phase = p + 1;
  snap.total_phases = total_phases_;
  snap.views_active = pruner_.num_active();
  snap.views_pruned = pruner_.views_pruned();

  if (session_.cancelled()) {
    cancelled_ = true;
    snap.cancelled = true;
    snap.rows_consumed = session_.rows_consumed();
    // The cut-short phase observed no boundary: report the width the
    // PREVIOUS boundaries earned (infinite before the first one) — never
    // the zero-default, which would read as perfect confidence on the
    // least-trustworthy estimates of the run.
    snap.ci_half_width = OnlinePruningState::ConfidenceHalfWidth(
        options_.online_pruning, boundaries_observed_);
    phase_seconds_.push_back(phase_timer.ElapsedSeconds());
    snap.phase_seconds = phase_seconds_.back();
    return snap;
  }

  const OnlinePruningOptions& popts = options_.online_pruning;
  const bool boundary = p + 1 < total_phases_;
  const bool want_prune =
      boundary && popts.pruner != OnlinePruner::kNone && popts.keep_k > 0 &&
      pruner_.num_active() > popts.keep_k && session_.rows_consumed() > 0;
  const bool want_early_stop =
      boundary && popts.early_stop_stable_phases > 0;
  ++boundaries_observed_;
  snap.ci_half_width =
      OnlinePruningState::ConfidenceHalfWidth(popts, boundaries_observed_);

  if ((want_prune || want_early_stop || collect_estimates) &&
      session_.rows_consumed() > 0) {
    SEEDB_TRACE_SPAN_IF(boundary_span, "executor.boundary", 0,
                        obs::TraceRecorder::ShouldTrace(options_.trace));
    if (EstimateSurvivors().ok()) {
      if (want_prune) {
        for (size_t v : pruner_.Observe(utilities_)) {
          online_pruned_.push_back({views_[v], utilities_[v], snap.phase,
                                    session_.rows_consumed()});
          SEEDB_RETURN_IF_ERROR(RetireUnreadAggregates(v));
        }
      }
      // Survivors only: the views just pruned are out of the snapshot and
      // of the early-stop policy.
      std::vector<ViewEstimate> estimates;
      if (want_early_stop || collect_estimates) {
        estimates.reserve(pruner_.num_active());
        for (size_t v = 0; v < views_.size(); ++v) {
          if (pruner_.IsActive(v)) {
            estimates.push_back({views_[v], utilities_[v]});
          }
        }
      }
      if (want_early_stop &&
          EvaluateEarlyStop(estimates, snap.ci_half_width)) {
        early_stopped_ = true;
        snap.early_stopped = true;
      }
      if (collect_estimates) {
        snap.has_estimates = true;
        snap.estimates = std::move(estimates);
      }
    }
  }

  snap.views_active = pruner_.num_active();
  snap.views_pruned = pruner_.views_pruned();
  snap.rows_consumed = session_.rows_consumed();
  phase_seconds_.push_back(phase_timer.ElapsedSeconds());
  snap.phase_seconds = phase_seconds_.back();
  return snap;
}

Result<std::vector<ViewResult>> PhasedPlanExecution::Finish(
    ExecutionReport* report) {
  if (finished_) {
    return Status::Internal("phased execution already finished");
  }
  finished_ = true;
  Stopwatch finalize_timer;
  SEEDB_RETURN_IF_ERROR(session_.Close());
  if (report) {
    report->phase_seconds = phase_seconds_;
    report->phases_executed = phases_run();
    report->views_pruned_online = pruner_.views_pruned();
    report->online_pruned = online_pruned_;
    report->queries_deactivated = queries_deactivated_;
    report->early_stopped = early_stopped_;
    report->cancelled = cancelled_;
    report->total_seconds = finalize_timer.ElapsedSeconds();
    for (double s : phase_seconds_) report->total_seconds += s;
    // Exact per-run engine work: one scan per batch, every query counted.
    report->queries_executed = plan_->queries.size();
    report->table_scans = 1;
    report->scan = session_.stats();
  }
  // A run that stopped before consuming every row (cancelled, or stopped
  // before the first phase) can hold views with no data at all; drop those
  // instead of failing. Fully scanned runs keep the strict check.
  const bool partial =
      cancelled_ || session_.rows_consumed() < session_.num_rows();
  ++scoring_pass_;
  std::vector<ViewResult> results;
  results.reserve(pruner_.num_active());
  for (size_t v = 0; v < views_.size(); ++v) {
    if (!pruner_.IsActive(v)) continue;
    ViewResult vr;
    vr.view = views_[v];
    Result<double> utility =
        ScoreView(v, /*with_keys=*/true, &vr.distributions);
    if (!utility.ok()) {
      if (partial) continue;
      return utility.status();
    }
    vr.utility = *utility;
    results.push_back(std::move(vr));
  }
  // Publish warm-start priors: only a full, un-cancelled scan's utilities
  // are exact, and their evidence weight is the phases that produced them.
  if (prior_cache_ != nullptr && !partial) {
    for (const ViewResult& vr : results) {
      prior_cache_->PutUtilityPrior(prior_key_prefix_ + vr.view.Id(),
                                    vr.utility, phases_run());
    }
  }
  return results;
}

Result<std::vector<ViewResult>> ExecutePlan(db::Engine* engine,
                                            const ExecutionPlan& plan,
                                            DistanceMetric metric,
                                            const ExecutorOptions& options,
                                            ExecutionReport* report) {
  Stopwatch total_timer;

  if (options.strategy == ExecutionStrategy::kPhasedSharedScan &&
      !plan.queries.empty()) {
    SEEDB_ASSIGN_OR_RETURN(
        PhasedPlanExecution run,
        PhasedPlanExecution::Begin(engine, plan, metric, options));
    bool budget_exceeded = false;
    while (!run.done()) {
      SEEDB_RETURN_IF_ERROR(run.Step(/*collect_estimates=*/false).status());
      // Budget metering at the phase boundary (a one-phase run has one): a
      // breach stops the scan here and the run finishes gracefully on the
      // rows already merged.
      if (options.memory_budget_bytes > 0 &&
          run.agg_state_bytes() > options.memory_budget_bytes) {
        budget_exceeded = true;
        break;
      }
    }
    Result<std::vector<ViewResult>> views = run.Finish(report);
    SEEDB_RETURN_IF_ERROR(views.status());
    if (report) {
      report->total_seconds = total_timer.ElapsedSeconds();
      report->budget_exceeded = budget_exceeded;
    }
    return views;
  }

  // Each query is its own table pass; the run's record sums them. The
  // per-query analogue of the fused scan's merged-state footprint: all
  // result groups are retained in the processor until Finish, so the
  // metered unit is the cumulative groups x aggregates x sizeof(AggState)
  // across the queries executed so far.
  ViewProcessor processor(metric);
  base::Mutex mu;
  bool cancelled = false;
  bool budget_exceeded = false;
  Status first_error = Status::OK();
  size_t queries_executed = 0;
  std::vector<double> query_seconds(plan.queries.size(), 0.0);
  db::SharedScanStats scan;
  // One planned query. Once the run has stopped — cancelled, over budget
  // or failed — no further query is issued. The pass itself runs unlocked;
  // accounting and consumption (cheap) are serialized under `mu`.
  const auto run_query = [&](size_t i) {
    {
      base::MutexLock lock(&mu);
      if (cancelled || budget_exceeded || !first_error.ok()) return;
      if (CancelRequested(options)) {
        cancelled = true;
        return;
      }
    }
    Stopwatch qt;
    db::GroupingSetsStats qstats;
    Result<std::vector<db::Table>> result =
        engine->Execute(plan.queries[i].query, &qstats);
    const double elapsed = qt.ElapsedSeconds();
    base::MutexLock lock(&mu);
    query_seconds[i] = elapsed;
    if (!first_error.ok()) return;
    if (!result.ok()) {
      first_error = result.status();
      return;
    }
    ++queries_executed;
    scan.rows_scanned += qstats.rows_scanned;
    scan.total_groups += qstats.total_groups;
    scan.agg_state_bytes += qstats.agg_state_bytes;
    first_error =
        processor.Consume(plan.queries[i], std::move(result).ValueOrDie());
    if (options.memory_budget_bytes > 0 &&
        scan.agg_state_bytes > options.memory_budget_bytes) {
      budget_exceeded = true;
    }
  };
  // Serial runs the body inline, in plan order; parallel runs it on a pool
  // no larger than the plan.
  const size_t threads = std::min(options.parallelism, plan.queries.size());
  if (threads <= 1) {
    for (size_t i = 0; i < plan.queries.size(); ++i) run_query(i);
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(0, plan.queries.size(), run_query);
  }
  SEEDB_RETURN_IF_ERROR(first_error);

  // A cancelled or budget-stopped per-query run may hold views with only
  // one half consumed (the other query never ran); those are dropped rather
  // than scored.
  SEEDB_ASSIGN_OR_RETURN(
      std::vector<ViewResult> results,
      processor.Finish(/*allow_partial=*/cancelled || budget_exceeded));
  if (report) {
    report->total_seconds = total_timer.ElapsedSeconds();
    report->query_seconds = std::move(query_seconds);
    report->cancelled = cancelled;
    report->budget_exceeded = budget_exceeded;
    report->queries_executed = queries_executed;
    report->table_scans = queries_executed;
    report->scan = scan;
  }
  return results;
}

}  // namespace seedb::core
