#include "core/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "base/mutex.h"
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
  // retired from the scan once every view reading it has been pruned.
  for (size_t q = 0; q < plan_->queries.size(); ++q) {
    const db::GroupingSetsQuery& query = plan_->queries[q].query;
    std::unordered_map<std::string, size_t> agg_index;
    for (size_t j = 0; j < query.aggregates.size(); ++j) {
      agg_index.emplace(query.aggregates[j].EffectiveName(), j);
    }
    live_views_[q].assign(query.grouping_sets.size(),
                          std::vector<size_t>(query.aggregates.size(), 0));
    for (const ViewSlot& slot : plan_->queries[q].slots) {
      auto [it, inserted] = view_index_.emplace(slot.view, views_.size());
      if (inserted) {
        views_.push_back(slot.view);
        aggs_of_view_.emplace_back();
      }
      if (slot.result_index >= query.grouping_sets.size()) continue;
      for (const std::string* column :
           {&slot.target_column, &slot.comparison_column}) {
        auto agg = agg_index.find(*column);
        if (agg == agg_index.end()) continue;  // a half this query lacks
        aggs_of_view_[it->second].push_back(
            {q, slot.result_index, agg->second});
        ++live_views_[q][slot.result_index][agg->second];
      }
    }
  }
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

// Scores every surviving view on its running (un-finalized) aggregates.
// Early slices can leave a view with two empty halves (nothing matched
// yet), which has no defined utility — callers skip that boundary rather
// than act on undefined estimates; the next boundary sees more rows.
Result<std::vector<ViewEstimate>> PhasedPlanExecution::EstimateSurvivors()
    const {
  const auto include_active = [this](const ViewDescriptor& v) {
    auto it = view_index_.find(v);
    return it != view_index_.end() && pruner_.IsActive(it->second);
  };
  ViewProcessor estimator(metric_);
  for (size_t q = 0; q < plan_->queries.size(); ++q) {
    if (!session_.query_active(q)) continue;
    SEEDB_ASSIGN_OR_RETURN(std::vector<db::Table> partial,
                           session_.PartialResults(q));
    SEEDB_RETURN_IF_ERROR(
        estimator.Consume(plan_->queries[q], std::move(partial),
                          include_active));
  }
  SEEDB_ASSIGN_OR_RETURN(std::vector<ViewResult> scored, estimator.Finish());
  std::vector<ViewEstimate> estimates;
  estimates.reserve(scored.size());
  for (const ViewResult& vr : scored) {
    estimates.push_back({vr.view, vr.utility});
  }
  return estimates;
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
    Result<std::vector<ViewEstimate>> estimates = EstimateSurvivors();
    if (estimates.ok()) {
      if (want_prune) {
        std::vector<double> utilities(views_.size(), 0.0);
        for (const ViewEstimate& e : *estimates) {
          utilities[view_index_.at(e.view)] = e.utility;
        }
        for (size_t v : pruner_.Observe(utilities)) {
          online_pruned_.push_back({views_[v], utilities[v], snap.phase,
                                    session_.rows_consumed()});
          SEEDB_RETURN_IF_ERROR(RetireUnreadAggregates(v));
        }
        // Drop the newly pruned views from the boundary estimates so the
        // snapshot (and the early-stop policy) see survivors only.
        std::erase_if(*estimates, [this](const ViewEstimate& e) {
          return !pruner_.IsActive(view_index_.at(e.view));
        });
      }
      if (want_early_stop &&
          EvaluateEarlyStop(*estimates, snap.ci_half_width)) {
        early_stopped_ = true;
        snap.early_stopped = true;
      }
      if (collect_estimates) {
        snap.has_estimates = true;
        snap.estimates = std::move(*estimates);
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
  const auto include_active = [this](const ViewDescriptor& v) {
    auto it = view_index_.find(v);
    return it != view_index_.end() && pruner_.IsActive(it->second);
  };
  ViewProcessor processor(metric_);
  SEEDB_ASSIGN_OR_RETURN(std::vector<std::vector<db::Table>> all,
                         session_.Finalize());
  for (size_t q = 0; q < plan_->queries.size(); ++q) {
    if (!session_.query_active(q)) continue;
    SEEDB_RETURN_IF_ERROR(
        processor.Consume(plan_->queries[q], std::move(all[q]),
                          include_active));
  }
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
  SEEDB_ASSIGN_OR_RETURN(std::vector<ViewResult> results,
                         processor.Finish(/*allow_partial=*/partial));
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
