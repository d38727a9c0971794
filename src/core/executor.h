// Plan executor: runs an ExecutionPlan against the engine, optionally with
// parallel query execution (§3.3, "Parallel Query Execution").
//
// "We observe that as the number of queries executed in parallel increases,
// the total latency decreases at the cost of increased per query execution
// time." The executor reproduces that knob: planned queries are distributed
// over a thread pool; per-query latencies are recorded so benches can report
// both sides of the trade-off.
//
// Two strategies are offered. kPerQuery is the paper's inter-query
// parallelism: each planned query is an independent pass over the table, and
// the pool runs passes concurrently. kPhasedSharedScan is the logical
// endpoint of §3.3's sharing argument: the whole plan is handed to
// db/shared_scan.h and answered in morsel-driven passes with intra-scan
// parallelism — it gets faster with cores, not with query count. The fused
// pass runs as N sequential table slices and, at each phase boundary,
// re-estimates every surviving view's utility from its running (un-finalized)
// aggregates and lets an online pruner (core/online_pruning.h) retire views
// that provably — or probably, depending on the strategy — cannot make the
// top k. Each (query, grouping set, aggregate) triple no surviving view
// reads is then retired from the scan, so the remaining phases accumulate
// and merge only what live views still need — even when the optimizer fused
// every view into one query. With one phase there is no boundary: the plan
// is ONE pass over the table (the wire and CLI name for that is
// "shared-scan").
//
// The fused strategy builds no tables. Boundary estimates and final results
// alike are scored straight from the scan's merged aggregate state
// (db::SharedScanSession::ReadSet): each view's groups in key order,
// AggState::Finalize per group, then NormalizeToProbabilities and Distance —
// the steps, in the order, ViewProcessor takes over materialized tables, so
// the two agree bit for bit.

#ifndef SEEDB_CORE_EXECUTOR_H_
#define SEEDB_CORE_EXECUTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/online_pruning.h"
#include "core/optimizer.h"
#include "core/view_processor.h"
#include "db/engine.h"
#include "util/result.h"

namespace seedb::core {

/// How the executor maps an ExecutionPlan onto engine work.
enum class ExecutionStrategy {
  /// One engine query per planned query; `parallelism` queries in flight.
  kPerQuery,
  /// The whole plan fused into one morsel-driven table pass, split into
  /// `online_pruning.num_phases` sequential row slices with
  /// confidence-interval / MAB view pruning at each boundary; `parallelism`
  /// worker threads inside the scan. One phase = one plain fused pass.
  kPhasedSharedScan,
};

const char* ExecutionStrategyToString(ExecutionStrategy strategy);

struct ExecutorOptions {
  /// kPerQuery: queries executed concurrently (1 = serial).
  /// kPhasedSharedScan: morsel worker threads (0 = hardware concurrency).
  size_t parallelism = 1;
  ExecutionStrategy strategy = ExecutionStrategy::kPerQuery;
  /// Rows per morsel for the fused strategy (0 = adaptive, re-derived at
  /// every phase start from the phase's rows and the surviving query count —
  /// db::AdaptiveMorselRows).
  size_t morsel_rows = db::SharedScanOptions{}.morsel_rows;
  /// Explicit-SIMD kernel tier inside the fused strategy's vectorized
  /// morsels (db/vec/simd/). Kill switch — results are bit-identical either
  /// way; the tier also self-disables on builds/CPUs without the ISA.
  bool enable_simd = true;
  /// Phase count, mid-flight pruner and early-stop policy for
  /// kPhasedSharedScan (ignored by kPerQuery). keep_k must be set
  /// for pruning to engage; the SeeDB facade wires it to the top-k request.
  OnlinePruningOptions online_pruning;
  /// Cooperative cancellation token. Under the fused strategy it is
  /// observed at morsel boundaries inside the scan; under kPerQuery between
  /// queries. On cancellation the executor returns the views completed so
  /// far (fused: every survivor, estimated over the rows seen) and sets
  /// ExecutionReport::cancelled. nullptr = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Record obs trace spans for this run's scan phases and worker merge
  /// steps even when the recorder is not tracing all sessions.
  bool trace = false;
  /// Cap on the plan's aggregation-state footprint in bytes; 0 = unlimited.
  /// The fused strategy meters the scan's merged agg state at every phase
  /// boundary (one boundary for a one-phase run); kPerQuery meters the
  /// cumulative groups x aggregates x sizeof(AggState) of the results
  /// retained so far and stops issuing queries on a breach. Either way the
  /// run ends gracefully with ExecutionReport::budget_exceeded set and
  /// partial results over the work already done — the same contract as
  /// SeeDBOptions::memory_budget_bytes under the phased session.
  size_t memory_budget_bytes = 0;
};

/// Latency breakdown of one plan execution. Which fields are populated
/// depends on the strategy: per-query wall times only exist when queries
/// actually run independently; a fused pass has per-*phase* wall times
/// instead. Nothing is ever attributed evenly across queries that shared a
/// pass.
struct ExecutionReport {
  /// Wall time to run the whole plan.
  double total_seconds = 0.0;
  /// Per planned-query wall time, in plan order. Populated under kPerQuery
  /// only; empty under kPhasedSharedScan.
  std::vector<double> query_seconds;
  /// Per-phase wall time of the fused pass, including each boundary's
  /// estimate/prune bookkeeping. One entry per phase run under
  /// kPhasedSharedScan, empty under kPerQuery.
  std::vector<double> phase_seconds;
  /// Phases the fused pass ran (0 under kPerQuery). Smaller than the
  /// requested phase count when the run early-stopped or was cancelled.
  size_t phases_executed = 0;
  /// Views retired mid-flight by the online pruner (= online_pruned.size()).
  size_t views_pruned_online = 0;
  /// The retired views themselves, each with the partial utility estimate it
  /// carried at retirement — surfaced to RecommendationSet for the
  /// frontend's "views not examined" display.
  std::vector<OnlinePrunedView> online_pruned;
  /// Planned queries the scan stopped computing because every view riding
  /// on them had been pruned (the query's last live aggregate died).
  size_t queries_deactivated = 0;
  /// The run stopped scanning before the last requested phase because the
  /// top-k was CI-stable (OnlinePruningOptions::early_stop_stable_phases);
  /// utilities are estimates over the rows seen.
  bool early_stopped = false;
  /// The run was cut short by ExecutorOptions::cancel; results are partial.
  bool cancelled = false;
  /// Engine work attributable to THIS run, so concurrent runs on one
  /// engine do not bleed into each other's profiles. The plan's side: the
  /// queries executed and the table passes they cost (1 per fused batch, 1
  /// per query under kPerQuery).
  size_t queries_executed = 0;
  size_t table_scans = 0;
  /// The scan's side: the fused batch's SharedScanStats as-is, whose
  /// agg_state_bytes is groups x accumulators x sizeof(AggState) (one
  /// accumulator per distinct (input, FILTER) pair of a query, plus the
  /// snapshots of aggregates retired while their accumulator stayed live).
  /// kPerQuery sums rows_scanned and total_groups over its queries and
  /// meters agg_state_bytes as the cumulative groups x aggregates x
  /// sizeof(AggState) of the results retained; its morsel and cache fields
  /// stay 0. agg_state_bytes is what memory_budget_bytes is metered
  /// against.
  db::SharedScanStats scan;
  /// The run stopped before completing every planned unit of work because
  /// the aggregation-state footprint crossed
  /// ExecutorOptions::memory_budget_bytes; results cover the work finished
  /// before the breach.
  bool budget_exceeded = false;

  double MeanQuerySeconds() const;
  double MaxQuerySeconds() const;
  double MeanPhaseSeconds() const;
};

/// A running utility estimate for one surviving view mid-scan.
struct ViewEstimate {
  ViewDescriptor view;
  /// Utility computed over the rows the scan has consumed so far.
  double utility = 0.0;
};

/// The provisional-ranking order: utility descending, ties on view id so
/// rankings are deterministic. The early-stop policy and the streaming
/// session's top-k display both rank with this — they must agree on what
/// "the current top-k" is.
bool RanksBefore(const ViewEstimate& a, const ViewEstimate& b);

/// Observable state of one phase of a PhasedPlanExecution, produced by
/// Step() right after the phase's boundary bookkeeping ran.
struct PhaseSnapshot {
  /// 1-based index of the phase just completed.
  size_t phase = 0;
  size_t total_phases = 0;
  /// Wall time of the phase including boundary estimate/prune bookkeeping.
  double phase_seconds = 0.0;
  /// Rows of the table consumed so far (estimated under cancellation).
  size_t rows_consumed = 0;
  size_t views_active = 0;
  /// Views retired by the online pruner so far (cumulative).
  size_t views_pruned = 0;
  /// Hoeffding half-width eps(m) after this many boundaries under the run's
  /// delta / utility_range; infinite when delta <= 0.
  double ci_half_width = 0.0;
  /// Surviving views' running utilities, when estimate collection was
  /// requested (or needed by the pruner / early-stop policy) and the
  /// boundary estimates were computable.
  bool has_estimates = false;
  std::vector<ViewEstimate> estimates;
  /// This boundary triggered early stop (the run is now done).
  bool early_stopped = false;
  /// The cancel token cut this phase short (the run is now done).
  bool cancelled = false;
};

/// \brief A kPhasedSharedScan plan execution advanced one phase at a time —
/// the machinery behind both blocking ExecutePlan() and the streaming
/// RecommendationSession (core/session.h).
///
/// Usage:
///   SEEDB_ASSIGN_OR_RETURN(auto run, PhasedPlanExecution::Begin(...));
///   while (!run.done()) { auto snap = run.Step(true); ... }
///   auto results = run.Finish(&report);
///
/// Not thread-safe, with one exception: the ExecutorOptions::cancel token
/// may be flipped from another thread while Step() runs; the in-flight
/// phase then returns within one morsel granule.
class PhasedPlanExecution {
 public:
  static Result<PhasedPlanExecution> Begin(db::Engine* engine,
                                           const ExecutionPlan& plan,
                                           DistanceMetric metric,
                                           const ExecutorOptions& options);

  size_t total_phases() const { return total_phases_; }
  size_t phases_run() const { return phase_seconds_.size(); }
  /// True when every phase ran, early stop fired, or the run was cancelled;
  /// Step() must not be called once done.
  bool done() const;
  bool early_stopped() const { return early_stopped_; }
  bool cancelled() const { return cancelled_; }
  size_t rows_consumed() const;
  size_t num_rows() const;

  /// Runs the next phase and its boundary bookkeeping: prune (when a pruner
  /// is engaged and phases remain), collect estimates (when requested or
  /// needed), and evaluate the early-stop policy. `collect_estimates` asks
  /// for the surviving views' running utilities in the snapshot even when
  /// no pruner needs them — the streaming session's provisional top-k.
  Result<PhaseSnapshot> Step(bool collect_estimates);

  /// Stops the run here: remaining phases are skipped and Finish()
  /// materializes results from the rows seen so far.
  void StopEarly() { early_stopped_ = true; }

  /// Re-opens a cancelled run instead of discarding it: the cut-short
  /// phase's missed morsels are scanned now (exactly — every row of that
  /// phase ends up covered once), after which Step() continues from the
  /// next phase. The caller must reset the cancel token before calling; a
  /// token still reading true cancels the resume again (cancelled() stays
  /// true, and another Resume() may follow). Errors when the run was not
  /// cancelled or already finished.
  Status Resume();

  /// Merged aggregation-state footprint of the underlying scan so far, in
  /// bytes — what a per-session memory budget meters.
  size_t agg_state_bytes() const;

  /// Terminal: closes the scan (offering its state to the result cache and
  /// feeding the registry totals) and scores every surviving view from the
  /// merged state with the run's metric. After early stop or cancellation
  /// the utilities are estimates over the rows consumed.
  /// `report` (optional) receives the full latency/pruning breakdown.
  Result<std::vector<ViewResult>> Finish(ExecutionReport* report = nullptr);

  /// Views retired so far, with their partial utility estimates.
  const std::vector<OnlinePrunedView>& online_pruned() const {
    return online_pruned_;
  }

 private:
  PhasedPlanExecution(const ExecutionPlan* plan, DistanceMetric metric,
                      ExecutorOptions options, db::SharedScanSession session);

  /// Result-cache warm start: looks up each plan view's utility prior under
  /// `table_version` and, when EVERY view has one (a partial prior set would
  /// give cold views tight intervals around 0 and mis-prune them), rebuilds
  /// the pruner with those estimates and the smallest prior weight found.
  /// Always remembers the cache so Finish() can publish this run's final
  /// utilities back. Called by Begin() when the engine cache is enabled.
  void SeedUtilityPriors(db::PartialAggCache* cache, uint64_t table_version);

  /// The surviving views' utilities over the rows seen so far, into
  /// utilities_; the first failing view's error otherwise.
  Status EstimateSurvivors();
  /// Scores view v from the merged state, laying its bins out in `pair`
  /// (boxing the keys only when `with_keys`).
  Result<double> ScoreView(size_t v, bool with_keys, AlignedPair* pair);
  /// The merged state of (query, set) pair p as of the current scoring pass.
  Result<const db::MergedSet*> ReadPair(size_t p);
  Status RetireUnreadAggregates(size_t v);
  bool EvaluateEarlyStop(const std::vector<ViewEstimate>& estimates,
                         double eps);

  const ExecutionPlan* plan_;
  DistanceMetric metric_;
  ExecutorOptions options_;
  db::SharedScanSession session_;

  /// One aggregate of one grouping set of one planned query.
  struct AggRef {
    size_t query;
    size_t set;
    size_t aggregate;
  };
  /// One half of a view: the aggregate it reads, its function, and the
  /// (query, grouping set) pair holding it as an index into pairs_.
  struct HalfRef {
    size_t pair = SIZE_MAX;
    size_t aggregate = 0;
    db::AggregateFunction func = db::AggregateFunction::kCount;
  };
  struct ViewHalves {
    HalfRef target;
    HalfRef comparison;
  };
  /// Dense view index across the plan plus the wiring from each view to the
  /// aggregates its target and comparison halves read, resolved once from
  /// the ViewSlots' result_index and column names.
  std::vector<ViewDescriptor> views_;
  std::vector<std::vector<AggRef>> aggs_of_view_;
  std::vector<ViewHalves> halves_;
  /// (query, grouping set) of each pair index, in plan order.
  std::vector<std::pair<size_t, size_t>> pairs_;
  /// live_views_[q][s][j]: live views reading aggregate j of set s of
  /// query q. The scan retires the triple when it drops to 0.
  std::vector<std::vector<std::vector<size_t>>> live_views_;

  /// Each pair's merged state as last read, and the scoring pass it was
  /// read in: a pass reads each pair once, however many views it holds.
  std::vector<db::MergedSet> merged_;
  std::vector<size_t> merged_pass_;
  size_t scoring_pass_ = 0;
  /// Boundary buffers, reused across views and boundaries: the last view's
  /// bins, and every view's utility at the last boundary.
  AlignedPair scratch_;
  std::vector<double> utilities_;

  OnlinePruningState pruner_;
  size_t total_phases_ = 1;
  std::vector<double> phase_seconds_;
  std::vector<OnlinePrunedView> online_pruned_;
  size_t queries_deactivated_ = 0;
  bool early_stopped_ = false;
  bool cancelled_ = false;
  bool finished_ = false;

  /// Boundaries this run has observed — drives the displayed Hoeffding
  /// half-width (the pruner keeps its own count, which only advances when
  /// pruning is engaged).
  size_t boundaries_observed_ = 0;
  /// Early-stop bookkeeping: the previous boundary's ordered top-k and how
  /// many consecutive boundaries produced it.
  std::vector<std::string> last_top_ids_;
  size_t stable_streak_ = 0;

  /// Utility-prior side channel of the engine's result cache; null while the
  /// cache is disabled. Finish() publishes full un-cancelled runs' final
  /// utilities here under prior_key_prefix_ + view id.
  db::PartialAggCache* prior_cache_ = nullptr;
  std::string prior_key_prefix_;
};

/// Resolves OnlinePruningOptions::utility_range <= 0 ("auto-calibrate"):
/// the largest MetricUtilityRange(metric, group_count) across `plan`'s
/// views, with each view's group count taken from catalog statistics of the
/// plan's table (dimension distinct count, +1 when the column holds nulls).
/// Exposed for tests and benches; PhasedPlanExecution::Begin applies it.
Result<double> AutoUtilityRange(db::Engine* engine, const ExecutionPlan& plan,
                                DistanceMetric metric);

/// Executes `plan` against `engine` and scores every view with `metric`.
/// On success `report` (optional) carries the latency breakdown. Under
/// kPhasedSharedScan with a pruner configured, views retired mid-flight are
/// absent from the result (that is the point — their queries stop running);
/// every other configuration returns one ViewResult per plan view, except
/// that a cancelled run returns only the views completed so far.
Result<std::vector<ViewResult>> ExecutePlan(db::Engine* engine,
                                            const ExecutionPlan& plan,
                                            DistanceMetric metric,
                                            const ExecutorOptions& options,
                                            ExecutionReport* report = nullptr);

}  // namespace seedb::core

#endif  // SEEDB_CORE_EXECUTOR_H_
