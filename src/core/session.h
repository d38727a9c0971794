// Streaming session API: progressive recommendations, cancellation, and
// early stop — the incremental face of the SeeDB pipeline.
//
// The blocking SeeDB::Recommend() answers one request in one shot; the
// paper's interactive frontend (Fig. 1, §3.3) instead wants partial top-k
// results while the scan runs, a way to abandon a long scan, and the list
// of views the optimizer gave up on. This module provides that:
//
//   * SeeDBRequest — builder-style request (table, selection, metric, k,
//     strategy, pruning, sampling), the primary entry point; the flat
//     SeeDBOptions struct survives as its payload and the old Recommend()
//     overloads as thin wrappers.
//   * RecommendationSession — runs the phased shared scan under caller
//     control: every Next() executes one phase and yields a ProgressUpdate
//     (provisional top-k with CI bounds, phase wall time, views pruned so
//     far, rows scanned). Cancel() is observed at morsel boundaries;
//     early-stop ends the scan once the top-k is CI-stable (§3.3 endgame);
//     Finish() assembles the final RecommendationSet, which carries the
//     online-pruned views with their partial utility estimates.
//
// One Engine serves many concurrent sessions: all per-request state lives
// in the session object.

#ifndef SEEDB_CORE_SESSION_H_
#define SEEDB_CORE_SESSION_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/seedb.h"
#include "util/timer.h"

namespace seedb::core {

/// \brief Builder-style request: what to recommend and how to execute.
///
/// Wraps a table, an analyst selection, and a SeeDBOptions payload behind
/// fluent setters, so call sites read as the request they make:
///
///   SeeDBRequest("sales")
///       .Where(db::Eq("product", db::Value("Laserwave")))
///       .WithTopK(3)
///       .WithStrategy(ExecutionStrategy::kPhasedSharedScan)
///       .WithPhases(10)
///       .WithOnlinePruner(OnlinePruner::kConfidenceInterval);
class SeeDBRequest {
 public:
  explicit SeeDBRequest(std::string table) : table_(std::move(table)) {}

  /// Parses the analyst query from SQL text, e.g.
  /// "SELECT * FROM sales WHERE product = 'Laserwave'".
  static Result<SeeDBRequest> FromSql(const std::string& input_query);

  SeeDBRequest& Where(db::PredicatePtr selection) {
    selection_ = std::move(selection);
    return *this;
  }
  SeeDBRequest& WithTopK(size_t k) {
    options_.k = k;
    return *this;
  }
  /// Also return this many lowest-utility views. Under online pruning they
  /// rank survivors only (ExecutionProfile::examined_view_count says how
  /// many views that is).
  SeeDBRequest& WithBottomK(size_t bottom_k) {
    options_.bottom_k = bottom_k;
    return *this;
  }
  SeeDBRequest& WithMetric(DistanceMetric metric) {
    options_.metric = metric;
    return *this;
  }
  SeeDBRequest& WithStrategy(ExecutionStrategy strategy) {
    options_.strategy = strategy;
    return *this;
  }
  SeeDBRequest& WithParallelism(size_t parallelism) {
    options_.parallelism = parallelism;
    return *this;
  }
  /// Phase count for kPhasedSharedScan (implied by WithPhases > 1).
  SeeDBRequest& WithPhases(size_t num_phases) {
    options_.online_pruning.num_phases = num_phases;
    options_.strategy = ExecutionStrategy::kPhasedSharedScan;
    return *this;
  }
  /// Mid-scan pruner; implies the phased strategy when not kNone.
  SeeDBRequest& WithOnlinePruner(OnlinePruner pruner) {
    options_.online_pruning.pruner = pruner;
    if (pruner != OnlinePruner::kNone) {
      options_.strategy = ExecutionStrategy::kPhasedSharedScan;
    }
    return *this;
  }
  SeeDBRequest& WithOnlinePruning(const OnlinePruningOptions& opts) {
    options_.online_pruning = opts;
    // Any phased-only knob implies the phased strategy, like WithPhases().
    if (opts.pruner != OnlinePruner::kNone ||
        opts.early_stop_stable_phases > 0 || opts.num_phases > 1) {
      options_.strategy = ExecutionStrategy::kPhasedSharedScan;
    }
    return *this;
  }
  /// Early-stop sampling: end the scan once the provisional top-k has been
  /// identical and CI-separated for `stable_phases` consecutive boundaries
  /// (see OnlinePruningOptions::early_stop_stable_phases). Implies the
  /// phased strategy.
  SeeDBRequest& WithEarlyStop(size_t stable_phases = 2) {
    options_.online_pruning.early_stop_stable_phases = stable_phases;
    options_.strategy = ExecutionStrategy::kPhasedSharedScan;
    return *this;
  }
  SeeDBRequest& WithViewSpace(const ViewSpaceOptions& view_space) {
    options_.view_space = view_space;
    return *this;
  }
  SeeDBRequest& WithStaticPruning(const PruningOptions& pruning) {
    options_.pruning = pruning;
    return *this;
  }
  SeeDBRequest& WithOptimizer(const OptimizerOptions& optimizer) {
    options_.optimizer = optimizer;
    return *this;
  }
  SeeDBRequest& WithSampling(SamplingStrategy sampling,
                             size_t sample_rows = 100000,
                             uint64_t sample_seed = 0) {
    options_.sampling = sampling;
    options_.sample_rows = sample_rows;
    options_.sample_seed = sample_seed;
    return *this;
  }
  /// Per-session cap on the run's aggregation-state footprint (bytes):
  /// the fused scan's merged state, metered at phase boundaries, or the
  /// cumulative per-query result state under kPerQuery; see
  /// SeeDBOptions::memory_budget_bytes. 0 = unlimited.
  SeeDBRequest& WithMemoryBudget(size_t budget_bytes) {
    options_.memory_budget_bytes = budget_bytes;
    return *this;
  }
  /// Mark this session's spans recordable by an active obs::TraceRecorder
  /// even when the recorder was not started with trace_all_sessions (see
  /// SeeDBOptions::trace). Wire sessions set this via OpenSpec.trace.
  SeeDBRequest& WithTrace(bool trace = true) {
    options_.trace = trace;
    return *this;
  }
  /// Wholesale replacement of the payload — the migration path for call
  /// sites that already hold a SeeDBOptions.
  SeeDBRequest& WithOptions(const SeeDBOptions& options) {
    options_ = options;
    return *this;
  }

  const std::string& table() const { return table_; }
  const db::PredicatePtr& selection() const { return selection_; }
  const SeeDBOptions& options() const { return options_; }

 private:
  std::string table_;
  db::PredicatePtr selection_;
  SeeDBOptions options_;
};

/// One provisionally ranked view inside a ProgressUpdate.
struct ProvisionalView {
  ViewDescriptor view;
  /// Utility estimate over the rows scanned so far (exact once the scan has
  /// consumed the whole table).
  double utility = 0.0;
  /// Hoeffding confidence bounds (utility -/+ eps(m)); +/-infinity when the
  /// interval is undefined (delta <= 0). kPerQuery yields one final, exact
  /// ranking, so its bounds are zero-width (lower = upper = utility); a
  /// one-phase fused run carries its one boundary's eps like any phase.
  double lower = 0.0;
  double upper = 0.0;
};

/// \brief What a RecommendationSession yields after every phase.
struct ProgressUpdate {
  /// 1-based phase just completed, of total_phases requested.
  size_t phase = 0;
  size_t total_phases = 0;
  /// Wall time of this phase, including boundary estimate/prune work.
  double phase_seconds = 0.0;
  /// Rows of the table consumed so far (estimated after cancellation).
  uint64_t rows_scanned = 0;
  uint64_t total_rows = 0;
  /// Views still in contention / retired by the online pruner so far.
  size_t views_active = 0;
  size_t views_pruned_online = 0;
  /// The Hoeffding half-width behind the provisional bounds.
  double ci_half_width = 0.0;
  /// Merged aggregation-state footprint of the scan after this phase, in
  /// bytes — what SeeDBOptions::memory_budget_bytes meters (0 under
  /// kPerQuery, whose footprint is only known at the end).
  uint64_t memory_bytes = 0;
  /// Provisional top-k, utility descending. Empty when this boundary's
  /// estimates were not computable (e.g. no row matched the selection yet).
  std::vector<ProvisionalView> top_views;
  /// This boundary triggered early stop; the session is done.
  bool early_stopped = false;
  /// The session was cancelled during this phase; the session is done
  /// (unless Resume() re-opens it).
  bool cancelled = false;
};

/// Push-style consumer of ProgressUpdates — the event-driven alternative to
/// polling Next(). Invoked on the thread driving the session, once per
/// completed phase, before that phase's update is returned (and for the
/// phases Finish() runs when draining a session with a sink attached, which
/// would otherwise complete silently). Must not call back into the session.
using ProgressSink = std::function<void(const ProgressUpdate&)>;

/// \brief A streaming recommendation run: phases under caller control.
///
/// Created by SeeDB::Open(). Drive it with Next() until it returns nullopt
/// (or until done()), then collect the final RecommendationSet with
/// Finish(). Finish() may also be called at any earlier point: it runs any
/// remaining phases without yielding updates — unless the session was
/// cancelled, in which case it assembles partial results immediately.
///
/// Thread-compatibility: one thread drives Next()/Finish(); Cancel() may be
/// called from any thread at any time and is observed at morsel boundaries
/// inside the in-flight phase. Distinct sessions over one Engine are safe
/// to run concurrently.
class RecommendationSession {
 public:
  RecommendationSession(RecommendationSession&&) noexcept = default;
  RecommendationSession& operator=(RecommendationSession&&) noexcept = default;

  /// Executes the next phase and reports it; nullopt once all phases ran
  /// (or the session was cancelled / early-stopped before this call).
  /// kPerQuery executes in full on the first call and yields a single
  /// update carrying the final ranking.
  Result<std::optional<ProgressUpdate>> Next();

  /// Requests cooperative cancellation. An in-flight phase stops within one
  /// morsel granule; Finish() then returns partial results over the rows
  /// scanned so far — or Resume() re-opens the session. Safe from any
  /// thread; idempotent.
  void Cancel() { cancel_->store(true, std::memory_order_relaxed); }

  /// Re-opens a cancelled session instead of discarding it: the cancel
  /// token is reset, the cut-short phase's missed morsels are scanned now
  /// (keeping the merged cross-phase aggregates — every row ends up covered
  /// exactly once), and Next() continues from the next phase; the final
  /// top-k equals an uninterrupted run's. Every fused run is resumable, a
  /// one-phase one included. kPerQuery executes in one shot, so a cancelled
  /// run's work is gone (error), except that a session cancelled before its
  /// first Next() just re-arms. Errors when the session is not cancelled or
  /// already finished.
  Status Resume();

  /// Attaches a push-style consumer: every ProgressUpdate this session
  /// produces is passed to `sink` as soon as the phase completes —
  /// including the phases a Finish() drain runs, which are silent without a
  /// sink. Pass nullptr to detach.
  void SetProgressSink(ProgressSink sink) { sink_ = std::move(sink); }

  /// No more phases will run: every phase completed, or the session was
  /// cancelled, early-stopped, or stopped by its memory budget.
  bool done() const;
  bool cancelled() const {
    return cancel_->load(std::memory_order_relaxed) || observed_cancel_;
  }
  /// A phase pushed the aggregation-state footprint past
  /// SeeDBOptions::memory_budget_bytes; the session stopped there and
  /// Finish() assembles partial results.
  bool budget_exceeded() const { return budget_exceeded_; }

  /// Phases actually executed so far — keeps counting when Finish() runs
  /// the remaining phases silently (1 after a completed per-query run).
  size_t phases_run() const;

  /// Merged aggregation-state footprint of the scan so far, in bytes (0
  /// under kPerQuery, which does not surface per-run footprints) — what the
  /// memory budget meters.
  uint64_t memory_bytes() const;

  /// Terminal call: completes any remaining work (silently, no updates) and
  /// assembles the final RecommendationSet — ranked survivors, bottom-k
  /// over survivors, statically pruned views, online-pruned views with
  /// their partial estimates, and the cost profile.
  Result<RecommendationSet> Finish();

 private:
  friend class SeeDB;
  RecommendationSession() = default;

  ExecutorOptions ExecOptions() const;
  Result<std::optional<ProgressUpdate>> NextPhased();
  Result<std::optional<ProgressUpdate>> NextBlocking();
  /// OutOfRange when the scan's footprint exceeds the session budget.
  Status CheckBudget();

  db::Engine* engine_ = nullptr;
  std::string table_;
  db::PredicatePtr selection_;
  SeeDBOptions options_;
  /// Process-unique id stamped at Open(); the `session` arg on this
  /// session's obs trace spans.
  uint64_t trace_id_ = 0;

  // Planning products, fixed at Open() time.
  PruningReport static_pruning_;
  std::unique_ptr<ExecutionPlan> plan_;
  double planning_seconds_ = 0.0;
  /// Rows of the table the plan scans (the sample when materialized
  /// sampling redirected it).
  size_t total_rows_ = 0;
  Stopwatch total_timer_;

  // Execution state. phased_ is engaged for kPhasedSharedScan; kPerQuery
  // executes blocking inside the first Next().
  std::unique_ptr<PhasedPlanExecution> phased_;
  ExecutionReport report_;
  /// Results of a completed blocking (kPerQuery) execution.
  std::optional<std::vector<ViewResult>> blocking_results_;
  bool executed_ = false;
  bool finished_ = false;

  /// Shared with the scan so Cancel() stays valid across session moves.
  std::shared_ptr<std::atomic<bool>> cancel_ =
      std::make_shared<std::atomic<bool>>(false);
  bool observed_cancel_ = false;
  bool budget_exceeded_ = false;
  ProgressSink sink_;
};

}  // namespace seedb::core

#endif  // SEEDB_CORE_SESSION_H_
