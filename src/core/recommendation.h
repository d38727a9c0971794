// Recommendation results returned by the SeeDB facade.

#ifndef SEEDB_CORE_RECOMMENDATION_H_
#define SEEDB_CORE_RECOMMENDATION_H_

#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/online_pruning.h"
#include "core/pruning.h"
#include "core/view_processor.h"
#include "db/shared_scan.h"

namespace seedb::core {

/// \brief One recommended view with everything the frontend displays.
struct Recommendation {
  /// 1-based rank among the recommendations.
  size_t rank = 0;
  ViewResult result;
  /// The SQL SeeDB would issue for each form of this view's queries.
  std::string target_sql;
  std::string comparison_sql;
  std::string combined_sql;

  const ViewDescriptor& view() const { return result.view; }
  double utility() const { return result.utility; }
};

/// \brief Cost observables of one Recommend() call.
struct ExecutionProfile {
  size_t views_enumerated = 0;
  /// Dropped before execution by static view-space pruning (core/pruning.h).
  size_t views_pruned = 0;
  size_t views_executed = 0;
  /// Retired mid-scan by the phased executor's online pruner (CI / MAB).
  size_t views_pruned_online = 0;
  /// Views that ran to the end of execution and were actually ranked —
  /// views_executed minus the online-pruned (and, after cancellation, minus
  /// views whose queries never completed). Top-k AND bottom-k rank these
  /// survivors only: online pruning discards exactly the low-utility views,
  /// so a pruned run's low_utility_views are the worst *examined* views,
  /// not the worst candidates.
  size_t examined_view_count = 0;
  /// Phases the fused scan ran (0 under per-query execution).
  size_t phases_executed = 0;
  /// This run's own engine work (ExecutionReport): the planned queries
  /// and table passes it issued, and the scan's per-run record — rows,
  /// vectorized / SIMD morsels, result-cache hits and misses.
  size_t queries_issued = 0;
  size_t table_scans = 0;
  db::SharedScanStats scan;
  /// The scan stopped before the last requested phase because the top-k was
  /// CI-stable; utilities are estimates over the rows seen.
  bool early_stopped = false;
  /// The run was cancelled mid-flight; results cover the rows seen so far.
  bool cancelled = false;
  /// The session's memory budget (SeeDBOptions::memory_budget_bytes) was
  /// exceeded mid-scan; results cover the rows seen so far.
  bool budget_exceeded = false;

  double planning_seconds = 0.0;
  double execution_seconds = 0.0;
  double total_seconds = 0.0;

  std::string ToString() const;
};

/// \brief Everything Recommend() returns: ranked views, optional "bad views"
/// for contrast (§4 Scenario 1), pruning details, and the cost profile.
struct RecommendationSet {
  std::vector<Recommendation> top_views;
  /// Lowest-utility views, ascending (empty unless requested). Ranks only
  /// the views examined to completion — see
  /// ExecutionProfile::examined_view_count.
  std::vector<Recommendation> low_utility_views;
  /// Dropped before execution by static view-space pruning.
  std::vector<PrunedView> pruned_views;
  /// Retired mid-scan by the online pruner, each with the partial utility
  /// estimate it carried at retirement — the frontend's "views not
  /// examined" display.
  std::vector<OnlinePrunedView> online_pruned_views;
  DistanceMetric metric = DistanceMetric::kEarthMovers;
  ExecutionProfile profile;
};

}  // namespace seedb::core

#endif  // SEEDB_CORE_RECOMMENDATION_H_
