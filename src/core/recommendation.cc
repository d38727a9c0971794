#include "core/recommendation.h"

#include "util/string_util.h"

namespace seedb::core {

std::string ExecutionProfile::ToString() const {
  std::string s = StringPrintf(
      "views: %zu enumerated, %zu pruned, %zu executed | queries: %zu "
      "(%zu scans, %llu rows) | time: plan %.3fms + exec %.3fms = %.3fms",
      views_enumerated, views_pruned, views_executed, queries_issued,
      table_scans, static_cast<unsigned long long>(scan.rows_scanned),
      planning_seconds * 1e3, execution_seconds * 1e3, total_seconds * 1e3);
  if (phases_executed > 0) {
    s += StringPrintf(" | phases: %zu, %zu views pruned online, %zu examined",
                      phases_executed, views_pruned_online,
                      examined_view_count);
  }
  if (scan.vectorized_morsels > 0) {
    s += StringPrintf(" | vectorized morsels: %zu (simd: %zu)",
                      scan.vectorized_morsels, scan.simd_morsels);
  }
  if (scan.cache_hits + scan.cache_misses > 0) {
    s += StringPrintf(" | result cache: %zu hits, %zu misses",
                      scan.cache_hits, scan.cache_misses);
  }
  if (early_stopped) s += " | early-stopped (CI-stable top-k)";
  if (cancelled) s += " | CANCELLED (partial results)";
  if (budget_exceeded) s += " | MEMORY BUDGET EXCEEDED (partial results)";
  return s;
}

}  // namespace seedb::core
