// The View Processor module (§3.1): turns optimized-query results back into
// per-view distributions and utilities.
//
// "Results of the optimized queries are processed by the View Processor in a
// streaming fashion to produce results for individual views. Individual view
// results are then normalized and the utility of each view is computed."
//
// It serves the per-query strategy, whose queries return tables. The fused
// (phased) executor builds no tables: it scores views straight from the
// scan's merged aggregate state (core/executor.h), in the same steps and
// order as here, and the tests hold the two to bit-identical results.

#ifndef SEEDB_CORE_VIEW_PROCESSOR_H_
#define SEEDB_CORE_VIEW_PROCESSOR_H_

#include <unordered_map>
#include <vector>

#include "core/distribution.h"
#include "core/metrics.h"
#include "core/optimizer.h"
#include "core/view.h"
#include "db/table.h"
#include "util/result.h"

namespace seedb::core {

/// \brief A fully processed view: aligned distributions plus utility.
struct ViewResult {
  ViewDescriptor view;
  AlignedPair distributions;
  double utility = 0.0;
};

/// \brief Accumulates executed planned queries and assembles ViewResults.
///
/// Feed each PlannedQuery and its engine result sets with Consume();
/// Finish() pairs up target/comparison halves (a combined query provides
/// both; split plans provide them in two queries), normalizes, and scores
/// with `metric`. Consume() is not thread-safe; callers running the plan in
/// parallel serialize consumption (the executor does).
class ViewProcessor {
 public:
  explicit ViewProcessor(DistanceMetric metric) : metric_(metric) {}

  /// Ingests the result sets of one executed planned query (takes
  /// ownership of the tables).
  Status Consume(const PlannedQuery& planned,
                 std::vector<db::Table> result_sets);

  /// Completes processing; fails if any view is missing a half. With
  /// `allow_partial`, views missing a half are silently dropped instead —
  /// what a cancelled execution wants (one of the view's queries never ran).
  Result<std::vector<ViewResult>> Finish(bool allow_partial = false);

 private:
  struct Half {
    const db::Table* table = nullptr;
    size_t value_col = 0;
  };
  struct PendingView {
    ViewDescriptor view;
    Half target;
    Half comparison;
    /// Set when a combined query produced both halves in one table.
    const db::Table* combined = nullptr;
    std::string combined_target_col;
    std::string combined_comparison_col;
  };

  DistanceMetric metric_;
  /// Owned copies of every consumed result set (tables are moved in).
  std::vector<std::unique_ptr<db::Table>> owned_tables_;
  std::unordered_map<ViewDescriptor, PendingView, ViewDescriptorHash> pending_;
  /// First-seen order for deterministic output.
  std::vector<ViewDescriptor> order_;
};

}  // namespace seedb::core

#endif  // SEEDB_CORE_VIEW_PROCESSOR_H_
