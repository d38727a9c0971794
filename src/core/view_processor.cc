#include "core/view_processor.h"

namespace seedb::core {

Status ViewProcessor::Consume(const PlannedQuery& planned,
                              std::vector<db::Table> result_sets) {
  if (result_sets.size() != planned.query.grouping_sets.size()) {
    return Status::Internal("result set count does not match grouping sets");
  }
  // Take ownership so slot pointers stay valid until Finish().
  std::vector<const db::Table*> tables;
  tables.reserve(result_sets.size());
  for (auto& t : result_sets) {
    owned_tables_.push_back(std::make_unique<db::Table>(std::move(t)));
    tables.push_back(owned_tables_.back().get());
  }

  for (const ViewSlot& slot : planned.slots) {
    if (slot.result_index >= tables.size()) {
      return Status::Internal("slot result index out of range");
    }
    const db::Table* table = tables[slot.result_index];
    auto [it, inserted] = pending_.emplace(slot.view, PendingView{});
    PendingView& pv = it->second;
    if (inserted) {
      pv.view = slot.view;
      order_.push_back(slot.view);
    }

    if (planned.half == QueryHalf::kCombined) {
      pv.combined = table;
      pv.combined_target_col = slot.target_column;
      pv.combined_comparison_col = slot.comparison_column;
      continue;
    }
    if (planned.half == QueryHalf::kTargetOnly) {
      SEEDB_ASSIGN_OR_RETURN(size_t col,
                             table->schema().FindColumn(slot.target_column));
      pv.target = {table, col};
    } else {
      SEEDB_ASSIGN_OR_RETURN(
          size_t col, table->schema().FindColumn(slot.comparison_column));
      pv.comparison = {table, col};
    }
  }
  return Status::OK();
}

Result<std::vector<ViewResult>> ViewProcessor::Finish(bool allow_partial) {
  std::vector<ViewResult> results;
  results.reserve(order_.size());
  for (const ViewDescriptor& view : order_) {
    const PendingView& pv = pending_.at(view);
    ViewResult vr;
    vr.view = view;
    if (pv.combined != nullptr) {
      Result<AlignedPair> aligned =
          AlignFromCombined(*pv.combined, pv.combined_target_col,
                            pv.combined_comparison_col);
      if (!aligned.ok()) {
        if (allow_partial) continue;
        return aligned.status();
      }
      vr.distributions = std::move(*aligned);
    } else {
      if (pv.target.table == nullptr || pv.comparison.table == nullptr) {
        if (allow_partial) continue;
        return Status::Internal("view '" + view.Id() +
                                "' is missing a target or comparison half");
      }
      Result<AlignedPair> aligned =
          AlignFromTables(*pv.target.table, pv.target.value_col,
                          *pv.comparison.table, pv.comparison.value_col);
      if (!aligned.ok()) {
        if (allow_partial) continue;
        return aligned.status();
      }
      vr.distributions = std::move(*aligned);
    }
    Result<double> utility =
        Distance(vr.distributions.target.probabilities,
                 vr.distributions.comparison.probabilities, metric_);
    if (!utility.ok()) {
      if (allow_partial) continue;
      return utility.status();
    }
    vr.utility = *utility;
    results.push_back(std::move(vr));
  }
  return results;
}

}  // namespace seedb::core
