#include "core/optimizer.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "db/sql/printer.h"
#include "util/string_util.h"

namespace seedb::core {

const char* QueryHalfToString(QueryHalf half) {
  switch (half) {
    case QueryHalf::kCombined:
      return "combined";
    case QueryHalf::kTargetOnly:
      return "target";
    case QueryHalf::kComparisonOnly:
      return "comparison";
  }
  return "?";
}

std::string ExecutionPlan::Describe() const {
  std::string out = StringPrintf("ExecutionPlan: %zu view(s), %zu quer%s\n",
                                 num_views, queries.size(),
                                 queries.size() == 1 ? "y" : "ies");
  for (size_t i = 0; i < queries.size(); ++i) {
    const PlannedQuery& pq = queries[i];
    out += StringPrintf("  [%zu] (%s, %zu slot%s) %s\n", i,
                        QueryHalfToString(pq.half), pq.slots.size(),
                        pq.slots.size() == 1 ? "" : "s",
                        pq.query.ToSql().c_str());
  }
  return out;
}

namespace {

// A (measure, function) pair — the aggregate payload of a view.
struct AggPair {
  std::string measure;
  db::AggregateFunction func;

  bool operator<(const AggPair& o) const {
    if (measure != o.measure) return measure < o.measure;
    return func < o.func;
  }
};

// Dimensions in first-appearance order with their views.
struct DimViews {
  std::string dimension;
  std::vector<ViewDescriptor> views;
};

std::vector<DimViews> GroupViewsByDimension(
    const std::vector<ViewDescriptor>& views) {
  std::vector<DimViews> out;
  std::map<std::string, size_t> index;
  for (const auto& v : views) {
    auto it = index.find(v.dimension);
    if (it == index.end()) {
      index.emplace(v.dimension, out.size());
      out.push_back({v.dimension, {v}});
    } else {
      out[it->second].views.push_back(v);
    }
  }
  return out;
}

uint64_t EstimateGroups(const db::TableStats& stats, const std::string& dim,
                        const OptimizerOptions& options) {
  if (auto cs = stats.Find(dim); cs.ok()) {
    return std::max<uint64_t>(1, (*cs)->distinct_count);
  }
  return options.default_group_estimate;
}

// Builds the aggregate specs for one set of views that will share a query.
// For kCombined each view contributes a FILTER(target) spec and an
// unconditional comparison spec; otherwise one spec for the requested half.
std::vector<db::AggregateSpec> BuildAggregates(
    const std::vector<ViewDescriptor>& views, QueryHalf half,
    db::PredicatePtr selection) {
  // Dedupe (measure, func) pairs: two dimensions in one batch may host the
  // same aggregate payload, which then needs computing only once.
  std::map<AggPair, ViewDescriptor> unique;
  for (const auto& v : views) {
    unique.emplace(AggPair{v.measure, v.func}, v);
  }
  std::vector<db::AggregateSpec> specs;
  for (const auto& [pair, view] : unique) {
    (void)pair;
    switch (half) {
      case QueryHalf::kCombined:
        specs.push_back(db::AggregateSpec::Make(
            view.func, view.measure, TargetColumnName(view), selection));
        specs.push_back(db::AggregateSpec::Make(view.func, view.measure,
                                                ComparisonColumnName(view)));
        break;
      case QueryHalf::kTargetOnly:
        specs.push_back(db::AggregateSpec::Make(view.func, view.measure,
                                                TargetColumnName(view)));
        break;
      case QueryHalf::kComparisonOnly:
        specs.push_back(db::AggregateSpec::Make(view.func, view.measure,
                                                ComparisonColumnName(view)));
        break;
    }
  }
  return specs;
}

// Emits the planned query (or pair of queries when target/comparison are not
// combined) for one batch of dimensions and the views that ride along.
void EmitQueriesForBatch(const std::vector<DimViews>& batch,
                         const std::string& table_name,
                         db::PredicatePtr selection,
                         const OptimizerOptions& options,
                         std::vector<PlannedQuery>* out) {
  std::vector<ViewDescriptor> all_views;
  std::vector<std::vector<std::string>> sets;
  for (const auto& dv : batch) {
    sets.push_back({dv.dimension});
    all_views.insert(all_views.end(), dv.views.begin(), dv.views.end());
  }

  auto make_query = [&](QueryHalf half) {
    PlannedQuery pq;
    pq.half = half;
    pq.query.table = table_name;
    pq.query.grouping_sets = sets;
    pq.query.sample_fraction = options.sample_fraction;
    pq.query.sample_seed = options.sample_seed;
    // The combined form folds the selection into FILTER clauses and scans
    // the whole table; the target-only form pushes it into WHERE.
    if (half == QueryHalf::kTargetOnly) {
      pq.query.where = selection;
    }
    pq.query.aggregates = BuildAggregates(
        all_views, half, half == QueryHalf::kCombined ? selection : nullptr);
    for (size_t s = 0; s < batch.size(); ++s) {
      for (const auto& v : batch[s].views) {
        ViewSlot slot;
        slot.view = v;
        slot.result_index = s;
        if (half != QueryHalf::kComparisonOnly) {
          slot.target_column = TargetColumnName(v);
        }
        if (half != QueryHalf::kTargetOnly) {
          slot.comparison_column = ComparisonColumnName(v);
        }
        pq.slots.push_back(std::move(slot));
      }
    }
    out->push_back(std::move(pq));
  };

  if (options.combine_target_comparison) {
    make_query(QueryHalf::kCombined);
  } else {
    make_query(QueryHalf::kTargetOnly);
    make_query(QueryHalf::kComparisonOnly);
  }
}

// Number of aggregate-state slots one dimension's query carries, for the
// bin-packing weight: aggregates per view x halves per query. The fused
// scan holds one state per distinct (measure, FILTER) pair, not per
// aggregate, so for fused plans this is an upper bound (3x for SUM/AVG/COUNT
// over one measure).
uint64_t AggSlotsPerGroup(const DimViews& dv, const OptimizerOptions& options) {
  uint64_t aggs = static_cast<uint64_t>(dv.views.size());
  return aggs * (options.combine_target_comparison ? 2 : 1);
}

}  // namespace

Result<ExecutionPlan> BuildExecutionPlan(
    const std::vector<ViewDescriptor>& views, const std::string& table_name,
    db::PredicatePtr selection, const db::TableStats& stats,
    const OptimizerOptions& options) {
  if (views.empty()) {
    return Status::InvalidArgument("no views to plan");
  }
  if (options.sample_fraction <= 0.0 || options.sample_fraction > 1.0) {
    return Status::InvalidArgument("sample_fraction outside (0, 1]");
  }
  ExecutionPlan plan;
  plan.num_views = views.size();

  std::vector<DimViews> by_dim = GroupViewsByDimension(views);

  // Without aggregate combining, every (dimension, measure, func) triple gets
  // its own DimViews entry so it plans into its own query (then group-by
  // combining may still merge across dimensions).
  std::vector<DimViews> units;
  if (options.combine_aggregates) {
    units = by_dim;
  } else {
    for (const auto& dv : by_dim) {
      for (const auto& v : dv.views) {
        units.push_back({dv.dimension, {v}});
      }
    }
  }

  if (!options.combine_group_bys) {
    for (const auto& unit : units) {
      EmitQueriesForBatch({unit}, table_name, selection, options,
                          &plan.queries);
    }
    return plan;
  }

  // Bin-pack units by aggregation-state footprint. A GROUPING SETS query
  // applies one aggregate list to every set, so units may share a bin only if
  // sharing payloads is allowed: with aggregate combining on, everything can
  // mix (BuildAggregates computes the deduped payload union); with it off,
  // packing happens within each (measure, func) layer so no query ever
  // carries an aggregate a view did not ask for.
  std::vector<std::vector<size_t>> packing_groups;
  if (options.combine_aggregates) {
    packing_groups.emplace_back(units.size());
    std::iota(packing_groups.back().begin(), packing_groups.back().end(),
              size_t{0});
  } else {
    std::map<AggPair, std::vector<size_t>> layers;
    for (size_t i = 0; i < units.size(); ++i) {
      const ViewDescriptor& v = units[i].views.front();
      layers[AggPair{v.measure, v.func}].push_back(i);
    }
    for (auto& [pair, ids] : layers) {
      (void)pair;
      packing_groups.push_back(std::move(ids));
    }
  }

  BinPackingOptions pack_options;
  pack_options.capacity = options.memory_budget_bytes;
  pack_options.max_items_per_bin = options.max_group_bys_per_query;
  for (const auto& group : packing_groups) {
    std::vector<BinPackingItem> items;
    items.reserve(group.size());
    for (size_t i : group) {
      uint64_t groups = EstimateGroups(stats, units[i].dimension, options);
      uint64_t weight = groups * AggSlotsPerGroup(units[i], options) *
                        sizeof(db::AggState);
      items.push_back({i, weight});
    }
    BinPackingSolution solution = PackBins(items, pack_options);
    for (const auto& bin : solution.bins) {
      std::vector<DimViews> batch;
      batch.reserve(bin.size());
      for (size_t id : bin) batch.push_back(units[id]);
      EmitQueriesForBatch(batch, table_name, selection, options,
                          &plan.queries);
    }
  }
  return plan;
}

}  // namespace seedb::core
