#include "db/group_by.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "util/random.h"
#include "util/string_util.h"

namespace seedb::db {

std::string GroupByQuery::ToSql() const {
  std::string out = "SELECT ";
  std::vector<std::string> items = group_by;
  for (const auto& agg : aggregates) items.push_back(agg.ToSql());
  out += Join(items, ", ");
  out += " FROM " + table;
  if (sample_fraction < 1.0) {
    out += StringPrintf(" TABLESAMPLE BERNOULLI (%s)",
                        FormatDouble(sample_fraction * 100.0, 4).c_str());
  }
  if (where) {
    out += " WHERE " + where->ToSql();
  }
  if (!group_by.empty()) {
    out += " GROUP BY " + Join(group_by, ", ");
  }
  return out;
}

namespace internal {

std::vector<uint8_t> BernoulliScanMask(size_t num_rows, double fraction,
                                       uint64_t seed) {
  std::vector<uint8_t> mask(num_rows, 1);
  if (fraction >= 1.0) return mask;
  Random rng(seed);
  for (size_t i = 0; i < num_rows; ++i) {
    mask[i] = rng.Bernoulli(fraction) ? 1 : 0;
  }
  return mask;
}

Status ValidateAggregates(const Table& table,
                          const std::vector<AggregateSpec>& aggregates) {
  if (aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  for (const auto& agg : aggregates) {
    if (agg.input.empty()) {
      if (agg.func != AggregateFunction::kCount) {
        return Status::InvalidArgument(
            std::string(AggregateFunctionToSql(agg.func)) +
            " requires an input column");
      }
    } else {
      SEEDB_ASSIGN_OR_RETURN(const Column* col,
                             table.ColumnByName(agg.input));
      if (col->type() == ValueType::kString &&
          agg.func != AggregateFunction::kCount) {
        return Status::InvalidArgument("aggregate input '" + agg.input +
                                       "' must be numeric");
      }
    }
    if (agg.filter) {
      SEEDB_RETURN_IF_ERROR(agg.filter->Validate(table.schema()));
    }
  }
  return Status::OK();
}

namespace {

// Null sentinel distinct from any dictionary code.
constexpr int64_t kNullKeyPart = std::numeric_limits<int64_t>::min() + 1;

}  // namespace

int64_t PackKeyPart(const Column& col, size_t row) {
  if (col.IsNull(row)) return kNullKeyPart;
  switch (col.type()) {
    case ValueType::kInt64:
      return col.int64_data()[row];
    case ValueType::kDouble:
      return std::bit_cast<int64_t>(col.double_data()[row]);
    case ValueType::kString:
      return col.codes()[row];
    case ValueType::kNull:
      return kNullKeyPart;
  }
  return kNullKeyPart;
}

Result<GroupKeyBuilder> GroupKeyBuilder::Create(
    const Table& table, const std::vector<std::string>& columns,
    const std::vector<uint8_t>& mask) {
  GroupKeyBuilder b;
  for (const auto& name : columns) {
    SEEDB_ASSIGN_OR_RETURN(size_t idx, table.schema().FindColumn(name));
    b.col_indices_.push_back(idx);
  }
  const size_t n = table.num_rows();
  b.row_group_ids_.assign(n, -1);

  if (columns.empty()) {
    // Global aggregate: all selected rows form group 0.
    b.num_groups_ = 1;
    b.representative_row_.push_back(0);
    for (size_t i = 0; i < n; ++i) {
      if (mask[i]) b.row_group_ids_[i] = 0;
    }
    return b;
  }

  if (columns.size() == 1 &&
      table.column(b.col_indices_[0]).type() == ValueType::kString) {
    // Dense path: dictionary code -> group id (slot dict_size() = null).
    const Column& col = table.column(b.col_indices_[0]);
    std::vector<int32_t> code_to_group(col.dict_size() + 1, -1);
    const auto& codes = col.codes();
    for (size_t i = 0; i < n; ++i) {
      if (!mask[i]) continue;
      size_t slot = col.IsNull(i) ? col.dict_size()
                                  : static_cast<size_t>(codes[i]);
      int32_t gid = code_to_group[slot];
      if (gid < 0) {
        gid = b.num_groups_++;
        code_to_group[slot] = gid;
        b.representative_row_.push_back(static_cast<uint32_t>(i));
      }
      b.row_group_ids_[i] = gid;
    }
    return b;
  }

  // Generic path: hash map over packed key tuples.
  std::unordered_map<std::vector<int64_t>, int32_t, PackedKeyHash> groups;
  std::vector<int64_t> key(b.col_indices_.size());
  for (size_t i = 0; i < n; ++i) {
    if (!mask[i]) continue;
    for (size_t c = 0; c < b.col_indices_.size(); ++c) {
      key[c] = PackKeyPart(table.column(b.col_indices_[c]), i);
    }
    auto [it, inserted] = groups.emplace(key, b.num_groups_);
    if (inserted) {
      ++b.num_groups_;
      b.representative_row_.push_back(static_cast<uint32_t>(i));
    }
    b.row_group_ids_[i] = it->second;
  }
  return b;
}

int CompareCells(const Column& col, uint32_t a, uint32_t b) {
  const bool null_a = col.IsNull(a);
  const bool null_b = col.IsNull(b);
  if (null_a || null_b) return static_cast<int>(null_b) - null_a;
  const auto three_way = [](const auto& x, const auto& y) {
    return x < y ? -1 : (y < x ? 1 : 0);
  };
  switch (col.type()) {
    case ValueType::kInt64:
      return three_way(col.int64_data()[a], col.int64_data()[b]);
    case ValueType::kDouble:
      return three_way(col.double_data()[a], col.double_data()[b]);
    case ValueType::kString: {
      const int32_t code_a = col.codes()[a];
      const int32_t code_b = col.codes()[b];
      if (code_a == code_b) return 0;
      return three_way(col.dict_value(code_a), col.dict_value(code_b));
    }
    case ValueType::kNull:
      return 0;
  }
  return 0;
}

void SortGroupsByKey(const Table& table, const std::vector<size_t>& cols,
                     const std::vector<uint32_t>& rep_rows,
                     std::vector<int32_t>* order) {
  order->resize(rep_rows.size());
  std::iota(order->begin(), order->end(), 0);
  std::sort(order->begin(), order->end(), [&](int32_t a, int32_t b) {
    for (size_t idx : cols) {
      const int c = CompareCells(table.column(idx), rep_rows[a], rep_rows[b]);
      if (c != 0) return c < 0;
    }
    return false;
  });
}

Result<Table> MaterializeGroupedResult(
    const Table& table, const std::vector<std::string>& group_cols,
    const std::vector<AggregateSpec>& aggregates,
    const std::vector<uint32_t>& rep_rows,
    const std::vector<std::vector<AggState>>& states) {
  std::vector<const AggState*> per_agg;
  per_agg.reserve(states.size());
  for (const auto& s : states) per_agg.push_back(s.data());
  return MaterializeGroupedResult(table, group_cols, aggregates, rep_rows,
                                  per_agg);
}

Result<Table> MaterializeGroupedResult(
    const Table& table, const std::vector<std::string>& group_cols,
    const std::vector<AggregateSpec>& aggregates,
    const std::vector<uint32_t>& rep_rows,
    const std::vector<const AggState*>& states) {
  Schema out_schema;
  std::vector<size_t> cols;
  for (const auto& g : group_cols) {
    SEEDB_ASSIGN_OR_RETURN(size_t idx, table.schema().FindColumn(g));
    SEEDB_RETURN_IF_ERROR(out_schema.AddColumn(table.schema().column(idx)));
    cols.push_back(idx);
  }
  for (const auto& agg : aggregates) {
    SEEDB_RETURN_IF_ERROR(out_schema.AddColumn(ColumnDef(
        agg.EffectiveName(), ValueType::kDouble, ColumnRole::kMeasure)));
  }

  std::vector<int32_t> order;
  SortGroupsByKey(table, cols, rep_rows, &order);

  Table out(out_schema);
  for (int32_t g : order) {
    std::vector<Value> row;
    row.reserve(cols.size() + aggregates.size());
    for (size_t idx : cols) {
      row.push_back(table.column(idx).GetValue(rep_rows[g]));
    }
    for (size_t j = 0; j < aggregates.size(); ++j) {
      row.emplace_back(states[j][g].Finalize(aggregates[j].func));
    }
    SEEDB_RETURN_IF_ERROR(out.AppendRow(row));
  }
  return out;
}

}  // namespace internal

namespace {

using internal::GroupKeyBuilder;

// Evaluates the distinct FILTER predicates among `aggs` once each; returns a
// per-aggregate pointer into `storage` (nullptr = unconditional aggregate).
Status EvaluateFilterMasks(
    const Table& table, const std::vector<AggregateSpec>& aggs,
    std::vector<std::vector<uint8_t>>* storage,
    std::vector<const std::vector<uint8_t>*>* per_agg) {
  std::unordered_map<const Predicate*, size_t> dedup;
  per_agg->assign(aggs.size(), nullptr);
  for (size_t j = 0; j < aggs.size(); ++j) {
    const Predicate* f = aggs[j].filter.get();
    if (f == nullptr) continue;
    auto it = dedup.find(f);
    if (it == dedup.end()) {
      storage->emplace_back();
      SEEDB_RETURN_IF_ERROR(f->EvaluateMask(table, &storage->back()));
      it = dedup.emplace(f, storage->size() - 1).first;
    }
    (*per_agg)[j] = &(*storage)[it->second];
  }
  return Status::OK();
}

// Accumulates one aggregate over all rows. `group_ids` is -1 for unselected
// rows; `filter` further restricts which rows feed this aggregate.
void AccumulateAggregate(const Table& table, const AggregateSpec& spec,
                         const std::vector<int32_t>& group_ids,
                         const std::vector<uint8_t>* filter,
                         std::vector<AggState>* states) {
  const size_t n = table.num_rows();
  if (spec.input.empty()) {
    for (size_t i = 0; i < n; ++i) {
      int32_t gid = group_ids[i];
      if (gid < 0) continue;
      if (filter && !(*filter)[i]) continue;
      (*states)[gid].AddCountOnly();
    }
    return;
  }
  const Column& col = *table.ColumnByName(spec.input).ValueOrDie();
  for (size_t i = 0; i < n; ++i) {
    int32_t gid = group_ids[i];
    if (gid < 0) continue;
    if (filter && !(*filter)[i]) continue;
    if (col.IsNull(i)) continue;
    if (spec.func == AggregateFunction::kCount) {
      (*states)[gid].AddCountOnly();
    } else {
      (*states)[gid].Add(col.NumericAt(i));
    }
  }
}

// Builds the output table: group columns + one DOUBLE per aggregate, rows
// ordered by group key.
Result<Table> MaterializeResult(const Table& table,
                                const GroupByQuery& query,
                                const GroupKeyBuilder& builder,
                                const std::vector<std::vector<AggState>>& states) {
  return internal::MaterializeGroupedResult(table, query.group_by,
                                            query.aggregates,
                                            builder.representative_rows(),
                                            states);
}

}  // namespace

Result<Table> ExecuteGroupBy(const Table& table, const GroupByQuery& query,
                             GroupByStats* stats) {
  for (const auto& g : query.group_by) {
    SEEDB_RETURN_IF_ERROR(table.schema().FindColumn(g).status());
  }
  SEEDB_RETURN_IF_ERROR(internal::ValidateAggregates(table, query.aggregates));
  if (query.sample_fraction <= 0.0 || query.sample_fraction > 1.0) {
    return Status::InvalidArgument(
        StringPrintf("sample_fraction %f outside (0, 1]",
                     query.sample_fraction));
  }

  const size_t n = table.num_rows();
  std::vector<uint8_t> mask = internal::BernoulliScanMask(
      n, query.sample_fraction, query.sample_seed);
  size_t scanned = static_cast<size_t>(
      std::count(mask.begin(), mask.end(), uint8_t{1}));

  if (query.where) {
    std::vector<uint8_t> where_mask;
    SEEDB_RETURN_IF_ERROR(query.where->EvaluateMask(table, &where_mask));
    for (size_t i = 0; i < n; ++i) mask[i] &= where_mask[i];
  }
  size_t matched = static_cast<size_t>(
      std::count(mask.begin(), mask.end(), uint8_t{1}));

  SEEDB_ASSIGN_OR_RETURN(
      GroupKeyBuilder builder,
      GroupKeyBuilder::Create(table, query.group_by, mask));

  std::vector<std::vector<uint8_t>> filter_storage;
  std::vector<const std::vector<uint8_t>*> filters;
  SEEDB_RETURN_IF_ERROR(EvaluateFilterMasks(table, query.aggregates,
                                            &filter_storage, &filters));

  std::vector<std::vector<AggState>> states(query.aggregates.size());
  for (size_t j = 0; j < query.aggregates.size(); ++j) {
    states[j].assign(builder.num_groups(), AggState{});
    AccumulateAggregate(table, query.aggregates[j], builder.row_group_ids(),
                        filters[j], &states[j]);
  }

  if (stats) {
    stats->rows_scanned = scanned;
    stats->rows_matched = matched;
    stats->num_groups = static_cast<size_t>(builder.num_groups());
    stats->agg_state_bytes = static_cast<size_t>(builder.num_groups()) *
                             query.aggregates.size() * sizeof(AggState);
  }

  return MaterializeResult(table, query, builder, states);
}

}  // namespace seedb::db
