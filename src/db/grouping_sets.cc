#include "db/grouping_sets.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "util/string_util.h"

namespace seedb::db {

std::string GroupingSetsQuery::ToSql() const {
  std::string out = "SELECT ";
  // Union of all grouping columns appears in the select list; a real DBMS
  // NULL-fills the inapplicable ones per set.
  std::vector<std::string> cols;
  for (const auto& set : grouping_sets) {
    for (const auto& c : set) {
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(c);
      }
    }
  }
  std::vector<std::string> items = cols;
  for (const auto& agg : aggregates) items.push_back(agg.ToSql());
  out += Join(items, ", ");
  out += " FROM " + table;
  if (sample_fraction < 1.0) {
    out += StringPrintf(" TABLESAMPLE BERNOULLI (%s)",
                        FormatDouble(sample_fraction * 100.0, 4).c_str());
  }
  if (where) out += " WHERE " + where->ToSql();
  out += " GROUP BY GROUPING SETS (";
  for (size_t s = 0; s < grouping_sets.size(); ++s) {
    if (s) out += ", ";
    out += "(" + Join(grouping_sets[s], ", ") + ")";
  }
  out += ")";
  return out;
}

Result<std::vector<Table>> ExecuteGroupingSets(const Table& table,
                                               const GroupingSetsQuery& query,
                                               GroupingSetsStats* stats) {
  if (query.grouping_sets.empty()) {
    return Status::InvalidArgument("no grouping sets");
  }
  SEEDB_RETURN_IF_ERROR(internal::ValidateAggregates(table, query.aggregates));
  for (const auto& set : query.grouping_sets) {
    for (const auto& g : set) {
      SEEDB_RETURN_IF_ERROR(table.schema().FindColumn(g).status());
    }
  }
  if (query.sample_fraction <= 0.0 || query.sample_fraction > 1.0) {
    return Status::InvalidArgument("sample_fraction outside (0, 1]");
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

  // One GroupKeyBuilder per set; all share the single mask evaluation.
  std::vector<internal::GroupKeyBuilder> builders;
  builders.reserve(query.grouping_sets.size());
  for (const auto& set : query.grouping_sets) {
    SEEDB_ASSIGN_OR_RETURN(
        internal::GroupKeyBuilder b,
        internal::GroupKeyBuilder::Create(table, set, mask));
    builders.push_back(std::move(b));
  }

  // Distinct FILTER masks, evaluated once.
  std::unordered_map<const Predicate*, size_t> dedup;
  std::vector<std::vector<uint8_t>> filter_storage;
  std::vector<const std::vector<uint8_t>*> filters(query.aggregates.size(),
                                                   nullptr);
  for (size_t j = 0; j < query.aggregates.size(); ++j) {
    const Predicate* f = query.aggregates[j].filter.get();
    if (!f) continue;
    auto it = dedup.find(f);
    if (it == dedup.end()) {
      filter_storage.emplace_back();
      SEEDB_RETURN_IF_ERROR(f->EvaluateMask(table, &filter_storage.back()));
      it = dedup.emplace(f, filter_storage.size() - 1).first;
    }
    filters[j] = &filter_storage[it->second];
  }

  // states[s][j][g]: set s, aggregate j, group g. All hash tables are live at
  // once — exactly the working-memory pressure the paper's bin-packing
  // optimizer constrains.
  std::vector<std::vector<std::vector<AggState>>> states(builders.size());
  for (size_t s = 0; s < builders.size(); ++s) {
    states[s].assign(query.aggregates.size(),
                     std::vector<AggState>(builders[s].num_groups()));
  }

  // Fused accumulation: per aggregate, one pass over the rows updating every
  // set. The measure column is touched once per aggregate, not once per
  // (aggregate x set) — the scan sharing this primitive exists to provide.
  for (size_t j = 0; j < query.aggregates.size(); ++j) {
    const AggregateSpec& spec = query.aggregates[j];
    const Column* col =
        spec.input.empty() ? nullptr
                           : table.ColumnByName(spec.input).ValueOrDie();
    const std::vector<uint8_t>* filter = filters[j];
    for (size_t i = 0; i < n; ++i) {
      if (!mask[i]) continue;
      if (filter && !(*filter)[i]) continue;
      bool count_only = (col == nullptr) ||
                        (spec.func == AggregateFunction::kCount);
      if (col && col->IsNull(i)) continue;
      double v = count_only ? 0.0 : col->NumericAt(i);
      for (size_t s = 0; s < builders.size(); ++s) {
        int32_t gid = builders[s].row_group_ids()[i];
        if (gid < 0) continue;
        if (count_only) {
          states[s][j][gid].AddCountOnly();
        } else {
          states[s][j][gid].Add(v);
        }
      }
    }
  }

  // Materialize one result table per set, rows sorted by group key.
  std::vector<Table> results;
  results.reserve(builders.size());
  size_t total_groups = 0;
  for (size_t s = 0; s < builders.size(); ++s) {
    int32_t num_groups = builders[s].num_groups();
    total_groups += static_cast<size_t>(num_groups);
    SEEDB_ASSIGN_OR_RETURN(
        Table out, internal::MaterializeGroupedResult(
                       table, query.grouping_sets[s], query.aggregates,
                       builders[s].representative_rows(), states[s]));
    results.push_back(std::move(out));
  }

  if (stats) {
    stats->rows_scanned = scanned;
    stats->rows_matched = matched;
    stats->total_groups = total_groups;
    stats->agg_state_bytes =
        total_groups * query.aggregates.size() * sizeof(AggState);
  }
  return results;
}

}  // namespace seedb::db
