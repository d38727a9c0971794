// Grouped aggregation: the only query shape SeeDB needs from its DBMS (§2).
//
//   SELECT a, f(m) FROM T WHERE pred GROUP BY a
//
// with optional per-aggregate FILTER predicates (conditional aggregation),
// multiple aggregates per query (§3.3 "Combine Multiple Aggregates"), and an
// optional Bernoulli sample of the scan (§3.3 "Sampling").

#ifndef SEEDB_DB_GROUP_BY_H_
#define SEEDB_DB_GROUP_BY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/aggregates.h"
#include "db/predicate.h"
#include "db/table.h"
#include "util/result.h"

namespace seedb::db {

/// \brief A single grouped-aggregation query against one table.
struct GroupByQuery {
  std::string table;
  /// Row selection; null selects all rows.
  PredicatePtr where;
  /// Zero (global aggregate), one, or several grouping columns.
  std::vector<std::string> group_by;
  std::vector<AggregateSpec> aggregates;
  /// Bernoulli sampling fraction in (0, 1]; 1 scans everything.
  double sample_fraction = 1.0;
  uint64_t sample_seed = 0;

  /// Renders the query as SQL text (the form SeeDB would send to a real
  /// DBMS in its wrapper deployment).
  std::string ToSql() const;
};

/// Per-query execution metrics of one ExecuteGroupBy call. Engine::Execute
/// feeds rows_scanned into the obs registry's engine.scan.rows total.
struct GroupByStats {
  /// Rows the scan touched (reduced by sampling).
  size_t rows_scanned = 0;
  /// Rows passing WHERE among scanned rows.
  size_t rows_matched = 0;
  size_t num_groups = 0;
  /// groups x aggregates x sizeof(AggState): the optimizer's working-memory
  /// unit.
  size_t agg_state_bytes = 0;
};

/// Executes `query` against `table` (already resolved from the catalog).
/// Output columns: group columns (original types), then one DOUBLE column per
/// aggregate named spec.EffectiveName(). Rows are sorted by group key so
/// results are deterministic.
Result<Table> ExecuteGroupBy(const Table& table, const GroupByQuery& query,
                             GroupByStats* stats);

namespace internal {

/// Packs one cell into an int64 key part for hashing/equality: strings pack
/// their dictionary code, doubles their bit pattern, nulls a sentinel
/// distinct from any code. Key parts are table-global (the dictionary is
/// shared), so keys packed by different workers over disjoint row ranges
/// compare correctly — the property db/shared_scan.h's partial-state merge
/// relies on.
int64_t PackKeyPart(const Column& col, size_t row);

/// FNV-1a over packed key parts.
struct PackedKeyHash {
  size_t operator()(const std::vector<int64_t>& key) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (int64_t part : key) {
      h ^= std::hash<int64_t>{}(part);
      h *= 0x100000001b3ULL;
    }
    return h;
  }
};

/// \brief Assigns a dense group id to every row selected by a mask.
///
/// Rows with mask 0 get id -1. Groups are created lazily in first-seen order;
/// representative_rows() names one row of each group, where output
/// materialization reads the group's key.
/// Two layouts: a dense array keyed by dictionary code for the common
/// single-string-dimension case, and a hash map over packed key tuples for
/// everything else.
class GroupKeyBuilder {
 public:
  static Result<GroupKeyBuilder> Create(const Table& table,
                                        const std::vector<std::string>& columns,
                                        const std::vector<uint8_t>& mask);

  int32_t num_groups() const { return num_groups_; }
  const std::vector<int32_t>& row_group_ids() const { return row_group_ids_; }
  /// One row of each group, indexed by group id.
  const std::vector<uint32_t>& representative_rows() const {
    return representative_row_;
  }

 private:
  GroupKeyBuilder() = default;

  std::vector<size_t> col_indices_;
  int32_t num_groups_ = 0;
  std::vector<int32_t> row_group_ids_;
  /// For each group, the row index of one representative member.
  std::vector<uint32_t> representative_row_;
};

/// Builds a Bernoulli scan mask: each row kept with probability `fraction`.
std::vector<uint8_t> BernoulliScanMask(size_t num_rows, double fraction,
                                       uint64_t seed);

/// Three-way comparison of rows `a` and `b` of `col` under db::Value's
/// order (null first, numerics by value, strings lexicographically), read in
/// place: the outcome of comparing col.GetValue(a) with col.GetValue(b),
/// without boxing. Returns -1, 0 or 1.
int CompareCells(const Column& col, uint32_t a, uint32_t b);

/// The one group-key order of every grouped output: group ids [0, n) sorted
/// lexicographically by the columns `cols` of `table` at each group's
/// representative row `rep_rows[g]` (CompareCells per column). Tables list
/// their rows in this order, and the fused scan's in-place reads
/// (SharedScanState::ReadSet) share it.
void SortGroupsByKey(const Table& table, const std::vector<size_t>& cols,
                     const std::vector<uint32_t>& rep_rows,
                     std::vector<int32_t>* order);

/// Materializes the grouped-aggregation output shape every executor shares
/// (ExecuteGroupBy, ExecuteGroupingSets, ExecuteSharedScan): group columns
/// with their original defs, then one DOUBLE column per aggregate, one row
/// per group in SortGroupsByKey order. `rep_rows[g]` is a row of group g,
/// where its key is read; `states[j][g]` its accumulator for aggregate j.
/// Keeping this in one place is what keeps the fused and per-query paths
/// byte-identical.
Result<Table> MaterializeGroupedResult(
    const Table& table, const std::vector<std::string>& group_cols,
    const std::vector<AggregateSpec>& aggregates,
    const std::vector<uint32_t>& rep_rows,
    const std::vector<std::vector<AggState>>& states);

/// The same, reading aggregate j's accumulators from `states[j][g]` through
/// a pointer, so aggregates that share one accumulator array (the fused
/// scan's (measure, FILTER) sharing) materialize without copying it.
Result<Table> MaterializeGroupedResult(
    const Table& table, const std::vector<std::string>& group_cols,
    const std::vector<AggregateSpec>& aggregates,
    const std::vector<uint32_t>& rep_rows,
    const std::vector<const AggState*>& states);

/// Validates the pieces shared by GroupBy and GroupingSets queries.
Status ValidateAggregates(const Table& table,
                          const std::vector<AggregateSpec>& aggregates);

}  // namespace internal
}  // namespace seedb::db

#endif  // SEEDB_DB_GROUP_BY_H_
