#include "db/shared_scan.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "db/group_by.h"
#include "db/scan_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "db/vec/aggregate_kernels.h"
#include "db/vec/group_ids.h"
#include "db/vec/simd/simd.h"
#include "util/thread_pool.h"

namespace seedb::db {
namespace {

// One grouping set of one query, resolved against the table for the scan.
// Three inner-loop modes, decided once at Init:
//   * vectorized — every grouping column is dictionary-coded and the
//     composed group space fits the dense-slot budget: group ids come from
//     the db/vec/ radix kernels and aggregates accumulate into flat slabs;
//   * scalar dense — exactly one string column but vectorization is off (or
//     the dictionary exceeds the budget): per-row code-indexed array;
//   * hash — anything else: packed key tuples row at a time.
struct SetSpec {
  std::vector<const Column*> cols;
  std::vector<size_t> col_indices;
  /// Set iff the set runs the scalar dense path (one string column).
  const Column* dense_col = nullptr;
  /// Group-space slot count for either dense mode (scalar: dict_size() + 1
  /// with the last slot standing for null; vectorized: the radix product of
  /// per-column slot counts). 0 for the hash path.
  size_t dense_slots = 0;
  /// True when the set takes the vectorized kernels.
  bool vectorized = false;
  /// True when this (query, set) pair was adopted from the cross-session
  /// cache at Init: its merged state is already final, so workers never
  /// scan or merge it again.
  bool adopted = false;
  /// Indices of the query's aggregates still live for this set, ascending.
  /// Every aggregate starts live; RetireAggregate removes one for good. A
  /// set with none left is dead: never scanned, merged or materialized
  /// again.
  std::vector<uint32_t> live_aggs;
  /// Raw column arrays for the vectorized group-id kernels.
  std::vector<vec::DenseDim> dims;
};

// True when workers scan this (query, set): it still has a live aggregate
// and its final state did not come from the cache.
bool Scanned(const SetSpec& set) {
  return !set.adopted && !set.live_aggs.empty();
}

// One aggregate of one query, resolved for the scan.
struct AggRuntime {
  const Column* input = nullptr;  // nullptr => COUNT(*)
  const std::vector<uint8_t>* filter = nullptr;
  bool count_only = false;
};

// One query of the batch, fully resolved: combined sample & WHERE mask
// (nullptr selects every row), grouping sets, aggregates.
struct QuerySpec {
  const std::vector<uint8_t>* mask = nullptr;
  /// Sample mask alone (nullptr = unsampled) — the rows the scan *visits*
  /// for this query, the unit rows_scanned accounting uses.
  const std::vector<uint8_t>* sample_mask = nullptr;
  std::vector<SetSpec> sets;
  std::vector<AggRuntime> aggs;
  /// Index into the scan's selection-recipe list; -1 = no row filter, the
  /// vectorized kernels walk the whole morsel directly.
  int recipe = -1;
};

// How a vectorized query's row filter becomes a per-morsel selection vector.
// kMask converts a cached full-table byte mask (the general path). The
// kCompare kinds are the fused predicate->selection path: a simple WHERE
// comparison is evaluated over the raw column for [lo, hi) straight into
// the selection by the typed compare kernels — no full-table predicate
// mask is ever materialized for such queries. Recipes are deduplicated by
// fingerprint (mask pointer, or column + op + sample mask + the literal
// normalized into the kernel's own domain — see SameRecipe), which
// preserves the sharing pointer-identical masks gave: queries with the same
// filter still build one selection per morsel between them, however the
// literal was spelled.
struct SelRecipe {
  enum class Kind { kMask, kCompareInt64, kCompareDouble, kCompareCode };
  Kind kind = Kind::kMask;
  /// kMask: the combined sample & WHERE byte mask.
  const std::vector<uint8_t>* mask = nullptr;
  /// kCompare*: sample mask Refine()d in after the compare (nullptr =
  /// unsampled).
  const std::vector<uint8_t>* sample = nullptr;
  const Column* column = nullptr;
  CompareOp op = CompareOp::kEq;
  /// Literal as written — consulted only for kCompareCode dedup (the truth
  /// table derives from it via Value comparison, which is itself numeric
  /// across int/double spellings). The typed kinds dedup on the
  /// kernel-domain fields below instead.
  Value literal;
  int64_t literal_i64 = 0;
  double literal_f64 = 0.0;
  /// kCompareCode: per-dictionary-code truth table, built once per recipe
  /// exactly as ComparisonPredicate::EvaluateMask builds it.
  std::vector<uint8_t> code_match;
};

// Recipe equality for dedup. Literals compare in the kernel's own domain,
// never "as written": `x = 1` and `x = 1.0` resolve to one recipe (one
// SelectionVector per morsel serves both), `+0.0` and `-0.0` collapse under
// IEEE equality, and recipes over different columns (hence different types)
// can never merge because the column pointer differs. This is the same
// normalization db/scan_cache.h applies when the fingerprint graduates to a
// cross-session cache key.
bool SameRecipe(const SelRecipe& a, const SelRecipe& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == SelRecipe::Kind::kMask) return a.mask == b.mask;
  if (a.column != b.column || a.op != b.op || a.sample != b.sample) {
    return false;
  }
  switch (a.kind) {
    case SelRecipe::Kind::kCompareInt64:
      return a.literal_i64 == b.literal_i64;
    case SelRecipe::Kind::kCompareDouble:
      return a.literal_f64 == b.literal_f64;
    default:
      // kCompareCode: Value equality is numeric across int/double spellings
      // and the per-code truth table is a pure function of (op, literal).
      return a.literal == b.literal;
  }
}

// Mirror of predicate.cc's CompareValues (file-local there) for building
// code_match truth tables with identical semantics.
bool CompareValues(const Value& lhs, CompareOp op, const Value& rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

// Partial aggregation state one worker holds for one (query, grouping set).
// Groups are created lazily from the masked rows the worker actually saw;
// dense_slot / key identify each local group for the cross-worker merge.
struct LocalGroups {
  std::vector<int32_t> dense_to_local;
  std::unordered_map<std::vector<int64_t>, int32_t, internal::PackedKeyHash>
      key_to_local;
  std::vector<uint32_t> rep_row;
  std::vector<size_t> dense_slot;
  std::vector<std::vector<int64_t>> keys;
  /// states[agg][local group].
  std::vector<std::vector<AggState>> states;

  int32_t NewGroup(uint32_t row) {
    int32_t gid = static_cast<int32_t>(rep_row.size());
    rep_row.push_back(row);
    for (auto& per_agg : states) per_agg.emplace_back();
    return gid;
  }

  /// Capacity-preserving per-phase reset, mirroring DenseAggTable::Reset:
  /// only the dense_to_local slots mapped last phase are un-mapped (via the
  /// dense_slot record) instead of re-assigning the whole array.
  void Reset() {
    for (size_t slot : dense_slot) dense_to_local[slot] = -1;
    key_to_local.clear();
    rep_row.clear();
    dense_slot.clear();
    keys.clear();
    for (auto& per_agg : states) per_agg.clear();
  }
};

// Per-worker accumulation state for one (query, grouping set): the hash /
// scalar-dense LocalGroups or the vectorized flat slab, per the set's mode.
struct SetAccum {
  LocalGroups lg;
  vec::DenseAggTable dense;
};

// Everything one worker accumulates during one phase: accums[q][s].
using WorkerState = std::vector<std::vector<SetAccum>>;

// Prepares one worker's accumulation state for a phase. States persist in
// the Impl across phases: each (query, set) is allocated lazily the first
// phase the worker scans it and RESET (capacity-preserving) on reuse, so
// dense slabs are allocated exactly once per worker for the scan's
// lifetime no matter how many phases run — pinned by
// SharedScanStats::agg_slab_allocations. Sets that are not scanned (dead or
// cache-adopted, both for good) are left alone.
void PrepareWorkerState(const std::vector<QuerySpec>& specs,
                        WorkerState* state) {
  if (state->size() != specs.size()) {
    state->assign(specs.size(), std::vector<SetAccum>{});
  }
  for (size_t q = 0; q < specs.size(); ++q) {
    std::vector<SetAccum>& sets = (*state)[q];
    const bool fresh = sets.empty();
    if (fresh) sets.resize(specs[q].sets.size());
    for (size_t s = 0; s < specs[q].sets.size(); ++s) {
      const SetSpec& set = specs[q].sets[s];
      if (!Scanned(set)) continue;
      SetAccum& accum = sets[s];
      if (set.vectorized) {
        if (fresh) {
          accum.dense.Init(static_cast<uint32_t>(set.dense_slots),
                           static_cast<uint32_t>(specs[q].aggs.size()));
        } else {
          accum.dense.Reset();
        }
        continue;
      }
      if (fresh) {
        if (set.dense_col) {
          accum.lg.dense_to_local.assign(set.dense_slots, -1);
        }
        accum.lg.states.resize(specs[q].aggs.size());
      } else {
        accum.lg.Reset();
      }
    }
  }
}

void AccumulateRow(const QuerySpec& spec, const SetSpec& set, LocalGroups* lg,
                   int32_t gid, size_t row) {
  for (uint32_t j : set.live_aggs) {
    const AggRuntime& a = spec.aggs[j];
    if (a.filter && !(*a.filter)[row]) continue;
    if (a.input && a.input->IsNull(row)) continue;
    if (a.count_only) {
      lg->states[j][gid].AddCountOnly();
    } else {
      lg->states[j][gid].Add(a.input->NumericAt(row));
    }
  }
}

// Runs one (query, set) over rows [lo, hi) of one morsel.
void ScanMorsel(const QuerySpec& spec, const SetSpec& set, LocalGroups* lg,
                size_t lo, size_t hi, std::vector<int64_t>* key_scratch) {
  const std::vector<uint8_t>* mask = spec.mask;
  if (set.dense_col) {
    const auto& codes = set.dense_col->codes();
    for (size_t i = lo; i < hi; ++i) {
      if (mask && !(*mask)[i]) continue;
      size_t slot = set.dense_col->IsNull(i) ? set.dense_slots - 1
                                             : static_cast<size_t>(codes[i]);
      int32_t gid = lg->dense_to_local[slot];
      if (gid < 0) {
        gid = lg->NewGroup(static_cast<uint32_t>(i));
        lg->dense_to_local[slot] = gid;
        lg->dense_slot.push_back(slot);
      }
      AccumulateRow(spec, set, lg, gid, i);
    }
    return;
  }
  for (size_t i = lo; i < hi; ++i) {
    if (mask && !(*mask)[i]) continue;
    key_scratch->clear();
    for (const Column* col : set.cols) {
      key_scratch->push_back(internal::PackKeyPart(*col, i));
    }
    auto [it, inserted] = lg->key_to_local.emplace(
        *key_scratch, static_cast<int32_t>(lg->rep_row.size()));
    if (inserted) {
      lg->NewGroup(static_cast<uint32_t>(i));
      lg->keys.push_back(*key_scratch);
    }
    AccumulateRow(spec, set, lg, it->second, i);
  }
}

// EvaluateIntoSelection: materializes one recipe's selection for morsel
// rows [lo, hi). kMask converts the cached byte mask; the kCompare kinds
// run the typed compare kernel over the raw column slice (then Refine by
// the sample mask when the query samples) — the WHERE mask never exists.
// `use_simd` picks the explicit-SIMD kernel tier; both tiers emit
// identical selections.
void EvaluateIntoSelection(const SelRecipe& r, size_t lo, size_t hi,
                           bool use_simd, vec::SelectionVector* sel) {
  switch (r.kind) {
    case SelRecipe::Kind::kMask:
      if (use_simd) {
        vec::simd::SelectFromMask(r.mask->data(), lo, hi, sel);
      } else {
        vec::SelectFromMask(r.mask->data(), lo, hi, sel);
      }
      return;  // the combined mask already includes any sampling
    case SelRecipe::Kind::kCompareInt64: {
      const uint8_t* validity =
          r.column->validity().empty() ? nullptr : r.column->validity().data();
      const int64_t* data = r.column->int64_data().data();
      if (use_simd) {
        vec::simd::SelectCompareInt64(data, validity, r.op, r.literal_i64, lo,
                                      hi, sel);
      } else {
        vec::SelectCompareInt64(data, validity, r.op, r.literal_i64, lo, hi,
                                sel);
      }
      break;
    }
    case SelRecipe::Kind::kCompareDouble: {
      const uint8_t* validity =
          r.column->validity().empty() ? nullptr : r.column->validity().data();
      const double* data = r.column->double_data().data();
      if (use_simd) {
        vec::simd::SelectCompareDouble(data, validity, r.op, r.literal_f64, lo,
                                       hi, sel);
      } else {
        vec::SelectCompareDouble(data, validity, r.op, r.literal_f64, lo, hi,
                                 sel);
      }
      break;
    }
    case SelRecipe::Kind::kCompareCode: {
      const uint8_t* validity =
          r.column->validity().empty() ? nullptr : r.column->validity().data();
      if (use_simd) {
        vec::simd::SelectCompareCode(r.column->codes().data(), validity,
                                     r.code_match.data(), lo, hi, sel);
      } else {
        vec::SelectCompareCode(r.column->codes().data(), validity,
                               r.code_match.data(), lo, hi, sel);
      }
      break;
    }
  }
  if (r.sample != nullptr) {
    if (use_simd) {
      vec::simd::Refine(r.sample->data(), sel);
    } else {
      vec::Refine(r.sample->data(), sel);
    }
  }
}

// Per-worker, per-morsel scratch for the vectorized inner loop: selections
// indexed flat by recipe id (built lazily per morsel, shared by every query
// with the same recipe — the old linear pointer-keyed lookup is gone) and
// the reusable group-id buffer. Selection capacity persists across morsels.
struct VecScratch {
  std::vector<vec::SelectionVector> selections;
  std::vector<uint8_t> built;
  std::vector<uint32_t> gids;
  bool use_simd = false;

  void Prepare(size_t num_recipes, bool simd) {
    selections.resize(num_recipes);
    built.assign(num_recipes, 0);
    use_simd = simd;
  }

  void StartMorsel() { std::fill(built.begin(), built.end(), 0); }

  const vec::SelectionVector* Selection(const SelRecipe& recipe, int id,
                                        size_t lo, size_t hi) {
    const size_t idx = static_cast<size_t>(id);
    if (!built[idx]) {
      EvaluateIntoSelection(recipe, lo, hi, use_simd, &selections[idx]);
      built[idx] = 1;
    }
    return &selections[idx];
  }
};

// The vectorized inner loop for one (query, set) over one morsel: group ids
// once (radix kernel), group creation once (touch kernel), then one typed
// flat-slab kernel per live aggregate. `sel == nullptr` means the query selects
// the whole morsel and the kernels walk [lo, hi) directly.
void ScanMorselVec(const QuerySpec& spec, const SetSpec& set, SetAccum* accum,
                   size_t lo, size_t hi, const vec::SelectionVector* sel,
                   VecScratch* scratch) {
  const bool use_simd = scratch->use_simd;
  const size_t n = sel != nullptr ? sel->size() : hi - lo;
  if (n == 0) return;
  if (scratch->gids.size() < n) scratch->gids.resize(n);
  uint32_t* gids = scratch->gids.data();
  vec::DenseAggTable* t = &accum->dense;
  if (sel != nullptr) {
    vec::GroupIdsSel(set.dims.data(), set.dims.size(), *sel, gids);
    vec::TouchGroupsSel(gids, *sel, t);
  } else {
    vec::GroupIdsRange(set.dims.data(), set.dims.size(), lo, hi, gids);
    vec::TouchGroupsRange(gids, lo, n, t);
  }
  for (uint32_t j : set.live_aggs) {
    const AggRuntime& a = spec.aggs[j];
    const uint8_t* filter = a.filter != nullptr ? a.filter->data() : nullptr;
    const uint8_t* validity =
        (a.input != nullptr && !a.input->validity().empty())
            ? a.input->validity().data()
            : nullptr;
    AggState* slab = t->slab(j);
    if (a.count_only) {
      // COUNT(*) has no input (validity nullptr counts every selected row);
      // COUNT(col) skips null inputs via the column's validity bytes.
      if (sel != nullptr) {
        vec::AccumulateCountSel(gids, *sel, filter, validity, slab);
      } else if (use_simd) {
        vec::simd::AccumulateCountRange(gids, lo, n, filter, validity, slab);
      } else {
        vec::AccumulateCountRange(gids, lo, n, filter, validity, slab);
      }
      continue;
    }
    if (a.input->type() == ValueType::kInt64) {
      const int64_t* data = a.input->int64_data().data();
      if (sel != nullptr) {
        vec::AccumulateInt64Sel(gids, *sel, data, filter, validity, slab);
      } else if (use_simd) {
        vec::simd::AccumulateInt64Range(gids, lo, n, data, filter, validity,
                                        slab);
      } else {
        vec::AccumulateInt64Range(gids, lo, n, data, filter, validity, slab);
      }
    } else {
      const double* data = a.input->double_data().data();
      if (sel != nullptr) {
        vec::AccumulateDoubleSel(gids, *sel, data, filter, validity, slab);
      } else if (use_simd) {
        vec::simd::AccumulateDoubleRange(gids, lo, n, data, filter, validity,
                                         slab);
      } else {
        vec::AccumulateDoubleRange(gids, lo, n, data, filter, validity, slab);
      }
    }
  }
}

// One worker: steal morsels off the shared counter until none remain or the
// cancel token fires. `morsel_ids` lists the morsels of the phase grid this
// pass covers — the full grid on a normal phase, only the missed morsels
// when resuming a cut-short one. The token is checked at morsel-claim time
// only, so a claimed morsel always completes for every scanned set — all
// partial states describe exactly the same row set. Each worker's own
// additions happen in increasing row order, so partial states stay
// deterministic per worker-to-morsel assignment. `completed` marks each
// scanned morsel (distinct bytes per morsel, so workers never contend) —
// the record a later ResumeAfterCancel() scans the complement of.
void WorkerLoop(const std::vector<QuerySpec>& specs,
                const std::vector<SelRecipe>& recipes, size_t row_begin,
                size_t row_end, size_t morsel_rows,
                const std::vector<size_t>& morsel_ids, bool use_simd,
                std::atomic<size_t>* next_morsel,
                const std::atomic<bool>* cancel,
                std::atomic<size_t>* morsels_done,
                std::atomic<size_t>* vec_morsels,
                std::atomic<size_t>* simd_morsels,
                std::vector<uint8_t>* completed, WorkerState* state) {
  std::vector<int64_t> key_scratch;
  VecScratch vec_scratch;
  vec_scratch.Prepare(recipes.size(), use_simd);
  for (size_t i = next_morsel->fetch_add(1, std::memory_order_relaxed);
       i < morsel_ids.size();
       i = next_morsel->fetch_add(1, std::memory_order_relaxed)) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) return;
    const size_t m = morsel_ids[i];
    size_t lo = row_begin + m * morsel_rows;
    size_t hi = std::min(row_end, lo + morsel_rows);
    vec_scratch.StartMorsel();
    bool used_vec = false;
    for (size_t q = 0; q < specs.size(); ++q) {
      for (size_t s = 0; s < specs[q].sets.size(); ++s) {
        const SetSpec& set = specs[q].sets[s];
        // Dead sets and cache-adopted ones: no group ids, no touch, no
        // selection.
        if (!Scanned(set)) continue;
        if (set.vectorized) {
          const int rid = specs[q].recipe;
          const vec::SelectionVector* sel =
              rid >= 0 ? vec_scratch.Selection(recipes[rid], rid, lo, hi)
                       : nullptr;
          ScanMorselVec(specs[q], set, &(*state)[q][s], lo, hi, sel,
                        &vec_scratch);
          used_vec = true;
          continue;
        }
        ScanMorsel(specs[q], set, &(*state)[q][s].lg, lo, hi, &key_scratch);
      }
    }
    (*completed)[m] = 1;
    morsels_done->fetch_add(1, std::memory_order_relaxed);
    if (used_vec) {
      vec_morsels->fetch_add(1, std::memory_order_relaxed);
      if (use_simd) simd_morsels->fetch_add(1, std::memory_order_relaxed);
    }
  }
}

// Merged (cross-worker, cross-phase) groups for one (query, set). Persists
// across phases; each phase's worker partials fold into it.
struct GlobalGroups {
  std::vector<int32_t> dense_to_global;
  std::unordered_map<std::vector<int64_t>, int32_t, internal::PackedKeyHash>
      key_to_global;
  std::vector<uint32_t> rep_row;
  std::vector<std::vector<AggState>> states;
};

// Folds one worker's partial state for one (query, set) into the persistent
// global state. Key parts are table-global (dictionary codes / bit
// patterns), so partials from different workers and phases merge correctly.
// Only live aggregates merge: a retired aggregate's state stays frozen.
void MergeWorkerInto(const SetSpec& set, const LocalGroups& lg,
                     GlobalGroups* global) {
  for (size_t l = 0; l < lg.rep_row.size(); ++l) {
    int32_t gid;
    if (set.dense_col) {
      int32_t& slot_gid = global->dense_to_global[lg.dense_slot[l]];
      if (slot_gid < 0) {
        slot_gid = static_cast<int32_t>(global->rep_row.size());
        global->rep_row.push_back(lg.rep_row[l]);
        for (auto& per_agg : global->states) per_agg.emplace_back();
      }
      gid = slot_gid;
    } else {
      auto [it, inserted] = global->key_to_global.emplace(
          lg.keys[l], static_cast<int32_t>(global->rep_row.size()));
      if (inserted) {
        global->rep_row.push_back(lg.rep_row[l]);
        for (auto& per_agg : global->states) per_agg.emplace_back();
      }
      gid = it->second;
    }
    for (uint32_t j : set.live_aggs) {
      global->states[j][gid].Merge(lg.states[j][l]);
    }
  }
}

// Folds one worker's vectorized flat slab into the persistent global state:
// touched slots only, in first-seen order — the same group-creation order as
// the scalar path's lazy creation, so global group ids (and therefore the
// float merge order) are identical whichever inner loop ran. That is what
// makes dense and hash paths bit-identical, not merely close.
void MergeDenseInto(const SetSpec& set, const vec::DenseAggTable& t,
                    GlobalGroups* global) {
  for (size_t i = 0; i < t.touched.size(); ++i) {
    const uint32_t slot = t.touched[i];
    int32_t& slot_gid = global->dense_to_global[slot];
    if (slot_gid < 0) {
      slot_gid = static_cast<int32_t>(global->rep_row.size());
      global->rep_row.push_back(t.rep_row[i]);
      for (auto& per_agg : global->states) per_agg.emplace_back();
    }
    for (uint32_t j : set.live_aggs) {
      global->states[j][slot_gid].Merge(t.slab(j)[slot]);
    }
  }
}

// Materializes one (query, set) result through the shared grouped-output
// shape (internal::MaterializeGroupedResult), so the fused path stays
// byte-identical to ExecuteGroupingSets by construction. Works on partial
// (mid-scan) state just as well as on final state — the caller decides when
// the numbers mean something.
Result<Table> MaterializeSet(const Table& table, const GroupingSetsQuery& query,
                             size_t set_index, const SetSpec& set,
                             const GlobalGroups& global) {
  // A global aggregate (empty grouping set) always has its one group, even
  // when no row passes the mask — matching GroupKeyBuilder, which creates
  // group 0 unconditionally.
  if (set.cols.empty() && global.rep_row.empty()) {
    std::vector<std::vector<Value>> keys(1);
    std::vector<std::vector<AggState>> states(query.aggregates.size());
    for (auto& per_agg : states) per_agg.emplace_back();
    return internal::MaterializeGroupedResult(
        table, query.grouping_sets[set_index], query.aggregates,
        std::move(keys), states);
  }
  int32_t num_groups = static_cast<int32_t>(global.rep_row.size());
  std::vector<std::vector<Value>> keys(num_groups);
  for (int32_t g = 0; g < num_groups; ++g) {
    keys[g].reserve(set.col_indices.size());
    for (size_t idx : set.col_indices) {
      keys[g].push_back(table.column(idx).GetValue(global.rep_row[g]));
    }
  }
  return internal::MaterializeGroupedResult(
      table, query.grouping_sets[set_index], query.aggregates, std::move(keys),
      global.states);
}

// Shared mask evaluation: every distinct predicate / sample configuration
// across the whole batch is evaluated exactly once. Mask vectors live in
// node-stable maps, so pointers into the cache survive for the lifetime of
// the scan state.
class MaskCache {
 public:
  explicit MaskCache(const Table& table) : table_(table) {}

  /// All-ones when fraction >= 1 (returns nullptr: "no mask").
  const std::vector<uint8_t>* SampleMask(double fraction, uint64_t seed) {
    if (fraction >= 1.0) return nullptr;
    auto key = std::make_pair(fraction, seed);
    auto it = sample_.find(key);
    if (it == sample_.end()) {
      it = sample_
               .emplace(key, internal::BernoulliScanMask(table_.num_rows(),
                                                         fraction, seed))
               .first;
    }
    return &it->second;
  }

  Result<const std::vector<uint8_t>*> PredicateMask(const Predicate* pred) {
    if (pred == nullptr) return nullptr;
    auto it = predicate_.find(pred);
    if (it == predicate_.end()) {
      std::vector<uint8_t> mask;
      SEEDB_RETURN_IF_ERROR(pred->EvaluateMask(table_, &mask));
      it = predicate_.emplace(pred, std::move(mask)).first;
    }
    return &it->second;
  }

  /// sample & where combined; nullptr when both are absent.
  Result<const std::vector<uint8_t>*> CombinedMask(double fraction,
                                                   uint64_t seed,
                                                   const Predicate* where) {
    const std::vector<uint8_t>* sample = SampleMask(fraction, seed);
    SEEDB_ASSIGN_OR_RETURN(const std::vector<uint8_t>* pred,
                           PredicateMask(where));
    if (sample == nullptr) return pred;
    if (pred == nullptr) return sample;
    auto key = std::make_pair(sample, pred);
    auto it = combined_.find(key);
    if (it == combined_.end()) {
      std::vector<uint8_t> both(table_.num_rows());
      for (size_t i = 0; i < both.size(); ++i) {
        both[i] = (*sample)[i] & (*pred)[i];
      }
      it = combined_.emplace(key, std::move(both)).first;
    }
    return &it->second;
  }

 private:
  const Table& table_;
  // These maps are populated at scan setup, not in the per-row hot loop, and
  // node stability matters: GetCombined keys on the addresses of entries in
  // sample_/predicate_, which std::map guarantees across inserts.
  std::map<std::pair<double, uint64_t>,  // lint: allow-map (node-stable)
           std::vector<uint8_t>>
      sample_;
  std::map<const Predicate*,  // lint: allow-map (node-stable)
           std::vector<uint8_t>>
      predicate_;
  std::map<std::pair<const std::vector<uint8_t>*,  // lint: allow-map
                     const std::vector<uint8_t>*>,
           std::vector<uint8_t>>
      combined_;
};

Status ValidateQuery(const Table& table, const GroupingSetsQuery& query) {
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
  return Status::OK();
}

}  // namespace

size_t AdaptiveMorselRows(size_t num_rows, size_t num_threads) {
  // ~4 morsels per worker keeps the shared counter load-balancing without
  // shredding small tables into per-row tasks; the floor also caps the
  // thread count on small tables (threads are clamped to the morsel count).
  constexpr size_t kMinMorselRows = 4096;
  constexpr size_t kMaxMorselRows = 65536;
  constexpr size_t kMorselsPerThread = 4;
  if (num_threads == 0) num_threads = 1;
  size_t target = num_rows / (num_threads * kMorselsPerThread);
  return std::clamp(target, kMinMorselRows, kMaxMorselRows);
}

class SharedScanState::Impl {
 public:
  Impl(const Table& table, std::vector<GroupingSetsQuery> queries)
      : table_(table), queries_(std::move(queries)), masks_(table) {}

  Status Init(const SharedScanOptions& options) {
    cache_ = options.cache;
    table_version_ = options.table_version;
    threads_ = options.num_threads == 0
                   ? std::max<size_t>(1, std::thread::hardware_concurrency())
                   : options.num_threads;
    adaptive_morsels_ = options.morsel_rows == 0;
    morsel_rows_ = adaptive_morsels_
                       ? AdaptiveMorselRows(table_.num_rows(), threads_)
                       : options.morsel_rows;
    cancel_ = options.cancel;
    trace_ = options.trace;
    use_simd_ = options.enable_vectorized && options.enable_simd &&
                vec::simd::Available();

    // Resolve every query against the table, evaluating each distinct
    // sample / WHERE / FILTER configuration exactly once for the batch.
    specs_.resize(queries_.size());
    for (size_t q = 0; q < queries_.size(); ++q) {
      const GroupingSetsQuery& query = queries_[q];
      SEEDB_RETURN_IF_ERROR(ValidateQuery(table_, query));
      QuerySpec& spec = specs_[q];
      spec.sample_mask =
          masks_.SampleMask(query.sample_fraction, query.sample_seed);

      for (const auto& set : query.grouping_sets) {
        SetSpec resolved;
        bool all_dict = true;
        for (const auto& g : set) {
          SEEDB_ASSIGN_OR_RETURN(size_t idx, table_.schema().FindColumn(g));
          resolved.col_indices.push_back(idx);
          const Column* col = &table_.column(idx);
          resolved.cols.push_back(col);
          if (col->type() == ValueType::kString) {
            vec::DenseDim dim;
            dim.codes = col->codes().data();
            dim.validity =
                col->validity().empty() ? nullptr : col->validity().data();
            dim.slots = static_cast<uint32_t>(col->dict_size() + 1);
            resolved.dims.push_back(dim);
          } else {
            all_dict = false;
          }
        }
        // Kernel selection: dense vectorized kernels when every grouping
        // column is dictionary-coded and the radix-composed group space
        // fits the slot budget (the empty set — a global aggregate — is a
        // 1-slot dense space); single oversized string dimensions keep the
        // scalar dense path; everything else hashes packed key tuples.
        // The budget is clamped to what the uint32 gid kernels can index —
        // a larger configured budget must fall back to the hash path, not
        // truncate slot counts into out-of-bounds slab writes.
        const size_t slot_budget =
            std::min<size_t>(options.dense_slot_budget,
                             std::numeric_limits<uint32_t>::max());
        const size_t dense_slots =
            all_dict ? vec::DenseSlotCount(resolved.dims, slot_budget) : 0;
        if (options.enable_vectorized && all_dict && dense_slots > 0) {
          resolved.vectorized = true;
          resolved.dense_slots = dense_slots;
        } else if (resolved.cols.size() == 1 &&
                   resolved.cols[0]->type() == ValueType::kString) {
          resolved.dense_col = resolved.cols[0];
          resolved.dense_slots = resolved.dense_col->dict_size() + 1;
        }
        if (!resolved.vectorized) resolved.dims.clear();
        spec.sets.push_back(std::move(resolved));
      }

      // Row-filter resolution. Queries whose every grouping set runs the
      // vectorized kernels may fuse a simple WHERE comparison straight into
      // selection building (no byte mask is materialized for them at all);
      // everyone else gets the cached combined mask — still evaluated once
      // per distinct configuration — wrapped in a kMask recipe so the
      // vectorized inner loop shares selections per recipe id.
      bool all_vec = !spec.sets.empty();
      for (const SetSpec& set : spec.sets) all_vec &= set.vectorized;
      bool fused = false;
      if (all_vec && query.where != nullptr) {
        SEEDB_ASSIGN_OR_RETURN(fused, TryFuseCompare(query, &spec));
      }
      if (!fused) {
        SEEDB_ASSIGN_OR_RETURN(
            spec.mask,
            masks_.CombinedMask(query.sample_fraction, query.sample_seed,
                                query.where.get()));
        if (spec.mask != nullptr) spec.recipe = MaskRecipe(spec.mask);
      }

      for (const auto& agg : query.aggregates) {
        AggRuntime rt;
        if (!agg.input.empty()) {
          SEEDB_ASSIGN_OR_RETURN(rt.input, table_.ColumnByName(agg.input));
        }
        rt.count_only =
            rt.input == nullptr || agg.func == AggregateFunction::kCount;
        SEEDB_ASSIGN_OR_RETURN(rt.filter,
                               masks_.PredicateMask(agg.filter.get()));
        spec.aggs.push_back(rt);
      }
      for (SetSpec& set : spec.sets) {
        set.live_aggs.resize(spec.aggs.size());
        for (size_t j = 0; j < spec.aggs.size(); ++j) {
          set.live_aggs[j] = static_cast<uint32_t>(j);
        }
        total_agg_units_ += spec.aggs.size();
      }
    }

    globals_.resize(queries_.size());
    for (size_t q = 0; q < queries_.size(); ++q) {
      globals_[q].resize(specs_[q].sets.size());
      for (size_t s = 0; s < specs_[q].sets.size(); ++s) {
        GlobalGroups& global = globals_[q][s];
        global.states.resize(specs_[q].aggs.size());
        if (specs_[q].sets[s].dense_slots > 0) {
          global.dense_to_global.assign(specs_[q].sets[s].dense_slots, -1);
        }
      }
    }

    // Cross-session cache partition: every (query, grouping set) pair whose
    // key hits adopts the cached merged state verbatim — bit-identical to
    // having scanned, because entries are only ever published from full
    // uncancelled passes over this exact table version. A query whose every
    // pair hit drops out of the scan entirely.
    if (cache_ != nullptr) {
      cache_keys_.resize(queries_.size());
      for (size_t q = 0; q < queries_.size(); ++q) {
        cache_keys_[q].resize(specs_[q].sets.size());
        for (size_t s = 0; s < specs_[q].sets.size(); ++s) {
          cache_keys_[q][s] =
              PartialAggCacheKey(table_, table_version_, queries_[q], s);
          std::shared_ptr<const CachedPartialAgg> entry =
              cache_->Lookup(cache_keys_[q][s]);
          if (entry == nullptr ||
              entry->states.size() != specs_[q].aggs.size()) {
            ++cache_misses_;
            continue;
          }
          ++cache_hits_;
          globals_[q][s].rep_row = entry->rep_row;
          globals_[q][s].states = entry->states;
          specs_[q].sets[s].adopted = true;
        }
      }
    }
    return Status::OK();
  }

  // Attempts to resolve `query`'s WHERE as a fused compare recipe (kind
  // kCompare*). Returns false — caller falls back to the byte-mask path —
  // when the predicate is not a plain column-vs-literal comparison or the
  // comparison cannot reproduce EvaluateMask's semantics exactly:
  // EvaluateMask compares int64 columns in the DOUBLE domain (NumericAt),
  // so an int64 compare fuses only for integral literals with |lit| <=
  // 2^51, where the int64-domain kernel is provably divergence-free.
  Result<bool> TryFuseCompare(const GroupingSetsQuery& query,
                              QuerySpec* spec) {
    const auto* cmp =
        dynamic_cast<const ComparisonPredicate*>(query.where.get());
    if (cmp == nullptr) return false;
    // The mask path validates inside EvaluateMask; fusing skips that call,
    // so run the same check explicitly.
    SEEDB_RETURN_IF_ERROR(cmp->Validate(table_.schema()));
    SEEDB_ASSIGN_OR_RETURN(const Column* col,
                           table_.ColumnByName(cmp->column()));
    SelRecipe r;
    r.sample = spec->sample_mask;
    r.column = col;
    r.op = cmp->op();
    r.literal = cmp->literal();
    switch (col->type()) {
      case ValueType::kString:
        r.kind = SelRecipe::Kind::kCompareCode;
        break;
      case ValueType::kDouble: {
        r.kind = SelRecipe::Kind::kCompareDouble;
        SEEDB_ASSIGN_OR_RETURN(r.literal_f64, cmp->literal().ToDouble());
        break;
      }
      case ValueType::kInt64: {
        SEEDB_ASSIGN_OR_RETURN(double lit, cmp->literal().ToDouble());
        constexpr double kExactLimit = 2251799813685248.0;  // 2^51
        if (std::floor(lit) != lit || std::fabs(lit) > kExactLimit) {
          return false;
        }
        r.kind = SelRecipe::Kind::kCompareInt64;
        r.literal_i64 = static_cast<int64_t>(lit);
        break;
      }
      default:
        return false;
    }
    for (size_t i = 0; i < recipes_.size(); ++i) {
      if (SameRecipe(recipes_[i], r)) {
        spec->recipe = static_cast<int>(i);
        return true;
      }
    }
    if (r.kind == SelRecipe::Kind::kCompareCode) {
      r.code_match.resize(col->dict_size());
      for (size_t c = 0; c < r.code_match.size(); ++c) {
        r.code_match[c] = CompareValues(Value(col->dict_value(
                                            static_cast<int32_t>(c))),
                                        r.op, cmp->literal())
                              ? 1
                              : 0;
      }
    }
    spec->recipe = static_cast<int>(recipes_.size());
    recipes_.push_back(std::move(r));
    return true;
  }

  // Recipe id for a byte-mask filter, deduplicated by mask pointer (the
  // MaskCache guarantees pointer identity per distinct configuration).
  int MaskRecipe(const std::vector<uint8_t>* mask) {
    for (size_t i = 0; i < recipes_.size(); ++i) {
      if (recipes_[i].kind == SelRecipe::Kind::kMask &&
          recipes_[i].mask == mask) {
        return static_cast<int>(i);
      }
    }
    SelRecipe r;
    r.kind = SelRecipe::Kind::kMask;
    r.mask = mask;
    recipes_.push_back(std::move(r));
    return static_cast<int>(recipes_.size() - 1);
  }

  size_t num_rows() const { return table_.num_rows(); }
  size_t num_queries() const { return queries_.size(); }
  const std::vector<GroupingSetsQuery>& queries() const { return queries_; }
  size_t rows_consumed() const { return rows_consumed_; }

  /// A query is active while any of its sets holds a live aggregate.
  bool query_active(size_t q) const {
    return std::any_of(
        specs_[q].sets.begin(), specs_[q].sets.end(),
        [](const SetSpec& set) { return !set.live_aggs.empty(); });
  }

  size_t active_queries() const {
    size_t n = 0;
    for (size_t q = 0; q < specs_.size(); ++q) n += query_active(q) ? 1 : 0;
    return n;
  }

  /// True while workers still visit rows for query q: some set of q is
  /// live and not cache-adopted.
  bool query_scanned(size_t q) const {
    return std::any_of(specs_[q].sets.begin(), specs_[q].sets.end(), Scanned);
  }

  /// Live (set, aggregate) pairs the scan still accumulates: the per-row
  /// work unit behind adaptive morsel sizing and engine.scan.agg_rows.
  size_t scanned_agg_units() const {
    size_t units = 0;
    for (const QuerySpec& spec : specs_) {
      for (const SetSpec& set : spec.sets) {
        if (Scanned(set)) units += set.live_aggs.size();
      }
    }
    return units;
  }

  Status RetireAggregate(size_t q, size_t s, size_t j) {
    if (q >= queries_.size() || s >= specs_[q].sets.size() ||
        j >= specs_[q].aggs.size()) {
      return Status::InvalidArgument("aggregate index out of range");
    }
    std::vector<uint32_t>& live = specs_[q].sets[s].live_aggs;
    auto it = std::find(live.begin(), live.end(), static_cast<uint32_t>(j));
    if (it == live.end()) return Status::OK();
    live.erase(it);
    static obs::Counter* retired =
        obs::Registry::Global().GetCounter("engine.pruning.aggs_retired");
    retired->Add();
    return Status::OK();
  }

  Status DeactivateQuery(size_t q) {
    if (q >= queries_.size()) {
      return Status::InvalidArgument("query index out of range");
    }
    for (size_t s = 0; s < specs_[q].sets.size(); ++s) {
      while (!specs_[q].sets[s].live_aggs.empty()) {
        SEEDB_RETURN_IF_ERROR(
            RetireAggregate(q, s, specs_[q].sets[s].live_aggs.back()));
      }
    }
    return Status::OK();
  }

  Status RunPhase(size_t row_begin, size_t row_end) {
    if (finalized_) {
      return Status::Internal("shared scan already finalized");
    }
    if (cancelled_) {
      return Status::Internal("shared scan was cancelled");
    }
    if (row_begin != rows_consumed_) {
      return Status::InvalidArgument(
          "phases must be contiguous: expected row_begin " +
          std::to_string(rows_consumed_) + ", got " +
          std::to_string(row_begin));
    }
    if (row_end < row_begin || row_end > table_.num_rows()) {
      return Status::InvalidArgument("phase row range out of bounds");
    }
    rows_consumed_ = row_end;
    ++phases_;
    if (row_begin == row_end) return Status::OK();

    // Per-phase wall time feeds the registry histogram (phase granularity,
    // never per morsel — morsels/sec derives from the morsel counter over
    // this latency); the span shows up as one block per phase in Perfetto.
    static obs::Histogram* phase_latency =
        obs::Registry::Global().GetHistogram("engine.phase.latency_us");
    obs::ScopedTimer phase_obs_timer(phase_latency);
    SEEDB_TRACE_SPAN_IF(phase_span, "scan.phase", 0,
                        obs::TraceRecorder::ShouldTrace(trace_));

    // Adaptive mode re-derives the morsel size per phase: from the phase's
    // own row range (phases are slices of the table; sizing them off the
    // whole table would make early phases one giant morsel) scaled up by the
    // fraction of (set, aggregate) pairs no longer scanned — each retired or
    // adopted pair cuts per-morsel work, so surviving phases take
    // proportionally coarser morsels instead of over-scheduling the pool.
    const size_t agg_units = scanned_agg_units();
    size_t morsel_rows = morsel_rows_;
    if (adaptive_morsels_) {
      const size_t base = AdaptiveMorselRows(row_end - row_begin, threads_);
      const size_t live = std::max<size_t>(1, agg_units);
      const size_t coarse =
          base * std::max<size_t>(1, total_agg_units_ / live);
      // Never coarser than one morsel per worker (while rows allow it).
      const size_t per_worker =
          (row_end - row_begin + threads_ - 1) / std::max<size_t>(1, threads_);
      morsel_rows = std::clamp(coarse, base, std::max(base, per_worker));
    }
    last_phase_morsel_rows_ = morsel_rows;

    const size_t num_morsels =
        (row_end - row_begin + morsel_rows - 1) / morsel_rows;
    std::vector<size_t> all(num_morsels);
    for (size_t m = 0; m < num_morsels; ++m) all[m] = m;
    std::vector<uint8_t> completed(num_morsels, 0);
    size_t done = num_morsels;
    if (agg_units > 0) {
      done = ScanMorsels(all, row_begin, row_end, morsel_rows, &completed);
    } else {
      // Every set was either cache-adopted or retired: the phase is a
      // no-op over the row range, advancing rows_consumed_ without touching
      // a single row (rows_scanned stays put — that is the cache's win).
      std::fill(completed.begin(), completed.end(), uint8_t{1});
    }

    const bool cut_short =
        cancel_ != nullptr && cancel_->load(std::memory_order_relaxed) &&
        done < num_morsels;

    // Rows visited this phase: the largest per-query sample-mask count among
    // scanned queries (each distinct mask counted once). Under cancellation,
    // scale by the fraction of morsels that actually completed.
    size_t phase_rows = 0;
    // Distinct sample masks per batch are few (MaskCache dedups by pointer),
    // so a flat vector with linear probes beats a node-based map here.
    std::vector<std::pair<const std::vector<uint8_t>*, size_t>> mask_counts;
    for (size_t q = 0; q < specs_.size(); ++q) {
      if (!query_scanned(q)) continue;
      const std::vector<uint8_t>* sample = specs_[q].sample_mask;
      if (sample == nullptr) {
        phase_rows = std::max(phase_rows, row_end - row_begin);
        continue;
      }
      size_t count = 0;
      bool found = false;
      for (const auto& [mask, cached] : mask_counts) {
        if (mask == sample) {
          count = cached;
          found = true;
          break;
        }
      }
      if (!found) {
        count = static_cast<size_t>(
            std::count(sample->begin() + row_begin, sample->begin() + row_end,
                       uint8_t{1}));
        mask_counts.emplace_back(sample, count);
      }
      phase_rows = std::max(phase_rows, count);
    }
    size_t counted_rows = phase_rows;
    if (cut_short) {
      cancelled_ = true;
      // Completed morsels are an arbitrary subset of the phase, so report
      // the covered rows as an estimate and freeze the scan here — keeping
      // the completed-morsel record so ResumeAfterCancel() can scan exactly
      // the complement instead of discarding the session.
      rows_consumed_ = std::min(row_end, row_begin + done * morsel_rows);
      if (num_morsels > 0) counted_rows = phase_rows * done / num_morsels;
      pending_ = PendingPhase{row_begin,   row_end,      morsel_rows,
                             phase_rows,  counted_rows, std::move(completed)};
    }
    rows_scanned_ += counted_rows;
    morsels_ += done;
    static obs::Counter* obs_morsels =
        obs::Registry::Global().GetCounter("engine.scan.morsels");
    static obs::Counter* obs_rows =
        obs::Registry::Global().GetCounter("engine.scan.rows");
    obs_morsels->Add(done);
    obs_rows->Add(counted_rows);
    return Status::OK();
  }

  bool cancelled() const { return cancelled_; }

  // Completes the morsels of a cut-short phase that never ran, merging them
  // into the persistent state, then clears the cancelled flag so later
  // phases may run. The caller must have reset the cancel token first —
  // a still-set token simply cancels the resume again.
  Status ResumeAfterCancel() {
    if (finalized_) {
      return Status::Internal("shared scan already finalized");
    }
    if (!cancelled_) {
      return Status::InvalidArgument("shared scan is not cancelled");
    }
    cancelled_ = false;
    if (!pending_.has_value()) return Status::OK();  // between phases
    PendingPhase pending = std::move(*pending_);
    pending_.reset();

    std::vector<size_t> missing;
    for (size_t m = 0; m < pending.completed.size(); ++m) {
      if (!pending.completed[m]) missing.push_back(m);
    }
    const size_t done = ScanMorsels(missing, pending.row_begin,
                                    pending.row_end, pending.morsel_rows,
                                    &pending.completed);
    morsels_ += done;
    if (done < missing.size() && cancel_ != nullptr &&
        cancel_->load(std::memory_order_relaxed)) {
      // Cancelled again mid-resume: freeze with the updated record; a later
      // resume scans the (smaller) complement.
      cancelled_ = true;
      const size_t total = pending.completed.size();
      const size_t covered = total - (missing.size() - done);
      rows_consumed_ = std::min(pending.row_end,
                                pending.row_begin +
                                    covered * pending.morsel_rows);
      size_t counted = total > 0
                           ? pending.phase_rows_full * covered / total
                           : pending.phase_rows_full;
      counted = std::max(counted, pending.phase_rows_counted);
      rows_scanned_ += counted - pending.phase_rows_counted;
      pending.phase_rows_counted = counted;
      pending_ = std::move(pending);
      return Status::OK();
    }
    rows_consumed_ = pending.row_end;
    rows_scanned_ += pending.phase_rows_full - pending.phase_rows_counted;
    return Status::OK();
  }

  // Dispatches the given morsels of one phase grid to the worker pool and
  // folds every worker's partials into the persistent global state. Returns
  // the number of morsels actually completed (less than ids.size() only when
  // the cancel token fired). The merge runs even when cut short: completed
  // morsels are a consistent (if non-prefix) row subset shared by every
  // scanned set, exactly what a partial-result estimate wants.
  size_t ScanMorsels(const std::vector<size_t>& ids, size_t row_begin,
                     size_t row_end, size_t morsel_rows,
                     std::vector<uint8_t>* completed) {
    if (ids.empty()) return 0;
    const size_t threads = std::max<size_t>(1, std::min(threads_, ids.size()));
    // Worker accumulation state persists in the Impl and is reset (capacity-
    // preserving) per pass, so dense slabs are allocated once per worker for
    // the scan's lifetime instead of once per phase.
    if (worker_states_.size() < threads) worker_states_.resize(threads);
    for (size_t t = 0; t < threads; ++t) {
      PrepareWorkerState(specs_, &worker_states_[t]);
    }

    std::atomic<size_t> next_morsel{0};
    std::atomic<size_t> morsels_done{0};
    std::atomic<size_t> vec_morsels{0};
    std::atomic<size_t> simd_morsels{0};
    const bool record_spans = obs::TraceRecorder::ShouldTrace(trace_);
    if (threads == 1) {
      SEEDB_TRACE_SPAN_IF(worker_span, "scan.worker", 0, record_spans);
      WorkerLoop(specs_, recipes_, row_begin, row_end, morsel_rows, ids,
                 use_simd_, &next_morsel, cancel_, &morsels_done, &vec_morsels,
                 &simd_morsels, completed, &worker_states_[0]);
    } else {
      // The pool persists across phases — spawning threads per phase would
      // bill their creation to every phase_seconds measurement.
      if (!pool_) pool_ = std::make_unique<ThreadPool>(threads_);
      std::vector<std::future<void>> futures;
      futures.reserve(threads);
      for (size_t t = 0; t < threads; ++t) {
        WorkerState* state = &worker_states_[t];
        futures.push_back(pool_->Submit([this, row_begin, row_end, morsel_rows,
                                         &ids, &next_morsel, &morsels_done,
                                         &vec_morsels, &simd_morsels, completed,
                                         record_spans, state] {
          SEEDB_TRACE_SPAN_IF(worker_span, "scan.worker", 0, record_spans);
          WorkerLoop(specs_, recipes_, row_begin, row_end, morsel_rows, ids,
                     use_simd_, &next_morsel, cancel_, &morsels_done,
                     &vec_morsels, &simd_morsels, completed, state);
        }));
      }
      for (auto& f : futures) f.get();
    }

    SEEDB_TRACE_SPAN_IF(merge_span, "scan.merge", 0, record_spans);
    for (size_t q = 0; q < specs_.size(); ++q) {
      for (size_t s = 0; s < specs_[q].sets.size(); ++s) {
        const SetSpec& set = specs_[q].sets[s];
        if (!Scanned(set)) continue;
        for (size_t t = 0; t < threads; ++t) {
          const WorkerState& worker = worker_states_[t];
          if (set.vectorized) {
            MergeDenseInto(set, worker[q][s].dense, &globals_[q][s]);
          } else {
            MergeWorkerInto(set, worker[q][s].lg, &globals_[q][s]);
          }
        }
      }
    }
    // Accumulation work this pass: rows of every completed morsel times the
    // live (set, aggregate) pairs each of those rows fed.
    size_t pass_rows = 0;
    for (size_t m : ids) {
      if (!(*completed)[m]) continue;
      const size_t lo = row_begin + m * morsel_rows;
      pass_rows += std::min(row_end, lo + morsel_rows) - lo;
    }
    static obs::Counter* obs_agg_rows =
        obs::Registry::Global().GetCounter("engine.scan.agg_rows");
    obs_agg_rows->Add(pass_rows * scanned_agg_units());
    threads_used_ = std::max(threads_used_, threads);
    vectorized_morsels_ += vec_morsels.load(std::memory_order_relaxed);
    simd_morsels_ += simd_morsels.load(std::memory_order_relaxed);
    return morsels_done.load(std::memory_order_relaxed);
  }

  // Sets with no live aggregate come back as empty placeholder tables (no
  // columns), so result indices keep lining up with grouping sets — unless
  // the whole query is retired, whose frozen state stays inspectable.
  Result<std::vector<Table>> PartialResults(size_t q) const {
    if (q >= queries_.size()) {
      return Status::InvalidArgument("query index out of range");
    }
    const bool retired = !query_active(q);
    std::vector<Table> results;
    results.reserve(specs_[q].sets.size());
    for (size_t s = 0; s < specs_[q].sets.size(); ++s) {
      if (!retired && specs_[q].sets[s].live_aggs.empty()) {
        results.push_back(Table(Schema()));
        continue;
      }
      SEEDB_ASSIGN_OR_RETURN(
          Table out, MaterializeSet(table_, queries_[q], s, specs_[q].sets[s],
                                    globals_[q][s]));
      results.push_back(std::move(out));
    }
    return results;
  }

  Result<std::vector<std::vector<Table>>> FinalResults() {
    finalized_ = true;
    PublishToCache();
    std::vector<std::vector<Table>> results(queries_.size());
    for (size_t q = 0; q < queries_.size(); ++q) {
      if (!query_active(q)) continue;  // retired queries yield no tables
      SEEDB_ASSIGN_OR_RETURN(results[q], PartialResults(q));
    }
    return results;
  }

  // Publishes every scanned (query, set) pair's merged state to the
  // cross-session cache — only when the scan covered the whole table
  // uncancelled and only for pairs whose every aggregate stayed live
  // throughout (a retired aggregate's state stops at its retirement phase
  // and must never be adopted as final; retirement is permanent, so a full
  // live list now means full for the whole scan). Adopted pairs are
  // skipped: they are already cached.
  void PublishToCache() {
    if (cache_ == nullptr || cancelled_ ||
        rows_consumed_ != table_.num_rows()) {
      return;
    }
    for (size_t q = 0; q < queries_.size(); ++q) {
      for (size_t s = 0; s < specs_[q].sets.size(); ++s) {
        const SetSpec& set = specs_[q].sets[s];
        if (set.adopted || set.live_aggs.size() != specs_[q].aggs.size()) {
          continue;
        }
        CachedPartialAgg entry;
        entry.rep_row = globals_[q][s].rep_row;
        entry.states = globals_[q][s].states;
        cache_->Insert(cache_keys_[q][s], std::move(entry));
      }
    }
  }

  SharedScanStats stats() const {
    SharedScanStats s;
    s.rows_scanned = rows_scanned_;
    s.morsels = morsels_;
    s.vectorized_morsels = vectorized_morsels_;
    s.simd_morsels = simd_morsels_;
    for (const WorkerState& worker : worker_states_) {
      for (const auto& sets : worker) {
        for (const SetAccum& accum : sets) {
          s.agg_slab_allocations += accum.dense.allocations;
        }
      }
    }
    s.threads_used = threads_used_;
    s.phases = phases_;
    s.last_phase_morsel_rows = last_phase_morsel_rows_;
    s.selection_recipes = recipes_.size();
    s.cache_hits = cache_hits_;
    s.cache_misses = cache_misses_;
    for (size_t q = 0; q < globals_.size(); ++q) {
      for (size_t g = 0; g < globals_[q].size(); ++g) {
        s.total_groups += globals_[q][g].rep_row.size();
        s.agg_state_bytes +=
            globals_[q][g].rep_row.size() * specs_[q].aggs.size() *
            sizeof(AggState);
      }
    }
    return s;
  }

 private:
  /// The interrupted phase of a cancelled scan: its grid geometry, the
  /// per-morsel completion record, and how much of the phase's row count was
  /// already folded into rows_scanned_ — everything ResumeAfterCancel()
  /// needs to finish exactly the rows the cancel skipped.
  struct PendingPhase {
    size_t row_begin = 0;
    size_t row_end = 0;
    size_t morsel_rows = 0;
    /// Full-phase visited-row count (mask-based), and the portion already
    /// added to rows_scanned_ at cancellation time.
    size_t phase_rows_full = 0;
    size_t phase_rows_counted = 0;
    std::vector<uint8_t> completed;
  };

  const Table& table_;
  std::vector<GroupingSetsQuery> queries_;
  MaskCache masks_;
  std::vector<QuerySpec> specs_;
  /// Selection recipes (fused compares + mask conversions) referenced by
  /// QuerySpec::recipe; deduplicated, shared across queries.
  std::vector<SelRecipe> recipes_;
  bool use_simd_ = false;
  /// (set, aggregate) pairs across the whole batch, live or not.
  size_t total_agg_units_ = 0;
  /// Cross-session cache wiring; keys are precomputed per (query, set) at
  /// Init (empty when cache_ is null).
  PartialAggCache* cache_ = nullptr;
  uint64_t table_version_ = 0;
  std::vector<std::vector<std::string>> cache_keys_;
  size_t cache_hits_ = 0;
  size_t cache_misses_ = 0;
  /// Per-worker accumulation state, persistent across phases (slab reuse).
  std::vector<WorkerState> worker_states_;
  /// globals_[q][s]: merged groups, persistent across phases.
  std::vector<std::vector<GlobalGroups>> globals_;

  size_t threads_ = 1;
  size_t morsel_rows_ = 0;
  bool adaptive_morsels_ = false;
  bool trace_ = false;
  const std::atomic<bool>* cancel_ = nullptr;
  /// Lazily created on the first multi-threaded phase, reused after.
  std::unique_ptr<ThreadPool> pool_;
  size_t rows_consumed_ = 0;
  bool finalized_ = false;
  bool cancelled_ = false;
  std::optional<PendingPhase> pending_;

  size_t rows_scanned_ = 0;
  size_t morsels_ = 0;
  size_t vectorized_morsels_ = 0;
  size_t simd_morsels_ = 0;
  size_t threads_used_ = 0;
  size_t phases_ = 0;
  size_t last_phase_morsel_rows_ = 0;
};

SharedScanState::SharedScanState(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
SharedScanState::SharedScanState(SharedScanState&&) noexcept = default;
SharedScanState& SharedScanState::operator=(SharedScanState&&) noexcept =
    default;
SharedScanState::~SharedScanState() = default;

Result<SharedScanState> SharedScanState::Create(
    const Table& table, std::vector<GroupingSetsQuery> queries,
    const SharedScanOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("shared scan needs at least one query");
  }
  auto impl = std::make_unique<Impl>(table, std::move(queries));
  SEEDB_RETURN_IF_ERROR(impl->Init(options));
  return SharedScanState(std::move(impl));
}

size_t SharedScanState::num_rows() const { return impl_->num_rows(); }
size_t SharedScanState::num_queries() const { return impl_->num_queries(); }
const std::vector<GroupingSetsQuery>& SharedScanState::queries() const {
  return impl_->queries();
}
size_t SharedScanState::rows_consumed() const {
  return impl_->rows_consumed();
}

Status SharedScanState::RunPhase(size_t row_begin, size_t row_end) {
  return impl_->RunPhase(row_begin, row_end);
}

bool SharedScanState::cancelled() const { return impl_->cancelled(); }

Status SharedScanState::ResumeAfterCancel() {
  return impl_->ResumeAfterCancel();
}

bool SharedScanState::query_active(size_t q) const {
  return impl_->query_active(q);
}
size_t SharedScanState::active_queries() const {
  return impl_->active_queries();
}
Status SharedScanState::DeactivateQuery(size_t q) {
  return impl_->DeactivateQuery(q);
}
Status SharedScanState::RetireAggregate(size_t q, size_t set,
                                        size_t aggregate) {
  return impl_->RetireAggregate(q, set, aggregate);
}

Result<std::vector<Table>> SharedScanState::PartialResults(size_t q) const {
  return impl_->PartialResults(q);
}

Result<std::vector<std::vector<Table>>> SharedScanState::FinalResults() {
  return impl_->FinalResults();
}

SharedScanStats SharedScanState::stats() const { return impl_->stats(); }

Result<std::vector<std::vector<Table>>> ExecuteSharedScan(
    const Table& table, const std::vector<GroupingSetsQuery>& queries,
    const SharedScanOptions& options, SharedScanStats* stats) {
  SEEDB_ASSIGN_OR_RETURN(SharedScanState state,
                         SharedScanState::Create(table, queries, options));
  SEEDB_RETURN_IF_ERROR(state.RunPhase(0, table.num_rows()));
  SEEDB_ASSIGN_OR_RETURN(std::vector<std::vector<Table>> results,
                         state.FinalResults());
  if (stats) *stats = state.stats();
  return results;
}

}  // namespace seedb::db
