#include "db/shared_scan.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
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
// Two inner-loop modes, decided once at Init:
//   * vectorized — every grouping column is dictionary-coded and the
//     composed group space fits kDenseSlotBudget: group ids come from the
//     db/vec/ radix kernels and aggregates accumulate into flat slabs;
//   * hash — anything else (a numeric column, an oversized group space, or
//     enable_vectorized off): packed key tuples row at a time.
// Both create groups in first-seen row order per worker, so they merge in
// the same order and produce bit-identical results.
struct SetSpec {
  std::vector<const Column*> cols;
  std::vector<size_t> col_indices;
  /// Radix product of per-column slot counts when the set takes the
  /// vectorized kernels; 0 for the hash path.
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
  /// The query's accumulators serving at least one live aggregate of this
  /// set, ascending: what the inner loops run and the merges fold.
  std::vector<uint32_t> live_accs;
  /// Raw column arrays for the vectorized group-id kernels.
  std::vector<vec::DenseDim> dims;
};

// True when workers scan this (query, set): it still has a live aggregate
// and its final state did not come from the cache.
bool Scanned(const SetSpec& set) {
  return !set.adopted && !set.live_aggs.empty();
}

// One accumulator of one query: an AggState array fed by every aggregate
// over the same (input column, FILTER mask) pair. AggState holds count, sum,
// min and max at once, so SUM(m), AVG(m), MIN(m), MAX(m) and COUNT(m) under
// one FILTER read one accumulator instead of each running a kernel over the
// same rows.
struct AccRuntime {
  const Column* input = nullptr;  // nullptr => COUNT(*)
  const std::vector<uint8_t>* filter = nullptr;
  /// Every aggregate served is a COUNT: only the count kernel runs. The full
  /// kernel counts the same rows (same filter, same null skip), so a COUNT
  /// sharing a full accumulator reads an identical count.
  bool count_only = true;
  /// Index into the scan's FILTER selection list (the vectorized loop runs a
  /// filtered accumulator over that selection); -1 when unfiltered.
  int filter_sel = -1;
};

// One query of the batch, fully resolved: combined sample & WHERE mask
// (nullptr selects every row), grouping sets, accumulators.
struct QuerySpec {
  const std::vector<uint8_t>* mask = nullptr;
  /// Sample mask alone (nullptr = unsampled) — the rows the scan *visits*
  /// for this query, the unit rows_scanned accounting uses.
  const std::vector<uint8_t>* sample_mask = nullptr;
  std::vector<SetSpec> sets;
  std::vector<AccRuntime> accs;
  /// acc_of[j]: the accumulator aggregate j reads.
  std::vector<uint32_t> acc_of;
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

// Partial aggregation state one worker holds for one hash-path (query,
// grouping set). Groups are created lazily from the masked rows the worker
// actually saw; each local group's packed key identifies it for the
// cross-worker merge.
struct LocalGroups {
  std::unordered_map<std::vector<int64_t>, int32_t, internal::PackedKeyHash>
      key_to_local;
  std::vector<uint32_t> rep_row;
  std::vector<std::vector<int64_t>> keys;
  /// states[accumulator][local group].
  std::vector<std::vector<AggState>> states;

  int32_t NewGroup(uint32_t row) {
    int32_t gid = static_cast<int32_t>(rep_row.size());
    rep_row.push_back(row);
    for (auto& per_acc : states) per_acc.emplace_back();
    return gid;
  }

  /// Capacity-preserving per-phase reset, mirroring DenseAggTable::Reset.
  void Reset() {
    key_to_local.clear();
    rep_row.clear();
    keys.clear();
    for (auto& per_acc : states) per_acc.clear();
  }
};

// Per-worker accumulation state for one (query, grouping set): the hash
// path's LocalGroups or the vectorized flat slab, per the set's mode.
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
                           static_cast<uint32_t>(specs[q].accs.size()));
        } else {
          accum.dense.Reset();
        }
        continue;
      }
      if (fresh) {
        accum.lg.states.resize(specs[q].accs.size());
      } else {
        accum.lg.Reset();
      }
    }
  }
}

void AccumulateRow(const QuerySpec& spec, const SetSpec& set, LocalGroups* lg,
                   int32_t gid, size_t row) {
  for (uint32_t a : set.live_accs) {
    const AccRuntime& acc = spec.accs[a];
    if (acc.filter && !(*acc.filter)[row]) continue;
    if (acc.input && acc.input->IsNull(row)) continue;
    if (acc.count_only) {
      lg->states[a][gid].AddCountOnly();
    } else {
      lg->states[a][gid].Add(acc.input->NumericAt(row));
    }
  }
}

// Runs one hash-path (query, set) over rows [lo, hi) of one morsel.
void ScanMorsel(const QuerySpec& spec, const SetSpec& set, LocalGroups* lg,
                size_t lo, size_t hi, std::vector<int64_t>* key_scratch) {
  const std::vector<uint8_t>* mask = spec.mask;
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

// A FILTER'd accumulator's rows within one morsel: the query's selection
// (`base` recipe id, or -1 for the whole morsel) refined by the FILTER mask.
// Deduplicated at Init, so every query and set with the same row filter and
// FILTER reads one selection per morsel.
struct FilterSel {
  int base = -1;
  const std::vector<uint8_t>* filter = nullptr;
};

// Per-worker, per-morsel scratch for the vectorized inner loop: selections
// indexed flat by recipe id and FILTER selections by FilterSel id (both
// built lazily per morsel and shared by every query that reads them), the
// reusable group-id buffers, and the group ids of each FILTER selection
// gathered for the set being scanned. Capacity persists across morsels.
struct VecScratch {
  std::vector<vec::SelectionVector> selections;
  std::vector<uint8_t> built;
  std::vector<vec::SelectionVector> filter_selections;
  std::vector<uint8_t> filter_built;
  std::vector<uint32_t> gids;
  /// filter_gids[f] holds FILTER selection f's group ids for the set whose
  /// ScanMorselVec call stamped filter_stamp[f] with set_stamp.
  std::vector<std::vector<uint32_t>> filter_gids;
  std::vector<uint64_t> filter_stamp;
  uint64_t set_stamp = 0;
  bool use_simd = false;

  void Prepare(size_t num_recipes, size_t num_filter_sels, bool simd) {
    selections.resize(num_recipes);
    built.assign(num_recipes, 0);
    filter_selections.resize(num_filter_sels);
    filter_built.assign(num_filter_sels, 0);
    filter_gids.resize(num_filter_sels);
    filter_stamp.assign(num_filter_sels, 0);
    use_simd = simd;
  }

  void StartMorsel() {
    std::fill(built.begin(), built.end(), 0);
    std::fill(filter_built.begin(), filter_built.end(), 0);
  }

  const vec::SelectionVector* Selection(const SelRecipe& recipe, int id,
                                        size_t lo, size_t hi) {
    const size_t idx = static_cast<size_t>(id);
    if (!built[idx]) {
      EvaluateIntoSelection(recipe, lo, hi, use_simd, &selections[idx]);
      built[idx] = 1;
    }
    return &selections[idx];
  }

  // The FILTER selection `f` over morsel [lo, hi): the mask's rows directly
  // when the query selects the whole morsel, else the query's selection
  // refined by the mask. These are the rows a per-row mask test would pass,
  // in the same ascending order, so sums are bit-identical to it.
  const vec::SelectionVector* FilterSelection(
      const std::vector<SelRecipe>& recipes, const FilterSel& fs, int f,
      size_t lo, size_t hi) {
    const size_t idx = static_cast<size_t>(f);
    vec::SelectionVector* out = &filter_selections[idx];
    if (filter_built[idx]) return out;
    filter_built[idx] = 1;
    const uint8_t* mask = fs.filter->data();
    if (fs.base < 0) {
      if (use_simd) {
        vec::simd::SelectFromMask(mask, lo, hi, out);
      } else {
        vec::SelectFromMask(mask, lo, hi, out);
      }
      return out;
    }
    *out = *Selection(recipes[fs.base], fs.base, lo, hi);
    if (use_simd) {
      vec::simd::Refine(mask, out);
    } else {
      vec::Refine(mask, out);
    }
    return out;
  }
};

// Runs accumulator `acc`'s flat-slab kernel over `n` rows: the selection
// `sel` with its group ids `gids`, or, when `sel` is nullptr, the range
// [lo, lo + n). No FILTER reaches the kernel: a filtered accumulator
// arrives with its FILTER selection instead.
void AccumulateInto(const AccRuntime& acc, const uint32_t* gids, size_t lo,
                    size_t n, const vec::SelectionVector* sel,
                    AggState* slab) {
  const uint8_t* validity =
      (acc.input != nullptr && !acc.input->validity().empty())
          ? acc.input->validity().data()
          : nullptr;
  if (acc.count_only) {
    // COUNT(*) has no input (validity nullptr counts every selected row);
    // COUNT(col) skips null inputs via the column's validity bytes.
    if (sel != nullptr) {
      vec::AccumulateCountSel(gids, *sel, nullptr, validity, slab);
    } else {
      vec::AccumulateCountRange(gids, lo, n, nullptr, validity, slab);
    }
    return;
  }
  if (acc.input->type() == ValueType::kInt64) {
    const int64_t* data = acc.input->int64_data().data();
    if (sel != nullptr) {
      vec::AccumulateInt64Sel(gids, *sel, data, nullptr, validity, slab);
    } else {
      vec::AccumulateInt64Range(gids, lo, n, data, nullptr, validity, slab);
    }
  } else {
    const double* data = acc.input->double_data().data();
    if (sel != nullptr) {
      vec::AccumulateDoubleSel(gids, *sel, data, nullptr, validity, slab);
    } else {
      vec::AccumulateDoubleRange(gids, lo, n, data, nullptr, validity, slab);
    }
  }
}

// The vectorized inner loop for one (query, set) over one morsel: group ids
// once (radix kernel), group creation once (touch kernel), then one typed
// flat-slab kernel per live accumulator. `sel == nullptr` means the query
// selects the whole morsel and unfiltered accumulators walk [lo, hi)
// directly; a FILTER'd accumulator walks its FILTER selection, whose group
// ids are gathered once per set.
void ScanMorselVec(const QuerySpec& spec, const SetSpec& set,
                   const std::vector<SelRecipe>& recipes,
                   const std::vector<FilterSel>& filter_sels, SetAccum* accum,
                   size_t lo, size_t hi, const vec::SelectionVector* sel,
                   VecScratch* scratch) {
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
  const uint64_t stamp = ++scratch->set_stamp;
  for (uint32_t a : set.live_accs) {
    const AccRuntime& acc = spec.accs[a];
    if (acc.filter_sel < 0) {
      AccumulateInto(acc, gids, lo, n, sel, t->slab(a));
      continue;
    }
    const size_t f = static_cast<size_t>(acc.filter_sel);
    const vec::SelectionVector* fsel = scratch->FilterSelection(
        recipes, filter_sels[f], acc.filter_sel, lo, hi);
    if (fsel->size() == 0) continue;
    std::vector<uint32_t>& fgids = scratch->filter_gids[f];
    if (scratch->filter_stamp[f] != stamp) {
      if (fgids.size() < fsel->size()) fgids.resize(fsel->size());
      vec::GroupIdsSel(set.dims.data(), set.dims.size(), *fsel, fgids.data());
      scratch->filter_stamp[f] = stamp;
    }
    AccumulateInto(acc, fgids.data(), lo, fsel->size(), fsel, t->slab(a));
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
                const std::vector<SelRecipe>& recipes,
                const std::vector<FilterSel>& filter_sels, size_t row_begin,
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
  vec_scratch.Prepare(recipes.size(), filter_sels.size(), use_simd);
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
          ScanMorselVec(specs[q], set, recipes, filter_sels, &(*state)[q][s],
                        lo, hi, sel, &vec_scratch);
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

// An aggregate retired while its accumulator stayed live for another
// aggregate of the set: its merged state as of its retirement, so it stays
// frozen there while the accumulator keeps going.
struct FrozenAgg {
  uint32_t agg = 0;
  std::vector<AggState> states;
};

// Merged (cross-worker, cross-phase) groups for one (query, set). Persists
// across phases; each phase's worker partials fold into it. Vectorized sets
// find their groups by dense slot, hash-path sets by packed key.
struct GlobalGroups {
  std::vector<int32_t> dense_to_global;
  std::unordered_map<std::vector<int64_t>, int32_t, internal::PackedKeyHash>
      key_to_global;
  std::vector<uint32_t> rep_row;
  /// states[accumulator][group].
  std::vector<std::vector<AggState>> states;
  std::vector<FrozenAgg> frozen;
  /// Aggregates retired since the last pass whose accumulator was still
  /// live then. The snapshot is taken just before the accumulator next
  /// moves, and only if it is still live: when every aggregate of an
  /// accumulator retires at one boundary, no copy is made.
  std::vector<uint32_t> freeze_pending;
  /// What ReadSet hands out: the key order of the first order.size()
  /// groups (sorted again only once groups were added), and each
  /// aggregate's state array as of the last read.
  std::vector<int32_t> order;
  std::vector<uint8_t> same_key;
  std::vector<const AggState*> agg_states;

  // A new group starts empty for every accumulator and every frozen
  // aggregate: a retired aggregate reads an empty state for the groups
  // first seen after its retirement.
  void NewGroup(uint32_t row) {
    rep_row.push_back(row);
    for (auto& per_acc : states) per_acc.emplace_back();
    for (FrozenAgg& f : frozen) f.states.emplace_back();
  }

  /// Aggregate j's per-group states: its snapshot if it froze while its
  /// accumulator stayed live, else the accumulator itself.
  const AggState* StatesOf(const QuerySpec& spec, size_t j) const {
    for (const FrozenAgg& f : frozen) {
      if (f.agg == j) return f.states.data();
    }
    return states[spec.acc_of[j]].data();
  }
};

// Folds one worker's hash-path partial state for one (query, set) into the
// persistent global state. Key parts are table-global (dictionary codes /
// bit patterns), so partials from different workers and phases merge
// correctly. Only live accumulators merge: a retired one's state stays
// frozen.
void MergeWorkerInto(const SetSpec& set, const LocalGroups& lg,
                     GlobalGroups* global) {
  for (size_t l = 0; l < lg.rep_row.size(); ++l) {
    auto [it, inserted] = global->key_to_global.emplace(
        lg.keys[l], static_cast<int32_t>(global->rep_row.size()));
    if (inserted) global->NewGroup(lg.rep_row[l]);
    for (uint32_t a : set.live_accs) {
      global->states[a][it->second].Merge(lg.states[a][l]);
    }
  }
}

// Folds one worker's vectorized flat slab into the persistent global state:
// touched slots only, in first-seen order — the same group-creation order as
// the hash path's lazy creation, so global group ids (and therefore the
// float merge order) are identical whichever inner loop ran. That is what
// makes dense and hash paths bit-identical, not merely close.
void MergeDenseInto(const SetSpec& set, const vec::DenseAggTable& t,
                    GlobalGroups* global) {
  for (size_t i = 0; i < t.touched.size(); ++i) {
    const uint32_t slot = t.touched[i];
    int32_t& slot_gid = global->dense_to_global[slot];
    if (slot_gid < 0) {
      slot_gid = static_cast<int32_t>(global->rep_row.size());
      global->NewGroup(t.rep_row[i]);
    }
    for (uint32_t a : set.live_accs) {
      global->states[a][slot_gid].Merge(t.slab(a)[slot]);
    }
  }
}

// Materializes one (query, set) result through the shared grouped-output
// shape (internal::MaterializeGroupedResult), so the fused path stays
// byte-identical to ExecuteGroupingSets by construction. Each aggregate
// reads its accumulator (or its retirement snapshot) in place. Works on
// partial (mid-scan) state just as well as on final state — the caller
// decides when the numbers mean something.
Result<Table> MaterializeSet(const Table& table, const GroupingSetsQuery& query,
                             const QuerySpec& spec, size_t set_index,
                             const SetSpec& set, const GlobalGroups& global) {
  // A global aggregate (empty grouping set) always has its one group, even
  // when no row passes the mask — matching GroupKeyBuilder, which creates
  // group 0 unconditionally (it has no key column to read at row 0).
  if (set.cols.empty() && global.rep_row.empty()) {
    const AggState empty;
    std::vector<const AggState*> states(query.aggregates.size(), &empty);
    return internal::MaterializeGroupedResult(
        table, query.grouping_sets[set_index], query.aggregates, {0}, states);
  }
  std::vector<const AggState*> states(query.aggregates.size());
  for (size_t j = 0; j < states.size(); ++j) {
    states[j] = global.StatesOf(spec, j);
  }
  return internal::MaterializeGroupedResult(
      table, query.grouping_sets[set_index], query.aggregates, global.rep_row,
      states);
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

Value MergedSet::KeyOf(int32_t g) const {
  return key_column->GetValue((*rep_row)[g]);
}

int CompareKeys(const MergedSet& a, int32_t g, const MergedSet& b,
                int32_t h) {
  return internal::CompareCells(*a.key_column, (*a.rep_row)[g],
                                (*b.rep_row)[h]);
}

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
        // fits kDenseSlotBudget (the empty set — a global aggregate — is a
        // 1-slot dense space); everything else hashes packed key tuples.
        const size_t dense_slots =
            all_dict ? vec::DenseSlotCount(resolved.dims, kDenseSlotBudget)
                     : 0;
        if (options.enable_vectorized && dense_slots > 0) {
          resolved.vectorized = true;
          resolved.dense_slots = dense_slots;
        } else {
          resolved.dims.clear();
        }
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

      // Accumulators: one per distinct (input column, FILTER mask) pair,
      // in first-seen aggregate order. MaskCache hands out one mask per
      // distinct FILTER predicate, so the pointer identifies the rows.
      for (const auto& agg : query.aggregates) {
        AccRuntime rt;
        if (!agg.input.empty()) {
          SEEDB_ASSIGN_OR_RETURN(rt.input, table_.ColumnByName(agg.input));
        }
        SEEDB_ASSIGN_OR_RETURN(rt.filter,
                               masks_.PredicateMask(agg.filter.get()));
        size_t a = 0;
        while (a < spec.accs.size() && (spec.accs[a].input != rt.input ||
                                        spec.accs[a].filter != rt.filter)) {
          ++a;
        }
        if (a == spec.accs.size()) {
          if (rt.filter != nullptr) {
            rt.filter_sel = FilterSelId(spec.recipe, rt.filter);
          }
          spec.accs.push_back(rt);
        }
        spec.accs[a].count_only &= rt.input == nullptr ||
                                   agg.func == AggregateFunction::kCount;
        spec.acc_of.push_back(static_cast<uint32_t>(a));
      }
      for (SetSpec& set : spec.sets) {
        set.live_aggs.resize(query.aggregates.size());
        for (size_t j = 0; j < set.live_aggs.size(); ++j) {
          set.live_aggs[j] = static_cast<uint32_t>(j);
        }
        set.live_accs.resize(spec.accs.size());
        for (size_t a = 0; a < spec.accs.size(); ++a) {
          set.live_accs[a] = static_cast<uint32_t>(a);
        }
        total_acc_units_ += spec.accs.size();
      }
    }

    globals_.resize(queries_.size());
    for (size_t q = 0; q < queries_.size(); ++q) {
      globals_[q].resize(specs_[q].sets.size());
      for (size_t s = 0; s < specs_[q].sets.size(); ++s) {
        GlobalGroups& global = globals_[q][s];
        global.states.resize(specs_[q].accs.size());
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
          if (entry == nullptr || entry->acc_of != specs_[q].acc_of ||
              entry->count_only != CountOnlyFlags(specs_[q])) {
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

  // FILTER selection id for (query recipe, FILTER mask), deduplicated so
  // every query with the same row filter and FILTER shares one selection
  // per morsel.
  int FilterSelId(int base, const std::vector<uint8_t>* filter) {
    for (size_t i = 0; i < filter_sels_.size(); ++i) {
      if (filter_sels_[i].base == base && filter_sels_[i].filter == filter) {
        return static_cast<int>(i);
      }
    }
    filter_sels_.push_back(FilterSel{base, filter});
    return static_cast<int>(filter_sels_.size() - 1);
  }

  static std::vector<uint8_t> CountOnlyFlags(const QuerySpec& spec) {
    std::vector<uint8_t> flags(spec.accs.size());
    for (size_t a = 0; a < flags.size(); ++a) {
      flags[a] = spec.accs[a].count_only ? 1 : 0;
    }
    return flags;
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

  /// Live (set, accumulator) pairs the scan still accumulates: the per-row
  /// work unit behind adaptive morsel sizing and engine.scan.agg_rows.
  size_t scanned_acc_units() const {
    size_t units = 0;
    for (const QuerySpec& spec : specs_) {
      for (const SetSpec& set : spec.sets) {
        if (Scanned(set)) units += set.live_accs.size();
      }
    }
    return units;
  }

  // Retiring j stops its accumulator only once no other live aggregate of
  // the set reads it; until then j's merged state is snapshotted (before the
  // next pass, see FreezeRetired) so j stays frozen at this point, exactly
  // as if it had its own accumulator.
  Status RetireAggregate(size_t q, size_t s, size_t j) {
    if (q >= queries_.size() || s >= specs_[q].sets.size() ||
        j >= specs_[q].acc_of.size()) {
      return Status::InvalidArgument("aggregate index out of range");
    }
    SetSpec& set = specs_[q].sets[s];
    std::vector<uint32_t>& live = set.live_aggs;
    auto it = std::find(live.begin(), live.end(), static_cast<uint32_t>(j));
    if (it == live.end()) return Status::OK();
    live.erase(it);
    const std::vector<uint32_t>& acc_of = specs_[q].acc_of;
    const uint32_t a = acc_of[j];
    const bool shared = std::any_of(live.begin(), live.end(), [&](uint32_t k) {
      return acc_of[k] == a;
    });
    if (!shared) {
      set.live_accs.erase(
          std::find(set.live_accs.begin(), set.live_accs.end(), a));
    } else if (!set.adopted) {
      // An adopted set never changes again, so it needs no snapshot.
      globals_[q][s].freeze_pending.push_back(static_cast<uint32_t>(j));
    }
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
    // fraction of (set, accumulator) pairs no longer scanned — each retired or
    // adopted pair cuts per-morsel work, so surviving phases take
    // proportionally coarser morsels instead of over-scheduling the pool.
    const size_t acc_units = scanned_acc_units();
    size_t morsel_rows = morsel_rows_;
    if (adaptive_morsels_) {
      const size_t base = AdaptiveMorselRows(row_end - row_begin, threads_);
      const size_t live = std::max<size_t>(1, acc_units);
      const size_t coarse =
          base * std::max<size_t>(1, total_acc_units_ / live);
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
    if (acc_units > 0) {
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
    FreezeRetired();
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
      WorkerLoop(specs_, recipes_, filter_sels_, row_begin, row_end,
                 morsel_rows, ids, use_simd_, &next_morsel, cancel_,
                 &morsels_done, &vec_morsels, &simd_morsels, completed,
                 &worker_states_[0]);
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
          WorkerLoop(specs_, recipes_, filter_sels_, row_begin, row_end,
                     morsel_rows, ids, use_simd_, &next_morsel, cancel_,
                     &morsels_done, &vec_morsels, &simd_morsels, completed,
                     state);
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
    // live (set, accumulator) pairs each of those rows fed.
    size_t pass_rows = 0;
    for (size_t m : ids) {
      if (!(*completed)[m]) continue;
      const size_t lo = row_begin + m * morsel_rows;
      pass_rows += std::min(row_end, lo + morsel_rows) - lo;
    }
    static obs::Counter* obs_agg_rows =
        obs::Registry::Global().GetCounter("engine.scan.agg_rows");
    obs_agg_rows->Add(pass_rows * scanned_acc_units());
    threads_used_ = std::max(threads_used_, threads);
    vectorized_morsels_ += vec_morsels.load(std::memory_order_relaxed);
    simd_morsels_ += simd_morsels.load(std::memory_order_relaxed);
    return morsels_done.load(std::memory_order_relaxed);
  }

  // Snapshots every aggregate retired since the last pass whose accumulator
  // is still live, before this pass moves the accumulator on.
  void FreezeRetired() {
    for (size_t q = 0; q < specs_.size(); ++q) {
      for (size_t s = 0; s < specs_[q].sets.size(); ++s) {
        GlobalGroups& global = globals_[q][s];
        const std::vector<uint32_t>& live = specs_[q].sets[s].live_accs;
        for (uint32_t j : global.freeze_pending) {
          const uint32_t a = specs_[q].acc_of[j];
          if (std::find(live.begin(), live.end(), a) != live.end()) {
            global.frozen.push_back(FrozenAgg{j, global.states[a]});
          }
        }
        global.freeze_pending.clear();
      }
    }
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
          Table out, MaterializeSet(table_, queries_[q], specs_[q], s,
                                    specs_[q].sets[s], globals_[q][s]));
      results.push_back(std::move(out));
    }
    return results;
  }

  // The key order is cached per pair: groups are only ever added, so an
  // order over as many groups as the set holds is still the order.
  Result<MergedSet> ReadSet(size_t q, size_t s) {
    if (q >= queries_.size() || s >= specs_[q].sets.size()) {
      return Status::InvalidArgument("grouping set index out of range");
    }
    const SetSpec& set = specs_[q].sets[s];
    GlobalGroups& global = globals_[q][s];
    if (global.order.size() != global.rep_row.size()) {
      internal::SortGroupsByKey(table_, set.col_indices, global.rep_row,
                                &global.order);
      global.same_key.assign(global.order.size(), 0);
      for (size_t i = 1; i < global.order.size() && !set.cols.empty(); ++i) {
        global.same_key[i] =
            internal::CompareCells(*set.cols[0],
                                   global.rep_row[global.order[i - 1]],
                                   global.rep_row[global.order[i]]) == 0;
      }
    }
    global.agg_states.resize(specs_[q].acc_of.size());
    for (size_t j = 0; j < global.agg_states.size(); ++j) {
      global.agg_states[j] = global.StatesOf(specs_[q], j);
    }
    MergedSet merged;
    merged.order = &global.order;
    merged.same_key = &global.same_key;
    merged.states = &global.agg_states;
    merged.key_column = set.cols.empty() ? nullptr : set.cols[0];
    merged.rep_row = &global.rep_row;
    return merged;
  }

  void Close() {
    if (finalized_) return;
    finalized_ = true;
    PublishToCache();
  }

  Result<std::vector<std::vector<Table>>> FinalResults() {
    Close();
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
  // skipped: they are already cached. The cache admits a pair on its key's
  // second miss (PartialAggCache::Insert).
  void PublishToCache() {
    if (cache_ == nullptr || cancelled_ ||
        rows_consumed_ != table_.num_rows()) {
      return;
    }
    for (size_t q = 0; q < queries_.size(); ++q) {
      for (size_t s = 0; s < specs_[q].sets.size(); ++s) {
        const SetSpec& set = specs_[q].sets[s];
        if (set.adopted ||
            set.live_aggs.size() != specs_[q].acc_of.size()) {
          continue;
        }
        CachedPartialAgg entry;
        entry.rep_row = globals_[q][s].rep_row;
        entry.states = globals_[q][s].states;
        entry.acc_of = specs_[q].acc_of;
        entry.count_only = CountOnlyFlags(specs_[q]);
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
      for (const GlobalGroups& global : globals_[q]) {
        const size_t groups = global.rep_row.size();
        s.total_groups += groups;
        s.agg_state_bytes +=
            groups * (specs_[q].accs.size() + global.frozen.size()) *
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
  /// FILTER selections referenced by AccRuntime::filter_sel; deduplicated.
  std::vector<FilterSel> filter_sels_;
  bool use_simd_ = false;
  /// (set, accumulator) pairs across the whole batch, live or not.
  size_t total_acc_units_ = 0;
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

Result<MergedSet> SharedScanState::ReadSet(size_t q, size_t set) {
  return impl_->ReadSet(q, set);
}

Result<std::vector<Table>> SharedScanState::PartialResults(size_t q) const {
  return impl_->PartialResults(q);
}

void SharedScanState::Close() { impl_->Close(); }

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
