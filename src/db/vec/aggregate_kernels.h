// Typed flat-array aggregation kernels over dense group ids.
//
// Each worker accumulates one contiguous slab of AggState per (accumulator,
// group slot) — accumulator-major layout, so one kernel call walks one
// contiguous run of states indexed directly by the group-id vector, with no
// hash probe and no per-row virtual dispatch. Slabs are merged into the scan's
// persistent global state at phase end (db/shared_scan.cc), touched slots
// only, in first-seen order — the same merge order as the hash path, which
// is what keeps the two paths bit-identical (sum reassociation included).
//
// Null handling matches the scalar path exactly: a null measure row is
// skipped by SUM/MIN/MAX/AVG and by COUNT(col), counted by COUNT(*). A
// FILTER mask, when passed, is tested per row inside the kernel (the branch
// is hoisted when absent); the fused scan passes none — it runs a FILTER'd
// accumulator over the FILTER's selection instead — so the parameter serves
// direct callers such as the benchmark's kernel measurements.

#ifndef SEEDB_DB_VEC_AGGREGATE_KERNELS_H_
#define SEEDB_DB_VEC_AGGREGATE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "db/aggregates.h"
#include "db/vec/selection_vector.h"

namespace seedb::db::vec {

/// \brief One worker's flat aggregation state for one (query, grouping set):
/// `slots * num_aggs` AggStates (one slab per accumulator in the fused scan)
/// plus the touched-slot record that makes the sparse merge and group
/// materialization possible.
struct DenseAggTable {
  uint32_t slots = 0;
  uint32_t num_aggs = 0;
  /// states[agg * slots + slot]; default-constructed AggState is the empty
  /// accumulator, so a fresh slab needs no separate zeroing pass.
  std::vector<AggState> states;
  /// seen[slot] — has this slot received a selected row this phase?
  std::vector<uint8_t> seen;
  /// Touched slots in first-seen order; group-creation order must match the
  /// scalar path's lazy creation for the global merge to assign identical
  /// group ids.
  std::vector<uint32_t> touched;
  /// rep_row[i] = first selected row of touched[i] (key materialization).
  std::vector<uint32_t> rep_row;
  /// Slab allocations performed by Init since construction; Reset never
  /// adds to it. Surfaced as SharedScanStats::agg_slab_allocations so tests
  /// can pin that multi-phase runs reuse worker slabs instead of
  /// reallocating per phase.
  size_t allocations = 0;

  void Init(uint32_t num_slots, uint32_t aggs) {
    slots = num_slots;
    num_aggs = aggs;
    states.assign(static_cast<size_t>(slots) * num_aggs, AggState{});
    seen.assign(slots, 0);
    touched.clear();
    rep_row.clear();
    ++allocations;
  }

  /// Capacity-preserving reset for slab reuse across phases: re-zeroes only
  /// the slots touched since Init / the last Reset and keeps every
  /// allocation. Equivalent to Init(slots, num_aggs) for kernel purposes
  /// but O(touched) instead of O(slots * num_aggs).
  void Reset() {
    for (uint32_t slot : touched) {
      seen[slot] = 0;
      for (uint32_t a = 0; a < num_aggs; ++a) {
        states[static_cast<size_t>(a) * slots + slot] = AggState{};
      }
    }
    touched.clear();
    rep_row.clear();
  }

  AggState* slab(uint32_t agg) {
    return states.data() + static_cast<size_t>(agg) * slots;
  }
  const AggState* slab(uint32_t agg) const {
    return states.data() + static_cast<size_t>(agg) * slots;
  }
};

/// Group creation: records every slot of `gids` not yet seen, with its first
/// row as representative. Range variant covers rows [row_begin,
/// row_begin + n); Sel variant covers sel[0..n).
void TouchGroupsRange(const uint32_t* gids, size_t row_begin, size_t n,
                      DenseAggTable* t);
void TouchGroupsSel(const uint32_t* gids, const SelectionVector& sel,
                    DenseAggTable* t);

// -- Accumulation kernels ----------------------------------------------------
//
// `slab` is one accumulator's contiguous run (DenseAggTable::slab(a)).
// `filter` is a FILTER mask's bytes (nullptr = unconditional);
// `validity` the input column's validity bytes (nullptr = no nulls).

/// COUNT: counts rows passing filter whose input is non-null (pass
/// validity = nullptr for COUNT(*), which counts every selected row).
void AccumulateCountRange(const uint32_t* gids, size_t row_begin, size_t n,
                          const uint8_t* filter, const uint8_t* validity,
                          AggState* slab);
void AccumulateCountSel(const uint32_t* gids, const SelectionVector& sel,
                        const uint8_t* filter, const uint8_t* validity,
                        AggState* slab);

/// Full accumulation (count/sum/min/max in one update, matching
/// AggState::Add) of an int64 measure column.
void AccumulateInt64Range(const uint32_t* gids, size_t row_begin, size_t n,
                          const int64_t* data, const uint8_t* filter,
                          const uint8_t* validity, AggState* slab);
void AccumulateInt64Sel(const uint32_t* gids, const SelectionVector& sel,
                        const int64_t* data, const uint8_t* filter,
                        const uint8_t* validity, AggState* slab);

/// Full accumulation of a double measure column.
void AccumulateDoubleRange(const uint32_t* gids, size_t row_begin, size_t n,
                           const double* data, const uint8_t* filter,
                           const uint8_t* validity, AggState* slab);
void AccumulateDoubleSel(const uint32_t* gids, const SelectionVector& sel,
                         const double* data, const uint8_t* filter,
                         const uint8_t* validity, AggState* slab);

}  // namespace seedb::db::vec

#endif  // SEEDB_DB_VEC_AGGREGATE_KERNELS_H_
