// Explicit-SIMD kernel tier: vector-ISA variants of the db/vec/ compare and
// selection-construction kernels.
//
// The ISA is selected at COMPILE time inside simd_kernels.cc (AVX2 on
// x86-64, NEON on aarch64, scalar otherwise — see simd_internal.h); this
// header is ISA-agnostic so every other translation unit builds without
// vector flags. At RUN time two switches gate the tier: Available() (the
// binary was built with a vector ISA and the CPU actually supports it) and
// SharedScanOptions::enable_simd (the kill switch). When either says no,
// callers use the scalar db/vec/ kernels; in a scalar build the functions
// below forward to them, so simd:: is always safe to call.
//
// Equivalence bar (same as scalar-vec vs hash): every kernel here is
// BIT-identical to its scalar counterpart. Selection construction preserves
// row order exactly, and compares match the scalar NaN and null semantics.
//
// Aggregate accumulation has no SIMD variant: the fused scan calls the
// vec:: accumulate kernels directly on every tier. Vectorizing within runs
// of equal group id does not pay when rows arrive in random group order, as
// they do on the benchmark's workloads: the runs are too short to recoup
// the probe that finds them.
//
// Byte masks passed to these kernels (filter / validity / selection masks)
// must hold 0 or 1 per byte — the engine-wide convention.

#ifndef SEEDB_DB_VEC_SIMD_SIMD_H_
#define SEEDB_DB_VEC_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "db/vec/aggregate_kernels.h"
#include "db/vec/selection_vector.h"

namespace seedb::db::vec::simd {

/// Compile-time ISA of simd_kernels.cc: "avx2", "neon" or "scalar".
const char* IsaName();

/// True when the kernels were compiled with a vector ISA AND the running
/// CPU supports it (checked once, cached). False in scalar builds or on
/// hardware older than the build target — callers then take the scalar
/// db/vec/ path and SharedScanStats::simd_morsels stays 0.
bool Available();

// -- Selection construction (movemask-based) ---------------------------------

/// SIMD SelectFromMask: non-zero mask bytes of [row_begin, row_end) become
/// selected rows. Identical output to vec::SelectFromMask.
void SelectFromMask(const uint8_t* mask, size_t row_begin, size_t row_end,
                    SelectionVector* sel);

/// SIMD in-place AND with a byte mask. Identical output to vec::Refine.
void Refine(const uint8_t* mask, SelectionVector* sel);

// -- Compare kernels (predicate -> selection) --------------------------------
//
// Same contracts as the scalar kernels in selection_vector.h: null rows
// (validity byte 0) never match; `sel` is replaced.

void SelectCompareInt64(const int64_t* data, const uint8_t* validity,
                        CompareOp op, int64_t literal, size_t row_begin,
                        size_t row_end, SelectionVector* sel);

void SelectCompareDouble(const double* data, const uint8_t* validity,
                         CompareOp op, double literal, size_t row_begin,
                         size_t row_end, SelectionVector* sel);

void SelectCompareCode(const int32_t* codes, const uint8_t* validity,
                       const uint8_t* code_match, size_t row_begin,
                       size_t row_end, SelectionVector* sel);

// -- Accumulate forwards ------------------------------------------------------
//
// One-line forwards to the vec:: kernels of the same name, with no vector
// code of their own. They exist only because benchmark/layers.cc measures
// them under this tier's name; the scan never calls them.

void AccumulateCountRange(const uint32_t* gids, size_t row_begin, size_t n,
                          const uint8_t* filter, const uint8_t* validity,
                          AggState* slab);
void AccumulateDoubleRange(const uint32_t* gids, size_t row_begin, size_t n,
                           const double* data, const uint8_t* filter,
                           const uint8_t* validity, AggState* slab);

}  // namespace seedb::db::vec::simd

#endif  // SEEDB_DB_VEC_SIMD_SIMD_H_
