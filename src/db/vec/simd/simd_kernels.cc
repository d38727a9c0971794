#include "db/vec/simd/simd.h"

#include "db/vec/simd/simd_internal.h"

namespace seedb::db::vec::simd {

const char* IsaName() {
#if defined(SEEDB_SIMD_AVX2)
  return "avx2";
#elif defined(SEEDB_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

bool Available() {
#if defined(SEEDB_SIMD_AVX2)
  // The TU is compiled with -mavx2 but the binary may run on older silicon;
  // gate dispatch on the actual CPU once.
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
#elif defined(SEEDB_SIMD_NEON)
  return true;  // NEON is baseline on aarch64.
#else
  return false;
#endif
}

#if defined(SEEDB_SIMD_AVX2) || defined(SEEDB_SIMD_NEON)

namespace {

using internal::ByteBits8;

template <typename T>
inline bool CompareScalar(T v, CompareOp op, T lit) {
  switch (op) {
    case CompareOp::kEq:
      return v == lit;
    case CompareOp::kNe:
      return v != lit;
    case CompareOp::kLt:
      return v < lit;
    case CompareOp::kLe:
      return v <= lit;
    case CompareOp::kGt:
      return v > lit;
    case CompareOp::kGe:
      return v >= lit;
  }
  return false;
}

/// Appends the rows selected by `bits` (row j = base + j).
inline uint32_t* EmitBitsPortable(uint32_t* out, size_t base, uint32_t bits) {
  while (bits != 0) {
    const int j = __builtin_ctz(bits);
    bits &= bits - 1;
    *out++ = static_cast<uint32_t>(base + static_cast<size_t>(j));
  }
  return out;
}

/// Appends rows[j] for each set bit j.
inline uint32_t* EmitGatherPortable(uint32_t* out, const uint32_t* rows,
                                    uint32_t bits) {
  while (bits != 0) {
    const int j = __builtin_ctz(bits);
    bits &= bits - 1;
    *out++ = rows[j];
  }
  return out;
}

#if defined(SEEDB_SIMD_AVX2)

inline uint32_t MoveMask4(__m256i cmp) {
  return static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(cmp)));
}

// 4 int64 lanes compared against a splat literal -> 4-bit mask. AVX2 only
// has eq/gt; the other four ops are derived (lt = swapped gt, ge = ~lt,
// le = ~gt, ne = ~eq).
template <CompareOp kOp>
inline uint32_t CmpI64Bits4(__m256i v, __m256i lit) {
  if constexpr (kOp == CompareOp::kEq) {
    return MoveMask4(_mm256_cmpeq_epi64(v, lit));
  } else if constexpr (kOp == CompareOp::kNe) {
    return MoveMask4(_mm256_cmpeq_epi64(v, lit)) ^ 0xFu;
  } else if constexpr (kOp == CompareOp::kLt) {
    return MoveMask4(_mm256_cmpgt_epi64(lit, v));
  } else if constexpr (kOp == CompareOp::kLe) {
    return MoveMask4(_mm256_cmpgt_epi64(v, lit)) ^ 0xFu;
  } else if constexpr (kOp == CompareOp::kGt) {
    return MoveMask4(_mm256_cmpgt_epi64(v, lit));
  } else {
    return MoveMask4(_mm256_cmpgt_epi64(lit, v)) ^ 0xFu;
  }
}

template <CompareOp kOp>
inline uint32_t CmpI64Bits8(const int64_t* p, int64_t literal) {
  const __m256i lit = _mm256_set1_epi64x(literal);
  const __m256i lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i hi =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4));
  return CmpI64Bits4<kOp>(lo, lit) | (CmpI64Bits4<kOp>(hi, lit) << 4);
}

// Ordered-quiet predicates match scalar <, <=, >, >=, == on NaN operands
// (false); != uses unordered-quiet because scalar `v != lit` is true for
// NaN.
template <CompareOp kOp>
inline uint32_t CmpF64Bits4(__m256d v, __m256d lit) {
  constexpr int imm = kOp == CompareOp::kEq   ? _CMP_EQ_OQ
                      : kOp == CompareOp::kNe ? _CMP_NEQ_UQ
                      : kOp == CompareOp::kLt ? _CMP_LT_OQ
                      : kOp == CompareOp::kLe ? _CMP_LE_OQ
                      : kOp == CompareOp::kGt ? _CMP_GT_OQ
                                              : _CMP_GE_OQ;
  return static_cast<uint32_t>(_mm256_movemask_pd(_mm256_cmp_pd(v, lit, imm)));
}

template <CompareOp kOp>
inline uint32_t CmpF64Bits8(const double* p, double literal) {
  const __m256d lit = _mm256_set1_pd(literal);
  return CmpF64Bits4<kOp>(_mm256_loadu_pd(p), lit) |
         (CmpF64Bits4<kOp>(_mm256_loadu_pd(p + 4), lit) << 4);
}

inline uint32_t* EmitIota8(uint32_t* out, size_t base, uint32_t bits) {
  return internal::Emit8(out, internal::RowVec8(base), bits);
}

inline uint32_t* EmitGather8(uint32_t* out, const uint32_t* rows,
                             uint32_t bits) {
  const __m256i v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows));
  return internal::Emit8(out, v, bits);
}

#else  // SEEDB_SIMD_NEON

// Lanes of a NEON compare result are all-ones / all-zero, so lane & 1 is
// the boolean.
template <CompareOp kOp>
inline uint32_t CmpI64Bits8(const int64_t* p, int64_t literal) {
  const int64x2_t lit = vdupq_n_s64(literal);
  uint32_t bits = 0;
  for (int c = 0; c < 4; ++c) {
    const int64x2_t v = vld1q_s64(p + 2 * c);
    uint64x2_t m;
    if constexpr (kOp == CompareOp::kEq || kOp == CompareOp::kNe) {
      m = vceqq_s64(v, lit);
    } else if constexpr (kOp == CompareOp::kLt) {
      m = vcltq_s64(v, lit);
    } else if constexpr (kOp == CompareOp::kLe) {
      m = vcleq_s64(v, lit);
    } else if constexpr (kOp == CompareOp::kGt) {
      m = vcgtq_s64(v, lit);
    } else {
      m = vcgeq_s64(v, lit);
    }
    bits |= static_cast<uint32_t>(vgetq_lane_u64(m, 0) & 1) << (2 * c);
    bits |= static_cast<uint32_t>(vgetq_lane_u64(m, 1) & 1) << (2 * c + 1);
  }
  if constexpr (kOp == CompareOp::kNe) bits ^= 0xFFu;
  return bits;
}

// NEON float compares are false on NaN operands, matching scalar ordered
// ops; != is derived from == so NaN rows correctly report true.
template <CompareOp kOp>
inline uint32_t CmpF64Bits8(const double* p, double literal) {
  const float64x2_t lit = vdupq_n_f64(literal);
  uint32_t bits = 0;
  for (int c = 0; c < 4; ++c) {
    const float64x2_t v = vld1q_f64(p + 2 * c);
    uint64x2_t m;
    if constexpr (kOp == CompareOp::kEq || kOp == CompareOp::kNe) {
      m = vceqq_f64(v, lit);
    } else if constexpr (kOp == CompareOp::kLt) {
      m = vcltq_f64(v, lit);
    } else if constexpr (kOp == CompareOp::kLe) {
      m = vcleq_f64(v, lit);
    } else if constexpr (kOp == CompareOp::kGt) {
      m = vcgtq_f64(v, lit);
    } else {
      m = vcgeq_f64(v, lit);
    }
    bits |= static_cast<uint32_t>(vgetq_lane_u64(m, 0) & 1) << (2 * c);
    bits |= static_cast<uint32_t>(vgetq_lane_u64(m, 1) & 1) << (2 * c + 1);
  }
  if constexpr (kOp == CompareOp::kNe) bits ^= 0xFFu;
  return bits;
}

inline uint32_t* EmitIota8(uint32_t* out, size_t base, uint32_t bits) {
  return EmitBitsPortable(out, base, bits);
}

inline uint32_t* EmitGather8(uint32_t* out, const uint32_t* rows,
                             uint32_t bits) {
  return EmitGatherPortable(out, rows, bits);
}

#endif  // ISA

template <CompareOp kOp>
void CompareI64Loop(const int64_t* data, const uint8_t* validity, int64_t lit,
                    size_t row_begin, size_t row_end, SelectionVector* sel) {
  sel->Resize(row_end - row_begin);
  uint32_t* const out = sel->mutable_data();
  uint32_t* w = out;
  size_t i = row_begin;
  for (; i + 8 <= row_end; i += 8) {
    uint32_t bits = CmpI64Bits8<kOp>(data + i, lit);
    if (validity != nullptr) bits &= ByteBits8(validity + i);
    if (bits == 0) continue;
    w = EmitIota8(w, i, bits);
  }
  for (; i < row_end; ++i) {
    if (validity != nullptr && validity[i] == 0) continue;
    if (CompareScalar<int64_t>(data[i], kOp, lit)) {
      *w++ = static_cast<uint32_t>(i);
    }
  }
  sel->Resize(static_cast<size_t>(w - out));
}

template <CompareOp kOp>
void CompareF64Loop(const double* data, const uint8_t* validity, double lit,
                    size_t row_begin, size_t row_end, SelectionVector* sel) {
  sel->Resize(row_end - row_begin);
  uint32_t* const out = sel->mutable_data();
  uint32_t* w = out;
  size_t i = row_begin;
  for (; i + 8 <= row_end; i += 8) {
    uint32_t bits = CmpF64Bits8<kOp>(data + i, lit);
    if (validity != nullptr) bits &= ByteBits8(validity + i);
    if (bits == 0) continue;
    w = EmitIota8(w, i, bits);
  }
  for (; i < row_end; ++i) {
    if (validity != nullptr && validity[i] == 0) continue;
    if (CompareScalar<double>(data[i], kOp, lit)) {
      *w++ = static_cast<uint32_t>(i);
    }
  }
  sel->Resize(static_cast<size_t>(w - out));
}

}  // namespace

void SelectFromMask(const uint8_t* mask, size_t row_begin, size_t row_end,
                    SelectionVector* sel) {
  sel->Resize(row_end - row_begin);
  uint32_t* const out = sel->mutable_data();
  uint32_t* w = out;
  size_t i = row_begin;
#if defined(SEEDB_SIMD_AVX2)
  for (; i + 32 <= row_end; i += 32) {
    const uint32_t bits = internal::NonzeroBytes32(mask + i);
    if (bits == 0) continue;
    if (bits == 0xFFFFFFFFu) {
      // Dense block: append 32 consecutive row ids without compressing.
      for (int c = 0; c < 4; ++c) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(w + 8 * c),
                            internal::RowVec8(i + 8 * static_cast<size_t>(c)));
      }
      w += 32;
      continue;
    }
    for (int c = 0; c < 4; ++c) {
      const uint32_t b8 = (bits >> (8 * c)) & 0xFFu;
      if (b8 == 0) continue;
      w = EmitIota8(w, i + 8 * static_cast<size_t>(c), b8);
    }
  }
#else
  for (; i + 8 <= row_end; i += 8) {
    const uint32_t bits = ByteBits8(mask + i);
    if (bits == 0) continue;
    w = EmitIota8(w, i, bits);
  }
#endif
  for (; i < row_end; ++i) {
    if (mask[i] != 0) *w++ = static_cast<uint32_t>(i);
  }
  sel->Resize(static_cast<size_t>(w - out));
}

void Refine(const uint8_t* mask, SelectionVector* sel) {
  const size_t n = sel->size();
  uint32_t* const data = sel->mutable_data();
  uint32_t* w = data;
  size_t k = 0;
  // In-place compaction is safe: the write cursor never passes the read
  // block (w <= k), and each 8-block is loaded before its slots can be
  // overwritten.
  for (; k + 8 <= n; k += 8) {
    uint32_t bits = 0;
    for (int j = 0; j < 8; ++j) {
      bits |= static_cast<uint32_t>(mask[data[k + static_cast<size_t>(j)]] != 0)
              << j;
    }
    if (bits == 0) continue;
    w = EmitGather8(w, data + k, bits);
  }
  for (; k < n; ++k) {
    const uint32_t row = data[k];
    if (mask[row] != 0) *w++ = row;
  }
  sel->Resize(static_cast<size_t>(w - data));
}

void SelectCompareInt64(const int64_t* data, const uint8_t* validity,
                        CompareOp op, int64_t literal, size_t row_begin,
                        size_t row_end, SelectionVector* sel) {
  switch (op) {
    case CompareOp::kEq:
      CompareI64Loop<CompareOp::kEq>(data, validity, literal, row_begin,
                                     row_end, sel);
      break;
    case CompareOp::kNe:
      CompareI64Loop<CompareOp::kNe>(data, validity, literal, row_begin,
                                     row_end, sel);
      break;
    case CompareOp::kLt:
      CompareI64Loop<CompareOp::kLt>(data, validity, literal, row_begin,
                                     row_end, sel);
      break;
    case CompareOp::kLe:
      CompareI64Loop<CompareOp::kLe>(data, validity, literal, row_begin,
                                     row_end, sel);
      break;
    case CompareOp::kGt:
      CompareI64Loop<CompareOp::kGt>(data, validity, literal, row_begin,
                                     row_end, sel);
      break;
    case CompareOp::kGe:
      CompareI64Loop<CompareOp::kGe>(data, validity, literal, row_begin,
                                     row_end, sel);
      break;
  }
}

void SelectCompareDouble(const double* data, const uint8_t* validity,
                         CompareOp op, double literal, size_t row_begin,
                         size_t row_end, SelectionVector* sel) {
  switch (op) {
    case CompareOp::kEq:
      CompareF64Loop<CompareOp::kEq>(data, validity, literal, row_begin,
                                     row_end, sel);
      break;
    case CompareOp::kNe:
      CompareF64Loop<CompareOp::kNe>(data, validity, literal, row_begin,
                                     row_end, sel);
      break;
    case CompareOp::kLt:
      CompareF64Loop<CompareOp::kLt>(data, validity, literal, row_begin,
                                     row_end, sel);
      break;
    case CompareOp::kLe:
      CompareF64Loop<CompareOp::kLe>(data, validity, literal, row_begin,
                                     row_end, sel);
      break;
    case CompareOp::kGt:
      CompareF64Loop<CompareOp::kGt>(data, validity, literal, row_begin,
                                     row_end, sel);
      break;
    case CompareOp::kGe:
      CompareF64Loop<CompareOp::kGe>(data, validity, literal, row_begin,
                                     row_end, sel);
      break;
  }
}

void SelectCompareCode(const int32_t* codes, const uint8_t* validity,
                       const uint8_t* code_match, size_t row_begin,
                       size_t row_end, SelectionVector* sel) {
  sel->Resize(row_end - row_begin);
  uint32_t* const out = sel->mutable_data();
  uint32_t* w = out;
  size_t i = row_begin;
  // The dictionary truth-table lookups stay scalar (no byte gather on
  // either ISA without over-reading the table); the win is the branchless
  // bit build plus the compress-store emit.
  for (; i + 8 <= row_end; i += 8) {
    uint32_t bits = 0;
    for (int j = 0; j < 8; ++j) {
      bits |= static_cast<uint32_t>(
                  code_match[codes[i + static_cast<size_t>(j)]] & 1)
              << j;
    }
    if (validity != nullptr) bits &= ByteBits8(validity + i);
    if (bits == 0) continue;
    w = EmitIota8(w, i, bits);
  }
  for (; i < row_end; ++i) {
    if (validity != nullptr && validity[i] == 0) continue;
    if (code_match[codes[i]] != 0) *w++ = static_cast<uint32_t>(i);
  }
  sel->Resize(static_cast<size_t>(w - out));
}

#else  // scalar build: forward everything to the scalar kernels.

void SelectFromMask(const uint8_t* mask, size_t row_begin, size_t row_end,
                    SelectionVector* sel) {
  vec::SelectFromMask(mask, row_begin, row_end, sel);
}

void Refine(const uint8_t* mask, SelectionVector* sel) {
  vec::Refine(mask, sel);
}

void SelectCompareInt64(const int64_t* data, const uint8_t* validity,
                        CompareOp op, int64_t literal, size_t row_begin,
                        size_t row_end, SelectionVector* sel) {
  vec::SelectCompareInt64(data, validity, op, literal, row_begin, row_end,
                          sel);
}

void SelectCompareDouble(const double* data, const uint8_t* validity,
                         CompareOp op, double literal, size_t row_begin,
                         size_t row_end, SelectionVector* sel) {
  vec::SelectCompareDouble(data, validity, op, literal, row_begin, row_end,
                           sel);
}

void SelectCompareCode(const int32_t* codes, const uint8_t* validity,
                       const uint8_t* code_match, size_t row_begin,
                       size_t row_end, SelectionVector* sel) {
  vec::SelectCompareCode(codes, validity, code_match, row_begin, row_end, sel);
}

#endif  // ISA

// The plain kernels, kept callable under this tier's name for
// benchmark/layers.cc, which measures them beside the compare kernels.

void AccumulateCountRange(const uint32_t* gids, size_t row_begin, size_t n,
                          const uint8_t* filter, const uint8_t* validity,
                          AggState* slab) {
  vec::AccumulateCountRange(gids, row_begin, n, filter, validity, slab);
}

void AccumulateDoubleRange(const uint32_t* gids, size_t row_begin, size_t n,
                           const double* data, const uint8_t* filter,
                           const uint8_t* validity, AggState* slab) {
  vec::AccumulateDoubleRange(gids, row_begin, n, data, filter, validity, slab);
}

}  // namespace seedb::db::vec::simd
