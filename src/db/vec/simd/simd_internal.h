// Portable intrinsic wrappers for the explicit-SIMD kernel tier.
//
// Included ONLY by simd_kernels.cc — that translation unit is the one place
// in the build compiled with vector-ISA flags (see src/CMakeLists.txt), so
// the ISA macros below must never leak into other headers.
//
// ISA selection, in order:
//   SEEDB_SIMD_FORCE_SCALAR  — CMake -DSEEDB_SIMD_ISA=scalar kill switch;
//                              kernels forward to the scalar vec:: versions.
//   __AVX2__                 — x86-64, per-source -mavx2.
//   __aarch64__ && __ARM_NEON — aarch64 baseline NEON.
//   otherwise                — scalar forwarding.
//
// The kernels are written against an 8-row "bit block" model that every ISA
// can produce: compare / test 8 consecutive rows, get back an 8-bit mask
// (bit j = row j, LSB first), then drive a shared emit loop off the bits.
// AVX2 additionally gets a permute-LUT compress store and 32-byte mask
// blocks; NEON narrows 128-bit compare results to bytes and uses the same
// bit engine.

#ifndef SEEDB_DB_VEC_SIMD_SIMD_INTERNAL_H_
#define SEEDB_DB_VEC_SIMD_SIMD_INTERNAL_H_

#include <cstdint>
#include <cstring>

#if !defined(SEEDB_SIMD_FORCE_SCALAR)
#if defined(__AVX2__)
#define SEEDB_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define SEEDB_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace seedb::db::vec::simd::internal {

/// 8 mask bytes (each 0 or 1) -> 8 bits, LSB = lowest address. The multiply
/// gathers every byte's LSB into the top byte; bytes never collide because
/// each (byte j, multiplier byte k) product lands on a distinct bit.
inline uint32_t ByteBits8(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  w &= 0x0101010101010101ULL;
  return static_cast<uint32_t>((w * 0x0102040810204080ULL) >> 56);
}

#if defined(SEEDB_SIMD_AVX2)

/// mask -> lane-permutation table for the 8x32-bit compress store: entry m
/// lists the set-bit positions of m in order, padded with 0. 8KB, hot part
/// stays cached.
struct CompressLut {
  alignas(32) uint32_t perm[256][8];
  constexpr CompressLut() : perm() {
    for (int m = 0; m < 256; ++m) {
      int k = 0;
      for (int b = 0; b < 8; ++b) {
        if (m & (1 << b)) perm[m][k++] = static_cast<uint32_t>(b);
      }
      for (; k < 8; ++k) perm[m][k] = 0;
    }
  }
};
inline constexpr CompressLut kCompressLut{};

/// Compress-stores the lanes of `rows` selected by `bits` to `out` and
/// returns the advanced pointer. Always stores 32 bytes — the caller must
/// guarantee 8 writable slots past `out` (true when the output was sized to
/// the block count upfront).
inline uint32_t* Emit8(uint32_t* out, __m256i rows, uint32_t bits) {
  __m256i perm = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kCompressLut.perm[bits]));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_permutevar8x32_epi32(rows, perm));
  return out + __builtin_popcount(bits);
}

/// Row indices {base, base+1, ..., base+7} as an epi32 vector.
inline __m256i RowVec8(size_t base) {
  return _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(base)),
                          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// 32 mask bytes -> 32 bits (bit j = byte j non-zero).
inline uint32_t NonzeroBytes32(const uint8_t* p) {
  __m256i bytes = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  __m256i is_zero = _mm256_cmpeq_epi8(bytes, _mm256_setzero_si256());
  return ~static_cast<uint32_t>(_mm256_movemask_epi8(is_zero));
}

#endif  // SEEDB_SIMD_AVX2

}  // namespace seedb::db::vec::simd::internal

#endif  // SEEDB_DB_VEC_SIMD_SIMD_INTERNAL_H_
