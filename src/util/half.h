// Software IEEE-754 binary16 ("half") conversion.
//
// The SALIENT paper stores node features in host memory as half-precision
// floats to reduce memory-bandwidth pressure during slicing and CPU-to-GPU
// transfer, while GPU compute remains single precision (paper §3, conventional
// optimization (iii)). This header provides the float<->half conversions used
// by the feature store and the slicing kernels.
//
// The conversion implements round-to-nearest-even, handles subnormals,
// infinities and NaN, and round-trips every finite half value exactly.
#pragma once

#include <cstdint>
#include <cstddef>

#if defined(__F16C__) && defined(__AVX__)
#include <immintrin.h>
#endif

namespace salient {

/// Opaque 16-bit storage type for IEEE binary16 values.
/// Not an arithmetic type on purpose: all math happens in float.
struct Half {
  std::uint16_t bits = 0;

  Half() = default;
  /// Construct from the raw bit pattern.
  static Half from_bits(std::uint16_t b) {
    Half h;
    h.bits = b;
    return h;
  }

  friend bool operator==(Half a, Half b) { return a.bits == b.bits; }
};

static_assert(sizeof(Half) == 2, "Half must be exactly 16 bits");

/// Convert a single-precision float to binary16 with round-to-nearest-even.
/// Values above the half range become +/-infinity; NaN is preserved (quieted).
Half float_to_half(float f);

/// Convert a binary16 value to single precision. Exact for all inputs.
float half_to_float(Half h);

/// Bulk conversion: dst[i] = half(src[i]) for i in [0, n).
///
/// Uses the hardware conversion instructions (x86 F16C / AArch64 NEON) when
/// the CPU has them — checked once at runtime — and is bit-identical to the
/// scalar converter for every input, NaN included (NaN-containing blocks
/// take the scalar path so payload canonicalization matches). All row-wise
/// conversion outside util/ must go through these bulk entry points (lint
/// rule `scalar-half-loop`).
void float_to_half_n(const float* src, Half* dst, std::size_t n);

/// Bulk conversion: dst[i] = float(src[i]) for i in [0, n). Same hardware
/// acceleration and exact-parity contract as float_to_half_n.
void half_to_float_n(const Half* src, float* dst, std::size_t n);

namespace detail {
/// The out-of-line body of half_to_float_add_n: half_to_float_n into a
/// small buffer, then the adds.
void half_to_float_add_n_bulk(const Half* src, float* dst, std::size_t n);
}  // namespace detail

/// Bulk accumulation: dst[i] += float(src[i]) for i in [0, n), bitwise what
/// converting into a buffer with half_to_float_n and adding the buffer
/// gives — without the buffer (the aggregation over f16 feature rows, one
/// call per neighbour row). A NaN needs no scalar path here: the hardware
/// converter quiets a signaling NaN that the scalar one passes on, and the
/// add quiets it either way. Inline, so that a caller built with F16C
/// enabled (-march=native on x86) runs the vector loop without a call per
/// row; the last 1–3 elements and every other build take the out-of-line
/// path.
inline void half_to_float_add_n(const Half* src, float* dst, std::size_t n) {
#if defined(__F16C__) && defined(__AVX__)
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                            _mm256_cvtph_ps(h)));
  }
  if (i + 4 <= n) {
    const __m128i h =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_ps(dst + i,
                  _mm_add_ps(_mm_loadu_ps(dst + i), _mm_cvtph_ps(h)));
    i += 4;
  }
  if (i < n) detail::half_to_float_add_n_bulk(src + i, dst + i, n - i);
#else
  detail::half_to_float_add_n_bulk(src, dst, n);
#endif
}

}  // namespace salient
