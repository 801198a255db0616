#include "util/half.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#define SALIENT_HALF_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define SALIENT_HALF_NEON 1
#include <arm_neon.h>
#endif

namespace salient {

namespace {

inline std::uint32_t as_bits(float f) { return std::bit_cast<std::uint32_t>(f); }
inline float from_bits32(std::uint32_t u) { return std::bit_cast<float>(u); }

}  // namespace

Half float_to_half(float f) {
  const std::uint32_t x = as_bits(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  std::uint32_t abs = x & 0x7fffffffu;

  if (abs >= 0x7f800000u) {
    // Inf or NaN. Preserve NaN-ness; quiet the payload.
    const std::uint16_t mant = (abs > 0x7f800000u) ? 0x0200u : 0x0000u;
    return Half::from_bits(static_cast<std::uint16_t>(sign | 0x7c00u | mant));
  }
  if (abs >= 0x477ff000u) {
    // Rounds to a magnitude >= 65520 -> overflow to infinity.
    return Half::from_bits(static_cast<std::uint16_t>(sign | 0x7c00u));
  }
  if (abs < 0x38800000u) {
    // Subnormal half (or zero). Shift the implicit bit into the mantissa and
    // round to nearest even at the appropriate bit position.
    if (abs < 0x33000001u) {
      // Too small: rounds to (signed) zero.
      return Half::from_bits(static_cast<std::uint16_t>(sign));
    }
    const int exp = static_cast<int>(abs >> 23);
    const std::uint32_t mant = (abs & 0x7fffffu) | 0x800000u;
    // Subnormal half = q * 2^-24 with q = round(mant / 2^shift).
    const int shift = 126 - exp;  // in [14, 24]
    const std::uint32_t q = mant >> shift;
    const std::uint32_t rem = mant & ((1u << shift) - 1);
    const std::uint32_t half_ulp = 1u << (shift - 1);
    std::uint32_t out = q;
    if (rem > half_ulp || (rem == half_ulp && (q & 1u))) ++out;
    return Half::from_bits(static_cast<std::uint16_t>(sign | out));
  }
  // Normal half. Round the 23-bit mantissa to 10 bits, to nearest even.
  std::uint32_t out = (abs + 0xfffu + ((abs >> 13) & 1u)) >> 13;
  out -= (112u << 10);  // rebias exponent 127 -> 15
  return Half::from_bits(static_cast<std::uint16_t>(sign | out));
}

float half_to_float(Half h) {
  const std::uint32_t x = h.bits;
  const std::uint32_t sign = (x & 0x8000u) << 16;
  const std::uint32_t exp = (x >> 10) & 0x1fu;
  const std::uint32_t mant = x & 0x3ffu;

  if (exp == 0x1fu) {
    // Inf / NaN.
    return from_bits32(sign | 0x7f800000u | (mant << 13));
  }
  if (exp == 0) {
    if (mant == 0) return from_bits32(sign);  // +/- 0
    // Subnormal: scale by 2^-24 via float arithmetic (exact).
    const float mag = static_cast<float>(mant) * 5.9604644775390625e-8f;
    return (sign != 0) ? -mag : mag;
  }
  return from_bits32(sign | ((exp + 112u) << 23) | (mant << 13));
}

// ---------------------------------------------------------------------------
// Bulk converters.
//
// The slice/transfer hot path converts whole feature rows at a time, so the
// bulk entry points carry hardware conversion paths (x86 F16C, AArch64 NEON)
// behind a one-time runtime check, with the scalar loops as both the fallback
// and the ground truth (tests/test_util.cpp checks exact bit parity over all
// 65536 half patterns and a large float sweep).
//
// Parity notes, scalar vs hardware:
//   * finite values: both implement IEEE round-to-nearest-even (VCVTPS2PH
//     with an explicit RNE immediate ignores MXCSR rounding/FTZ/DAZ, and
//     VCVTPH2PS is exact), so results are bit-identical;
//   * NaN: the hardware instructions quiet signaling NaNs and carry input
//     payload bits, while the scalar converters canonicalize payloads
//     (float_to_half emits 0x0200, half_to_float shifts the payload). Any
//     8-element block containing a NaN therefore falls back to the scalar
//     loop, keeping the bulk output byte-identical to the scalar output for
//     every possible input. Feature data is NaN-free, so the hot path never
//     takes this branch; the movemask test costs ~1 cycle per block.
// ---------------------------------------------------------------------------

namespace {

#if defined(SALIENT_HALF_X86)

bool cpu_has_f16c() {
  static const bool has = __builtin_cpu_supports("f16c") != 0;
  return has;
}

__attribute__((target("f16c,avx"))) void float_to_half_n_f16c(
    const float* src, Half* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    // NaN lanes (unordered self-compare) take the scalar block so payload
    // canonicalization matches the scalar converter exactly.
    const __m256 unord = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
    if (_mm256_movemask_ps(unord) != 0) {
      for (std::size_t j = i; j < i + 8; ++j) dst[j] = float_to_half(src[j]);
      continue;
    }
    const __m128i h = _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  for (; i < n; ++i) dst[i] = float_to_half(src[i]);
}

__attribute__((target("f16c,avx"))) void half_to_float_n_f16c(
    const Half* src, float* dst, std::size_t n) {
  const __m128i abs_mask = _mm_set1_epi16(0x7fff);
  const __m128i inf_bits = _mm_set1_epi16(0x7c00);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    // NaN iff (bits & 0x7fff) > 0x7c00; both sides are <= 0x7fff so the
    // signed 16-bit compare is exact.
    const __m128i isnan =
        _mm_cmpgt_epi16(_mm_and_si128(h, abs_mask), inf_bits);
    if (_mm_movemask_epi8(isnan) != 0) {
      for (std::size_t j = i; j < i + 8; ++j) dst[j] = half_to_float(src[j]);
      continue;
    }
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
  }
  for (; i < n; ++i) dst[i] = half_to_float(src[i]);
}

#elif defined(SALIENT_HALF_NEON)

// AArch64 mandates the half-precision conversion instructions.
bool cpu_has_f16c() { return true; }

void float_to_half_n_f16c(const float* src, Half* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(src + i);
    const uint32x4_t unord = vmvnq_u32(vceqq_f32(v, v));  // NaN lanes
    if (vmaxvq_u32(unord) != 0) {
      for (std::size_t j = i; j < i + 4; ++j) dst[j] = float_to_half(src[j]);
      continue;
    }
    const float16x4_t h = vcvt_f16_f32(v);
    vst1_u16(reinterpret_cast<std::uint16_t*>(dst + i),
             vreinterpret_u16_f16(h));
  }
  for (; i < n; ++i) dst[i] = float_to_half(src[i]);
}

void half_to_float_n_f16c(const Half* src, float* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint16x4_t bits =
        vld1_u16(reinterpret_cast<const std::uint16_t*>(src + i));
    const uint16x4_t abs = vand_u16(bits, vdup_n_u16(0x7fff));
    const uint16x4_t isnan = vcgt_u16(abs, vdup_n_u16(0x7c00));
    if (vmaxv_u16(isnan) != 0) {
      for (std::size_t j = i; j < i + 4; ++j) dst[j] = half_to_float(src[j]);
      continue;
    }
    vst1q_f32(dst + i, vcvt_f32_f16(vreinterpret_f16_u16(bits)));
  }
  for (; i < n; ++i) dst[i] = half_to_float(src[i]);
}

#endif

}  // namespace

void float_to_half_n(const float* src, Half* dst, std::size_t n) {
#if defined(SALIENT_HALF_X86) || defined(SALIENT_HALF_NEON)
  if (cpu_has_f16c()) {
    float_to_half_n_f16c(src, dst, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) dst[i] = float_to_half(src[i]);
}

void half_to_float_n(const Half* src, float* dst, std::size_t n) {
#if defined(SALIENT_HALF_X86) || defined(SALIENT_HALF_NEON)
  if (cpu_has_f16c()) {
    half_to_float_n_f16c(src, dst, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) dst[i] = half_to_float(src[i]);
}

void detail::half_to_float_add_n_bulk(const Half* src, float* dst,
                                      std::size_t n) {
  constexpr std::size_t kBlock = 64;
  float buf[kBlock];
  for (std::size_t i = 0; i < n; i += kBlock) {
    const std::size_t m = n - i < kBlock ? n - i : kBlock;
    half_to_float_n(src + i, buf, m);
    for (std::size_t j = 0; j < m; ++j) dst[i + j] += buf[j];
  }
}

}  // namespace salient
