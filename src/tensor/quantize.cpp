#include "tensor/quantize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/kernel_config.h"

#if defined(__x86_64__) || defined(_M_X64)
#define SALIENT_QUANTIZE_X86 1
#include <immintrin.h>
#endif

namespace salient::ops {

namespace {

/// The reference row quantizer (SALIENT_KERNEL=ref), and the fallback on
/// hosts without AVX.
void quantize_row_ref(const float* row, std::int64_t cols, std::int8_t* q,
                      float* scale, float* zero) {
  float lo = row[0];
  float hi = row[0];
  for (std::int64_t j = 1; j < cols; ++j) {
    lo = std::min(lo, row[j]);
    hi = std::max(hi, row[j]);
  }
  const float s = (hi - lo) / 255.0f;
  *scale = s;
  *zero = lo;
  if (s == 0.0f) {
    // Constant row: every element reconstructs exactly as the zero-point.
    std::fill(q, q + cols, static_cast<std::int8_t>(-128));
    return;
  }
  for (std::int64_t j = 0; j < cols; ++j) {
    const long code = std::lround((row[j] - lo) / s);
    const long clamped = std::min(255l, std::max(0l, code));
    q[j] = static_cast<std::int8_t>(clamped - 128);
  }
}

#if defined(SALIENT_QUANTIZE_X86)

// The optimized quantizer: AVX behind a one-time runtime check (CI builds
// without -march=native), bitwise equal to quantize_row_ref on finite rows:
//   * min and max come from a vector reduction, which may return either
//     zero for a +0/-0 tie; the reference keeps the first element equal to
//     each extreme, and equal floats share their bits except the two zeros,
//     so a zero extreme takes the bits of the row's first zero;
//   * (x - lo) / s is the same IEEE subtraction and division in each lane;
//   * each code is floor(v) + (v - floor(v) >= 0.5): for v >= 0 (always
//     true here) the fraction is exact, so this is floor(v + 0.5) in exact
//     arithmetic, std::lround's round-half-away-from-zero; clamping
//     max(code, 0) before min(code, 255) maps a NaN quotient (hi - lo
//     overflowing) to code 0, as std::lround's out-of-range result clamps
//     in the reference.

bool cpu_has_avx() {
  static const bool has = __builtin_cpu_supports("avx") != 0;
  return has;
}

/// The bits the reference loop keeps for extreme `v` of `row`.
float first_equal(const float* row, std::int64_t cols, float v) {
  if (v != 0.0f) return v;
  for (std::int64_t j = 0; j < cols; ++j) {
    if (row[j] == 0.0f) return row[j];
  }
  return v;
}

/// The codes of the eight elements at `x`, biased to [-128, 127], in the
/// low eight bytes.
__attribute__((target("avx"))) __m128i codes_of8(const float* x, __m256 lo,
                                                 __m256 s) {
  const __m256 v = _mm256_div_ps(_mm256_sub_ps(_mm256_loadu_ps(x), lo), s);
  const __m256 whole = _mm256_floor_ps(v);
  const __m256 up = _mm256_and_ps(
      _mm256_cmp_ps(_mm256_sub_ps(v, whole), _mm256_set1_ps(0.5f), _CMP_GE_OQ),
      _mm256_set1_ps(1.0f));
  const __m256 code = _mm256_min_ps(
      _mm256_max_ps(_mm256_add_ps(whole, up), _mm256_setzero_ps()),
      _mm256_set1_ps(255.0f));
  const __m256i codes = _mm256_cvttps_epi32(code);  // exact: integral
  const __m128i bias = _mm_set1_epi32(128);
  const __m128i words = _mm_packs_epi32(
      _mm_sub_epi32(_mm256_castsi256_si128(codes), bias),
      _mm_sub_epi32(_mm256_extractf128_si256(codes, 1), bias));
  return _mm_packs_epi16(words, words);
}

__attribute__((target("avx"))) void quantize_row_avx(const float* row,
                                                     std::int64_t cols,
                                                     std::int8_t* q,
                                                     float* scale,
                                                     float* zero) {
  float lo = row[0];
  float hi = row[0];
  std::int64_t j = 0;
  if (cols >= 8) {
    __m256 vlo = _mm256_loadu_ps(row);
    __m256 vhi = vlo;
    for (j = 8; j + 8 <= cols; j += 8) {
      const __m256 v = _mm256_loadu_ps(row + j);
      vlo = _mm256_min_ps(vlo, v);
      vhi = _mm256_max_ps(vhi, v);
    }
    alignas(32) float lanes_lo[8];
    alignas(32) float lanes_hi[8];
    _mm256_store_ps(lanes_lo, vlo);
    _mm256_store_ps(lanes_hi, vhi);
    for (int k = 0; k < 8; ++k) {
      lo = std::min(lo, lanes_lo[k]);
      hi = std::max(hi, lanes_hi[k]);
    }
  }
  for (; j < cols; ++j) {
    lo = std::min(lo, row[j]);
    hi = std::max(hi, row[j]);
  }
  lo = first_equal(row, cols, lo);
  hi = first_equal(row, cols, hi);
  const float s = (hi - lo) / 255.0f;
  *scale = s;
  *zero = lo;
  if (s == 0.0f) {
    std::fill(q, q + cols, static_cast<std::int8_t>(-128));
    return;
  }
  const __m256 vlo = _mm256_set1_ps(lo);
  const __m256 vs = _mm256_set1_ps(s);
  for (j = 0; j + 8 <= cols; j += 8) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + j),
                     codes_of8(row + j, vlo, vs));
  }
  if (j < cols) {
    // The last partial block, padded with the zero-point (code -128).
    const auto rest = static_cast<std::size_t>(cols - j);
    alignas(32) float tail[8];
    std::fill(std::copy(row + j, row + cols, tail), tail + 8, lo);
    alignas(16) std::int8_t codes[16];
    _mm_store_si128(reinterpret_cast<__m128i*>(codes),
                    codes_of8(tail, vlo, vs));
    std::copy(codes, codes + rest, q + j);
  }
}

#endif  // SALIENT_QUANTIZE_X86

}  // namespace

Tensor quantize_rows(const Tensor& x, Tensor* scale_out, Tensor* zero_out) {
  if (x.dim() != 2) throw std::invalid_argument("quantize_rows: x must be 2-D");
  if (x.dtype() != DType::kF32) {
    throw std::invalid_argument("quantize_rows: x must be f32");
  }
  if (scale_out == nullptr || zero_out == nullptr) {
    throw std::invalid_argument("quantize_rows: scale/zero outputs required");
  }
  const std::int64_t rows = x.size(0);
  const std::int64_t cols = x.size(1);
  Tensor q({rows, cols}, DType::kInt8Q);
  *scale_out = Tensor({rows}, DType::kF32);
  *zero_out = Tensor({rows}, DType::kF32);
  const float* src = x.data<float>();
  std::int8_t* dst = q.data<std::int8_t>();
  float* scales = scale_out->data<float>();
  float* zeros = zero_out->data<float>();
  parallel_for_n(
      rows, rows * cols,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          quantize_row(src + i * cols, cols, dst + i * cols, scales + i,
                       zeros + i);
        }
      },
      GrainClass::kMemoryBound);
  return q;
}

void quantize_row(const float* row, std::int64_t cols, std::int8_t* q,
                  float* scale, float* zero) {
#if defined(SALIENT_QUANTIZE_X86)
  if (kernel_kind() == KernelKind::kOpt && cpu_has_avx()) {
    quantize_row_avx(row, cols, q, scale, zero);
    return;
  }
#endif
  quantize_row_ref(row, cols, q, scale, zero);
}

void dequantize_row(const std::int8_t* q, std::int64_t cols, float scale,
                    float zero, float* out) {
  for (std::int64_t j = 0; j < cols; ++j) {
    out[j] = static_cast<float>(q[j] + 128) * scale + zero;
  }
}

Tensor dequantize_rows(const Tensor& q, const Tensor& scale,
                       const Tensor& zero) {
  if (q.dim() != 2) throw std::invalid_argument("dequantize_rows: q not 2-D");
  if (q.dtype() != DType::kInt8Q) {
    throw std::invalid_argument("dequantize_rows: q must be i8q");
  }
  const std::int64_t rows = q.size(0);
  const std::int64_t cols = q.size(1);
  if (scale.dtype() != DType::kF32 || zero.dtype() != DType::kF32 ||
      scale.numel() != rows || zero.numel() != rows) {
    throw std::invalid_argument(
        "dequantize_rows: scale/zero must be [rows] f32");
  }
  Tensor out({rows, cols}, DType::kF32);
  const std::int8_t* src = q.data<std::int8_t>();
  const float* scales = scale.data<float>();
  const float* zeros = zero.data<float>();
  float* dst = out.data<float>();
  parallel_for_n(
      rows, rows * cols,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          dequantize_row(src + i * cols, cols, scales[i], zeros[i],
                         dst + i * cols);
        }
      },
      GrainClass::kMemoryBound);
  return out;
}

}  // namespace salient::ops
