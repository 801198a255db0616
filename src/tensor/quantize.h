/// \file
/// \brief Per-row affine int8 quantization for the compressed feature path.
///
/// A quantized feature matrix is a triple: a `[rows, cols]` DType::kInt8Q
/// tensor plus two `[rows]` kF32 tensors holding each row's scale and
/// zero-point. Row `i` of the original matrix is reconstructed as
///
///     x[i][j] ~= (q[i][j] + 128) * scale[i] + zero[i]
///
/// with `scale[i] = (max_i - min_i) / 255` and `zero[i] = min_i`, where
/// `min_i`/`max_i` are the row's extrema. Stored codes therefore span the
/// full int8 range [-128, 127] and the reconstruction error of any element
/// is at most `scale/2 = (max - min) / 510`. A constant row quantizes with
/// `scale = 0` and reconstructs exactly as its zero-point.
///
/// These helpers are the only way into kInt8Q storage. The codes are
/// meaningless without their scale/zero tensors, so an i8q tensor carries
/// them (Tensor::with_row_params; quantize_rows' result does): Tensor::to()
/// then dequantizes it, and nothing else converts. The hot path never
/// dequantizes a full batch — the model's first layer reads the rows where
/// it loads them: the aggregations dequantize each neighbour row as they
/// accumulate and the GEMM packers each panel row (ops::spmm_mean,
/// ops::matmul), so an f32 copy of the feature matrix never materializes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/tensor.h"

namespace salient::ops {

/// \brief Quantize each row of a 2-D kF32 tensor to per-row affine int8.
///
/// \param x          `[rows, cols]` kF32 input.
/// \param scale_out  Receives a `[rows]` kF32 tensor of per-row scales.
/// \param zero_out   Receives a `[rows]` kF32 tensor of per-row zero-points.
/// \return `[rows, cols]` DType::kInt8Q tensor of codes, carrying the
/// scale and zero-point tensors as its row parameters.
///
/// Codes are computed as `round((x - zero) / scale) - 128`, clamped to
/// [-128, 127]; rounding is round-half-away-from-zero (std::lround), which
/// is deterministic and identical on every code path. All elements of the
/// input must be finite.
Tensor quantize_rows(const Tensor& x, Tensor* scale_out, Tensor* zero_out);

/// \brief Reconstruct a full kF32 matrix from per-row affine int8 codes.
///
/// \param q      `[rows, cols]` DType::kInt8Q codes.
/// \param scale  `[rows]` kF32 per-row scales.
/// \param zero   `[rows]` kF32 per-row zero-points.
/// \return `[rows, cols]` kF32 reconstruction.
///
/// Intended for tests and cold paths; the GEMM pack loader dequantizes
/// per-panel instead of materializing this.
Tensor dequantize_rows(const Tensor& q, const Tensor& scale,
                       const Tensor& zero);

/// \brief Quantize one F32 row to per-row affine int8.
///
/// \param row    Pointer to `cols` finite floats.
/// \param cols   Number of elements in the row (must be > 0).
/// \param q      Destination for `cols` int8 codes.
/// \param scale  Receives the row's scale, `(max - min) / 255`.
/// \param zero   Receives the row's zero-point, `min`.
///
/// Building block for quantize_rows and the loaders' quantizing slice path
/// (prep/slicing.h), which compresses feature rows as they are gathered into
/// pinned staging.
void quantize_row(const float* row, std::int64_t cols, std::int8_t* q,
                  float* scale, float* zero);

/// \brief Dequantize one row of int8 codes into an F32 destination.
///
/// \param q     Pointer to `cols` int8 codes of one row.
/// \param cols  Number of elements in the row.
/// \param scale The row's scale.
/// \param zero  The row's zero-point.
/// \param out   Destination for `cols` floats; `out[j] = (q[j] + 128) *
///              scale + zero`.
///
/// Building block of every i8q read: dequantize_rows, Tensor::to(), the
/// aggregations' row loader and the GEMM packers.
void dequantize_row(const std::int8_t* q, std::int64_t cols, float scale,
                    float zero, float* out);

/// \brief Bytes one feature row of `cols` elements occupies in `dtype`.
///
/// `cols * dtype_size(dtype)`, plus the row's f32 scale and zero-point (8
/// bytes) for kInt8Q: 4F for f32, 2F for f16, F + 8 for i8q. The unit of a
/// feature cache's device memory (FeatureCache::device_bytes) and of the
/// tools' `--cache-mb` sizing.
std::size_t wire_row_bytes(DType dtype, std::int64_t cols);

}  // namespace salient::ops
