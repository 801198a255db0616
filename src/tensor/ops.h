// Dense tensor operations (forward kernels).
//
// All ops allocate and return fresh tensors unless suffixed with `_` (in
// place) or documented otherwise. Float ops support f32 and f64 so the same
// kernels serve both training (f32, the simulated-GPU precision) and gradient
// checking (f64). Shapes are validated and mismatches throw.
//
// Every hot op has a reference and an optimized (vectorized, pool-parallel,
// bitwise-deterministic) implementation behind this API, selected at runtime
// via SALIENT_KERNEL=ref|opt or ops::set_kernel_kind(); pool parallelism is
// opted into with ops::set_kernel_pool(). See tensor/kernel_config.h and
// docs/PERFORMANCE.md.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/epilogue.h"
#include "tensor/tensor.h"

namespace salient::ops {

// --- elementwise -----------------------------------------------------------

/// c = a + b (same shape, same float dtype).
Tensor add(const Tensor& a, const Tensor& b);
/// c = a - b.
Tensor sub(const Tensor& a, const Tensor& b);
/// c = a * b (Hadamard).
Tensor mul(const Tensor& a, const Tensor& b);
/// c = alpha * a.
Tensor scale(const Tensor& a, double alpha);
/// c = a + alpha * b.
Tensor add_scaled(const Tensor& a, const Tensor& b, double alpha);
/// a += alpha * b, in place.
void axpy_(Tensor& a, const Tensor& b, double alpha);

// --- unary -----------------------------------------------------------------

/// max(x, 0).
Tensor relu(const Tensor& x);
/// x > 0 ? 1 : 0, as the same float dtype (used by relu backward).
Tensor relu_mask(const Tensor& x);
/// x > 0 ? x : slope * x.
Tensor leaky_relu(const Tensor& x, double slope);
/// d/dx leaky_relu: x > 0 ? 1 : slope.
Tensor leaky_relu_mask(const Tensor& x, double slope);
/// elementwise exp.
Tensor exp(const Tensor& x);
/// elementwise natural log.
Tensor log(const Tensor& x);
/// elementwise square root.
Tensor sqrt(const Tensor& x);

// --- broadcast / reductions -------------------------------------------------

/// y[i,j] = x[i,j] + b[j]; x is [M,N], b is [N].
Tensor add_row_broadcast(const Tensor& x, const Tensor& b);
/// column sums of a [M,N] tensor -> [N].
Tensor sum_rows(const Tensor& x);
/// sum of all elements (returned as double).
double sum_all(const Tensor& x);
/// mean of all elements.
double mean_all(const Tensor& x);

// --- row indexing -----------------------------------------------------------

/// out[k,:] = x[idx[k],:]; idx is i64, x is [M,N] (any dtype incl. f16).
Tensor gather_rows(const Tensor& x, const Tensor& idx);
/// dst[idx[k],:] += src[k,:] (float dtypes). Rows may repeat in idx.
void scatter_add_rows_(Tensor& dst, const Tensor& idx, const Tensor& src);
/// Horizontal concatenation of [M,Ni] tensors -> [M, sum Ni].
Tensor concat_cols(const std::vector<Tensor>& xs);

// --- softmax / classification ------------------------------------------------

/// Row-wise log-softmax of a [M,N] tensor (numerically stabilized).
Tensor log_softmax_rows(const Tensor& x);
/// Mean negative log-likelihood: logp is [M,C] log-probabilities, target is
/// [M] i64 class indices. Returns a scalar.
double nll_loss_mean(const Tensor& logp, const Tensor& target);
/// Gradient of nll_loss_mean w.r.t. logp: -1/M at (i, target[i]).
Tensor nll_loss_mean_backward(const Tensor& logp, const Tensor& target);
/// Row-wise argmax of a [M,N] float tensor -> [M] i64.
Tensor argmax_rows(const Tensor& x);
/// Fraction of rows where argmax(logits[i]) == target[i].
double accuracy(const Tensor& logits, const Tensor& target);

// --- dropout ------------------------------------------------------------------

/// Counter-based inverted-dropout mask: entry i is 0 when
/// dropout_keep(seed, i, dropout_drop_threshold(p)) drops it, else 1/(1-p).
/// Each entry is a pure hash of (seed, flat index), so the mask is identical
/// however the tensor is chunked — the property that lets the fused GEMM
/// epilogue (tensor/epilogue.h) and act_dropout evaluate the same decisions
/// element by element and agree bitwise with this standalone op.
Tensor dropout_mask_counter(const std::vector<std::int64_t>& shape, double p,
                            std::uint64_t seed, DType dtype = DType::kF32);

/// The activation act_dropout applies before its dropout.
enum class Activation : std::uint8_t {
  kIdentity,   ///< y = x (plain dropout)
  kRelu,       ///< y = max(x, 0), as ops::relu
  kLeakyRelu,  ///< y = x > 0 ? x : slope * x, as ops::leaky_relu
};

/// One elementwise pass of y = act(x) ⊙ dropout_mask_counter(x.shape(), p,
/// seed), bitwise equal to that unfused composition (activation op, then
/// ops::mul). When `mask_out` is non-null it is overwritten with d y/d x =
/// act'(x) times the mask entry, the one factor the backward multiplies by.
/// p = 0 keeps every element (the activation alone).
Tensor act_dropout(const Tensor& x, Activation act, double slope, double p,
                   std::uint64_t seed, Tensor* mask_out);

/// Gradient through a fused ReLU (+ inverted dropout) epilogue, read off the
/// epilogue's output y instead of a saved mask: g · keep_scale where y > 0
/// (the element passed the ReLU and was kept), else 0. y > 0 holds exactly
/// when pre > 0 and the element was kept, so this equals g ⊙ mask for the
/// mask the epilogue would have written.
Tensor relu_dropout_backward(const Tensor& g, const Tensor& y,
                             double keep_scale);

// --- sparse (CSR) neighborhood aggregation -----------------------------------
//
// These implement the AGG step of message passing over one MFG level: the
// bipartite graph is stored destination-major as CSR (indptr has D+1 entries,
// indices[e] is the *local* source row of edge e). They are the C++ analogue
// of PyG's SpMM on the sampled adjacency.

/// out[d,:] = mean over e in [indptr[d], indptr[d+1]) of x[indices[e],:].
/// Rows with no incoming edges yield zeros. x is [S,F]; result is [D,F].
Tensor spmm_mean(const std::vector<std::int64_t>& indptr,
                 const std::vector<std::int64_t>& indices, const Tensor& x,
                 std::int64_t num_dst);
/// Same with sum instead of mean.
Tensor spmm_sum(const std::vector<std::int64_t>& indptr,
                const std::vector<std::int64_t>& indices, const Tensor& x,
                std::int64_t num_dst);
/// Backward of spmm_mean w.r.t. x: scatter grad_out[d]/deg(d) to sources.
Tensor spmm_mean_backward(const std::vector<std::int64_t>& indptr,
                          const std::vector<std::int64_t>& indices,
                          const Tensor& grad_out, std::int64_t num_src);
/// Backward of spmm_sum w.r.t. x.
Tensor spmm_sum_backward(const std::vector<std::int64_t>& indptr,
                         const std::vector<std::int64_t>& indices,
                         const Tensor& grad_out, std::int64_t num_src);

/// Edge-weighted aggregation: out[d,:] = sum_e w[e] * x[indices[e],:]
/// (the SpMM of a weighted adjacency, e.g. GCN's normalized matrix).
/// `weights` has one entry per edge.
Tensor spmm_weighted(const std::vector<std::int64_t>& indptr,
                     const std::vector<std::int64_t>& indices,
                     const std::vector<double>& weights, const Tensor& x,
                     std::int64_t num_dst);
/// Backward of spmm_weighted w.r.t. x (weights are constants).
Tensor spmm_weighted_backward(const std::vector<std::int64_t>& indptr,
                              const std::vector<std::int64_t>& indices,
                              const std::vector<double>& weights,
                              const Tensor& grad_out, std::int64_t num_src);

/// Elementwise-max aggregation: out[d,:] = max over edges of x[src,:]
/// (zeros for empty rows — GraphSAGE's "pooling" aggregator core, §2.1).
/// `argmax_out` (size num_dst * F) records the winning source row per
/// output element (-1 for empty rows), for the backward pass.
Tensor spmm_max(const std::vector<std::int64_t>& indptr,
                const std::vector<std::int64_t>& indices, const Tensor& x,
                std::int64_t num_dst, std::vector<std::int64_t>* argmax_out);
/// Backward of spmm_max: route each output gradient to its argmax source.
Tensor spmm_max_backward(const std::vector<std::int64_t>& argmax,
                         const Tensor& grad_out, std::int64_t num_src);

// --- matmul (see matmul.cpp) ---------------------------------------------------

/// C = op(A) * op(B), where op transposes when the flag is set.
/// A is [M,K] (or [K,M] when trans_a), B is [K,N] (or [N,K] when trans_b).
///
/// Both operands f32 or both f64 give a same-dtype result. In addition,
/// either operand (or both) may be kF16 while the other is kF32: the result
/// is f32, and the optimized kernel decompresses the half-precision rows
/// directly into its packing scratch (no f32 copy of the compressed operand
/// materializes — the paper's compressed-feature hot path). The mixed
/// product is bitwise identical to up-converting first, since f16 -> f32 is
/// exact.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// C = dequantize(A) * op(B) for a per-row affine int8-quantized A
/// (tensor/quantize.h): A is [M,K] kInt8Q with [M] f32 scales/zero-points,
/// B is f32 [K,N] (or [N,K] when trans_b), C is f32. The optimized kernel
/// dequantizes A's rows inside the [kc][MR] packing stage, so the f32
/// feature matrix never materializes; the reference kernel reconstructs it
/// with dequantize_rows first (ground truth for the A/B tests).
Tensor matmul_compressed(const Tensor& a, const Tensor& a_scale,
                         const Tensor& a_zero, const Tensor& b,
                         bool trans_b = false);

/// Fused Linear forward: y = epilogue(x @ w^T), with x [M,K] and w [N,K]
/// (the nn::Linear weight layout). The epilogue (tensor/epilogue.h) applies
/// bias / ReLU / counter-based dropout in the GEMM's store phase — one pass
/// over the output instead of three full-tensor passes after it.
///
/// * `bias` must be a [N] vector for Epilogue::kBias and stronger; it is
///   ignored (may be empty) for kNone.
/// * For kBiasRelu / kBiasReluDropout, `mask_out` (when non-null) is
///   overwritten with the [M,N] combined derivative d y/d pre — 1/0 for
///   ReLU, scaled by 1/(1-p) under dropout — which is exactly the factor
///   the backward pass multiplies the output gradient by.
/// * `dropout_p` in [0, 1) and `seed` drive the counter-based decisions
///   (kBiasReluDropout only).
///
/// The optimized path fuses into the microkernel store; the reference path
/// composes the same math serially. Fused output is bitwise identical to
/// the unfused optimized sequence {matmul, add_row_broadcast, relu,
/// mul(dropout_mask_counter)} under the same seed, and run-to-run
/// deterministic across pool sizes (tests/test_kernels.cpp).
///
/// For kBiasRelu / kBiasReluDropout the bias may be undefined: the
/// activation then applies to the plain product (bias-free convs).
Tensor gemm_epilogue(const Tensor& x, const Tensor& w, const Tensor& bias,
                     Epilogue epilogue, double dropout_p, std::uint64_t seed,
                     Tensor* mask_out);

/// gemm_epilogue over two operand pairs: y = epilogue(x0 @ w0^T + x1 @ w1^T)
/// with x0 [M,K0], x1 [M,K1], w0 [N,K0], w1 [N,K1], computed as one GEMM
/// over K = K0 + K1 whose packing reads [x0 | x1] and [w0 | w1] in place —
/// no concatenated copy is made. This is GraphSAGE's conv (x0 the
/// mean-aggregated neighbours, x1 the destination rows, which may be a
/// narrow_rows view). `bias` may be undefined. No mask is written; a ReLU
/// epilogue's backward reads it off the output (relu_dropout_backward).
Tensor gemm_epilogue_cat(const Tensor& x0, const Tensor& w0, const Tensor& x1,
                         const Tensor& w1, const Tensor& bias,
                         Epilogue epilogue, double dropout_p,
                         std::uint64_t seed);

}  // namespace salient::ops
