// Differentiable operations over Variables.
//
// Each function computes its forward result with the kernels from
// tensor/ops.h and registers a backward closure on the tape. The set covers
// everything the paper's four model architectures (Appendix A) need:
// GEMM, bias, activations, dropout, log-softmax + NLL, row slicing/concat,
// and the CSR neighborhood aggregations used by the conv layers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/variable.h"
#include "tensor/ops.h"

namespace salient::autograd {

/// a + b (same shape).
Variable add(const Variable& a, const Variable& b);
/// a - b.
Variable sub(const Variable& a, const Variable& b);
/// a * b (Hadamard).
Variable mul(const Variable& a, const Variable& b);
/// alpha * a.
Variable scale(const Variable& a, double alpha);
/// op(a) @ op(b) with optional transposes.
Variable matmul(const Variable& a, const Variable& b, bool trans_a = false,
                bool trans_b = false);
/// x @ W^T + bias; W is [out,in] (PyTorch Linear layout); bias optional.
Variable linear(const Variable& x, const Variable& weight,
                const Variable& bias);
/// Fused Linear + activation: dropout(relu(x @ W^T + bias)), computed as a
/// single ops::gemm_epilogue call — bias, ReLU and (when training and
/// dropout_p > 0) counter-based dropout are applied in the GEMM's store
/// phase instead of three full-tensor passes. The backward consumes the
/// combined mask the epilogue saved: d pre = g ⊙ mask, then the usual
/// Linear gradients. `bias` must be defined. The dropout stream is the
/// counter-based one (ops::dropout_mask_counter semantics), so results are
/// deterministic for a given seed regardless of pool size.
Variable linear_act(const Variable& x, const Variable& weight,
                    const Variable& bias, double dropout_p, bool training,
                    std::uint64_t seed);
/// max(x, 0).
Variable relu(const Variable& x);
/// leaky ReLU with the given negative slope.
Variable leaky_relu(const Variable& x, double slope = 0.01);
/// dropout(act(x)) in one elementwise pass (ops::act_dropout): inverted
/// dropout with counter-based decisions from `seed` when training and
/// p > 0, the activation alone otherwise. The backward multiplies by the
/// combined mask d y/d x, which is written only when x needs a gradient.
Variable act_dropout(const Variable& x, ops::Activation act, double p,
                     bool training, std::uint64_t seed, double slope = 0.01);
/// Inverted dropout: act_dropout with the identity activation. Identity
/// when !training or p == 0.
Variable dropout(const Variable& x, double p, bool training,
                 std::uint64_t seed);
/// Row-wise log-softmax.
Variable log_softmax(const Variable& x);
/// Mean NLL of log-probabilities vs integer targets; returns a [1] scalar.
Variable nll_loss(const Variable& logp, const Tensor& target);
/// Zero-copy forward view of rows [0, len); backward zero-pads.
Variable narrow_rows(const Variable& x, std::int64_t begin, std::int64_t len);
/// out[k,:] = x[idx[k],:] (idx i64, may repeat); backward scatter-adds.
Variable gather_rows(const Variable& x, const Tensor& idx);
/// Horizontal concat of same-height matrices.
Variable concat_cols(const std::vector<Variable>& xs);

/// Mean-aggregation over one MFG level (see ops::spmm_mean). The CSR arrays
/// are captured by shared_ptr so the batch object can outlive the call
/// without copies.
Variable spmm_mean(std::shared_ptr<const std::vector<std::int64_t>> indptr,
                   std::shared_ptr<const std::vector<std::int64_t>> indices,
                   const Variable& x, std::int64_t num_dst);
/// GraphSAGE's mean conv as one node (nn::SageConv, mean aggregator):
///   y = tail(spmm_mean(x) · w_lᵀ + x[:num_dst] · w_rᵀ (+ bias))
/// where tail is ReLU followed, when training and dropout_p > 0, by inverted
/// dropout with counter-based decisions from `seed`; without `relu` there
/// is no tail. The two Linears run as one GEMM over K = 2F whose packing
/// reads the aggregate and the destination rows in place, and the tail
/// rides its store (ops::gemm_epilogue_cat). The backward reads d y/d pre
/// off the saved output (ops::relu_dropout_backward), so no mask is written
/// in training or eval; the weight gradients pack gpᵀ in place and split a
/// long K (ops::matmul); and dx is computed only when x needs a gradient,
/// as spmm_mean_backward(gp · w_l) with gp · w_r added into its first
/// num_dst rows.
Variable sage_conv(std::shared_ptr<const std::vector<std::int64_t>> indptr,
                   std::shared_ptr<const std::vector<std::int64_t>> indices,
                   const Variable& x, std::int64_t num_dst,
                   const Variable& w_l, const Variable& w_r,
                   const Variable& bias, bool relu, double dropout_p,
                   bool training, std::uint64_t seed);
/// Sum-aggregation over one MFG level.
Variable spmm_sum(std::shared_ptr<const std::vector<std::int64_t>> indptr,
                  std::shared_ptr<const std::vector<std::int64_t>> indices,
                  const Variable& x, std::int64_t num_dst);

/// Edge-weighted aggregation (weights are non-differentiable constants,
/// e.g. GCN's symmetric normalization coefficients).
Variable spmm_weighted(
    std::shared_ptr<const std::vector<std::int64_t>> indptr,
    std::shared_ptr<const std::vector<std::int64_t>> indices,
    std::shared_ptr<const std::vector<double>> weights, const Variable& x,
    std::int64_t num_dst);

/// Elementwise-max aggregation (GraphSAGE pooling aggregator core);
/// gradients flow to each output element's argmax source.
Variable spmm_max(std::shared_ptr<const std::vector<std::int64_t>> indptr,
                  std::shared_ptr<const std::vector<std::int64_t>> indices,
                  const Variable& x, std::int64_t num_dst);

/// Batch normalization over rows of a [M,N] tensor with affine parameters
/// gamma/beta ([N] each). In training mode uses batch statistics and updates
/// running_mean/var in place (momentum as in torch.nn.BatchNorm1d); in eval
/// mode uses the running statistics.
Variable batch_norm(const Variable& x, const Variable& gamma,
                    const Variable& beta, Tensor& running_mean,
                    Tensor& running_var, bool training, double momentum = 0.1,
                    double eps = 1e-5);

}  // namespace salient::autograd
