// Fully connected layer (torch.nn.Linear semantics and initialization).
#pragma once

#include "nn/module.h"

namespace salient::nn {

class Linear : public Module {
 public:
  /// Weight is [out_features, in_features]; Kaiming-uniform initialized
  /// (U[-k, k] with k = 1/sqrt(in_features)), bias likewise when present.
  Linear(std::int64_t in_features, std::int64_t out_features,
         bool bias = true, std::uint64_t init_seed = 7);

  /// y = x W^T (+ b).
  Variable forward(const Variable& x);

  /// Fused y = dropout(relu(x W^T + b)): one gemm_epilogue call instead of
  /// GEMM + three elementwise passes (autograd::linear_act). dropout_p = 0
  /// (or eval mode) fuses just bias+ReLU. Requires the layer to have a bias.
  Variable forward_act(const Variable& x, double dropout_p = 0.0,
                       std::uint64_t seed = 0);

  const Variable& weight() const { return weight_; }
  /// Undefined when the layer has no bias.
  const Variable& bias() const { return bias_; }
  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  Variable weight_;
  Variable bias_;
};

/// Identity module (torch.nn.Identity), used by GraphSAGE-RI's residual list.
class Identity : public Module {
 public:
  Variable forward(const Variable& x) { return x; }
};

}  // namespace salient::nn
