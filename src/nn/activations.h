// Functional activations and a Dropout module (torch.nn.functional flavour).
#pragma once

#include "autograd/variable.h"
#include "nn/module.h"
#include "tensor/ops.h"

namespace salient::nn {

/// max(x, 0).
Variable relu(const Variable& x);
/// Row-wise log-softmax.
Variable log_softmax(const Variable& x);

/// Inverted dropout with counter-based decisions. Each forward draws the
/// next seed from the module's deterministic stream (see Module::set_seed),
/// in eval mode too, so a model's draws do not depend on its mode.
class Dropout : public Module {
 public:
  explicit Dropout(double p) : p_(p) {}
  /// dropout(act(x)) in one pass (autograd::act_dropout); the activation
  /// alone in eval mode. `slope` is kLeakyRelu's negative slope.
  Variable forward(const Variable& x,
                   ops::Activation act = ops::Activation::kIdentity,
                   double slope = 0.01);
  double p() const { return p_; }
  /// The next seed of this module's stream, for a kernel that applies this
  /// dropout in its own store phase (the fused GraphSAGE conv).
  std::uint64_t next_seed() { return Module::next_seed(); }

 private:
  double p_;
};

}  // namespace salient::nn
