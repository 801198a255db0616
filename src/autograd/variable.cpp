#include "autograd/variable.h"

#include <stdexcept>

#include "autograd/engine.h"
#include "tensor/ops.h"

namespace salient {

Variable::Variable(Tensor data, bool requires_grad)
    : impl_(std::make_shared<Impl>()) {
  impl_->data = std::move(data);
  impl_->requires_grad = requires_grad;
}

Variable Variable::from_op(Tensor data, NodePtr node, bool requires_grad) {
  Variable v(std::move(data), requires_grad);
  v.impl_->grad_fn = std::move(node);
  return v;
}

Tensor& Variable::data() {
  if (!impl_) throw std::runtime_error("Variable: undefined");
  return impl_->data;
}

const Tensor& Variable::data() const {
  if (!impl_) throw std::runtime_error("Variable: undefined");
  return impl_->data;
}

const Tensor& Variable::grad() const {
  if (!impl_) throw std::runtime_error("Variable: undefined");
  return impl_->grad;
}

bool Variable::requires_grad() const {
  return impl_ && impl_->requires_grad;
}

const NodePtr& Variable::grad_fn() const {
  static const NodePtr null_node;
  return impl_ ? impl_->grad_fn : null_node;
}

void Variable::zero_grad() {
  if (impl_) impl_->grad = Tensor();
}

void Variable::accumulate_grad(Tensor g) {
  if (!impl_) throw std::runtime_error("accumulate_grad: undefined variable");
  if (!impl_->grad.defined()) {
    // Take the buffer when nothing else holds it; copy it otherwise, so a
    // leaf's gradient is always its own to update in place.
    impl_->grad = g.storage().use_count() == 1 ? std::move(g) : g.clone();
  } else {
    ops::axpy_(impl_->grad, g, 1.0);
  }
}

void Variable::backward(Tensor grad_seed) const {
  if (!impl_) throw std::runtime_error("backward: undefined variable");
  if (!grad_seed.defined()) {
    if (data().numel() != 1) {
      throw std::runtime_error(
          "backward: implicit seed requires a scalar output");
    }
    grad_seed = Tensor::ones(data().shape(), data().dtype());
  }
  run_backward(*this, std::move(grad_seed));
}

Variable make_op_result(const char* name, Tensor data,
                        std::vector<Variable> inputs,
                        LambdaNode::BackwardFn backward_fn) {
  bool any = false;
  for (const auto& v : inputs) any = any || v.requires_grad();
  if (!any) return Variable(std::move(data), false);
  auto node = std::make_shared<LambdaNode>(name, std::move(inputs),
                                           std::move(backward_fn));
  return Variable::from_op(std::move(data), std::move(node), true);
}

}  // namespace salient
