// Tape-based reverse-mode automatic differentiation.
//
// A Variable wraps a Tensor plus optional gradient state. Operations from
// autograd/functions.h build a DAG of Node objects (one per produced
// Variable); Variable::backward() runs the reverse sweep and accumulates
// gradients into leaf Variables (parameters). This mirrors the subset of
// PyTorch autograd the paper's training loop relies on.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace salient {

class Variable;

/// A node in the autograd tape: produced one Variable from `inputs`.
class Node {
 public:
  virtual ~Node() = default;

  /// Gradients of the node's output w.r.t. each input, given the gradient of
  /// some scalar loss w.r.t. the output. Entries for inputs that do not
  /// require grad may be returned as undefined Tensors. The returned tensors
  /// are handed to the engine (see run_backward's ownership rule).
  virtual std::vector<Tensor> backward(const Tensor& grad_out) = 0;

  /// Diagnostic name ("MatMul", "ReLU", ...).
  virtual const char* name() const = 0;

  /// The input variables this node consumed (fixed at construction).
  const std::vector<Variable>& inputs() const { return inputs_; }

 protected:
  explicit Node(std::vector<Variable> inputs) : inputs_(std::move(inputs)) {}

 private:
  std::vector<Variable> inputs_;
};

using NodePtr = std::shared_ptr<Node>;

/// A differentiable tensor. Copying is cheap (shared state).
class Variable {
 public:
  /// Undefined variable.
  Variable() = default;

  /// Wrap `data` as a leaf. Leaves with requires_grad=true accumulate
  /// gradients during backward (i.e., they are parameters or inputs under
  /// test).
  explicit Variable(Tensor data, bool requires_grad = false);

  /// Internal: wrap an op result with its producing node.
  static Variable from_op(Tensor data, NodePtr node, bool requires_grad);

  bool defined() const { return impl_ != nullptr; }

  /// The wrapped tensor (mutable access allowed for optimizers).
  Tensor& data();
  const Tensor& data() const;

  /// Accumulated gradient; undefined until backward reached this leaf.
  const Tensor& grad() const;
  /// True when this variable participates in gradient computation.
  bool requires_grad() const;
  /// The producing node (null for leaves).
  const NodePtr& grad_fn() const;

  /// Drop the accumulated gradient.
  void zero_grad();
  /// Add `g` into the accumulated gradient. The first gradient is taken
  /// over without a copy when `g` is its buffer's only holder.
  void accumulate_grad(Tensor g);

  /// Run reverse-mode differentiation from this (scalar or seeded) variable.
  /// If `grad_seed` is undefined, the variable must have exactly one element
  /// and is seeded with 1.
  void backward(Tensor grad_seed = Tensor()) const;

  /// Identity useful for hashing/sets in the engine.
  const void* id() const { return impl_.get(); }

  friend bool operator==(const Variable& a, const Variable& b) {
    return a.impl_ == b.impl_;
  }

 private:
  struct Impl {
    Tensor data;
    Tensor grad;
    bool requires_grad = false;
    NodePtr grad_fn;
  };
  std::shared_ptr<Impl> impl_;
};

/// Convenience node implemented with a lambda.
class LambdaNode final : public Node {
 public:
  using BackwardFn = std::function<std::vector<Tensor>(const Tensor&)>;

  LambdaNode(const char* name, std::vector<Variable> inputs, BackwardFn fn)
      : Node(std::move(inputs)), name_(name), fn_(std::move(fn)) {}

  std::vector<Tensor> backward(const Tensor& grad_out) override {
    return fn_(grad_out);
  }
  const char* name() const override { return name_; }

 private:
  const char* name_;
  BackwardFn fn_;
};

/// Build an op-result Variable: requires_grad is inherited from inputs, and
/// the node is only attached when some input requires grad.
Variable make_op_result(const char* name, Tensor data,
                        std::vector<Variable> inputs,
                        LambdaNode::BackwardFn backward_fn);

}  // namespace salient
