#include "autograd/engine.h"

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tensor/ops.h"

namespace salient {

namespace {

/// Iterative post-order DFS over the node graph rooted at `root`.
/// The returned order has every node after all of its consumers were
/// processed when iterated in reverse (i.e., it is a valid topological order
/// for the reverse sweep when traversed back-to-front... we build post-order
/// and then walk it from the back).
std::vector<Node*> topo_order(Node* root) {
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  // explicit stack of (node, next child index)
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(root, 0);
  visited.insert(root);
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    const auto& ins = node->inputs();
    bool descended = false;
    while (idx < ins.size()) {
      const auto& in = ins[idx++];
      Node* child = in.grad_fn().get();
      if (child != nullptr && in.requires_grad() &&
          visited.insert(child).second) {
        stack.emplace_back(child, 0);
        descended = true;
        break;
      }
    }
    if (!descended && (stack.back().second >= stack.back().first->inputs().size())) {
      order.push_back(stack.back().first);
      stack.pop_back();
    }
  }
  return order;  // post-order: children before parents
}

}  // namespace

void run_backward(const Variable& root, Tensor grad_root) {
  if (!root.requires_grad()) {
    throw std::runtime_error("run_backward: root does not require grad");
  }
  if (grad_root.shape() != root.data().shape()) {
    throw std::runtime_error("run_backward: seed shape mismatch");
  }
  Node* root_node = root.grad_fn().get();
  if (root_node == nullptr) {
    // Root is itself a leaf: the seed is its gradient.
    const_cast<Variable&>(root).accumulate_grad(std::move(grad_root));
    return;
  }

  // Accumulated output-gradient per node.
  std::unordered_map<Node*, Tensor> node_grad;
  node_grad.emplace(root_node, std::move(grad_root));

  std::vector<Node*> order = topo_order(root_node);
  // Post-order puts children (producers) before parents (consumers); the
  // reverse sweep must process consumers first, so walk back-to-front.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    auto found = node_grad.find(node);
    if (found == node_grad.end()) continue;  // unreachable via grad paths
    Tensor gout = std::move(found->second);
    node_grad.erase(found);

    std::vector<Tensor> gins = node->backward(gout);
    // A backward may hand grad_out on (Add does); drop the engine's own
    // reference so the ownership test below sees only the real holders.
    gout = Tensor();
    const auto& ins = node->inputs();
    if (gins.size() != ins.size()) {
      throw std::runtime_error(std::string("backward of ") + node->name() +
                               " returned wrong number of gradients");
    }
    for (std::size_t i = 0; i < ins.size(); ++i) {
      const Variable& in = ins[i];
      if (!in.requires_grad()) continue;
      if (!gins[i].defined()) {
        throw std::runtime_error(std::string("backward of ") + node->name() +
                                 " missing gradient for differentiable input");
      }
      if (gins[i].shape() != in.data().shape()) {
        throw std::runtime_error(std::string("backward of ") + node->name() +
                                 " produced gradient with wrong shape");
      }
      Node* producer = in.grad_fn().get();
      if (producer == nullptr) {
        const_cast<Variable&>(in).accumulate_grad(std::move(gins[i]));
      } else {
        auto [slot, inserted] = node_grad.try_emplace(producer);
        if (inserted) {
          slot->second = std::move(gins[i]);
        } else if (slot->second.storage().use_count() == 1) {
          ops::axpy_(slot->second, gins[i], 1.0);
        } else {
          slot->second = ops::add(slot->second, gins[i]);
        }
      }
    }
  }
}

}  // namespace salient
