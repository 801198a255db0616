// The reverse-sweep engine for the autograd tape.
#pragma once

#include "autograd/variable.h"

namespace salient {

/// Propagate `grad_root` (gradient of a scalar loss w.r.t. `root`) backwards
/// through the tape, accumulating into every reachable leaf that requires
/// grad. Nodes with multiple consumers receive the sum of their consumers'
/// contributions before their own backward runs (classic reverse topological
/// order).
///
/// Gradient ownership. A backward returns tensors it owns: fresh buffers,
/// or its grad_out handed on (Add returns it for both inputs), never a
/// buffer it will write to later. The engine copies no gradient. It moves
/// each returned tensor into its producer's slot (or into a leaf, via
/// Variable::accumulate_grad). A later contribution to the same slot is
/// accumulated in place only when the slot's buffer has no other holder
/// (its storage's use count is 1); otherwise it is added out of place, so a
/// buffer two slots share is never written. The backward of an input that
/// needs no gradient may return an undefined tensor for it; the engine
/// skips such inputs before looking at the tensor.
void run_backward(const Variable& root, Tensor grad_root);

}  // namespace salient
