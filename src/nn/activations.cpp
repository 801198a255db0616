#include "nn/activations.h"

#include "autograd/functions.h"

namespace salient::nn {

Variable relu(const Variable& x) { return autograd::relu(x); }

Variable log_softmax(const Variable& x) { return autograd::log_softmax(x); }

Variable Dropout::forward(const Variable& x, ops::Activation act,
                          double slope) {
  return autograd::act_dropout(x, act, p_, is_training(), next_seed(), slope);
}

}  // namespace salient::nn
