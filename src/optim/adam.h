// Adam (Kingma & Ba, 2015) — the optimizer used by the paper's training
// loops. Matches torch.optim.Adam defaults, including bias correction.
#pragma once

#include <vector>

#include "autograd/variable.h"

namespace salient::optim {

class Adam {
 public:
  explicit Adam(std::vector<Variable> params, double lr = 1e-3,
                double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8,
                double weight_decay = 0.0);

  /// Apply one update using the parameters' accumulated gradients.
  /// Parameters with no gradient are skipped.
  void step();

  /// Clear all parameter gradients (Listing 1's optimizer.zero_grad()).
  void zero_grad() {
    for (auto& p : params_) p.zero_grad();
  }

  const std::vector<Variable>& params() const { return params_; }
  double lr() const { return lr_; }
  std::int64_t step_count() const { return t_; }

 private:
  std::vector<Variable> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_;  // first-moment estimates
  std::vector<Tensor> v_;  // second-moment estimates
};

}  // namespace salient::optim
