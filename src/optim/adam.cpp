#include "optim/adam.h"

#include <cmath>
#include <stdexcept>

#include "tensor/kernel_config.h"

namespace salient::optim {

Adam::Adam(std::vector<Variable> params, double lr, double beta1, double beta2,
           double eps, double weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.push_back(Tensor::zeros(p.data().shape(), p.data().dtype()));
    v_.push_back(Tensor::zeros(p.data().shape(), p.data().dtype()));
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    auto& p = params_[k];
    if (!p.grad().defined()) continue;
    Tensor& data = p.data();
    const Tensor& grad = p.grad();
    const std::int64_t n = data.numel();
    // Elementwise and independent per parameter, so the parallel version is
    // bitwise identical to the serial one (ops::parallel_for_n keeps small
    // parameter blocks serial via the shared cost heuristic).
    auto update = [&](auto* pd, const auto* pg, auto* pm, auto* pv) {
      using T = std::remove_reference_t<decltype(pd[0])>;
      ops::parallel_for_n(n, n, [&](std::int64_t ib, std::int64_t ie) {
        for (std::int64_t i = ib; i < ie; ++i) {
          double g = double(pg[i]);
          if (weight_decay_ != 0.0) g += weight_decay_ * double(pd[i]);
          const double m = beta1_ * double(pm[i]) + (1 - beta1_) * g;
          const double v = beta2_ * double(pv[i]) + (1 - beta2_) * g * g;
          pm[i] = static_cast<T>(m);
          pv[i] = static_cast<T>(v);
          const double mhat = m / bc1;
          const double vhat = v / bc2;
          pd[i] = static_cast<T>(double(pd[i]) -
                                 lr_ * mhat / (std::sqrt(vhat) + eps_));
        }
      });
    };
    if (data.dtype() == DType::kF32) {
      update(data.data<float>(), grad.data<float>(), m_[k].data<float>(),
             v_[k].data<float>());
    } else if (data.dtype() == DType::kF64) {
      update(data.data<double>(), grad.data<double>(), m_[k].data<double>(),
             v_[k].data<double>());
    } else {
      throw std::runtime_error("Adam: unsupported parameter dtype");
    }
  }
}

}  // namespace salient::optim
