#include "autograd/functions.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/ops.h"

namespace salient::autograd {

namespace {

/// Read the single element of a scalar ([1]) float tensor as double.
double scalar_value(const Tensor& t) {
  if (t.numel() != 1) throw std::runtime_error("scalar_value: not a scalar");
  return t.dtype() == DType::kF32 ? static_cast<double>(t.data<float>()[0])
                                  : t.data<double>()[0];
}

/// dx for log-softmax: dx = g - softmax(x) * rowsum(g).
template <typename T>
void log_softmax_backward_kernel(const T* y, const T* g, T* dx,
                                 std::int64_t m, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    double gsum = 0;
    for (std::int64_t j = 0; j < n; ++j) gsum += double(g[i * n + j]);
    for (std::int64_t j = 0; j < n; ++j) {
      dx[i * n + j] = static_cast<T>(
          double(g[i * n + j]) - std::exp(double(y[i * n + j])) * gsum);
    }
  }
}

/// Columns [col, col+w) of a [M,N] matrix as a fresh [M,w] tensor.
Tensor slice_cols(const Tensor& x, std::int64_t col, std::int64_t w) {
  const std::int64_t m = x.size(0), n = x.size(1);
  Tensor out({m, w}, x.dtype());
  const std::size_t esz = dtype_size(x.dtype());
  const char* ps = static_cast<const char*>(x.raw());
  char* pd = static_cast<char*>(out.raw());
  for (std::int64_t i = 0; i < m; ++i) {
    std::memcpy(pd + static_cast<std::size_t>(i * w) * esz,
                ps + static_cast<std::size_t>(i * n + col) * esz,
                static_cast<std::size_t>(w) * esz);
  }
  return out;
}

}  // namespace

Variable to_compute(const Variable& x) {
  const DType dt = x.data().dtype();
  if (dt != DType::kF16 && dt != DType::kInt8Q) return x;
  return Variable(x.data().to(DType::kF32));
}

// Add and Sub hand grad_out on uncopied: the engine takes a gradient it
// shares with another slot without ever accumulating into it in place
// (autograd/engine.h).
Variable add(const Variable& a, const Variable& b) {
  return make_op_result("Add", ops::add(a.data(), b.data()), {a, b},
                        [](const Tensor& g) {
                          return std::vector<Tensor>{g, g};
                        });
}

Variable sub(const Variable& a, const Variable& b) {
  return make_op_result("Sub", ops::sub(a.data(), b.data()), {a, b},
                        [](const Tensor& g) {
                          return std::vector<Tensor>{g, ops::scale(g, -1.0)};
                        });
}

Variable mul(const Variable& a, const Variable& b) {
  Tensor ta = a.data(), tb = b.data();
  return make_op_result("Mul", ops::mul(ta, tb), {a, b},
                        [ta, tb](const Tensor& g) {
                          return std::vector<Tensor>{ops::mul(g, tb),
                                                     ops::mul(g, ta)};
                        });
}

Variable scale(const Variable& a, double alpha) {
  return make_op_result("Scale", ops::scale(a.data(), alpha), {a},
                        [alpha](const Tensor& g) {
                          return std::vector<Tensor>{ops::scale(g, alpha)};
                        });
}

Variable matmul(const Variable& a, const Variable& b, bool trans_a,
                bool trans_b) {
  Tensor ta = a.data(), tb = b.data();
  const bool need_a = a.requires_grad(), need_b = b.requires_grad();
  return make_op_result(
      "MatMul", ops::matmul(ta, tb, trans_a, trans_b), {a, b},
      [ta, tb, trans_a, trans_b, need_a, need_b](const Tensor& g) {
        // With A' = op(A), B' = op(B): gA' = g B'^T and gB' = A'^T g;
        // transpose back when the forward op transposed.
        std::vector<Tensor> grads(2);
        if (need_a) {
          grads[0] = trans_a ? ops::matmul(tb, g, trans_b, true)
                             : ops::matmul(g, tb, false, !trans_b);
        }
        if (need_b) {
          grads[1] = trans_b ? ops::matmul(g, ta, true, trans_a)
                             : ops::matmul(ta, g, !trans_a, false);
        }
        return grads;
      });
}

namespace {

/// Linear's input gradients from the pre-activation gradient gp, each
/// computed only when its input needs one (the engine skips the others): a
/// layer over features, whose x needs none, skips its largest GEMM.
LambdaNode::BackwardFn linear_backward(const Variable& x,
                                       const Variable& weight,
                                       const Variable& bias, Tensor mask) {
  const Tensor tx = x.data(), tw = weight.data();
  const bool need_x = x.requires_grad(), need_w = weight.requires_grad();
  const bool has_b = bias.defined(), need_b = has_b && bias.requires_grad();
  return [tx, tw, mask, need_x, need_w, has_b, need_b](const Tensor& g) {
    // mask is d y/d pre (relu gate x dropout scale), so one Hadamard
    // recovers the pre-activation gradient.
    const Tensor gp = mask.defined() ? ops::mul(g, mask) : g;
    std::vector<Tensor> grads(has_b ? 3 : 2);
    if (need_x) grads[0] = ops::matmul(gp, tw, false, false);
    if (need_w) grads[1] = ops::matmul(gp, tx, true, false);
    if (need_b) grads[2] = ops::sum_rows(gp);
    return grads;
  };
}

}  // namespace

Variable linear(const Variable& x, const Variable& weight,
                const Variable& bias) {
  Tensor y = ops::matmul(x.data(), weight.data(), false, true);
  if (bias.defined()) {
    y = ops::add_row_broadcast(y, bias.data());
    return make_op_result("Linear", std::move(y), {x, weight, bias},
                          linear_backward(x, weight, bias, Tensor()));
  }
  return make_op_result("Linear", std::move(y), {x, weight},
                        linear_backward(x, weight, bias, Tensor()));
}

Variable linear_act(const Variable& x, const Variable& weight,
                    const Variable& bias, double dropout_p, bool training,
                    std::uint64_t seed) {
  if (!bias.defined()) {
    throw std::invalid_argument("linear_act: bias required");
  }
  const bool drop = training && dropout_p > 0.0;
  Tensor mask;
  Tensor y = ops::gemm_epilogue(
      x.data(), weight.data(), bias.data(),
      drop ? ops::Epilogue::kBiasReluDropout : ops::Epilogue::kBiasRelu,
      drop ? dropout_p : 0.0, seed, &mask);
  return make_op_result("LinearAct", std::move(y), {x, weight, bias},
                        linear_backward(x, weight, bias, std::move(mask)));
}

Variable relu(const Variable& x) {
  Tensor mask = ops::relu_mask(x.data());
  return make_op_result("ReLU", ops::relu(x.data()), {x},
                        [mask](const Tensor& g) {
                          return std::vector<Tensor>{ops::mul(g, mask)};
                        });
}

Variable leaky_relu(const Variable& x, double slope) {
  Tensor mask = ops::leaky_relu_mask(x.data(), slope);
  return make_op_result("LeakyReLU", ops::leaky_relu(x.data(), slope), {x},
                        [mask](const Tensor& g) {
                          return std::vector<Tensor>{ops::mul(g, mask)};
                        });
}

Variable act_dropout(const Variable& x, ops::Activation act, double p,
                     bool training, std::uint64_t seed, double slope) {
  const double q = training ? p : 0.0;
  if (act == ops::Activation::kIdentity && q == 0.0) return x;
  Tensor mask;
  Tensor y = ops::act_dropout(x.data(), act, slope, q, seed,
                              x.requires_grad() ? &mask : nullptr);
  return make_op_result("ActDropout", std::move(y), {x},
                        [mask](const Tensor& g) {
                          return std::vector<Tensor>{ops::mul(g, mask)};
                        });
}

Variable dropout(const Variable& x, double p, bool training,
                 std::uint64_t seed) {
  return act_dropout(x, ops::Activation::kIdentity, p, training, seed);
}

Variable log_softmax(const Variable& x) {
  Tensor y = ops::log_softmax_rows(x.data());
  return make_op_result(
      "LogSoftmax", y, {x}, [y](const Tensor& g) {
        Tensor dx(y.shape(), y.dtype());
        const std::int64_t m = y.size(0), n = y.size(1);
        if (y.dtype() == DType::kF32) {
          log_softmax_backward_kernel(y.data<float>(), g.data<float>(),
                                      dx.data<float>(), m, n);
        } else {
          log_softmax_backward_kernel(y.data<double>(), g.data<double>(),
                                      dx.data<double>(), m, n);
        }
        return std::vector<Tensor>{std::move(dx)};
      });
}

Variable nll_loss(const Variable& logp, const Tensor& target) {
  Tensor tlogp = logp.data();
  Tensor ttarget = target;
  const double loss = ops::nll_loss_mean(tlogp, ttarget);
  Tensor out({1}, tlogp.dtype());
  out.fill_(loss);
  return make_op_result(
      "NllLoss", std::move(out), {logp},
      [tlogp, ttarget](const Tensor& g) {
        Tensor dl = ops::nll_loss_mean_backward(tlogp, ttarget);
        return std::vector<Tensor>{ops::scale(dl, scalar_value(g))};
      });
}

Variable narrow_rows(const Variable& x, std::int64_t begin, std::int64_t len) {
  Tensor view = x.data().narrow_rows(begin, len);
  const auto full_shape = x.data().shape();
  return make_op_result(
      "NarrowRows", view, {x},
      [full_shape, begin, len](const Tensor& g) {
        Tensor gx(full_shape, g.dtype());
        Tensor dst = gx.narrow_rows(begin, len);
        std::memcpy(dst.raw(), g.raw(), g.nbytes());
        return std::vector<Tensor>{std::move(gx)};
      });
}

Variable gather_rows(const Variable& x, const Tensor& idx) {
  const auto full_shape = x.data().shape();
  Tensor tidx = idx;
  return make_op_result(
      "GatherRows", ops::gather_rows(x.data(), idx), {x},
      [full_shape, tidx](const Tensor& g) {
        Tensor gx(full_shape, g.dtype());
        ops::scatter_add_rows_(gx, tidx, g);
        return std::vector<Tensor>{std::move(gx)};
      });
}

Variable concat_cols(const std::vector<Variable>& xs) {
  std::vector<Tensor> ts;
  ts.reserve(xs.size());
  std::vector<std::int64_t> widths;
  for (const auto& v : xs) {
    ts.push_back(v.data());
    widths.push_back(v.data().size(1));
  }
  return make_op_result(
      "ConcatCols", ops::concat_cols(ts), xs,
      [widths](const Tensor& g) {
        std::vector<Tensor> grads;
        grads.reserve(widths.size());
        std::int64_t col = 0;
        for (const auto w : widths) {
          grads.push_back(slice_cols(g, col, w));
          col += w;
        }
        return grads;
      });
}

Variable spmm_mean(std::shared_ptr<const std::vector<std::int64_t>> indptr,
                   std::shared_ptr<const std::vector<std::int64_t>> indices,
                   const Variable& x, std::int64_t num_dst) {
  const std::int64_t num_src = x.data().size(0);
  Tensor y = ops::spmm_mean(*indptr, *indices, x.data(), num_dst);
  return make_op_result(
      "SpmmMean", std::move(y), {x},
      [indptr, indices, num_src](const Tensor& g) {
        return std::vector<Tensor>{
            ops::spmm_mean_backward(*indptr, *indices, g, num_src)};
      });
}

Variable sage_conv(std::shared_ptr<const std::vector<std::int64_t>> indptr,
                   std::shared_ptr<const std::vector<std::int64_t>> indices,
                   const Variable& x, std::int64_t num_dst,
                   const Variable& w_l, const Variable& w_r,
                   const Variable& bias, bool relu, double dropout_p,
                   bool training, std::uint64_t seed) {
  const Tensor tx = x.data();
  const std::int64_t num_src = tx.size(0);
  const Tensor agg = ops::spmm_mean(*indptr, *indices, tx, num_dst);
  const Tensor x_dst = tx.narrow_rows(0, num_dst);
  const bool drop = relu && training && dropout_p > 0.0;
  const ops::Epilogue ep = drop   ? ops::Epilogue::kBiasReluDropout
                           : relu ? ops::Epilogue::kBiasRelu
                           : bias.defined() ? ops::Epilogue::kBias
                                            : ops::Epilogue::kNone;
  const Tensor y = ops::gemm_epilogue_cat(
      agg, w_l.data(), x_dst, w_r.data(),
      bias.defined() ? bias.data() : Tensor(), ep, drop ? dropout_p : 0.0,
      seed);
  const double keep_scale = drop ? 1.0 / (1.0 - dropout_p) : 1.0;
  const Tensor tw_l = w_l.data(), tw_r = w_r.data();
  const bool need_x = x.requires_grad();
  const bool need_w_l = w_l.requires_grad(), need_w_r = w_r.requires_grad();
  const bool has_b = bias.defined(), need_b = has_b && bias.requires_grad();
  std::vector<Variable> inputs{x, w_l, w_r};
  if (has_b) inputs.push_back(bias);
  return make_op_result(
      "SageConv", y, std::move(inputs),
      [=](const Tensor& g) {
        const Tensor gp =
            relu ? ops::relu_dropout_backward(g, y, keep_scale) : g;
        std::vector<Tensor> grads(has_b ? 4 : 3);
        if (need_x) {
          // The root term's gradient lands in the first num_dst rows of the
          // aggregation's scatter, so no full-size zero tensor is made.
          Tensor dx = ops::spmm_mean_backward(
              *indptr, *indices, ops::matmul(gp, tw_l), num_src);
          Tensor dx_dst = dx.narrow_rows(0, num_dst);
          ops::axpy_(dx_dst, ops::matmul(gp, tw_r), 1.0);
          grads[0] = std::move(dx);
        }
        if (need_w_l) grads[1] = ops::matmul(gp, agg, true, false);
        if (need_w_r) grads[2] = ops::matmul(gp, x_dst, true, false);
        if (need_b) grads[3] = ops::sum_rows(gp);
        return grads;
      });
}

Variable spmm_sum(std::shared_ptr<const std::vector<std::int64_t>> indptr,
                  std::shared_ptr<const std::vector<std::int64_t>> indices,
                  const Variable& x, std::int64_t num_dst) {
  const std::int64_t num_src = x.data().size(0);
  Tensor y = ops::spmm_sum(*indptr, *indices, x.data(), num_dst);
  return make_op_result(
      "SpmmSum", std::move(y), {x},
      [indptr, indices, num_src](const Tensor& g) {
        return std::vector<Tensor>{
            ops::spmm_sum_backward(*indptr, *indices, g, num_src)};
      });
}

Variable spmm_weighted(
    std::shared_ptr<const std::vector<std::int64_t>> indptr,
    std::shared_ptr<const std::vector<std::int64_t>> indices,
    std::shared_ptr<const std::vector<double>> weights, const Variable& x,
    std::int64_t num_dst) {
  const std::int64_t num_src = x.data().size(0);
  Tensor y = ops::spmm_weighted(*indptr, *indices, *weights, x.data(),
                                num_dst);
  return make_op_result(
      "SpmmWeighted", std::move(y), {x},
      [indptr, indices, weights, num_src](const Tensor& g) {
        return std::vector<Tensor>{ops::spmm_weighted_backward(
            *indptr, *indices, *weights, g, num_src)};
      });
}

Variable spmm_max(std::shared_ptr<const std::vector<std::int64_t>> indptr,
                  std::shared_ptr<const std::vector<std::int64_t>> indices,
                  const Variable& x, std::int64_t num_dst) {
  const std::int64_t num_src = x.data().size(0);
  auto argmax = std::make_shared<std::vector<std::int64_t>>();
  Tensor y = ops::spmm_max(*indptr, *indices, x.data(), num_dst,
                           argmax.get());
  return make_op_result(
      "SpmmMax", std::move(y), {x}, [argmax, num_src](const Tensor& g) {
        return std::vector<Tensor>{ops::spmm_max_backward(*argmax, g,
                                                          num_src)};
      });
}

namespace {

/// Shared batch-norm kernels, templated over scalar type.
template <typename T>
struct BnCtx {
  Tensor x_hat;     // normalized input
  Tensor inv_std;   // [N] 1/sqrt(var+eps)
};

template <typename T>
Tensor bn_forward(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  Tensor& running_mean, Tensor& running_var, bool training,
                  double momentum, double eps, BnCtx<T>& ctx) {
  const std::int64_t m = x.size(0), n = x.size(1);
  const T* px = x.data<T>();
  const T* pg = gamma.data<T>();
  const T* pb = beta.data<T>();
  Tensor y(x.shape(), x.dtype());
  ctx.x_hat = Tensor(x.shape(), x.dtype());
  ctx.inv_std = Tensor({n}, x.dtype());
  T* py = y.data<T>();
  T* ph = ctx.x_hat.template data<T>();
  T* pis = ctx.inv_std.template data<T>();

  std::vector<double> mean(n, 0.0), var(n, 0.0);
  if (training) {
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) mean[j] += double(px[i * n + j]);
    for (std::int64_t j = 0; j < n; ++j) mean[j] /= double(m);
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < n; ++j) {
        const double d = double(px[i * n + j]) - mean[j];
        var[j] += d * d;
      }
    for (std::int64_t j = 0; j < n; ++j) var[j] /= double(m);
    // Update running statistics (PyTorch uses the unbiased variance here).
    T* prm = running_mean.data<T>();
    T* prv = running_var.data<T>();
    const double unbias = m > 1 ? double(m) / double(m - 1) : 1.0;
    for (std::int64_t j = 0; j < n; ++j) {
      prm[j] = static_cast<T>((1 - momentum) * double(prm[j]) +
                              momentum * mean[j]);
      prv[j] = static_cast<T>((1 - momentum) * double(prv[j]) +
                              momentum * var[j] * unbias);
    }
  } else {
    const T* prm = running_mean.data<T>();
    const T* prv = running_var.data<T>();
    for (std::int64_t j = 0; j < n; ++j) {
      mean[j] = double(prm[j]);
      var[j] = double(prv[j]);
    }
  }
  for (std::int64_t j = 0; j < n; ++j) {
    pis[j] = static_cast<T>(1.0 / std::sqrt(var[j] + eps));
  }
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const T h = static_cast<T>((double(px[i * n + j]) - mean[j]) *
                                 double(pis[j]));
      ph[i * n + j] = h;
      py[i * n + j] = pg[j] * h + pb[j];
    }
  }
  return y;
}

template <typename T>
std::vector<Tensor> bn_backward(const Tensor& g, const Tensor& gamma,
                                const BnCtx<T>& ctx, bool training) {
  const std::int64_t m = g.size(0), n = g.size(1);
  const T* pg = g.data<T>();
  const T* pgam = gamma.data<T>();
  const T* ph = ctx.x_hat.template data<T>();
  const T* pis = ctx.inv_std.template data<T>();

  Tensor dgamma({n}, g.dtype()), dbeta({n}, g.dtype());
  T* pdg = dgamma.data<T>();
  T* pdb = dbeta.data<T>();
  std::vector<double> sum_dh(n, 0.0), sum_dh_h(n, 0.0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const double gv = double(pg[i * n + j]);
      const double hv = double(ph[i * n + j]);
      pdb[j] += static_cast<T>(gv);
      pdg[j] += static_cast<T>(gv * hv);
      const double dh = gv * double(pgam[j]);
      sum_dh[j] += dh;
      sum_dh_h[j] += dh * hv;
    }
  }
  Tensor dx(g.shape(), g.dtype());
  T* pdx = dx.data<T>();
  if (training) {
    const double inv_m = 1.0 / double(m);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        const double dh = double(pg[i * n + j]) * double(pgam[j]);
        const double hv = double(ph[i * n + j]);
        pdx[i * n + j] = static_cast<T>(
            double(pis[j]) * (dh - inv_m * sum_dh[j] - hv * inv_m * sum_dh_h[j]));
      }
    }
  } else {
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        pdx[i * n + j] = static_cast<T>(double(pg[i * n + j]) *
                                        double(pgam[j]) * double(pis[j]));
      }
    }
  }
  return {std::move(dx), std::move(dgamma), std::move(dbeta)};
}

}  // namespace

Variable batch_norm(const Variable& x, const Variable& gamma,
                    const Variable& beta, Tensor& running_mean,
                    Tensor& running_var, bool training, double momentum,
                    double eps) {
  if (x.data().dim() != 2) throw std::runtime_error("batch_norm: need [M,N]");
  if (x.data().dtype() == DType::kF32) {
    auto ctx = std::make_shared<BnCtx<float>>();
    Tensor y = bn_forward<float>(x.data(), gamma.data(), beta.data(),
                                 running_mean, running_var, training, momentum,
                                 eps, *ctx);
    Tensor tgamma = gamma.data();
    return make_op_result(
        "BatchNorm", std::move(y), {x, gamma, beta},
        [ctx, tgamma, training](const Tensor& g) {
          return bn_backward<float>(g, tgamma, *ctx, training);
        });
  }
  auto ctx = std::make_shared<BnCtx<double>>();
  Tensor y = bn_forward<double>(x.data(), gamma.data(), beta.data(),
                                running_mean, running_var, training, momentum,
                                eps, *ctx);
  Tensor tgamma = gamma.data();
  return make_op_result(
      "BatchNorm", std::move(y), {x, gamma, beta},
      [ctx, tgamma, training](const Tensor& g) {
        return bn_backward<double>(g, tgamma, *ctx, training);
      });
}

}  // namespace salient::autograd
