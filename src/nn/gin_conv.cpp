#include "nn/gin_conv.h"

#include "autograd/functions.h"

namespace salient::nn {

GinMlp::GinMlp(std::int64_t in_channels, std::int64_t hidden_channels,
               std::uint64_t init_seed) {
  lin1_ = register_module(
      "lin1", std::make_shared<Linear>(in_channels, hidden_channels,
                                       /*bias=*/true, init_seed));
  bn_ = register_module("bn", std::make_shared<BatchNorm1d>(hidden_channels));
  lin2_ = register_module(
      "lin2", std::make_shared<Linear>(hidden_channels, hidden_channels,
                                       /*bias=*/true, init_seed ^ 0x61));
}

Variable GinMlp::forward(const Variable& x) {
  // lin1's ReLU cannot fuse past the batch norm; lin2 + ReLU fuse into one
  // gemm_epilogue store pass.
  Variable h = relu(bn_->forward(lin1_->forward(x)));
  return lin2_->forward_act(h);
}

GinConv::GinConv(std::shared_ptr<GinMlp> mlp, double eps) : eps_(eps) {
  mlp_ = register_module("nn", std::move(mlp));
}

Variable GinConv::forward(const Variable& x, const MfgLevel& level) {
  Variable agg = autograd::spmm_sum(
      std::shared_ptr<const std::vector<std::int64_t>>(level.indptr),
      std::shared_ptr<const std::vector<std::int64_t>>(level.indices), x,
      level.num_dst);
  // The sum reads wire rows directly; the root term's scale converts them.
  Variable x_dst =
      autograd::to_compute(autograd::narrow_rows(x, 0, level.num_dst));
  Variable combined =
      autograd::add(agg, autograd::scale(x_dst, 1.0 + eps_));
  return mlp_->forward(combined);
}

}  // namespace salient::nn
