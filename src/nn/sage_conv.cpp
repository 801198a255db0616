#include "nn/sage_conv.h"

#include "autograd/functions.h"

namespace salient::nn {

SageConv::SageConv(std::int64_t in_channels, std::int64_t out_channels,
                   bool bias, std::uint64_t init_seed,
                   SageAggregator aggregator)
    : aggregator_(aggregator) {
  lin_neigh_ = register_module(
      "lin_l", std::make_shared<Linear>(in_channels, out_channels, bias,
                                        init_seed));
  lin_root_ = register_module(
      "lin_r", std::make_shared<Linear>(in_channels, out_channels,
                                        /*bias=*/false, init_seed ^ 0x5eed));
  if (aggregator_ == SageAggregator::kPool) {
    lin_pool_ = register_module(
        "lin_pool", std::make_shared<Linear>(in_channels, in_channels,
                                             /*bias=*/true,
                                             init_seed ^ 0x9001));
  }
}

Variable SageConv::forward(const Variable& x, const MfgLevel& level,
                           const ConvTail& tail) {
  auto indptr = std::shared_ptr<const std::vector<std::int64_t>>(level.indptr);
  auto indices =
      std::shared_ptr<const std::vector<std::int64_t>>(level.indices);
  if (aggregator_ == SageAggregator::kMean) {
    return autograd::sage_conv(indptr, indices, x, level.num_dst,
                               lin_neigh_->weight(), lin_root_->weight(),
                               lin_neigh_->bias(), tail.relu, tail.dropout_p,
                               is_training(), tail.seed);
  }
  // The max and the pool transform read f32: wire rows convert once.
  const Variable xc = autograd::to_compute(x);
  Variable agg;
  if (aggregator_ == SageAggregator::kMax) {
    agg = autograd::spmm_max(indptr, indices, xc, level.num_dst);
  } else {
    // Fused bias+ReLU epilogue on the pool transform.
    Variable transformed = lin_pool_->forward_act(xc);
    agg = autograd::spmm_max(indptr, indices, transformed, level.num_dst);
  }
  // Root term on the destination prefix.
  Variable x_dst = autograd::narrow_rows(xc, 0, level.num_dst);
  Variable h =
      autograd::add(lin_neigh_->forward(agg), lin_root_->forward(x_dst));
  if (!tail.relu) return h;
  return autograd::act_dropout(h, ops::Activation::kRelu, tail.dropout_p,
                               is_training(), tail.seed);
}

}  // namespace salient::nn
