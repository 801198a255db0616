// GraphSAGE convolution (mean aggregator), PyG SAGEConv semantics.
//
// For a bipartite MFG level with sources x_src and destinations
// x_dst = x_src[:num_dst]:
//   out = lin_l(mean_{u in N(v)} x_src[u]) + lin_r(x_dst[v])
// matching torch_geometric.nn.SAGEConv((in, in), out) with mean aggregation.
// Aggregator variants (§2.1: "AGG is a mean, LSTM, or pooling operator"):
//   kMean — the paper's default;
//   kMax  — elementwise max of neighbor features;
//   kPool — max-pooling aggregator: max over relu(lin_pool(x_src)), the
//           GraphSAGE-pool variant of Hamilton et al.
#pragma once

#include "nn/activations.h"
#include "nn/linear.h"
#include "sampling/mfg.h"

namespace salient::nn {

enum class SageAggregator { kMean, kMax, kPool };

/// The nonlinearity between two convs, applied to a conv's output: ReLU
/// then inverted dropout at `dropout_p` (training mode only) with
/// counter-based decisions from `seed`. The default is none: the last conv,
/// and GraphSAGE-RI's convs, whose batch norm comes first.
struct ConvTail {
  bool relu = false;
  double dropout_p = 0.0;
  std::uint64_t seed = 0;
};

class SageConv : public Module {
 public:
  SageConv(std::int64_t in_channels, std::int64_t out_channels,
           bool bias = false, std::uint64_t init_seed = 11,
           SageAggregator aggregator = SageAggregator::kMean);

  /// x is the source-node feature matrix [num_src, in], f32 or wire rows
  /// (the first layer); the level supplies the bipartite adjacency and the
  /// destination prefix size. The mean aggregator runs as one fused node
  /// (autograd::sage_conv) with `tail` in its GEMM's store, reading wire
  /// rows directly; max and pool convert wire rows once, then compose the
  /// aggregation, the two Linears and a one-pass tail.
  Variable forward(const Variable& x, const MfgLevel& level,
                   const ConvTail& tail = {});

  SageAggregator aggregator() const { return aggregator_; }

 private:
  SageAggregator aggregator_;
  std::shared_ptr<Linear> lin_neigh_;  // applied to the aggregated neighbors
  std::shared_ptr<Linear> lin_root_;   // applied to the destination nodes
  std::shared_ptr<Linear> lin_pool_;   // pre-pooling transform (kPool only)
};

}  // namespace salient::nn
