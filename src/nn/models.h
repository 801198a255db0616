// The paper's four GNN architectures (Appendix A, Listings 1-4):
// GraphSAGE, GAT, GIN, and GraphSAGE-RI (residual + Inception-like head).
//
// All models consume a sampled MFG exactly like the PyG listings: layer i
// aggregates over MFG level i, `x_target = x[:num_dst]`, and the output is
// row-wise log-softmax over the mini-batch nodes. The same forward serves
// training and sampled inference (the unification argued for in §5).
//
// For full-neighborhood layer-wise inference (Table 6's "fanout: all"
// column), models additionally expose apply_layer()/finalize(): apply_layer
// runs conv i plus the inter-layer nonlinearity on one bipartite level, and
// finalize maps the last hidden representation to log-probabilities.
// GraphSAGE-RI's dense connections make it layer-wise-unfriendly (each layer
// output feeds the final concat — the extra-storage case §5 mentions), so it
// reports supports_layerwise() == false, mirroring the paper's fallback to
// fanout (100,100,100) on ogbn-papers100M.
#pragma once

#include <memory>
#include <string>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/gat_conv.h"
#include "nn/gin_conv.h"
#include "nn/linear.h"
#include "nn/sage_conv.h"
#include "sampling/mfg.h"

namespace salient::nn {

struct ModelConfig {
  std::int64_t in_channels = 0;
  std::int64_t hidden_channels = 256;
  std::int64_t out_channels = 0;
  int num_layers = 3;
  std::uint64_t seed = 123;  ///< parameter init + dropout stream seed
};

class GnnModel : public Module {
 public:
  /// Full forward over a sampled MFG -> [batch_size, out] log-probabilities.
  /// x is [num_input, in]: f32, or wire rows as a device batch holds them
  /// (f16, or i8q carrying its row scale/zero), which the first layer
  /// converts as it loads them — bitwise equal to converting first.
  virtual Variable forward(const Variable& x, const Mfg& mfg) = 0;
  /// Architecture name ("sage", "gat", "gin", "sage-ri").
  virtual const char* arch() const = 0;
  virtual int num_layers() const = 0;

  /// True when the model supports layer-wise full-neighborhood inference.
  virtual bool supports_layerwise() const { return true; }
  /// Conv layer i + inter-layer nonlinearity on one bipartite level.
  virtual Variable apply_layer(int i, const Variable& x,
                               const MfgLevel& level) = 0;
  /// Map the last layer's representation to log-probabilities.
  virtual Variable finalize(const Variable& x) = 0;
};

/// Listing 1. Final conv maps hidden -> out_channels.
class GraphSage final : public GnnModel {
 public:
  explicit GraphSage(const ModelConfig& config);
  Variable forward(const Variable& x, const Mfg& mfg) override;
  const char* arch() const override { return "sage"; }
  int num_layers() const override { return static_cast<int>(convs_.size()); }
  Variable apply_layer(int i, const Variable& x,
                       const MfgLevel& level) override;
  Variable finalize(const Variable& x) override;

 private:
  std::vector<std::shared_ptr<SageConv>> convs_;
  std::shared_ptr<Dropout> dropout_;
};

/// Listing 2.
class Gat final : public GnnModel {
 public:
  explicit Gat(const ModelConfig& config);
  Variable forward(const Variable& x, const Mfg& mfg) override;
  const char* arch() const override { return "gat"; }
  int num_layers() const override { return static_cast<int>(convs_.size()); }
  Variable apply_layer(int i, const Variable& x,
                       const MfgLevel& level) override;
  Variable finalize(const Variable& x) override;

 private:
  std::vector<std::shared_ptr<GatConv>> convs_;
  std::shared_ptr<Dropout> dropout_;
};

/// Listing 3: GIN convs followed by a two-linear prediction head.
class Gin final : public GnnModel {
 public:
  explicit Gin(const ModelConfig& config);
  Variable forward(const Variable& x, const Mfg& mfg) override;
  const char* arch() const override { return "gin"; }
  int num_layers() const override { return static_cast<int>(convs_.size()); }
  Variable apply_layer(int i, const Variable& x,
                       const MfgLevel& level) override;
  Variable finalize(const Variable& x) override;

 private:
  std::vector<std::shared_ptr<GinConv>> convs_;
  std::shared_ptr<Linear> lin1_;
  std::shared_ptr<Linear> lin2_;
  std::shared_ptr<Dropout> dropout_;
};

/// Listing 4: residual connections + Inception-like concat head.
class GraphSageRi final : public GnnModel {
 public:
  explicit GraphSageRi(const ModelConfig& config);
  Variable forward(const Variable& x, const Mfg& mfg) override;
  const char* arch() const override { return "sage-ri"; }
  int num_layers() const override { return static_cast<int>(convs_.size()); }
  bool supports_layerwise() const override { return false; }
  Variable apply_layer(int i, const Variable& x,
                       const MfgLevel& level) override;
  Variable finalize(const Variable& x) override;

 private:
  Variable finalize_from_concat(const Variable& cat);

  std::vector<std::shared_ptr<SageConv>> convs_;
  std::vector<std::shared_ptr<BatchNorm1d>> bns_;
  std::vector<std::shared_ptr<Linear>> res_linears_;  // null => identity
  std::shared_ptr<Linear> mlp1_;
  std::shared_ptr<Linear> mlp2_;
  std::shared_ptr<Dropout> dropout_;
};

/// Factory over the architecture name used throughout benches/examples.
std::shared_ptr<GnnModel> make_model(const std::string& arch,
                                     const ModelConfig& config);

}  // namespace salient::nn
