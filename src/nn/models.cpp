#include "nn/models.h"

#include <stdexcept>

#include "autograd/functions.h"

namespace salient::nn {

namespace {

void check_config(const ModelConfig& c) {
  if (c.in_channels <= 0 || c.hidden_channels <= 0 || c.out_channels <= 0 ||
      c.num_layers < 2) {
    throw std::invalid_argument("ModelConfig: bad dimensions");
  }
}

}  // namespace

// --- GraphSAGE (Listing 1) --------------------------------------------------

GraphSage::GraphSage(const ModelConfig& c) {
  check_config(c);
  // kwargs = dict(bias=False), as in the listing. The listing's final conv
  // maps hidden->hidden (leaving out_channels unused); we map hidden->out so
  // the model classifies, matching the released SALIENT code.
  convs_.push_back(register_module(
      "conv0", std::make_shared<SageConv>(c.in_channels, c.hidden_channels,
                                          false, c.seed + 0)));
  for (int i = 1; i < c.num_layers - 1; ++i) {
    convs_.push_back(register_module(
        "conv" + std::to_string(i),
        std::make_shared<SageConv>(c.hidden_channels, c.hidden_channels,
                                   false, c.seed + static_cast<unsigned>(i))));
  }
  convs_.push_back(register_module(
      "conv" + std::to_string(c.num_layers - 1),
      std::make_shared<SageConv>(c.hidden_channels, c.out_channels, false,
                                 c.seed + 97)));
  dropout_ = register_module("dropout", std::make_shared<Dropout>(0.5));
  set_seed(c.seed);
}

Variable GraphSage::forward(const Variable& x, const Mfg& mfg) {
  if (mfg.levels.size() != convs_.size()) {
    throw std::invalid_argument("GraphSage: MFG depth != model depth");
  }
  Variable h = x;
  for (int i = 0; i < num_layers(); ++i) {
    h = apply_layer(i, h, mfg.levels[static_cast<std::size_t>(i)]);
  }
  return log_softmax(h);
}

Variable GraphSage::apply_layer(int i, const Variable& x,
                                const MfgLevel& level) {
  // Inner layers run ReLU and dropout in the conv's GEMM store, with one
  // seed drawn from the Dropout module's stream per layer.
  ConvTail tail;
  if (i + 1 != num_layers()) {
    tail = ConvTail{true, dropout_->p(), dropout_->next_seed()};
  }
  return convs_[static_cast<std::size_t>(i)]->forward(x, level, tail);
}

Variable GraphSage::finalize(const Variable& x) { return log_softmax(x); }

// --- GAT (Listing 2) ----------------------------------------------------------

Gat::Gat(const ModelConfig& c) {
  check_config(c);
  convs_.push_back(register_module(
      "conv0", std::make_shared<GatConv>(c.in_channels, c.hidden_channels,
                                         false, 0.2, c.seed + 0)));
  for (int i = 1; i < c.num_layers - 1; ++i) {
    convs_.push_back(register_module(
        "conv" + std::to_string(i),
        std::make_shared<GatConv>(c.hidden_channels, c.hidden_channels, false,
                                  0.2, c.seed + static_cast<unsigned>(i))));
  }
  convs_.push_back(register_module(
      "conv" + std::to_string(c.num_layers - 1),
      std::make_shared<GatConv>(c.hidden_channels, c.out_channels, false, 0.2,
                                c.seed + 97)));
  dropout_ = register_module("dropout", std::make_shared<Dropout>(0.5));
  set_seed(c.seed);
}

Variable Gat::forward(const Variable& x, const Mfg& mfg) {
  if (mfg.levels.size() != convs_.size()) {
    throw std::invalid_argument("Gat: MFG depth != model depth");
  }
  Variable h = x;
  for (int i = 0; i < num_layers(); ++i) {
    h = apply_layer(i, h, mfg.levels[static_cast<std::size_t>(i)]);
  }
  return log_softmax(h);
}

Variable Gat::apply_layer(int i, const Variable& x, const MfgLevel& level) {
  Variable h = convs_[static_cast<std::size_t>(i)]->forward(x, level);
  if (i + 1 == num_layers()) return h;
  return dropout_->forward(h, ops::Activation::kRelu);  // one pass
}

Variable Gat::finalize(const Variable& x) { return log_softmax(x); }

// --- GIN (Listing 3) -----------------------------------------------------------

Gin::Gin(const ModelConfig& c) {
  check_config(c);
  convs_.push_back(register_module(
      "conv0",
      std::make_shared<GinConv>(std::make_shared<GinMlp>(
          c.in_channels, c.hidden_channels, c.seed + 0))));
  for (int i = 1; i < c.num_layers; ++i) {
    convs_.push_back(register_module(
        "conv" + std::to_string(i),
        std::make_shared<GinConv>(std::make_shared<GinMlp>(
            c.hidden_channels, c.hidden_channels,
            c.seed + static_cast<unsigned>(i)))));
  }
  lin1_ = register_module(
      "lin1", std::make_shared<Linear>(c.hidden_channels, c.hidden_channels,
                                       true, c.seed + 51));
  lin2_ = register_module(
      "lin2", std::make_shared<Linear>(c.hidden_channels, c.out_channels,
                                       true, c.seed + 52));
  dropout_ = register_module("dropout", std::make_shared<Dropout>(0.5));
  set_seed(c.seed);
}

Variable Gin::forward(const Variable& x, const Mfg& mfg) {
  if (mfg.levels.size() != convs_.size()) {
    throw std::invalid_argument("Gin: MFG depth != model depth");
  }
  Variable h = x;
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    h = convs_[i]->forward(h, mfg.levels[i]);
  }
  return finalize(h);
}

Variable Gin::apply_layer(int i, const Variable& x, const MfgLevel& level) {
  return convs_[static_cast<std::size_t>(i)]->forward(x, level);
}

Variable Gin::finalize(const Variable& x) {
  // Fused bias+ReLU+dropout epilogue: the classifier head's three
  // elementwise passes ride the lin1 GEMM store. The dropout decisions come
  // from the counter-based stream seeded by this module's seed stream.
  Variable h = lin1_->forward_act(x, dropout_->p(), next_seed());
  return log_softmax(lin2_->forward(h));
}

// --- GraphSAGE-RI (Listing 4) ----------------------------------------------------

GraphSageRi::GraphSageRi(const ModelConfig& c) {
  check_config(c);
  convs_.push_back(register_module(
      "conv0", std::make_shared<SageConv>(c.in_channels, c.hidden_channels,
                                          false, c.seed + 0)));
  bns_.push_back(
      register_module("bn0", std::make_shared<BatchNorm1d>(c.hidden_channels)));
  res_linears_.push_back(register_module(
      "res0", std::make_shared<Linear>(c.in_channels, c.hidden_channels, true,
                                       c.seed + 31)));
  for (int i = 1; i < c.num_layers; ++i) {
    convs_.push_back(register_module(
        "conv" + std::to_string(i),
        std::make_shared<SageConv>(c.hidden_channels, c.hidden_channels,
                                   false, c.seed + static_cast<unsigned>(i))));
    bns_.push_back(register_module(
        "bn" + std::to_string(i),
        std::make_shared<BatchNorm1d>(c.hidden_channels)));
    res_linears_.push_back(nullptr);  // torch.nn.Identity
  }
  // Inception-like head over [input, layer1, ..., layerL] concatenated.
  const std::int64_t concat_dim =
      c.in_channels + c.num_layers * c.hidden_channels;
  mlp1_ = register_module(
      "mlp1", std::make_shared<Linear>(concat_dim, c.hidden_channels, true,
                                       c.seed + 71));
  mlp2_ = register_module(
      "mlp2", std::make_shared<Linear>(c.hidden_channels, c.out_channels,
                                       true, c.seed + 72));
  dropout_ = register_module("dropout", std::make_shared<Dropout>(0.1));
  set_seed(c.seed);
}

Variable GraphSageRi::forward(const Variable& x, const Mfg& mfg) {
  if (mfg.levels.size() != convs_.size()) {
    throw std::invalid_argument("GraphSageRi: MFG depth != model depth");
  }
  const std::int64_t end_size = mfg.batch_size;
  std::vector<Variable> collect;
  Variable h = dropout_->forward(x);
  collect.push_back(autograd::narrow_rows(h, 0, end_size));
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    const auto& level = mfg.levels[i];
    Variable h_target = autograd::narrow_rows(h, 0, level.num_dst);
    // Listing 4 applies independent dropout to x and x_target before the
    // conv; we apply one dropout to the source matrix (the target rows are
    // its prefix), which differs only in the mask drawn for the root term.
    h = convs_[i]->forward(dropout_->forward(h), level);
    h = dropout_->forward(bns_[i]->forward(h), ops::Activation::kLeakyRelu);
    collect.push_back(autograd::narrow_rows(h, 0, end_size));
    if (res_linears_[i]) {
      h = autograd::add(h, res_linears_[i]->forward(h_target));
    } else {
      h = autograd::add(h, h_target);
    }
  }
  Variable cat = autograd::concat_cols(collect);
  return finalize_from_concat(cat);
}

Variable GraphSageRi::finalize_from_concat(const Variable& cat) {
  Variable h =
      dropout_->forward(mlp1_->forward(cat), ops::Activation::kLeakyRelu);
  return log_softmax(mlp2_->forward(h));
}

Variable GraphSageRi::apply_layer(int, const Variable&, const MfgLevel&) {
  throw std::logic_error(
      "GraphSageRi: layer-wise inference unsupported (dense connections)");
}

Variable GraphSageRi::finalize(const Variable&) {
  throw std::logic_error(
      "GraphSageRi: layer-wise inference unsupported (dense connections)");
}

std::shared_ptr<GnnModel> make_model(const std::string& arch,
                                     const ModelConfig& config) {
  if (arch == "sage") return std::make_shared<GraphSage>(config);
  if (arch == "gat") return std::make_shared<Gat>(config);
  if (arch == "gin") return std::make_shared<Gin>(config);
  if (arch == "sage-ri") return std::make_shared<GraphSageRi>(config);
  throw std::invalid_argument("make_model: unknown architecture " + arch);
}

}  // namespace salient::nn
