#include "train/full_batch.h"

#include "autograd/functions.h"
#include "nn/loss.h"
#include "tensor/ops.h"
#include "util/timer.h"

namespace salient {

FullBatchGcn::FullBatchGcn(std::int64_t in_channels,
                           std::int64_t hidden_channels,
                           std::int64_t out_channels, int num_layers,
                           double dropout, std::uint64_t seed) {
  if (num_layers < 2) {
    throw std::invalid_argument("FullBatchGcn: num_layers < 2");
  }
  convs_.push_back(register_module(
      "conv0",
      std::make_shared<nn::GcnConv>(in_channels, hidden_channels, true,
                                    seed)));
  for (int i = 1; i < num_layers - 1; ++i) {
    convs_.push_back(register_module(
        "conv" + std::to_string(i),
        std::make_shared<nn::GcnConv>(hidden_channels, hidden_channels, true,
                                      seed + static_cast<unsigned>(i))));
  }
  convs_.push_back(register_module(
      "conv" + std::to_string(num_layers - 1),
      std::make_shared<nn::GcnConv>(hidden_channels, out_channels, true,
                                    seed + 97)));
  dropout_ = register_module("dropout",
                             std::make_shared<nn::Dropout>(dropout));
  set_seed(seed);
}

Variable FullBatchGcn::forward(const Variable& x,
                               const nn::NormalizedAdjacency& adj) {
  Variable h = x;
  for (std::size_t i = 0; i < convs_.size(); ++i) {
    h = convs_[i]->forward(h, adj);
    if (i + 1 != convs_.size()) {
      h = dropout_->forward(h, ops::Activation::kRelu);  // one pass
    }
  }
  return nn::log_softmax(h);
}

FullBatchGcnTrainer::FullBatchGcnTrainer(const Dataset& dataset,
                                         FullBatchConfig config)
    : dataset_(dataset),
      config_(config),
      adj_(nn::normalize_adjacency(dataset.graph)),
      features_f32_(dataset.features.to(DType::kF32)) {
  train_idx_ = Tensor::from_vector(dataset.train_idx);
  train_labels_ = Tensor({static_cast<std::int64_t>(dataset.train_idx.size())},
                         DType::kI64);
  const std::int64_t* labels = dataset.labels.data<std::int64_t>();
  std::int64_t* out = train_labels_.data<std::int64_t>();
  for (std::size_t i = 0; i < dataset.train_idx.size(); ++i) {
    out[i] = labels[dataset.train_idx[i]];
  }
  model_ = std::make_shared<FullBatchGcn>(
      dataset.feature_dim, config_.hidden_channels, dataset.num_classes,
      config_.num_layers, config_.dropout, config_.seed);
  optimizer_ = std::make_unique<optim::Adam>(model_->parameters(),
                                             config_.lr);
}

EpochStats FullBatchGcnTrainer::train_epoch(int epoch) {
  EpochStats stats;
  stats.epoch = epoch;
  WallTimer timer;
  model_->train(true);
  Variable logp_all = model_->forward(Variable(features_f32_), adj_);
  Variable logp_train = autograd::gather_rows(logp_all, train_idx_);
  Variable loss = nn::nll_loss(logp_train, train_labels_);
  model_->zero_grad();
  loss.backward();
  optimizer_->step();
  stats.epoch_seconds = timer.seconds();
  stats.blocking.add(Phase::kTrain, stats.epoch_seconds);
  stats.num_batches = 1;  // the whole graph is one batch
  stats.mean_loss = static_cast<double>(loss.data().data<float>()[0]);
  stats.train_accuracy = ops::accuracy(logp_train.data(), train_labels_);
  return stats;
}

double FullBatchGcnTrainer::accuracy(std::span<const NodeId> nodes) {
  model_->train(false);
  Variable logp_all = model_->forward(Variable(features_f32_), adj_);
  Tensor idx = Tensor::from_vector(
      std::vector<NodeId>(nodes.begin(), nodes.end()));
  Tensor logp = ops::gather_rows(logp_all.data(), idx);
  Tensor y({static_cast<std::int64_t>(nodes.size())}, DType::kI64);
  const std::int64_t* labels = dataset_.labels.data<std::int64_t>();
  std::int64_t* py = y.data<std::int64_t>();
  for (std::size_t i = 0; i < nodes.size(); ++i) py[i] = labels[nodes[i]];
  return ops::accuracy(logp, y);
}

std::size_t FullBatchGcnTrainer::activation_bytes() const {
  // input + (L-1) hidden layers + output, all [N, *] f32, held at once by
  // the autograd tape during backward.
  const auto n = static_cast<std::size_t>(dataset_.graph.num_nodes());
  std::size_t per_node = static_cast<std::size_t>(dataset_.feature_dim) +
                         static_cast<std::size_t>(config_.num_layers - 1) *
                             static_cast<std::size_t>(config_.hidden_channels) +
                         static_cast<std::size_t>(dataset_.num_classes);
  return n * per_node * 4;
}

}  // namespace salient
