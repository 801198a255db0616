// The end-to-end training loop of Figure 1, and sampled inference through
// the same loop (paper §5). Both workflows, and inference, run one in-flight
// window: each batch from a source (SalientLoader, BaselineLoader, or the
// stored LazyGCN epoch) has its transfer issued on the copy stream and its
// step enqueued behind it on the compute stream, and the oldest batch
// retires once more than `pipeline_depth` are in flight. Training steps are
// train_step; inference steps are a forward pass plus argmax
// (sampled_inference, which Trainer::inference_epoch and evaluate_sampled
// both run).
//
// Baseline (loader = kBaseline, depth 0, Listing 1): nothing stays in
// flight, so the main thread blocks on the loader, on the `.to(device)`
// transfer and on the step in turn; the per-phase blocking times in
// EpochStats reproduce Table 1's methodology.
//
// SALIENT (loader = kSalient, depth >= 1): preparation threads run ahead and
// transfers overlap training (§4.3); the main thread only throttles the
// depth. Every depth trains bit-identical parameters.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "device/device_sim.h"
#include "graph/dataset.h"
#include "nn/models.h"
#include "optim/adam.h"
#include "prep/loader_config.h"
#include "prep/pinned_pool.h"
#include "train/inference.h"
#include "train/metrics.h"

namespace salient {

/// Gradient-reduce hook of train_step: runs between backward and the
/// optimizer step over the optimizer's parameters. A data-parallel trainer
/// all-reduces their gradients here.
using GradReduce = std::function<void(const std::vector<Variable>& params)>;

/// One optimizer step on one batch, the training math every trainer shares:
/// forward, NLL loss, zero_grad, backward, `reduce` (when set), then
/// `optimizer.step()`. An empty batch (`mfg.batch_size == 0`, e.g. a cluster
/// node's share of a short final batch) contributes zero gradients: it only
/// zeroes them before the reduce and the step. Returns the batch's mean loss
/// (0 for an empty batch); `accuracy`, when non-null, receives the batch's
/// training accuracy.
double train_step(nn::GnnModel& model, optim::Adam& optimizer,
                  const Tensor& x, const Mfg& mfg, const Tensor& y,
                  double* accuracy = nullptr, const GradReduce& reduce = {});

/// Sampled mini-batch inference over `nodes` through the in-flight window:
/// an unshuffled SalientLoader with `loader`'s fanouts, seed, workers and
/// wire dtype, gathering from `store`, feeds `device` (against `cache` when
/// non-null), with `pipeline_depth` batches in flight, and each step is a
/// forward pass plus argmax. Batch b's predictions land at
/// b * loader.batch_size, so they follow `nodes` at any worker count.
/// Leaves the model in eval mode. Rethrows the first exception a forward
/// pass threw on the device.
/// \throws std::invalid_argument when `store` is not in
/// loader.feature_dtype.
InferenceResult sampled_inference(nn::GnnModel& model, const Dataset& dataset,
                                  std::span<const NodeId> nodes,
                                  LoaderConfig loader, DeviceSim& device,
                                  std::shared_ptr<PinnedPool> pool,
                                  std::shared_ptr<const FeatureCache> cache,
                                  std::shared_ptr<const WireStore> store,
                                  int pipeline_depth);

enum class LoaderKind { kBaseline, kSalient };

struct TrainConfig {
  LoaderConfig loader;
  LoaderKind loader_kind = LoaderKind::kSalient;
  double lr = 3e-3;
  /// Device batches kept in flight behind the one being trained. 0 blocks
  /// on every transfer and step (the baseline workflow of Listing 1).
  int pipeline_depth = 2;
  /// Lazy sampling schedule (LazyGCN, Ramezani et al. 2020; paper §2.2):
  /// sample fresh mini-batches every `sampling_period` epochs and replay the
  /// stored batches (reshuffled) in between, trading sampling freshness for
  /// batch-preparation cost. 1 = resample every epoch (the paper's setting).
  int sampling_period = 1;
};

class Trainer {
 public:
  /// The trainer borrows dataset/device and shares the model; all must
  /// outlive it. The Adam optimizer is created over the model parameters,
  /// and the wire store its loaders gather from is built here, on the
  /// kernel pool (make_wire_store).
  /// \throws std::invalid_argument for a negative pipeline depth, or the
  /// baseline loader above depth 0 or with a feature cache.
  Trainer(const Dataset& dataset, std::shared_ptr<nn::GnnModel> model,
          DeviceSim& device, TrainConfig config);

  /// Run one training epoch over the dataset's training split.
  /// The epoch seed is derived from (config.loader.seed, epoch).
  EpochStats train_epoch(int epoch);

  /// The result of inference_epoch, under the name its callers use.
  using InferenceEpoch = InferenceResult;

  /// Sampled inference over `nodes` with `fanouts` (the paper uses
  /// (20,20,20)): sampled_inference with the trainer's device, loader
  /// workers, wire dtype, feature cache and pipeline depth (paper Table 7's
  /// "Infer" row). The model is left in eval mode.
  InferenceResult inference_epoch(std::span<const NodeId> nodes,
                                  std::span<const std::int64_t> fanouts,
                                  std::uint64_t seed = 0x1f3a);

  optim::Adam& optimizer() { return optimizer_; }
  const TrainConfig& config() const { return config_; }
  /// The device feature cache, when enabled (null otherwise).
  const std::shared_ptr<const FeatureCache>& feature_cache() const {
    return cache_;
  }

 private:
  const Dataset& dataset_;
  std::shared_ptr<nn::GnnModel> model_;
  DeviceSim& device_;
  TrainConfig config_;
  optim::Adam optimizer_;
  std::shared_ptr<PinnedPool> pool_;
  std::shared_ptr<const FeatureCache> cache_;
  /// The features in config_.loader.feature_dtype, for every epoch's
  /// loader and inference_epoch.
  std::shared_ptr<const WireStore> store_;
  /// Stored batches of the last sampling epoch (sampling_period > 1 only).
  std::vector<PreparedBatch> replay_batches_;
};

}  // namespace salient
