// The end-to-end training loop of Figure 1. Both workflows run one
// in-flight window: each batch from a source (SalientLoader, BaselineLoader,
// or the stored LazyGCN epoch) has its transfer issued on the copy stream
// and its step enqueued behind it on the compute stream, and the oldest
// batch retires once more than `pipeline_depth` are in flight.
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
  /// outlive it. The Adam optimizer is created over the model parameters.
  /// \throws std::invalid_argument for a negative pipeline depth, or the
  /// baseline loader above depth 0.
  Trainer(const Dataset& dataset, std::shared_ptr<nn::GnnModel> model,
          DeviceSim& device, TrainConfig config);

  /// Run one training epoch over the dataset's training split.
  /// The epoch seed is derived from (config.loader.seed, epoch).
  EpochStats train_epoch(int epoch);

  /// Result of a pipelined inference pass (paper Table 7's "Infer" row:
  /// mini-batch inference runs through the same prepared-batch pipeline).
  struct InferenceEpoch {
    double seconds = 0;
    double accuracy = 0;
    std::int64_t num_batches = 0;
    std::size_t transfer_bytes = 0;
  };

  /// Sampled inference over `nodes` through the full SALIENT pipeline
  /// (loader workers + overlapped transfers + forward-only compute), with
  /// `fanouts` (the paper uses (20,20,20)). Model is left in eval mode.
  InferenceEpoch inference_epoch(std::span<const NodeId> nodes,
                                 std::span<const std::int64_t> fanouts,
                                 std::uint64_t seed = 0x1f3a);

  optim::Adam& optimizer() { return optimizer_; }
  const TrainConfig& config() const { return config_; }
  /// The device feature cache, when enabled (null otherwise).
  const std::shared_ptr<const FeatureCache>& feature_cache() const {
    return cache_;
  }

 private:
  /// The in-flight window of every epoch (see the file comment): `step`
  /// runs on the compute stream under `step_label`, and `retire` receives
  /// each host batch with its step's result, in batch order. Blocking time
  /// is charged to `phases` when non-null.
  template <class Source, class Step, class Retire>
  void run_window(Source& source, PhaseTimer* phases, const char* step_label,
                  Step step, Retire retire);

  const Dataset& dataset_;
  std::shared_ptr<nn::GnnModel> model_;
  DeviceSim& device_;
  TrainConfig config_;
  optim::Adam optimizer_;
  std::shared_ptr<PinnedPool> pool_;
  std::shared_ptr<const FeatureCache> cache_;
  /// Stored batches of the last sampling epoch (sampling_period > 1 only).
  std::vector<PreparedBatch> replay_batches_;
};

}  // namespace salient
