// End-to-end training loops: the blocking baseline workflow of Listing 1 and
// SALIENT's pipelined workflow (Figure 1a vs 1b).
//
// Baseline (execution = kBlocking, loader = kBaseline): the main thread
// serially (1) blocks on the DataLoader-style loader for the next batch
// (sampling in workers, slicing + pin-copy inline), (2) performs a blocking
// `.to(device)` transfer, (3) runs the training step and synchronizes. The
// per-phase blocking times recorded in EpochStats reproduce the measurement
// methodology of Table 1.
//
// SALIENT (execution = kPipelined, loader = kSalient): preparation threads
// run ahead through the lock-free work queue; transfers are enqueued on the
// copy stream and the compute stream waits on per-batch events, so transfer
// overlaps training (§4.3); the main thread only throttles the pipeline
// depth. Pinned staging buffers are recycled once their copies completed.
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
enum class ExecutionMode { kBlocking, kPipelined };

struct TrainConfig {
  LoaderConfig loader;
  LoaderKind loader_kind = LoaderKind::kSalient;
  ExecutionMode execution = ExecutionMode::kPipelined;
  double lr = 3e-3;
  /// Maximum device batches in flight in pipelined mode.
  int pipeline_depth = 2;
  /// Lazy sampling schedule (LazyGCN, Ramezani et al. 2020; paper §2.2):
  /// sample fresh mini-batches every `sampling_period` epochs and replay the
  /// stored batches (reshuffled) in between, trading sampling freshness for
  /// batch-preparation cost. 1 = resample every epoch (the paper's setting).
  /// Pipelined execution only.
  int sampling_period = 1;
};

class Trainer {
 public:
  /// The trainer borrows dataset/device and shares the model; all must
  /// outlive it. The Adam optimizer is created over the model parameters.
  /// \throws std::invalid_argument for the baseline loader with pipelined
  /// execution (the pipelined loop always runs SalientLoader).
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
  template <class Loader>
  EpochStats run_blocking(Loader& loader, int epoch);
  EpochStats run_pipelined(int epoch, const LoaderConfig& epoch_cfg);
  /// Replay the lazily cached epoch (no sampling/slicing; LazyGCN schedule).
  EpochStats run_replay(int epoch);
  /// Enqueue `batch`'s transfer, cache-assembled when it carries a plan.
  DeviceBatch transfer(const PreparedBatch& batch, bool blocking,
                       Event* ready);

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
