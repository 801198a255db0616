// salient::System — the library's top-level facade.
//
// Wires together a dataset (synthetic preset or caller-provided), one of the
// paper's four GNN architectures, the simulated device, and the training
// pipeline (SALIENT or the PyG baseline). This is the API the examples and
// most benches drive; everything underneath is also public for finer control.
//
//   SystemConfig cfg;                     // arxiv-sim, GraphSAGE, SALIENT
//   System sys(cfg);
//   sys.train(5);                         // five epochs
//   double acc = sys.test_accuracy();     // sampled inference, fanout 20^3
#pragma once

#include <memory>

#include "core/config.h"
#include "graph/dataset.h"
#include "nn/models.h"
#include "train/inference.h"
#include "train/metrics.h"

namespace salient {

/// Top-level facade over the whole reproduction.
///
/// A System owns one dataset, one model, one simulated device, and one
/// Trainer, all built from a SystemConfig. It is the one-object API the
/// examples drive; every subsystem it wires together is also public for
/// finer-grained control (see docs/ARCHITECTURE.md for the map).
class System {
 public:
  /// Generate the configured dataset preset and build the full stack.
  /// \throws std::invalid_argument when config.train_fanouts or
  /// config.infer_fanouts does not list exactly config.num_layers fanouts.
  explicit System(SystemConfig config);
  /// Use a caller-provided dataset (takes ownership).
  /// \throws std::invalid_argument on fanout lists of the wrong depth.
  System(Dataset dataset, SystemConfig config);
  /// Flushes the configured observability outputs (see flush_observability).
  ~System();

  /// Write config.trace_out (Chrome trace of everything recorded so far)
  /// and config.metrics_out (metrics registry JSON) now. Runs automatically
  /// at destruction; calling it earlier snapshots a partial run. No-op for
  /// empty paths.
  void flush_observability();

  /// Train one epoch; returns its stats (per-phase blocking, loss, ...).
  EpochStats train_epoch();
  /// Train `epochs` epochs; returns per-epoch stats.
  std::vector<EpochStats> train(int epochs);

  /// Sampled-inference accuracy on the test split using
  /// config.infer_fanouts (paper §5 mini-batch inference): the trainer's
  /// inference_epoch, so it runs the configured loader workers, wire dtype,
  /// feature cache and pipeline depth.
  double test_accuracy();
  /// Sampled-inference accuracy on the test split with an explicit fanout
  /// per layer, overriding config.infer_fanouts.
  double test_accuracy(std::span<const std::int64_t> fanouts);
  /// Sampled-inference accuracy on the validation split using
  /// config.infer_fanouts.
  double val_accuracy();

  /// The dataset the system was built over (generated preset or caller's).
  const Dataset& dataset() const { return dataset_; }
  /// The GNN model being trained; shared so callers can checkpoint it.
  const std::shared_ptr<nn::GnnModel>& model() const { return model_; }
  /// The simulated accelerator (streams, DMA, feature cache).
  DeviceSim& device() { return *device_; }
  /// The training-loop driver (blocking or pipelined per config).
  Trainer& trainer() { return *trainer_; }
  /// The configuration the system was built with.
  const SystemConfig& config() const { return config_; }
  /// Number of epochs train_epoch()/train() have completed so far.
  int epochs_trained() const { return epochs_trained_; }

 private:
  void build();

  SystemConfig config_;
  Dataset dataset_;
  std::shared_ptr<nn::GnnModel> model_;
  std::unique_ptr<DeviceSim> device_;
  std::unique_ptr<Trainer> trainer_;
  int epochs_trained_ = 0;
};

}  // namespace salient
