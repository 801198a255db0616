#include "core/system.h"

#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace salient {

namespace {

/// Both fanout lists sample one MFG level per model layer; a list of another
/// depth would fail only at its first forward, after every epoch trained.
/// Checked before the dataset is generated.
SystemConfig checked(SystemConfig config) {
  const auto depth = static_cast<std::size_t>(config.num_layers);
  if (config.train_fanouts.size() != depth ||
      config.infer_fanouts.size() != depth) {
    throw std::invalid_argument(
        "System: train_fanouts and infer_fanouts must list one fanout per "
        "layer (num_layers = " + std::to_string(config.num_layers) + ")");
  }
  return config;
}

}  // namespace

System::System(SystemConfig config) : config_(checked(std::move(config))) {
  dataset_ = generate_dataset(
      preset_config(config_.dataset, config_.dataset_scale));
  build();
}

System::System(Dataset dataset, SystemConfig config)
    : config_(checked(std::move(config))), dataset_(std::move(dataset)) {
  build();
}

System::~System() { flush_observability(); }

void System::flush_observability() {
  if (!config_.trace_out.empty()) {
    if (obs::write_chrome_trace_file(config_.trace_out)) {
      std::cerr << "[obs] wrote trace to " << config_.trace_out << "\n";
    } else {
      std::cerr << "[obs] FAILED to write trace to " << config_.trace_out
                << "\n";
    }
  }
  if (!config_.metrics_out.empty()) {
    if (obs::Registry::global().write_json_file(config_.metrics_out)) {
      std::cerr << "[obs] wrote metrics to " << config_.metrics_out << "\n";
    } else {
      std::cerr << "[obs] FAILED to write metrics to " << config_.metrics_out
                << "\n";
    }
  }
}

void System::build() {
  // Requesting a trace output opts the run into recording; without it the
  // tracer stays disabled and instrumented code costs one branch per span.
  if (!config_.trace_out.empty()) {
    obs::TraceRecorder::global().enable(true);
  }

  nn::ModelConfig mc;
  mc.in_channels = dataset_.feature_dim;
  mc.hidden_channels = config_.hidden_channels;
  mc.out_channels = dataset_.num_classes;
  mc.num_layers = config_.num_layers;
  mc.seed = config_.seed * 31 + 7;
  model_ = nn::make_model(config_.arch, mc);

  // The baseline is Listing 1's blocking workflow (pipeline depth 0) and
  // keeps PyG's blocking post-transfer assertions; SALIENT pipelines its
  // transfers and skips them (§4.3).
  const bool baseline = config_.loader_kind == LoaderKind::kBaseline;
  DeviceConfig dev = config_.device;
  dev.validate_sparse_after_transfer = baseline;
  device_ = std::make_unique<DeviceSim>(dev);

  TrainConfig tc;
  tc.loader.batch_size = config_.batch_size;
  tc.loader.fanouts = config_.train_fanouts;
  tc.loader.num_workers = config_.num_workers;
  tc.loader.seed = config_.seed;
  tc.loader_kind = config_.loader_kind;
  if (baseline) tc.pipeline_depth = 0;
  tc.lr = config_.lr;
  tc.loader.cache_policy = parse_cache_policy(config_.cache_policy);
  tc.loader.cache_percentage = config_.cache_percentage;
  tc.loader.feature_dtype = parse_feature_dtype(config_.feature_dtype);
  trainer_ = std::make_unique<Trainer>(dataset_, model_, *device_, tc);
}

EpochStats System::train_epoch() {
  return trainer_->train_epoch(epochs_trained_++);
}

std::vector<EpochStats> System::train(int epochs) {
  std::vector<EpochStats> stats;
  stats.reserve(static_cast<std::size_t>(epochs));
  for (int e = 0; e < epochs; ++e) stats.push_back(train_epoch());
  return stats;
}

double System::test_accuracy() {
  return test_accuracy(config_.infer_fanouts);
}

double System::test_accuracy(std::span<const std::int64_t> fanouts) {
  const double acc =
      trainer_->inference_epoch(dataset_.test_idx, fanouts,
                                config_.seed ^ 0x7e57)
          .accuracy;
  model_->train(true);
  return acc;
}

double System::val_accuracy() {
  const double acc =
      trainer_->inference_epoch(dataset_.val_idx, config_.infer_fanouts,
                                config_.seed ^ 0x7a1)
          .accuracy;
  model_->train(true);
  return acc;
}

}  // namespace salient
