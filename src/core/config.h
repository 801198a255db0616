// Top-level run configuration for the SALIENT system facade.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "device/device_sim.h"
#include "train/trainer.h"

namespace salient {

struct SystemConfig {
  /// Dataset preset name ("arxiv-sim", "products-sim", "papers-sim") and a
  /// size multiplier (1.0 = the preset's default size; see DESIGN.md).
  std::string dataset = "arxiv-sim";
  double dataset_scale = 0.1;

  /// Architecture: "sage", "gat", "gin", "sage-ri" (Appendix A).
  std::string arch = "sage";
  std::int64_t hidden_channels = 64;
  int num_layers = 3;

  std::vector<std::int64_t> train_fanouts{15, 10, 5};
  std::vector<std::int64_t> infer_fanouts{20, 20, 20};
  std::int64_t batch_size = 1024;
  int num_workers = 2;
  double lr = 3e-3;

  /// kSalient is the full SALIENT system (pipelined transfers); kBaseline
  /// is the performance-engineered PyG baseline of §3, which the System runs
  /// at pipeline depth 0 with PyG's post-transfer validation.
  LoaderKind loader_kind = LoaderKind::kSalient;

  /// Device feature-cache capacity as a fraction of |V| in [0, 1] (paper §8
  /// future work; the SALIENT loader only: the baseline loader with a cache
  /// throws std::invalid_argument at construction). When > 0, the cache holds
  /// cache_percentage * |V| rows (truncated); which rows is decided by
  /// `cache_policy`. CLI form: --cache-pct=<fraction>.
  double cache_percentage = 0.0;
  /// Feature-cache placement policy: "degree" (default), "presample",
  /// "lru", or "auto" (docs/CACHING.md). CLI form: --cache-policy=<name>.
  std::string cache_policy = "degree";

  /// On-the-wire feature dtype for host->device transfers: "f16" (default),
  /// "f32" (uncompressed baseline), or "i8q" (per-row affine int8,
  /// tensor/quantize.h). See LoaderConfig::feature_dtype. CLI form:
  /// --feature-dtype=<name>.
  std::string feature_dtype = "f16";

  DeviceConfig device;
  std::uint64_t seed = 1;

  /// When non-empty, enable span tracing (src/obs/trace.h) for the run and
  /// write a Chrome trace_event JSON file here when the System is destroyed
  /// (or on System::flush_observability()). Open it in chrome://tracing or
  /// https://ui.perfetto.dev. CLI form: --trace-out=<path>.
  std::string trace_out;
  /// When non-empty, dump the global metrics registry (counters, gauges,
  /// per-phase blocking histograms) as JSON to this path at the same points.
  /// CLI form: --metrics-out=<path>.
  std::string metrics_out;
};

/// Parse a wire feature dtype name: "f16", "f32", or "i8q"
/// (LoaderConfig::feature_dtype / the --feature-dtype CLI knob).
/// \throws std::invalid_argument for anything else.
DType parse_feature_dtype(const std::string& name);

/// Parse "a,b,c" into a fanout list (helper for example/bench CLIs).
std::vector<std::int64_t> parse_fanouts(const std::string& text);

/// Parse "a,b,c" into integers (CLI sweep lists; empty items are skipped).
/// \throws std::invalid_argument when no value survives.
std::vector<std::int64_t> parse_int_list(const std::string& text);

/// Parse "a,b,c" into doubles (CLI sweep lists; empty items are skipped).
/// \throws std::invalid_argument when no value survives.
std::vector<double> parse_double_list(const std::string& text);

/// Parse "a,b,c" into non-negative integers (CLI sweep lists whose domain
/// forbids negatives, e.g. pipeline depths; empty items are skipped).
/// \throws std::invalid_argument when no value survives or any is negative.
std::vector<std::int64_t> parse_nonneg_int_list(const std::string& text);

/// Recognize the observability CLI flags (--trace-out=<path>,
/// --metrics-out=<path>) and apply them to `config`. Returns true when `arg`
/// was consumed; examples call this before their positional parsing so every
/// binary accepts the same flags.
bool parse_obs_flag(const std::string& arg, SystemConfig& config);

}  // namespace salient
