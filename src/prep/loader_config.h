// Shared configuration for the batch-preparation loaders.
#pragma once

#include <cstdint>
#include <vector>

#include "prep/cache_policy.h"
#include "tensor/dtype.h"

/// \file
/// \brief Shared configuration for the batch-preparation loaders
/// (BaselineLoader, SalientLoader) and their device feature cache.

namespace salient {

/// Knobs shared by every batch-preparation loader. One LoaderConfig
/// describes the sampling shape of a workload (batch size, fanouts,
/// parallelism, seeding) plus the device feature cache it should run
/// against; Trainer and InferenceServer derive their cache's
/// CachePolicyConfig from these fields so warmup sampling matches the real
/// workload (docs/CACHING.md).
struct LoaderConfig {
  /// Destination nodes per mini-batch.
  std::int64_t batch_size = 1024;
  /// Per-layer sampling fanouts, outermost (input) layer first.
  std::vector<std::int64_t> fanouts{15, 10, 5};
  /// Number of preparation workers: multiprocessing DataLoader workers for
  /// the baseline, shared-memory C++ threads for SALIENT.
  int num_workers = 1;
  /// Bound on prepared batches buffered ahead of the consumer.
  std::size_t queue_capacity = 4;
  /// Epoch seed: drives shuffling and the per-batch sampling RNG. The
  /// per-batch RNG is seeded by mix(seed, batch index), so the sampled MFGs
  /// are identical regardless of worker count and scheduling.
  std::uint64_t seed = 1;
  /// Shuffle the seed-node order each epoch.
  bool shuffle = true;

  /// Device feature-cache placement policy (the `--cache-policy` CLI knob;
  /// see CachePolicyKind and docs/CACHING.md). Only consulted when a cache
  /// is enabled (cache_percentage > 0).
  CachePolicyKind cache_policy = CachePolicyKind::kDegree;
  /// Device feature-cache capacity as a fraction of |V| in [0, 1]
  /// (the `--cache-pct` CLI knob); the cache holds cache_percentage * |V|
  /// rows, truncated. 0 disables the cache.
  double cache_percentage = 0.0;
  /// Presample policy: warmup sampling epochs K (>= 1; see
  /// CachePolicyConfig::presample_epochs).
  int presample_epochs = 2;

  /// On-the-wire dtype of the sliced feature rows — what crosses the
  /// (simulated) PCIe link per batch:
  ///   * kF16 (default): rows stay/convert to half precision, halving
  ///     feature transfer bytes vs f32 (paper §3);
  ///   * kF32: uncompressed rows (the baseline the A/Bs compare against);
  ///   * kInt8Q: per-row affine int8 (tensor/quantize.h) — ~4x fewer bytes
  ///     than f32, plus an 8-byte/row scale/zero sidecar the device uses to
  ///     dequantize.
  /// The rows are converted once, into the wire store the loaders gather
  /// from (make_wire_store, prep/batch.h), so the pinned staging buffers
  /// and the DMA both see only the compressed form.
  DType feature_dtype = DType::kF16;
};

}  // namespace salient
