// Inference paths (paper §5):
//   * evaluate_sampled — mini-batch inference with neighborhood sampling,
//     reusing the exact training forward (the unification the paper argues
//     for). It runs the trainer's in-flight window (sampled_inference,
//     train/trainer.h) on a device of its own: loader workers sample and
//     slice, the copy stream transfers, the compute stream runs forward plus
//     argmax. One-shot sampling per node, like the paper's inference runs.
//   * evaluate_layerwise — full-neighborhood inference computed layer by
//     layer over ALL graph nodes, storing each layer's representations in
//     host memory (the conventional alternative; Table 6's "fanout: all").
// Both return accuracy and per-node predictions over the requested node set
// (Figure 3's per-node analyses use the predictions).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/dataset.h"
#include "nn/models.h"

namespace salient {

struct InferenceResult {
  double accuracy = 0;
  /// predicted class per queried node (aligned with the `nodes` argument).
  std::vector<std::int64_t> predictions;
  /// Sampled inference only (0 for layer-wise): the pass's wall seconds,
  /// mini-batches, and host-to-device bytes.
  double seconds = 0;
  std::int64_t num_batches = 0;
  std::size_t transfer_bytes = 0;
};

/// Mini-batch sampled inference over `nodes`. `fanouts` may differ from the
/// training fanout (Table 6 sweeps it). Batch b of `batch_size` nodes is
/// sampled with schedule_mix_seed(seed, b), as a loader epoch with `seed`
/// samples it; the rows cross the wire in the store's dtype, so they reach
/// the model exact. The model is switched to eval mode.
InferenceResult evaluate_sampled(nn::GnnModel& model, const Dataset& dataset,
                                 std::span<const NodeId> nodes,
                                 std::span<const std::int64_t> fanouts,
                                 std::int64_t batch_size, std::uint64_t seed);

/// Layer-wise full-neighborhood inference. Computes representations for all
/// graph nodes level by level (chunked), then evaluates `nodes`. Requires
/// model.supports_layerwise(). `chunk_size` bounds peak memory per step.
InferenceResult evaluate_layerwise(nn::GnnModel& model, const Dataset& dataset,
                                   std::span<const NodeId> nodes,
                                   std::int64_t chunk_size = 4096);

/// Host-memory bytes the layer-wise approach must hold for intermediate
/// representations (the memory argument of §5).
std::size_t layerwise_memory_bytes(const nn::GnnModel& model,
                                   const Dataset& dataset,
                                   std::int64_t hidden_channels);

}  // namespace salient
