// A fully prepared mini-batch, plus MFG serialization helpers.
//
// PreparedBatch is the hand-off unit between batch preparation and training:
// the sampled MFG, the sliced (half-precision) feature rows for all input
// nodes, and the sliced labels for the mini-batch nodes — the tuple
// `(xs, ys, Gs)` of Listing 1 in the paper.
//
// The serialization helpers emulate what PyTorch multiprocessing DataLoader
// workers do to deliver a sampled subgraph to the main process: the MFG's
// arrays are flattened into one contiguous buffer (the write into POSIX
// shared memory) and re-materialized on the consumer side (the read out of
// it). SALIENT's shared-memory threads skip both copies — that difference is
// one of the effects §4.2 measures.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "prep/feature_cache.h"
#include "sampling/mfg.h"
#include "tensor/tensor.h"

namespace salient {

struct PreparedBatch {
  std::int64_t index = -1;  ///< position of this batch within the epoch
  Mfg mfg;
  Tensor x;  ///< [num_input_nodes, F] features in the loader's wire dtype
             ///< (f16 default; f32 or per-row int8), pinned when pooled;
             ///< with a cache plan, only the plan's missing rows
  Tensor y;  ///< [batch_size] labels (i64)
  /// Per-row dequantization parameters, defined only when x is kInt8Q:
  /// [x.size(0)] f32 scales and zero-points (tensor/quantize.h). They ride
  /// the same DMA as x, and the device rows carry them to the model.
  Tensor x_scale;
  Tensor x_zero;
  /// Set when the batch was prepared against a device feature cache:
  /// x holds only the cache-missing rows and the device assembles the rest
  /// (paper §8 / GNS-style caching).
  std::shared_ptr<const CachePlan> cache_plan;

  /// Bytes of feature payload this batch moves host->device: the (possibly
  /// compressed) rows plus, for int8, their per-row scale/zero sidecar.
  /// The compressed-pipeline A/Bs assert on the f32/f16/int8 ratios of this
  /// quantity (tests/test_train.cpp).
  std::size_t feature_bytes() const {
    std::size_t b = x.nbytes();
    if (x_scale.defined()) b += x_scale.nbytes();
    if (x_zero.defined()) b += x_zero.nbytes();
    return b;
  }

  /// Total bytes this batch moves host->device (adjacency + features +
  /// labels), the quantity driving the transfer phase.
  std::size_t transfer_bytes() const {
    return mfg.adjacency_bytes() + feature_bytes() + y.nbytes();
  }
};

class FastSampler;
class PinnedPool;

/// The feature rows in a loader's wire dtype, converted once at set-up: the
/// paper keeps host features in the format the device receives (§3), so
/// staging a batch is a row gather, not a conversion. Built by the owners
/// of a wire dtype — Trainer (its loaders and inference_epoch),
/// serve::InferenceServer and evaluate_sampled — and shared by their
/// loader workers, read-only.
struct WireStore {
  /// [N, F] every node's features in the wire dtype: Dataset::features
  /// itself when that is the store's dtype already. An i8q store's rows
  /// carry their [N] f32 scales and zero-points (tensor/quantize.h) as row
  /// parameters (Tensor::row_scale/row_zero).
  Tensor rows;

  DType dtype() const { return rows.dtype(); }
};

/// The wire store of `features` in `wire_dtype`: `features` itself (shared,
/// no copy) when the dtypes match, otherwise every row converted on the
/// kernel pool by slice_rows_to_wire — the bytes stage_feature_rows
/// produces for the same rows. Records a `prep.wire_store` span.
/// \throws std::invalid_argument for a wire dtype other than f16/f32/i8q.
std::shared_ptr<const WireStore> make_wire_store(const Tensor& features,
                                                 DType wire_dtype);

/// Prepare batch `index` of a schedule end to end — the one batch-prep path
/// of SalientLoader and serve::InferenceServer (paper §4.2): sample the MFG
/// of `seeds` with schedule_mix_seed(seed, index); plan it against `cache`
/// when one is given; gather the missing rows (every input row without a
/// cache) and their sidecars from `store` into `pool` buffers; and slice
/// the seeds' labels into a pooled buffer. Records the `prep.sample` and
/// `prep.slice` spans on the calling thread's track.
PreparedBatch prepare_batch(FastSampler& sampler, const Dataset& dataset,
                            const WireStore& store,
                            std::span<const NodeId> seeds, std::uint64_t seed,
                            std::int64_t index, PinnedPool& pool,
                            const FeatureCache* cache);

/// `store` when non-null, else make_wire_store(features, feature_dtype) —
/// the loaders' constructor rule.
/// \throws std::invalid_argument when `store` is not in `feature_dtype`.
std::shared_ptr<const WireStore> checked_store(
    std::shared_ptr<const WireStore> store, const Tensor& features,
    DType feature_dtype);

/// Convert the feature rows of `ids` into `batch.x` (and, for kInt8Q,
/// `batch.x_scale`/`batch.x_zero`) in `wire_dtype`, staged in buffers
/// acquired from `pool`, through slice_rows_to_wire: the bytes a gather from
/// make_wire_store(features, wire_dtype) yields, computed for these rows
/// alone (the reference the store is tested against, and the traced
/// replay's slice).
/// \throws std::invalid_argument for a wire dtype other than f16/f32/i8q.
void stage_feature_rows(const Tensor& features, std::span<const NodeId> ids,
                        DType wire_dtype, PinnedPool& pool,
                        PreparedBatch& batch);

/// Release batch.x / batch.y and any scale/zero sidecars back to `pool`.
/// The loaders' recycle() methods delegate here so every acquired staging
/// buffer is returned no matter which wire dtype produced the batch.
void release_batch_buffers(PinnedPool& pool, PreparedBatch&& batch);

/// Flatten an MFG into a single contiguous int64 buffer.
std::vector<std::int64_t> serialize_mfg(const Mfg& mfg);

/// Inverse of serialize_mfg.
Mfg deserialize_mfg(const std::vector<std::int64_t>& buffer);

}  // namespace salient
