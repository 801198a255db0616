// The simulated accelerator device.
//
// Stands in for a CUDA GPU: a compute stream and a copy stream (dedicated
// threads with FIFO semantics), a DMA engine with modelled bandwidth, and
// helpers to move a PreparedBatch to the "device". Device memory is host
// memory — what matters for the system under study is the *pipeline
// structure* (streams, events, pinned staging, transfer ordering), which
// runs unmodified against this device. See DESIGN.md for the substitution
// rationale.
#pragma once

#include <memory>
#include <vector>

#include "device/dma.h"
#include "prep/feature_cache.h"
#include "device/stream.h"
#include "prep/batch.h"
#include "tensor/buffer_pool.h"
#include "tensor/tensor.h"

namespace salient {

struct DeviceConfig {
  int device_id = 0;
  DmaConfig dma;
  /// Baseline PyG behaviour: after transferring each MFG level's sparse
  /// adjacency, run the validity assertions that force a blocking CPU-GPU
  /// round trip (§4.3). SALIENT sets this to false.
  bool validate_sparse_after_transfer = false;
};

/// A mini-batch resident on the device: adjacency arrays, single-precision
/// features (assembled from the transferred wire rows and any cache hits on
/// the compute stream), and labels. Every array lives in a buffer of the
/// device's pool, which it returns to when its last reference drops — the
/// forward and autograd may hold x_f32 and the adjacency past the batch.
struct DeviceBatch {
  std::int64_t index = -1;
  Mfg mfg;       // adjacency arrays are device-side copies
  Tensor x_f32;  // [num_input, F] f32
  Tensor y;      // [batch_size] i64
};

/// The wire -> f32 feature assembly shared by DeviceSim's transfers and
/// the cluster's node step (dist/cluster): writes every row of `out`
/// ([num_input, F] f32) straight from its source.
///  * Without a plan, `rows` holds every input row, converted in one bulk
///    call.
///  * With a plan, input row i is a cache hit copied from row
///    plan->source[i] of plan->hit_rows (dynamic policies) or of
///    `cache_rows` (FeatureCache::features()), or a miss converted in place
///    from row plan->source[i] of `rows`.
/// `rows` is the transferred wire payload: f16, f32, or i8q with its
/// per-row `scale`/`zero` sidecars (undefined for the other dtypes). Above
/// the memory-bound grain (ops::kMemoryBoundGrain elements) the rows are
/// split across the kernel pool; the output is the same bytes either way.
/// \throws std::invalid_argument on another wire dtype, or i8q rows without
/// sidecars.
void assemble_features(const Tensor& rows, const Tensor& scale,
                       const Tensor& zero, const CachePlan* plan,
                       const Tensor& cache_rows, Tensor& out);

class DeviceSim {
 public:
  explicit DeviceSim(DeviceConfig config = {});

  Stream& compute_stream() { return compute_; }
  Stream& copy_stream() { return copy_; }
  DmaEngine& dma() { return dma_; }
  const DeviceConfig& config() const { return config_; }
  /// Device memory: every buffer a transfer receives into comes from this
  /// pool (tensor/buffer_pool.h), so a steady-state batch allocates and
  /// zero-fills nothing.
  BufferPool& pool() { return pool_; }

  /// Enqueue the full H2D transfer of `batch` on the copy stream and the
  /// bulk wire -> f32 feature conversion on the compute stream (after the
  /// copy): the no-plan case of transfer_batch_cached. Returns the device
  /// batch and records `ready` on the compute stream — kernels enqueued
  /// after a wait on `ready` see the complete batch.
  ///
  /// When `blocking`, the call synchronizes before returning (the standard
  /// PyTorch `.to(device)` behaviour of Listing 1); otherwise it returns
  /// immediately (SALIENT's pipelined transfer).
  DeviceBatch transfer_batch(const PreparedBatch& batch, bool blocking,
                             Event* ready);

  /// Cache-aware transfer (paper §8 / GNS-style device cache): `batch.x`
  /// holds only the plan's missing rows; the compute stream assembles the
  /// full f32 feature matrix from the device-resident cache plus the
  /// transferred rows (assemble_features). Transfer volume drops by the
  /// cache hit rate.
  /// \throws std::invalid_argument when `batch.x` is not the plan's missing
  /// rows or the plan does not cover the batch's input nodes.
  DeviceBatch transfer_batch_cached(const PreparedBatch& batch,
                                    const CachePlan& plan,
                                    const FeatureCache& cache, bool blocking,
                                    Event* ready);

 private:
  /// The one transfer body: adjacency, label and wire-feature DMAs on the
  /// copy stream, then assemble_features on the compute stream (`plan` null
  /// without a cache; `cache_rows` is FeatureCache::features()).
  DeviceBatch transfer(const PreparedBatch& batch,
                       std::shared_ptr<const CachePlan> plan,
                       Tensor cache_rows, bool blocking, Event* ready);

  DeviceConfig config_;
  DmaEngine dma_;
  BufferPool pool_;
  Stream compute_;
  Stream copy_;
};

}  // namespace salient
