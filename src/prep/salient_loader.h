// SALIENT's shared-memory parallel batch preparation (paper §4.2).
//
// Design, matching the paper:
//   * C++ worker threads prepare batches *end-to-end*: each performs
//     neighborhood sampling (FastSampler) and then serial tensor slicing,
//     sequentially, for one mini-batch at a time — slicing gathers rows
//     from the wire store, already in the dtype the device receives;
//   * workers balance load dynamically by popping mini-batch descriptors
//     from a lock-free input queue ("Threads balance load dynamically via a
//     lock-free input queue that contains the destination nodes for each
//     mini-batch");
//   * sliced tensors are written directly into pinned staging buffers drawn
//     from a recycling pool — zero-copy hand-off to the consumer, unlike the
//     multiprocessing baseline which copies through POSIX shared memory;
//   * prepared batches flow to the consumer through a bounded queue so that
//     preparation runs ahead of GPU training by a controlled amount.
//
// A loader instance drives ONE epoch (construct per epoch; destruction joins
// the workers). Slicing happens while the consumer is blocked on training —
// the overlap that Figure 1(b) illustrates.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "graph/dataset.h"
#include "prep/batch.h"
#include "prep/loader_config.h"
#include "prep/pinned_pool.h"
#include "util/blocking_queue.h"
#include "util/mpmc_queue.h"

namespace salient {

/// One-epoch pipelined batch-preparation engine (the paper's SALIENT
/// loader). Worker threads pull mini-batch descriptors from a lock-free
/// queue, sample + slice each batch into pinned staging buffers, and push
/// the result to a bounded output queue that next() drains.
class SalientLoader {
 public:
  /// Start preparing an epoch over `nodes` (typically the training split).
  /// `pool` may be shared across epochs to recycle pinned buffers; a private
  /// pool is created when null.
  /// `cache` (optional) enables cache-aware preparation: workers slice only
  /// the rows the device cache misses (paper §8 feature caching) and attach
  /// the transfer plan to each batch.
  /// `store` is the wire store the workers gather from (prep/batch.h); its
  /// owner shares it across epochs. When null the loader builds its own
  /// from dataset.features in config.feature_dtype.
  /// \throws std::invalid_argument when `store` is not in
  /// config.feature_dtype.
  SalientLoader(const Dataset& dataset, std::span<const NodeId> nodes,
                LoaderConfig config, std::shared_ptr<PinnedPool> pool = {},
                std::shared_ptr<const FeatureCache> cache = {},
                std::shared_ptr<const WireStore> store = {});
  /// Stops and joins the worker threads; undelivered batches are dropped.
  ~SalientLoader();

  SalientLoader(const SalientLoader&) = delete;
  SalientLoader& operator=(const SalientLoader&) = delete;

  /// Blocking: the next prepared batch, or nullopt at end of epoch.
  std::optional<PreparedBatch> next();

  /// Return a consumed batch's staging buffers to the pool. Call after the
  /// batch's tensors were transferred to the device.
  void recycle(PreparedBatch&& batch);

  /// Total mini-batches this epoch will produce (ceil(nodes / batch_size)).
  std::int64_t num_batches() const { return num_batches_; }
  /// The pinned staging pool in use; pass it to the next epoch's loader to
  /// keep recycling the same buffers.
  const std::shared_ptr<PinnedPool>& pool() const { return pool_; }

  /// Workers that died (the `prep.worker.die` failpoint) and were respawned
  /// with their in-flight batch re-enqueued — each death is recovered with
  /// no batch lost or duplicated.
  std::int64_t worker_deaths() const {
    return worker_deaths_.load(std::memory_order_relaxed);
  }

 private:
  struct BatchDesc {
    std::int64_t index = -1;
    std::int64_t begin = 0;
    std::int64_t end = 0;
  };

  void worker_loop(int worker_index);
  /// Push `desc` onto the input queue, retrying through transient (injected)
  /// full conditions — a descriptor is never dropped.
  void enqueue_desc(const BatchDesc& desc);
  /// Spawn a replacement after a worker death (no-op during shutdown).
  void respawn_worker(int worker_index);

  const Dataset& dataset_;
  LoaderConfig config_;
  std::shared_ptr<PinnedPool> pool_;
  std::shared_ptr<const FeatureCache> cache_;
  std::shared_ptr<const WireStore> store_;
  std::vector<NodeId> epoch_nodes_;
  std::int64_t num_batches_ = 0;
  /// Confined to the consumer thread (only next() touches it) — a contract
  /// the capability analysis cannot express, so it stays unannotated.
  std::int64_t delivered_ = 0;

  MpmcQueue<BatchDesc> input_queue_;
  BlockingQueue<PreparedBatch> output_queue_;
  /// Batches not yet handed to the output queue. Workers exit on zero — not
  /// on an empty input queue, which can be a transient (injected) miss.
  std::atomic<std::int64_t> pending_{0};
  std::atomic<std::int64_t> worker_deaths_{0};
  Mutex workers_mu_;  // serializes respawn against the destructor's join
  std::vector<std::thread> workers_ GUARDED_BY(workers_mu_);
};

}  // namespace salient
