// Baseline batch preparation: an emulation of the PyTorch DataLoader +
// multiprocessing pipeline that the performance-engineered PyG baseline of
// the paper uses (§3.2).
//
// Structure, matching the baseline's behaviour:
//   * mini-batches are *statically partitioned* round-robin across workers
//     (the PyTorch DataLoader scheme the paper contrasts with SALIENT's
//     dynamic load balancing);
//   * each worker runs the PyG-style BaselineSampler, then *serializes* the
//     sampled MFG into a flat buffer — the stand-in for pickling tensors
//     through POSIX shared memory between processes;
//   * the consumer deserializes (the second copy of the IPC round trip),
//     then slices the wire store's rows (and their int8 sidecars) with the
//     PyTorch parallel slicing path on the shared thread pool, into
//     pageable memory, and finally copies them into pinned staging buffers
//     (the DataLoader pin_memory stage);
//   * batches are consumed in epoch order (DataLoader semantics), so a slow
//     worker stalls the consumer even when other workers have batches ready.
//
// As with SalientLoader, one instance drives one epoch.
#pragma once

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

namespace salient {

class BaselineLoader {
 public:
  /// `store` as for SalientLoader: the owner's wire store, or null to
  /// build one from dataset.features in config.feature_dtype.
  /// \throws std::invalid_argument when `store` is not in
  /// config.feature_dtype.
  BaselineLoader(const Dataset& dataset, std::span<const NodeId> nodes,
                 LoaderConfig config, std::shared_ptr<PinnedPool> pool = {},
                 std::shared_ptr<const WireStore> store = {});
  ~BaselineLoader();

  BaselineLoader(const BaselineLoader&) = delete;
  BaselineLoader& operator=(const BaselineLoader&) = delete;

  /// Blocking: the next prepared batch in epoch order, or nullopt at end.
  /// Performs the consumer-side work (deserialize, slice, pin) inline —
  /// this is the blocking cost Table 1 attributes to batch preparation.
  std::optional<PreparedBatch> next();

  void recycle(PreparedBatch&& batch);

  std::int64_t num_batches() const { return num_batches_; }

 private:
  void worker_loop(int worker_id);

  const Dataset& dataset_;
  LoaderConfig config_;
  std::shared_ptr<PinnedPool> pool_;
  std::shared_ptr<const WireStore> store_;
  std::vector<NodeId> epoch_nodes_;
  std::int64_t num_batches_ = 0;
  std::int64_t next_index_ = 0;
  int num_workers_ = 1;

  /// One bounded queue per worker; batch b is produced by worker b % P and
  /// consumed in order (the DataLoader's round-robin collection).
  std::vector<std::unique_ptr<BlockingQueue<std::vector<std::int64_t>>>>
      worker_queues_;
  std::vector<std::thread> workers_;
};

}  // namespace salient
