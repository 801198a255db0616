// Reusable pool of pinned staging buffers.
//
// SALIENT's preparation threads write sliced tensors "directly into pinned
// memory accessible by the main process" (§4.2). Allocating page-locked
// memory is expensive in the real system, so staging buffers are pooled and
// recycled across mini-batches. The pool hands out Tensors whose Storage is
// flagged pinned; returning a buffer of the same byte size makes it available
// for the next batch.
//
// Robustness: page-locked memory is a scarce, registered resource, so the
// pool supports an optional byte budget. When the live buffers leave no room
// for a request (idle buffers too small for it are freed first), acquire()
// applies *backpressure* — it blocks until a buffer is released —
// instead of growing without bound or aborting; after `acquire_timeout` it
// degrades gracefully by allocating past the budget (counted as
// pinned_pool.overshoots) so a mis-sized budget can never deadlock the
// pipeline. The failpoint `pinned.exhausted` injects transient allocation
// failures to exercise this path deterministically (tests/test_chaos.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "check/shim.h"
#include "tensor/tensor.h"
#include "util/thread_annotations.h"

namespace salient {

struct PinnedPoolConfig {
  /// Byte budget across live + idle buffers; 0 means unbounded (the
  /// historical behaviour).
  std::size_t max_bytes = 0;
  /// How long acquire() waits for a release before overshooting the budget.
  std::chrono::milliseconds acquire_timeout{200};
};

class PinnedPool {
 public:
  PinnedPool() = default;
  explicit PinnedPool(PinnedPoolConfig config) : config_(config) {}

  /// Get a pinned tensor of the given shape/dtype, recycling the smallest
  /// released buffer that fits when one is idle. Under an
  /// exhausted budget this blocks for a release (backpressure) and, past
  /// the configured timeout, allocates anyway (graceful degradation).
  Tensor acquire(std::vector<std::int64_t> shape, DType dtype);

  /// Non-blocking acquire: nullopt when the budget is exhausted and no
  /// recyclable buffer exists (never allocates past the budget).
  std::optional<Tensor> try_acquire(std::vector<std::int64_t> shape,
                                    DType dtype);

  /// Return a tensor acquired from this pool. The caller must not touch the
  /// tensor afterwards. Wakes one waiter blocked in acquire().
  void release(Tensor t);

  /// Number of idle buffers currently pooled.
  std::size_t idle_count() const;
  /// Total allocations performed (i.e., pool misses).
  std::size_t alloc_count() const;
  /// Bytes across the buffers this pool holds (live + idle). Idle buffers
  /// are freed so this never exceeds the most bytes that were live at once.
  std::size_t allocated_bytes() const;
  /// Times acquire() blocked on an exhausted budget.
  std::size_t backpressure_waits() const;
  /// Times acquire() allocated past the budget after waiting out the
  /// timeout.
  std::size_t overshoots() const;

  const PinnedPoolConfig& config() const { return config_; }

 private:
  /// Take the smallest idle buffer of at least `bucket` bytes, if any.
  std::optional<StoragePtr> take_idle(std::size_t bucket) REQUIRES(mu_);
  /// Account a new `bucket`-byte buffer and move the idle buffers it leaves
  /// above the live high-water mark (and the budget) into `freed`.
  void account_alloc(std::size_t bucket, std::vector<StoragePtr>& freed)
      REQUIRES(mu_);

  PinnedPoolConfig config_;  // unguarded: immutable after construction
  mutable check::Mutex mu_;
  check::CondVar cv_released_;
  /// Idle buffers keyed by capacity (bytes).
  std::multimap<std::size_t, StoragePtr> idle_ GUARDED_BY(mu_);
  std::size_t allocs_ GUARDED_BY(mu_) = 0;
  std::size_t allocated_bytes_ GUARDED_BY(mu_) = 0;  ///< live + idle
  std::size_t live_bytes_ GUARDED_BY(mu_) = 0;  ///< capacities handed out
  std::size_t live_high_water_ GUARDED_BY(mu_) = 0;  ///< max of live_bytes_
  std::size_t backpressure_waits_ GUARDED_BY(mu_) = 0;
  std::size_t overshoots_ GUARDED_BY(mu_) = 0;
};

}  // namespace salient
