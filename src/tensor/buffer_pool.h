// One caching pool for pinned staging buffers and simulated device memory.
//
// Batch preparation stages every mini-batch into pinned buffers (§4.2), and
// the simulated device receives it into device buffers of the same few
// recurring sizes; allocating and zero-filling each of them per batch cost
// more than the transfer itself. Both sides draw from this pool instead
// (PinnedPool, prep/pinned_pool.h, for pinned staging; DeviceSim for device
// memory), under one set of rules:
//   * capacities are 64 KiB multiples (size classes);
//   * a request reuses the smallest idle buffer that fits. Device memory
//     bounds it to at most 1/8 larger than the request: there one buffer
//     (the f32 feature matrix) dwarfs the rest, and reusing any larger
//     buffer lets small requests hold large ones, so the next large request
//     allocates again. Pinned staging keeps unbounded reuse: its buffers
//     fluctuate in size around a few roles, and a miss there is a
//     page-locked allocation;
//   * when a request misses, idle buffers are freed, smallest first, until
//     the pool holds no more than the most bytes that were live at once
//     (and the budget), so it never grows past the peak of its live set;
//   * buffers are not zero-filled: every user overwrites what it acquires;
//   * a buffer returns to the idle set when its last reference drops, from
//     whichever thread drops it (the copy and compute streams, the main
//     thread, a loader worker), so a buffer still referenced is never
//     handed out again.
//
// Optional byte budget (pinned staging is a scarce, registered resource):
// when the live buffers leave no room for a request, acquire() applies
// backpressure — it blocks until a buffer returns — and after
// `acquire_timeout` degrades gracefully by allocating past the budget
// (counted as an overshoot), so a mis-sized budget can never deadlock the
// pipeline. The failpoint `pinned.exhausted` injects transient allocation
// failures into pinned pools to exercise this path (tests/test_chaos.cpp).
//
// Metrics: pinned pools count `pinned_pool.{acquires,misses,
// backpressure_waits,overshoots}` and mark each miss with a
// `pinned_pool.alloc` trace instant; device pools do the same under
// `device_pool.*` (docs/OBSERVABILITY.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tensor/tensor.h"

namespace salient {

struct BufferPoolConfig {
  /// Hand out pinned (staging) memory rather than device memory.
  bool pinned = false;
  /// Byte budget across live + idle buffers; 0 means unbounded.
  std::size_t max_bytes = 0;
  /// How long acquire() waits for a returned buffer before overshooting the
  /// budget.
  std::chrono::milliseconds acquire_timeout{200};
};

class BufferPool {
 public:
  explicit BufferPool(BufferPoolConfig config = {});
  /// Buffers still referenced outlive the pool object; each is freed when
  /// its last reference drops.
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A tensor of the given shape/dtype over a pooled buffer with
  /// indeterminate contents. Under an exhausted budget this blocks for a
  /// returned buffer (backpressure) and, past the configured timeout,
  /// allocates anyway (graceful degradation).
  Tensor acquire(std::vector<std::int64_t> shape, DType dtype);

  /// Non-blocking acquire: nullopt when the budget is exhausted and no
  /// reusable buffer is idle (never allocates past the budget).
  std::optional<Tensor> try_acquire(std::vector<std::int64_t> shape,
                                    DType dtype);

  /// A pooled index array of `n` elements (the device's MFG adjacency
  /// copies), under the same size classes and reuse rules. Contents are
  /// indeterminate except that growth past the array's previous length is
  /// value-initialized, as std::vector::resize does.
  std::shared_ptr<std::vector<std::int64_t>> acquire_indices(std::size_t n);

  /// Drop one reference to a tensor this pool handed out. The buffer
  /// returns when its last reference drops (waking one acquire() blocked
  /// on the budget), so a copy still in flight keeps it out of
  /// circulation. Tensors from elsewhere are merely dropped.
  void release(Tensor t) { t = Tensor(); }

  /// Number of idle buffers currently pooled.
  std::size_t idle_count() const;
  /// Total allocations performed (i.e., pool misses).
  std::size_t alloc_count() const;
  /// Bytes across the buffers this pool holds (live + idle). Idle buffers
  /// are freed so this never exceeds live_high_water().
  std::size_t allocated_bytes() const;
  /// The most bytes that were live (handed out, not yet returned) at once.
  std::size_t live_high_water() const;
  /// Times acquire() blocked on an exhausted budget.
  std::size_t backpressure_waits() const;
  /// Times acquire() allocated past the budget after waiting out the
  /// timeout.
  std::size_t overshoots() const;

 private:
  struct State;   // shared with the buffers, which return into it
  struct Return;  // their deleter

  std::shared_ptr<State> state_;
};

}  // namespace salient
