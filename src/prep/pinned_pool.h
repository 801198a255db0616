// Reusable pool of pinned staging buffers.
//
// SALIENT's preparation threads write sliced tensors "directly into pinned
// memory accessible by the main process" (§4.2). Allocating page-locked
// memory is expensive in the real system, so staging buffers are pooled and
// recycled across mini-batches: a PinnedPool is the pinned-memory instance
// of the BufferPool the simulated device also receives its batches into
// (tensor/buffer_pool.h — size classes, bounded reuse, trimming, the byte
// budget with backpressure, and the `pinned.exhausted` failpoint).
#pragma once

#include <chrono>
#include <cstdint>

#include "tensor/buffer_pool.h"

namespace salient {

struct PinnedPoolConfig {
  /// Byte budget across live + idle buffers; 0 means unbounded (the
  /// historical behaviour).
  std::size_t max_bytes = 0;
  /// How long acquire() waits for a release before overshooting the budget.
  std::chrono::milliseconds acquire_timeout{200};
};

class PinnedPool : public BufferPool {
 public:
  explicit PinnedPool(PinnedPoolConfig config = {})
      : BufferPool({/*pinned=*/true, config.max_bytes,
                    config.acquire_timeout}) {}
};

}  // namespace salient
