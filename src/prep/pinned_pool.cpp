#include "prep/pinned_pool.h"

#include <algorithm>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace salient {

namespace {

std::size_t bytes_for(const std::vector<std::int64_t>& shape, DType dtype) {
  std::size_t n = 1;
  for (auto d : shape) n *= static_cast<std::size_t>(d);
  return n * dtype_size(dtype);
}

/// Requests are rounded up to 64KiB multiples, the unit of every buffer's
/// capacity.
std::size_t bucket_of(std::size_t nbytes) {
  constexpr std::size_t kBucket = 64 * 1024;
  return ((nbytes + kBucket - 1) / kBucket) * kBucket;
}

}  // namespace

std::optional<StoragePtr> PinnedPool::take_idle(std::size_t bucket) {
  auto it = idle_.lower_bound(bucket);
  if (it == idle_.end()) return std::nullopt;
  StoragePtr storage = std::move(it->second);
  idle_.erase(it);
  live_bytes_ += storage->nbytes();
  live_high_water_ = std::max(live_high_water_, live_bytes_);
  return storage;
}

void PinnedPool::account_alloc(std::size_t bucket,
                               std::vector<StoragePtr>& freed) {
  ++allocs_;
  allocated_bytes_ += bucket;
  live_bytes_ += bucket;
  live_high_water_ = std::max(live_high_water_, live_bytes_);
  // take_idle just failed, so every idle buffer is smaller than this
  // request; the smallest are the least reusable and go first.
  std::size_t limit = live_high_water_;
  if (config_.max_bytes > 0) limit = std::min(limit, config_.max_bytes);
  while (allocated_bytes_ > limit && !idle_.empty()) {
    auto it = idle_.begin();
    allocated_bytes_ -= it->first;
    freed.push_back(std::move(it->second));
    idle_.erase(it);
  }
}

Tensor PinnedPool::acquire(std::vector<std::int64_t> shape, DType dtype) {
  auto& reg = obs::Registry::global();
  static obs::Counter& m_acquires = reg.counter("pinned_pool.acquires");
  static obs::Counter& m_misses = reg.counter("pinned_pool.misses");
  static obs::Counter& m_waits = reg.counter("pinned_pool.backpressure_waits");
  static obs::Counter& m_overshoots = reg.counter("pinned_pool.overshoots");
  m_acquires.add();
  const std::size_t bucket = bucket_of(bytes_for(shape, dtype));
  bool overshoot = false;
  std::vector<StoragePtr> freed;
  {
    check::UniqueLock lock(mu_);
    for (;;) {
      if (auto storage = take_idle(bucket)) {
        return Tensor::wrap_storage(std::move(*storage), std::move(shape),
                                    dtype);
      }
      // `pinned.exhausted` injects a transient allocation failure: behave
      // exactly as if the budget were exhausted for this round — wait for a
      // release, then retry — so the backpressure path is exercised without
      // real memory pressure.
      const bool injected = SALIENT_FAILPOINT("pinned.exhausted");
      const bool over_budget = config_.max_bytes > 0 &&
                               live_bytes_ + bucket > config_.max_bytes;
      if (!injected && (!over_budget || overshoot)) break;  // go allocate
      ++backpressure_waits_;
      m_waits.add();
      SALIENT_TRACE_INSTANT("pinned_pool.backpressure");
      if (cv_released_.wait_for(lock, config_.acquire_timeout) ==
          std::cv_status::timeout) {
        // No release arrived: degrade gracefully rather than deadlock the
        // pipeline — allocate anyway, accounting for a budget overshoot.
        overshoot = true;
        if (over_budget) {
          ++overshoots_;
          m_overshoots.add();
        }
        break;
      }
      // A buffer was released (or a spurious wakeup): loop and retry.
    }
    account_alloc(bucket, freed);
  }
  freed.clear();  // unpin the trimmed buffers before pinning a new one
  // Pool miss: a fresh page-locked allocation (the expensive case the pool
  // exists to amortize) — worth an instant marker in the trace.
  m_misses.add();
  SALIENT_TRACE_INSTANT("pinned_pool.alloc");
  auto storage = std::make_shared<Storage>(bucket, /*pinned=*/true);
  return Tensor::wrap_storage(std::move(storage), std::move(shape), dtype);
}

std::optional<Tensor> PinnedPool::try_acquire(std::vector<std::int64_t> shape,
                                              DType dtype) {
  const std::size_t bucket = bucket_of(bytes_for(shape, dtype));
  std::vector<StoragePtr> freed;
  {
    check::LockGuard lock(mu_);
    if (auto storage = take_idle(bucket)) {
      return Tensor::wrap_storage(std::move(*storage), std::move(shape),
                                  dtype);
    }
    if (config_.max_bytes > 0 &&
        live_bytes_ + bucket > config_.max_bytes) {
      return std::nullopt;
    }
    account_alloc(bucket, freed);
  }
  freed.clear();
  auto storage = std::make_shared<Storage>(bucket, /*pinned=*/true);
  return Tensor::wrap_storage(std::move(storage), std::move(shape), dtype);
}

void PinnedPool::release(Tensor t) {
  if (!t.defined() || !t.pinned()) return;
  {
    check::LockGuard lock(mu_);
    const std::size_t capacity = t.storage()->nbytes();
    live_bytes_ -= std::min(live_bytes_, capacity);
    idle_.emplace(capacity, t.storage());
  }
  cv_released_.notify_one();
}

std::size_t PinnedPool::idle_count() const {
  check::LockGuard lock(mu_);
  return idle_.size();
}

std::size_t PinnedPool::alloc_count() const {
  check::LockGuard lock(mu_);
  return allocs_;
}

std::size_t PinnedPool::allocated_bytes() const {
  check::LockGuard lock(mu_);
  return allocated_bytes_;
}

std::size_t PinnedPool::backpressure_waits() const {
  check::LockGuard lock(mu_);
  return backpressure_waits_;
}

std::size_t PinnedPool::overshoots() const {
  check::LockGuard lock(mu_);
  return overshoots_;
}

}  // namespace salient
