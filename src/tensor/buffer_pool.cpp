#include "tensor/buffer_pool.h"

#include <algorithm>
#include <map>

#include "check/shim.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_annotations.h"

namespace salient {

namespace {

constexpr std::size_t kBucket = 64 * 1024;

/// Requests are rounded up to 64KiB multiples, the unit of every buffer's
/// capacity.
std::size_t bucket_of(std::size_t nbytes) {
  return ((nbytes + kBucket - 1) / kBucket) * kBucket;
}

std::size_t bytes_for(const std::vector<std::int64_t>& shape, DType dtype) {
  std::size_t n = 1;
  for (auto d : shape) n *= static_cast<std::size_t>(d);
  return n * dtype_size(dtype);
}

/// An idle buffer: tensor bytes or an index array.
struct Block {
  std::unique_ptr<Storage> bytes;
  std::unique_ptr<std::vector<std::int64_t>> indices;

  std::size_t capacity() const {
    return bytes ? bytes->nbytes()
                 : indices->capacity() * sizeof(std::int64_t);
  }
};

}  // namespace

struct BufferPool::State {
  explicit State(const BufferPoolConfig& c)
      : config(c),
        acquires(counter("acquires")),
        misses(counter("misses")),
        waits(counter("backpressure_waits")),
        overshoots_metric(counter("overshoots")) {}

  obs::Counter& counter(const char* what) const {
    return obs::Registry::global().counter(
        std::string(config.pinned ? "pinned_pool." : "device_pool.") + what);
  }

  /// A block of `bucket` bytes (an index array when `indices`), reused or
  /// freshly allocated. Blocking under the budget unless `wait` is false,
  /// in which case an exhausted budget yields an empty block.
  Block acquire(std::size_t bucket, bool indices, bool wait) EXCLUDES(mu);
  /// Return a buffer whose last reference dropped.
  void put_back(Block block) EXCLUDES(mu);

  /// Take the smallest idle block of the kind of at least `bucket` bytes
  /// (and at most bucket * 9/8 in device memory).
  std::optional<Block> take_idle(std::size_t bucket, bool indices)
      REQUIRES(mu);
  /// Account a new `bucket`-byte buffer and move the idle buffers it leaves
  /// above the live high-water mark (and the budget) into `freed`.
  void account_alloc(std::size_t bucket, std::vector<Block>& freed)
      REQUIRES(mu);

  const BufferPoolConfig config;
  obs::Counter& acquires;
  obs::Counter& misses;
  obs::Counter& waits;
  obs::Counter& overshoots_metric;

  check::Mutex mu;
  check::CondVar returned;
  /// Idle buffers keyed by capacity (bytes).
  std::multimap<std::size_t, Block> idle GUARDED_BY(mu);
  std::size_t allocs GUARDED_BY(mu) = 0;
  std::size_t allocated_bytes GUARDED_BY(mu) = 0;  ///< live + idle
  std::size_t live_bytes GUARDED_BY(mu) = 0;       ///< capacities handed out
  std::size_t live_high_water GUARDED_BY(mu) = 0;  ///< max of live_bytes
  std::size_t backpressure_waits GUARDED_BY(mu) = 0;
  std::size_t overshoots GUARDED_BY(mu) = 0;
};

/// The deleter of every buffer the pool hands out: it returns the buffer
/// instead of freeing it, and keeps the pool's state alive until then.
struct BufferPool::Return {
  std::shared_ptr<State> state;
  void operator()(Storage* s) const {
    state->put_back(Block{std::unique_ptr<Storage>(s), nullptr});
  }
  void operator()(std::vector<std::int64_t>* v) const {
    state->put_back(
        Block{nullptr, std::unique_ptr<std::vector<std::int64_t>>(v)});
  }
};

std::optional<Block> BufferPool::State::take_idle(std::size_t bucket,
                                                  bool indices) {
  const auto end =
      config.pinned ? idle.end() : idle.upper_bound(bucket + bucket / 8);
  for (auto it = idle.lower_bound(bucket); it != end; ++it) {
    if ((it->second.indices != nullptr) != indices) continue;
    Block block = std::move(it->second);
    idle.erase(it);
    live_bytes += block.capacity();
    live_high_water = std::max(live_high_water, live_bytes);
    return block;
  }
  return std::nullopt;
}

void BufferPool::State::account_alloc(std::size_t bucket,
                                      std::vector<Block>& freed) {
  ++allocs;
  allocated_bytes += bucket;
  live_bytes += bucket;
  live_high_water = std::max(live_high_water, live_bytes);
  // The smallest idle buffers are the least reusable and go first.
  std::size_t limit = live_high_water;
  if (config.max_bytes > 0) limit = std::min(limit, config.max_bytes);
  while (allocated_bytes > limit && !idle.empty()) {
    auto it = idle.begin();
    allocated_bytes -= it->first;
    freed.push_back(std::move(it->second));
    idle.erase(it);
  }
}

Block BufferPool::State::acquire(std::size_t bucket, bool indices,
                                 bool wait) {
  acquires.add();
  bool overshoot = false;
  std::vector<Block> freed;
  {
    check::UniqueLock lock(mu);
    for (;;) {
      if (auto block = take_idle(bucket, indices)) return std::move(*block);
      const bool over_budget =
          config.max_bytes > 0 && live_bytes + bucket > config.max_bytes;
      if (!wait) {
        if (over_budget) return Block{};
        break;
      }
      // `pinned.exhausted` injects a transient allocation failure into a
      // pinned pool: behave exactly as if the budget were exhausted for
      // this round — wait for a return, then retry — so the backpressure
      // path is exercised without real memory pressure.
      const bool injected =
          config.pinned && SALIENT_FAILPOINT("pinned.exhausted");
      if (!injected && (!over_budget || overshoot)) break;  // go allocate
      ++backpressure_waits;
      waits.add();
      SALIENT_TRACE_INSTANT(config.pinned ? "pinned_pool.backpressure"
                                          : "device_pool.backpressure");
      if (returned.wait_for(lock, config.acquire_timeout) ==
          std::cv_status::timeout) {
        // Nothing returned: degrade gracefully rather than deadlock the
        // pipeline — allocate anyway, accounting for a budget overshoot.
        overshoot = true;
        if (over_budget) {
          ++overshoots;
          overshoots_metric.add();
        }
        break;
      }
      // A buffer returned (or a spurious wakeup): loop and retry.
    }
    // Device memory allocates a miss with 1/16 headroom when that stays
    // inside the 1/8 reuse bound (buffers of 512 KiB and up): a batch's
    // buffers vary by a few percent from batch to batch, and a buffer of
    // exactly the request would miss on the next, slightly larger one.
    if (const std::size_t grown = bucket_of(bucket + bucket / 16);
        !config.pinned && grown <= bucket + bucket / 8) {
      bucket = grown;
    }
    account_alloc(bucket, freed);
  }
  freed.clear();  // free the trimmed buffers before allocating a new one
  // Pool miss: a fresh allocation (the expensive case the pool exists to
  // amortize) — worth an instant marker in the trace.
  misses.add();
  SALIENT_TRACE_INSTANT(config.pinned ? "pinned_pool.alloc"
                                      : "device_pool.alloc");
  if (indices) {
    auto v = std::make_unique<std::vector<std::int64_t>>();
    v->reserve(bucket / sizeof(std::int64_t));
    return Block{nullptr, std::move(v)};
  }
  return Block{std::make_unique<Storage>(bucket, config.pinned,
                                         /*zero_fill=*/false),
               nullptr};
}

void BufferPool::State::put_back(Block block) {
  {
    check::LockGuard lock(mu);
    const std::size_t capacity = block.capacity();
    live_bytes -= std::min(live_bytes, capacity);
    idle.emplace(capacity, std::move(block));
  }
  returned.notify_one();
}

BufferPool::BufferPool(BufferPoolConfig config)
    : state_(std::make_shared<State>(config)) {}

BufferPool::~BufferPool() = default;

Tensor BufferPool::acquire(std::vector<std::int64_t> shape, DType dtype) {
  Block block = state_->acquire(bucket_of(bytes_for(shape, dtype)),
                                /*indices=*/false, /*wait=*/true);
  return Tensor::wrap_storage(
      StoragePtr(block.bytes.release(), Return{state_}),
      std::move(shape), dtype);
}

std::optional<Tensor> BufferPool::try_acquire(std::vector<std::int64_t> shape,
                                              DType dtype) {
  Block block = state_->acquire(bucket_of(bytes_for(shape, dtype)),
                                /*indices=*/false, /*wait=*/false);
  if (!block.bytes) return std::nullopt;
  return Tensor::wrap_storage(
      StoragePtr(block.bytes.release(), Return{state_}),
      std::move(shape), dtype);
}

std::shared_ptr<std::vector<std::int64_t>> BufferPool::acquire_indices(
    std::size_t n) {
  Block block = state_->acquire(bucket_of(n * sizeof(std::int64_t)),
                                /*indices=*/true, /*wait=*/true);
  block.indices->resize(n);
  return {block.indices.release(), Return{state_}};
}

std::size_t BufferPool::idle_count() const {
  check::LockGuard lock(state_->mu);
  return state_->idle.size();
}

std::size_t BufferPool::alloc_count() const {
  check::LockGuard lock(state_->mu);
  return state_->allocs;
}

std::size_t BufferPool::allocated_bytes() const {
  check::LockGuard lock(state_->mu);
  return state_->allocated_bytes;
}

std::size_t BufferPool::live_high_water() const {
  check::LockGuard lock(state_->mu);
  return state_->live_high_water;
}

std::size_t BufferPool::backpressure_waits() const {
  check::LockGuard lock(state_->mu);
  return state_->backpressure_waits;
}

std::size_t BufferPool::overshoots() const {
  check::LockGuard lock(state_->mu);
  return state_->overshoots;
}

}  // namespace salient
