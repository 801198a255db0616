#include "prep/salient_loader.h"

#include <chrono>

#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sampling/distributed.h"
#include "sampling/fast_sampler.h"

namespace salient {

namespace {

/// Idle backoff while the input queue reports empty but batches remain
/// outstanding (claimed by other workers, or a transient injected miss).
constexpr std::chrono::microseconds kIdleBackoff{200};

}  // namespace


SalientLoader::SalientLoader(const Dataset& dataset,
                             std::span<const NodeId> nodes,
                             LoaderConfig config,
                             std::shared_ptr<PinnedPool> pool,
                             std::shared_ptr<const FeatureCache> cache,
                             std::shared_ptr<const WireStore> store)
    : dataset_(dataset),
      config_(std::move(config)),
      pool_(pool ? std::move(pool) : std::make_shared<PinnedPool>()),
      cache_(std::move(cache)),
      store_(checked_store(std::move(store), dataset.features,
                           config_.feature_dtype)),
      epoch_nodes_(nodes.begin(), nodes.end()),
      input_queue_(nodes.empty()
                       ? 2
                       : (nodes.size() / static_cast<std::size_t>(
                                             config_.batch_size) +
                          2)),
      output_queue_(config_.queue_capacity) {
  input_queue_.set_fault_site("prep_in");
  output_queue_.set_fault_site("prep_out");
  if (config_.shuffle) schedule_shuffle(epoch_nodes_, config_.seed);
  const auto n = static_cast<std::int64_t>(epoch_nodes_.size());
  num_batches_ = (n + config_.batch_size - 1) / config_.batch_size;
  pending_.store(num_batches_, std::memory_order_relaxed);
  // Fill the lock-free input queue with every batch descriptor up front;
  // workers pop dynamically, which load-balances the highly variable
  // per-batch neighborhood-expansion work.
  for (std::int64_t b = 0; b < num_batches_; ++b) {
    enqueue_desc({b, b * config_.batch_size,
                  std::min(n, (b + 1) * config_.batch_size)});
  }
  const int workers = std::max(1, config_.num_workers);
  LockGuard lock(workers_mu_);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

SalientLoader::~SalientLoader() {
  output_queue_.close();  // unblock producers if the consumer bailed early
  // A dying worker may respawn a replacement while we join, so drain the
  // thread vector until it stays empty (respawn_worker refuses to spawn
  // once the output queue is closed, which happened-before this loop).
  for (;;) {
    std::vector<std::thread> threads;
    {
      LockGuard lock(workers_mu_);
      threads.swap(workers_);
    }
    if (threads.empty()) break;
    for (auto& t : threads) t.join();
  }
}

void SalientLoader::enqueue_desc(const BatchDesc& desc) {
  // Capacity covers every descriptor by construction, so only a transient
  // (injected) full condition can make this fail — retry, never drop. The
  // closed() escape keeps shutdown (which discards undelivered batches
  // anyway) from spinning against an always-on injected fault.
  while (!input_queue_.try_push(desc)) {
    if (output_queue_.closed()) return;
    std::this_thread::sleep_for(kIdleBackoff);
  }
}

void SalientLoader::respawn_worker(int worker_index) {
  LockGuard lock(workers_mu_);
  if (output_queue_.closed()) return;  // shutting down: no replacement
  worker_deaths_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& m_deaths =
      obs::Registry::global().counter("prep.worker.deaths");
  m_deaths.add();
  SALIENT_TRACE_INSTANT("prep.worker.respawn");
  workers_.emplace_back(
      [this, worker_index] { worker_loop(worker_index); });
}

void SalientLoader::worker_loop(int worker_index) {
  // Each preparation worker is its own trace track ("prep-worker-N"): a
  // captured trace shows sampling/slicing running ahead of the consumer,
  // which is the overlap Figure 1(b) illustrates.
  SALIENT_TRACE_THREAD_NAME("prep-worker-" + std::to_string(worker_index));
  static obs::Counter& m_prepared =
      obs::Registry::global().counter("prep.batches_prepared");
  FastSampler sampler(dataset_.graph, config_.fanouts);
  BatchDesc desc;
  // Exit on "every batch delivered" or shutdown — never on an empty input
  // queue alone, which can be a transient miss (other workers hold the
  // remaining descriptors, or the mpmc.prep_in.pop_empty failpoint fired).
  while (pending_.load(std::memory_order_acquire) > 0 &&
         !output_queue_.closed()) {
    if (!input_queue_.try_pop(desc)) {
      std::this_thread::sleep_for(kIdleBackoff);
      continue;
    }

    // `prep.worker.die` simulates this worker crashing while holding a
    // claimed, not-yet-delivered batch. Recovery: put the descriptor back
    // for the surviving workers (no batch lost; it was never delivered, so
    // none duplicated either), spawn a replacement thread, and unwind.
    if (SALIENT_FAILPOINT("prep.worker.die")) {
      enqueue_desc(desc);
      respawn_worker(worker_index);
      return;
    }

    // The async "batch" span begins here and ends when the trainer retires
    // the batch (train/trainer.cpp) — the full per-batch pipeline latency.
    SALIENT_TRACE_ASYNC_BEGIN("batch", desc.index);

    // Sampling, then a serial gather from the wire store directly into
    // pinned staging buffers (only the cache-missing rows with a device
    // feature cache).
    PreparedBatch batch = prepare_batch(
        sampler, dataset_, *store_,
        {epoch_nodes_.data() + desc.begin,
         static_cast<std::size_t>(desc.end - desc.begin)},
        config_.seed, desc.index, *pool_, cache_.get());
    m_prepared.add();

    // Zero-copy hand-off to the consumer. Only a delivered batch counts
    // against pending_ — exactly-once delivery is what the chaos suite
    // asserts under injected faults.
    if (!output_queue_.push(std::move(batch))) return;  // loader shut down
    pending_.fetch_sub(1, std::memory_order_release);
  }
}

std::optional<PreparedBatch> SalientLoader::next() {
  if (delivered_ >= num_batches_) return std::nullopt;
  auto batch = output_queue_.pop();
  if (batch.has_value()) ++delivered_;
  return batch;
}

void SalientLoader::recycle(PreparedBatch&& batch) {
  release_batch_buffers(*pool_, std::move(batch));
}

}  // namespace salient
