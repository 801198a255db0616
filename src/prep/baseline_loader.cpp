#include "prep/baseline_loader.h"

#include <cstring>

#include "obs/trace.h"
#include "prep/slicing.h"
#include "sampling/baseline_sampler.h"
#include "sampling/distributed.h"
#include "util/thread_pool.h"

namespace salient {

BaselineLoader::BaselineLoader(const Dataset& dataset,
                               std::span<const NodeId> nodes,
                               LoaderConfig config,
                               std::shared_ptr<PinnedPool> pool,
                               std::shared_ptr<const WireStore> store)
    : dataset_(dataset),
      config_(std::move(config)),
      pool_(pool ? std::move(pool) : std::make_shared<PinnedPool>()),
      store_(checked_store(std::move(store), dataset.features,
                           config_.feature_dtype)),
      epoch_nodes_(nodes.begin(), nodes.end()) {
  if (config_.shuffle) schedule_shuffle(epoch_nodes_, config_.seed);
  const auto n = static_cast<std::int64_t>(epoch_nodes_.size());
  num_batches_ = (n + config_.batch_size - 1) / config_.batch_size;
  num_workers_ = std::max(1, config_.num_workers);
  const int workers = num_workers_;
  worker_queues_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    // prefetch_factor=2, as in the PyTorch DataLoader default.
    worker_queues_.push_back(
        std::make_unique<BlockingQueue<std::vector<std::int64_t>>>(2));
  }
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

BaselineLoader::~BaselineLoader() {
  for (auto& q : worker_queues_) q->close();
  for (auto& t : workers_) t.join();
}

void BaselineLoader::worker_loop(int worker_id) {
  BaselineSampler sampler(dataset_.graph, config_.fanouts);
  const auto n = static_cast<std::int64_t>(epoch_nodes_.size());
  const auto workers = static_cast<std::int64_t>(num_workers_);
  // Static round-robin partition of batches across workers.
  for (std::int64_t b = worker_id; b < num_batches_; b += workers) {
    // As in SalientLoader, the async "batch" span begins with the batch's
    // preparation and ends when the trainer retires it.
    SALIENT_TRACE_ASYNC_BEGIN("batch", b);
    const std::int64_t begin = b * config_.batch_size;
    const std::int64_t end = std::min(n, (b + 1) * config_.batch_size);
    const std::span<const NodeId> batch_nodes(
        epoch_nodes_.data() + begin, static_cast<std::size_t>(end - begin));
    Mfg mfg = sampler.sample(batch_nodes, schedule_mix_seed(config_.seed, b));
    // The IPC write: flatten the MFG into one buffer (worker-side copy).
    std::vector<std::int64_t> blob = serialize_mfg(mfg);
    if (!worker_queues_[static_cast<std::size_t>(worker_id)]->push(
            std::move(blob))) {
      return;  // loader shut down early
    }
  }
}

std::optional<PreparedBatch> BaselineLoader::next() {
  if (next_index_ >= num_batches_) return std::nullopt;
  const std::int64_t b = next_index_++;
  auto& queue = *worker_queues_[static_cast<std::size_t>(
      b % static_cast<std::int64_t>(worker_queues_.size()))];
  auto blob = queue.pop();
  if (!blob.has_value()) return std::nullopt;

  PreparedBatch batch;
  batch.index = b;
  // The IPC read: re-materialize the MFG (consumer-side copy).
  batch.mfg = deserialize_mfg(*blob);

  // PyTorch-style parallel slicing of the wire store into pageable
  // memory, followed by the pin_memory copy into a staging buffer.
  const auto pin = [&](const Tensor& src) {
    std::vector<std::int64_t> shape = src.shape();
    shape[0] = batch.mfg.num_input_nodes();
    Tensor pageable(shape, src.dtype());
    slice_rows_parallel(src, batch.mfg.n_ids, pageable, ThreadPool::global());
    Tensor pinned = pool_->acquire(std::move(shape), src.dtype());
    std::memcpy(pinned.raw(), pageable.raw(), pageable.nbytes());
    return pinned;
  };
  batch.x = pin(store_->rows);
  if (store_->rows.has_row_params()) {
    batch.x_scale = pin(store_->rows.row_scale());
    batch.x_zero = pin(store_->rows.row_zero());
  }

  batch.y = pool_->acquire({batch.mfg.batch_size}, DType::kI64);
  slice_labels(dataset_.labels,
               {batch.mfg.n_ids.data(),
                static_cast<std::size_t>(batch.mfg.batch_size)},
               batch.y);
  return batch;
}

void BaselineLoader::recycle(PreparedBatch&& batch) {
  release_batch_buffers(*pool_, std::move(batch));
}

}  // namespace salient
