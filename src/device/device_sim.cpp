#include "device/device_sim.h"

#include <cstring>
#include <stdexcept>

#include "tensor/kernel_config.h"

namespace salient {

namespace {

bool is_feature_dtype(DType dt) {
  return dt == DType::kF16 || dt == DType::kF32 || dt == DType::kInt8Q;
}

/// A wire-rows tensor's raw bytes and, for i8q, its row scale/zero.
struct RowSource {
  explicit RowSource(const Tensor& t)
      : bytes(static_cast<const char*>(t.raw())),
        scale(t.has_row_params() ? t.row_scale().data<float>() : nullptr),
        zero(t.has_row_params() ? t.row_zero().data<float>() : nullptr) {}
  const char* bytes;
  const float* scale;
  const float* zero;
};

}  // namespace

void assemble_features(const Tensor& rows, const CachePlan& plan,
                       const Tensor& cache_rows, Tensor& out) {
  // Hit rows come from the plan's snapshot (dynamic policies) or the cache's
  // immutable resident matrix (static policies).
  const Tensor& hits = plan.hit_rows.defined() ? plan.hit_rows : cache_rows;
  const DType dt = out.dtype();
  const std::int64_t n = out.size(0);
  const std::int64_t f = out.size(1);
  auto matches = [&](const Tensor& t) {
    return t.dtype() == dt && t.dim() == 2 && t.size(1) == f &&
           (dt != DType::kInt8Q || t.has_row_params());
  };
  if (!is_feature_dtype(dt) || !matches(out) || !matches(rows) ||
      (plan.num_missing < n && !matches(hits))) {
    throw std::invalid_argument(
        "assemble_features: rows, hits and out must share one f16/f32/i8q "
        "dtype and width (i8q with its row scale/zero)");
  }
  if (static_cast<std::int64_t>(plan.from_cache.size()) != n) {
    throw std::invalid_argument("assemble_features: plan size mismatch");
  }
  const std::size_t row_bytes = static_cast<std::size_t>(f) * dtype_size(dt);
  const RowSource from_rows(rows);
  const RowSource from_hits(plan.num_missing < n ? hits : rows);
  char* dst = static_cast<char*>(out.raw());
  float* dst_scale = dt == DType::kInt8Q ? out.row_scale().data<float>()
                                         : nullptr;
  float* dst_zero = dt == DType::kInt8Q ? out.row_zero().data<float>()
                                        : nullptr;
  // Above the memory-bound grain the rows split across the kernel pool;
  // each row is still written by one thread from the same source, so the
  // result is bitwise independent of the split.
  ops::parallel_for_n(
      n, n * f,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          const RowSource& src = plan.from_cache[k] ? from_hits : from_rows;
          const std::int64_t r = plan.source[k];
          std::memcpy(dst + static_cast<std::size_t>(i) * row_bytes,
                      src.bytes + static_cast<std::size_t>(r) * row_bytes,
                      row_bytes);
          if (dst_scale != nullptr) {
            dst_scale[i] = src.scale[r];
            dst_zero[i] = src.zero[r];
          }
        }
      },
      ops::GrainClass::kMemoryBound);
}

DeviceSim::DeviceSim(DeviceConfig config)
    : config_(config),
      dma_(config.dma),
      compute_("compute" + std::to_string(config.device_id)),
      copy_("copy" + std::to_string(config.device_id)) {}

DeviceBatch DeviceSim::transfer_batch(const PreparedBatch& batch,
                                      bool blocking, Event* ready) {
  return transfer(batch, nullptr, Tensor(), blocking, ready);
}

DeviceBatch DeviceSim::transfer_batch_cached(const PreparedBatch& batch,
                                             const CachePlan& plan,
                                             const FeatureCache& cache,
                                             bool blocking, Event* ready) {
  if (batch.x.size(0) != plan.num_missing) {
    throw std::invalid_argument(
        "transfer_batch_cached: batch.x must hold the plan's missing rows");
  }
  if (plan.from_cache.size() != batch.mfg.n_ids.size()) {
    throw std::invalid_argument("transfer_batch_cached: plan size mismatch");
  }
  if (plan.num_missing < static_cast<std::int64_t>(plan.from_cache.size()) &&
      cache.dtype() != batch.x.dtype()) {
    throw std::invalid_argument(
        "transfer_batch_cached: the cache holds rows of another dtype than "
        "the batch's wire rows");
  }
  // Copy the plan: the caller's plan may die before the stream runs. For
  // dynamic policies this also keeps the hit-row snapshot alive, so later
  // evictions cannot corrupt this in-flight batch.
  return transfer(batch, std::make_shared<const CachePlan>(plan),
                  cache.features(), blocking, ready);
}

DeviceBatch DeviceSim::transfer(const PreparedBatch& batch,
                                std::shared_ptr<const CachePlan> plan,
                                Tensor cache_rows, bool blocking,
                                Event* ready) {
  DeviceBatch out;
  out.index = batch.index;
  out.mfg.batch_size = batch.mfg.batch_size;
  out.mfg.n_ids = batch.mfg.n_ids;  // kept host-side (IDs are metadata)
  const bool pinned = batch.x.pinned();

  // Adjacency: one DMA per level array, as PyG transfers each sparse tensor.
  out.mfg.levels.reserve(batch.mfg.levels.size());
  for (const auto& level : batch.mfg.levels) {
    MfgLevel dl;
    dl.num_src = level.num_src;
    dl.num_dst = level.num_dst;
    auto indptr = pool_.acquire_indices(level.indptr->size());
    auto indices = pool_.acquire_indices(level.indices->size());
    // Capture the source arrays by shared_ptr: the transfer stays valid even
    // if the caller recycles the PreparedBatch before the copy stream runs.
    auto src_indptr = level.indptr;
    auto src_indices = level.indices;
    copy_.enqueue([this, indptr, indices, src_indptr, src_indices, pinned] {
      dma_.copy(indptr->data(), src_indptr->data(),
                src_indptr->size() * sizeof(std::int64_t), pinned);
      dma_.copy(indices->data(), src_indices->data(),
                src_indices->size() * sizeof(std::int64_t), pinned);
      if (config_.validate_sparse_after_transfer) {
        // PyG's sparse-tensor assertions: a blocking device round trip per
        // transferred adjacency (§4.3).
        dma_.round_trip();
      }
    }, "h2d.adjacency");
    dl.indptr = std::move(indptr);
    dl.indices = std::move(indices);
    out.mfg.levels.push_back(std::move(dl));
  }

  // Labels.
  out.y = pool_.acquire(batch.y.shape(), batch.y.dtype());
  Tensor y_dev = out.y;
  const Tensor y_host = batch.y;
  copy_.enqueue([this, y_dev, y_host, pinned]() mutable {
    dma_.copy(y_dev.raw(), y_host.raw(), y_host.nbytes(), pinned);
  }, "h2d.labels");

  // Features: DMA the wire-format rows (every input row, or only the plan's
  // missing rows; f16 / f32 / per-row int8 plus its scale/zero sidecars,
  // which the device rows then carry).
  Tensor x_dev = pool_.acquire(batch.x.shape(), batch.x.dtype());
  Tensor scale_dev, zero_dev;
  if (batch.x_scale.defined()) {
    scale_dev = pool_.acquire(batch.x_scale.shape(), batch.x_scale.dtype());
    zero_dev = pool_.acquire(batch.x_zero.shape(), batch.x_zero.dtype());
    x_dev = x_dev.with_row_params(scale_dev, zero_dev);
  }
  const Tensor x_host = batch.x;
  const Tensor scale_host = batch.x_scale;
  const Tensor zero_host = batch.x_zero;
  copy_.enqueue([this, x_dev, x_host, scale_dev, scale_host, zero_dev,
                 zero_host, pinned]() mutable {
    if (x_host.numel() == 0) return;  // every row is a cache hit
    dma_.copy(x_dev.raw(), x_host.raw(), x_host.nbytes(), pinned);
    if (scale_host.defined()) {
      dma_.copy(scale_dev.raw(), scale_host.raw(), scale_host.nbytes(),
                pinned);
      dma_.copy(zero_dev.raw(), zero_host.raw(), zero_host.nbytes(), pinned);
    }
  }, "h2d.features");

  // The compute stream waits for the copies. Without a cache the DMA'd rows
  // are the model's input; with one, cached rows are device-to-device
  // gathers (no PCIe) and the rest come from the transferred rows, all in
  // the wire dtype — the model's first layer converts as it loads them.
  compute_.wait(copy_.record());
  if (!plan) {
    out.x_f32 = std::move(x_dev);
  } else {
    const auto num_rows = static_cast<std::int64_t>(plan->from_cache.size());
    out.x_f32 = pool_.acquire({num_rows, batch.x.size(1)}, batch.x.dtype());
    if (batch.x_scale.defined()) {
      out.x_f32 = out.x_f32.with_row_params(
          pool_.acquire({num_rows}, DType::kF32),
          pool_.acquire({num_rows}, DType::kF32));
    }
    Tensor x_in = out.x_f32;
    compute_.enqueue([x_dev, plan, cache_rows, x_in]() mutable {
      assemble_features(x_dev, *plan, cache_rows, x_in);
    }, "dev.assemble_features");
  }
  if (ready != nullptr) {
    *ready = compute_.record();
  }
  if (blocking) {
    compute_.synchronize();
  }
  return out;
}

}  // namespace salient
