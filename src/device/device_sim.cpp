#include "device/device_sim.h"

#include <cstring>
#include <stdexcept>

#include "tensor/kernel_config.h"
#include "tensor/quantize.h"
#include "util/half.h"

namespace salient {

namespace {

/// Convert `n` wire rows of `rows`, starting at `first`, to f32 at `dst`:
/// f16 bulk up-conversion, a plain copy for f32, or per-row int8 affine
/// dequantization with the scale/zero sidecars that rode the same DMA.
void convert_rows(const Tensor& rows, const Tensor& scale, const Tensor& zero,
                  std::int64_t first, std::int64_t n, float* dst) {
  const std::int64_t f = rows.size(1);
  switch (rows.dtype()) {
    case DType::kF16:
      half_to_float_n(rows.data<Half>() + first * f, dst,
                      static_cast<std::size_t>(n * f));
      break;
    case DType::kF32:
      std::memcpy(dst, rows.data<float>() + first * f,
                  static_cast<std::size_t>(n * f) * sizeof(float));
      break;
    case DType::kInt8Q: {
      const std::int8_t* q = rows.data<std::int8_t>();
      const float* ps = scale.data<float>();
      const float* pz = zero.data<float>();
      for (std::int64_t i = first; i < first + n; ++i) {
        ops::dequantize_row(q + i * f, f, ps[i], pz[i], dst);
        dst += f;
      }
      break;
    }
    default:
      break;  // rejected by assemble_features
  }
}

}  // namespace

void assemble_features(const Tensor& rows, const Tensor& scale,
                       const Tensor& zero, const CachePlan* plan,
                       const Tensor& cache_rows, Tensor& out) {
  const DType wire = rows.dtype();
  if (wire != DType::kF16 && wire != DType::kF32 && wire != DType::kInt8Q) {
    throw std::invalid_argument("assemble_features: unsupported wire dtype");
  }
  if (wire == DType::kInt8Q && (!scale.defined() || !zero.defined())) {
    throw std::invalid_argument(
        "assemble_features: i8q rows need scale/zero sidecars");
  }
  float* dst = out.data<float>();
  const std::int64_t n = out.size(0);
  const std::int64_t f = out.size(1);
  // Hit rows come from the plan's snapshot (dynamic policies) or the cache's
  // immutable resident matrix (static policies).
  const Tensor& hits =
      plan != nullptr && plan->hit_rows.defined() ? plan->hit_rows : cache_rows;
  // Above the memory-bound grain the rows split across the kernel pool;
  // each row is still written by one thread from the same source, so the
  // result is bitwise independent of the split.
  ops::parallel_for_n(
      n, n * f,
      [&](std::int64_t begin, std::int64_t end) {
        if (plan == nullptr) {
          convert_rows(rows, scale, zero, begin, end - begin, dst + begin * f);
          return;
        }
        for (std::int64_t i = begin; i < end; ++i) {
          const auto k = static_cast<std::size_t>(i);
          float* row = dst + i * f;
          if (plan->from_cache[k]) {
            std::memcpy(row, hits.data<float>() + plan->source[k] * f,
                        static_cast<std::size_t>(f) * sizeof(float));
          } else {
            convert_rows(rows, scale, zero, plan->source[k], 1, row);
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
  // missing rows; f16 / f32 / per-row int8 plus its scale/zero sidecars).
  Tensor x_dev = pool_.acquire(batch.x.shape(), batch.x.dtype());
  Tensor scale_dev, zero_dev;
  if (batch.x_scale.defined()) {
    scale_dev = pool_.acquire(batch.x_scale.shape(), batch.x_scale.dtype());
    zero_dev = pool_.acquire(batch.x_zero.shape(), batch.x_zero.dtype());
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

  // The compute stream waits for the copies, then assembles the f32 compute
  // copy ("GPU training computations are still done in single precision",
  // §3): cached rows are device-to-device gathers (no PCIe), the rest are
  // converted from the transferred wire rows.
  compute_.wait(copy_.record());
  const std::int64_t num_rows =
      plan ? static_cast<std::int64_t>(plan->from_cache.size())
           : batch.x.size(0);
  out.x_f32 = pool_.acquire({num_rows, batch.x.size(1)}, DType::kF32);
  Tensor x_f32_dev = out.x_f32;
  compute_.enqueue([x_dev, scale_dev, zero_dev, plan, cache_rows,
                    x_f32_dev]() mutable {
    assemble_features(x_dev, scale_dev, zero_dev, plan.get(), cache_rows,
                      x_f32_dev);
  }, "dev.assemble_features");
  if (ready != nullptr) {
    *ready = compute_.record();
  }
  if (blocking) {
    compute_.synchronize();
  }
  return out;
}

}  // namespace salient
