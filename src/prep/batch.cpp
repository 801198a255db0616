#include "prep/batch.h"

#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "prep/pinned_pool.h"
#include "prep/slicing.h"
#include "sampling/distributed.h"
#include "sampling/fast_sampler.h"

namespace salient {

namespace {

void check_wire_dtype(DType wire_dtype, const char* op) {
  if (wire_dtype != DType::kF16 && wire_dtype != DType::kF32 &&
      wire_dtype != DType::kInt8Q) {
    throw std::invalid_argument(std::string(op) +
                                ": feature_dtype must be f16/f32/i8q");
  }
}

/// Gather rows `ids` of `store` (and their sidecars) into pooled buffers.
void gather_wire_rows(const WireStore& store, std::span<const NodeId> ids,
                      PinnedPool& pool, PreparedBatch& batch) {
  const auto n = static_cast<std::int64_t>(ids.size());
  batch.x = pool.acquire({n, store.rows.size(1)}, store.dtype());
  slice_rows_serial(store.rows, ids, batch.x);
  if (store.scale.defined()) {
    batch.x_scale = pool.acquire({n}, DType::kF32);
    batch.x_zero = pool.acquire({n}, DType::kF32);
    slice_rows_serial(store.scale, ids, batch.x_scale);
    slice_rows_serial(store.zero, ids, batch.x_zero);
  }
}

}  // namespace

std::shared_ptr<const WireStore> make_wire_store(const Tensor& features,
                                                 DType wire_dtype) {
  check_wire_dtype(wire_dtype, "make_wire_store");
  auto store = std::make_shared<WireStore>();
  if (wire_dtype == features.dtype()) {
    store->rows = features;
    return store;
  }
  SALIENT_TRACE_SCOPE("prep.wire_store");
  const std::int64_t n = features.size(0);
  store->rows = Tensor({n, features.size(1)}, wire_dtype);
  if (wire_dtype == DType::kInt8Q) {
    store->scale = Tensor({n}, DType::kF32);
    store->zero = Tensor({n}, DType::kF32);
  }
  std::vector<NodeId> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), NodeId{0});
  slice_rows_to_wire(features, all, store->rows, store->scale, store->zero);
  return store;
}

std::shared_ptr<const WireStore> checked_store(
    std::shared_ptr<const WireStore> store, const Tensor& features,
    DType feature_dtype) {
  if (!store) return make_wire_store(features, feature_dtype);
  if (store->dtype() != feature_dtype) {
    throw std::invalid_argument(
        "loader: the wire store must be in config.feature_dtype");
  }
  return store;
}

PreparedBatch prepare_batch(FastSampler& sampler, const Dataset& dataset,
                            const WireStore& store,
                            std::span<const NodeId> seeds, std::uint64_t seed,
                            std::int64_t index, PinnedPool& pool,
                            const FeatureCache* cache) {
  PreparedBatch batch;
  batch.index = index;
  {
    SALIENT_TRACE_SCOPE_ARG("prep.sample", index);
    batch.mfg = sampler.sample(seeds, schedule_mix_seed(seed, index));
  }
  SALIENT_TRACE_SCOPE_ARG("prep.slice", index);
  if (cache != nullptr) {
    auto plan =
        std::make_shared<CachePlan>(plan_cached_batch(batch.mfg, *cache));
    gather_wire_rows(store, missing_node_ids(batch.mfg, *plan), pool, batch);
    batch.cache_plan = std::move(plan);
  } else {
    gather_wire_rows(store, batch.mfg.n_ids, pool, batch);
  }
  batch.y = pool.acquire({batch.mfg.batch_size}, DType::kI64);
  slice_labels(dataset.labels,
               {batch.mfg.n_ids.data(),
                static_cast<std::size_t>(batch.mfg.batch_size)},
               batch.y);
  return batch;
}

void stage_feature_rows(const Tensor& features, std::span<const NodeId> ids,
                        DType wire_dtype, PinnedPool& pool,
                        PreparedBatch& batch) {
  check_wire_dtype(wire_dtype, "stage_feature_rows");
  const auto n = static_cast<std::int64_t>(ids.size());
  batch.x = pool.acquire({n, features.size(1)}, wire_dtype);
  if (wire_dtype == DType::kInt8Q) {
    batch.x_scale = pool.acquire({n}, DType::kF32);
    batch.x_zero = pool.acquire({n}, DType::kF32);
  }
  slice_rows_to_wire(features, ids, batch.x, batch.x_scale, batch.x_zero);
}

void release_batch_buffers(PinnedPool& pool, PreparedBatch&& batch) {
  pool.release(std::move(batch.x));
  pool.release(std::move(batch.y));
  if (batch.x_scale.defined()) pool.release(std::move(batch.x_scale));
  if (batch.x_zero.defined()) pool.release(std::move(batch.x_zero));
}

std::vector<std::int64_t> serialize_mfg(const Mfg& mfg) {
  std::vector<std::int64_t> buf;
  std::size_t total = 3;  // num_levels, batch_size, n_ids size
  for (const auto& l : mfg.levels) {
    total += 4 + l.indptr->size() + l.indices->size();
  }
  total += mfg.n_ids.size();
  buf.reserve(total);

  buf.push_back(static_cast<std::int64_t>(mfg.levels.size()));
  buf.push_back(mfg.batch_size);
  buf.push_back(static_cast<std::int64_t>(mfg.n_ids.size()));
  for (const auto& l : mfg.levels) {
    buf.push_back(l.num_src);
    buf.push_back(l.num_dst);
    buf.push_back(static_cast<std::int64_t>(l.indptr->size()));
    buf.push_back(static_cast<std::int64_t>(l.indices->size()));
    buf.insert(buf.end(), l.indptr->begin(), l.indptr->end());
    buf.insert(buf.end(), l.indices->begin(), l.indices->end());
  }
  buf.insert(buf.end(), mfg.n_ids.begin(), mfg.n_ids.end());
  return buf;
}

Mfg deserialize_mfg(const std::vector<std::int64_t>& buf) {
  std::size_t pos = 0;
  auto take = [&](std::size_t n) {
    if (pos + n > buf.size()) {
      throw std::runtime_error("deserialize_mfg: truncated buffer");
    }
    const std::size_t p = pos;
    pos += n;
    return p;
  };
  Mfg mfg;
  const auto num_levels = static_cast<std::size_t>(buf[take(1)]);
  mfg.batch_size = buf[take(1)];
  const auto n_ids_size = static_cast<std::size_t>(buf[take(1)]);
  mfg.levels.reserve(num_levels);
  for (std::size_t i = 0; i < num_levels; ++i) {
    MfgLevel l;
    l.num_src = buf[take(1)];
    l.num_dst = buf[take(1)];
    const auto indptr_size = static_cast<std::size_t>(buf[take(1)]);
    const auto indices_size = static_cast<std::size_t>(buf[take(1)]);
    const std::size_t p1 = take(indptr_size);
    l.indptr = std::make_shared<std::vector<std::int64_t>>(
        buf.begin() + static_cast<std::ptrdiff_t>(p1),
        buf.begin() + static_cast<std::ptrdiff_t>(p1 + indptr_size));
    const std::size_t p2 = take(indices_size);
    l.indices = std::make_shared<std::vector<std::int64_t>>(
        buf.begin() + static_cast<std::ptrdiff_t>(p2),
        buf.begin() + static_cast<std::ptrdiff_t>(p2 + indices_size));
    mfg.levels.push_back(std::move(l));
  }
  const std::size_t p3 = take(n_ids_size);
  mfg.n_ids.assign(buf.begin() + static_cast<std::ptrdiff_t>(p3),
                   buf.begin() + static_cast<std::ptrdiff_t>(p3 + n_ids_size));
  return mfg;
}

}  // namespace salient
