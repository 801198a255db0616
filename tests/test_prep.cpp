// Batch-preparation tests: slicing kernels (serial == parallel == reference,
// f16 paths), pinned pool recycling, MFG serialization round trip, and both
// loaders delivering exactly the right batches with correct contents.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <numeric>
#include <set>

#include "graph/dataset.h"
#include "prep/baseline_loader.h"
#include "prep/batch.h"
#include "prep/feature_cache.h"
#include "prep/pinned_pool.h"
#include "prep/salient_loader.h"
#include "prep/slicing.h"
#include "sampling/distributed.h"
#include "sampling/fast_sampler.h"
#include "tensor/quantize.h"
#include "util/half.h"

namespace salient {
namespace {

Dataset& small_dataset() {
  static Dataset ds = [] {
    DatasetConfig c;
    c.name = "prep-test";
    c.num_nodes = 4000;
    c.feature_dim = 24;
    c.num_classes = 6;
    c.avg_degree = 8;
    c.seed = 77;
    return generate_dataset(c);
  }();
  return ds;
}

TEST(Slicing, SerialEqualsParallelEqualsReference) {
  const Dataset& ds = small_dataset();
  std::vector<NodeId> ids{5, 100, 7, 3999, 0, 100};  // repeats allowed
  Tensor serial({static_cast<std::int64_t>(ids.size()), ds.feature_dim},
                DType::kF16);
  Tensor parallel(serial.shape(), DType::kF16);
  slice_rows_serial(ds.features, ids, serial);
  ThreadPool pool(3);
  slice_rows_parallel(ds.features, ids, parallel, pool);
  EXPECT_TRUE(allclose(serial, parallel));
  for (std::size_t k = 0; k < ids.size(); ++k) {
    for (std::int64_t j = 0; j < ds.feature_dim; ++j) {
      ASSERT_EQ(serial.at<Half>(static_cast<std::int64_t>(k), j).bits,
                ds.features.at<Half>(ids[k], j).bits);
    }
  }
}

TEST(Slicing, ValidatesShapes) {
  const Dataset& ds = small_dataset();
  std::vector<NodeId> ids{1, 2};
  Tensor wrong({2, 3}, DType::kF16);
  EXPECT_THROW(slice_rows_serial(ds.features, ids, wrong),
               std::runtime_error);
  std::vector<NodeId> bad{999999};
  Tensor out({1, ds.feature_dim}, DType::kF16);
  EXPECT_THROW(slice_rows_serial(ds.features, bad, out), std::out_of_range);
}

TEST(Slicing, LabelsMatch) {
  const Dataset& ds = small_dataset();
  std::vector<NodeId> ids{10, 20, 30};
  Tensor out({3}, DType::kI64);
  slice_labels(ds.labels, ids, out);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(out.at<std::int64_t>(k), ds.labels.at<std::int64_t>(ids[k]));
  }
}

TEST(PinnedPool, RecyclesBuffers) {
  PinnedPool pool;
  Tensor a = pool.acquire({100, 8}, DType::kF32);
  EXPECT_TRUE(a.pinned());
  EXPECT_EQ(pool.alloc_count(), 1u);
  const void* ptr = a.raw();
  pool.release(std::move(a));
  EXPECT_EQ(pool.idle_count(), 1u);
  Tensor b = pool.acquire({99, 8}, DType::kF32);  // same 64KiB bucket
  EXPECT_EQ(b.raw(), ptr);  // recycled
  EXPECT_EQ(pool.alloc_count(), 1u);
  Tensor c = pool.acquire({100, 8}, DType::kF32);  // pool empty -> new alloc
  EXPECT_EQ(pool.alloc_count(), 2u);
  (void)c;
}

TEST(PinnedPool, IgnoresUnpinnedRelease) {
  PinnedPool pool;
  pool.release(Tensor({4}, DType::kF32, /*pinned=*/false));
  EXPECT_EQ(pool.idle_count(), 0u);
}

TEST(PinnedPool, HoldsNoMoreThanThePeakOfLiveBytes) {
  // Replays acquire/release sequences keeping `hold` buffers live (a
  // pipeline's in-flight batches). Whatever sizes a run meets, the pool
  // holds at most the most bytes that were live at once, counted in buffer
  // capacities, and best-fit reuse keeps allocations rare.
  auto replay = [](const std::vector<std::int64_t>& rows, std::size_t hold) {
    PinnedPool pool;
    std::deque<Tensor> live;
    std::size_t live_bytes = 0;
    std::size_t peak = 0;
    auto release_oldest = [&] {
      live_bytes -= live.front().storage()->nbytes();
      pool.release(std::move(live.front()));
      live.pop_front();
    };
    for (const std::int64_t r : rows) {
      live.push_back(pool.acquire({r, 100}, DType::kF16));
      live_bytes += live.back().storage()->nbytes();
      peak = std::max(peak, live_bytes);
      if (live.size() > hold) release_oldest();
      EXPECT_LE(pool.allocated_bytes(), peak) << "after " << r << " rows";
    }
    while (!live.empty()) release_oldest();
    EXPECT_LE(pool.allocated_bytes(), peak);
    return pool.alloc_count();
  };
  // Fluctuating: 10k-24k rows per request, like a cluster node's staging.
  std::vector<std::int64_t> fluctuating;
  for (std::int64_t i = 0; i < 300; ++i) {
    fluctuating.push_back(10000 + (i * 7919) % 14000);
  }
  EXPECT_LT(replay(fluctuating, 3), fluctuating.size() / 4);
  // Ascending: every request outgrows every idle buffer.
  std::vector<std::int64_t> ascending;
  for (std::int64_t i = 1; i <= 60; ++i) ascending.push_back(700 * i);
  replay(ascending, 2);
}

TEST(MfgSerialization, RoundTripsExactly) {
  const Dataset& ds = small_dataset();
  FastSampler sampler(ds.graph, {5, 3});
  std::vector<NodeId> batch{1, 2, 3, 4, 5, 6, 7, 8};
  Mfg mfg = sampler.sample(batch, 9);
  auto blob = serialize_mfg(mfg);
  Mfg copy = deserialize_mfg(blob);
  EXPECT_TRUE(copy.valid());
  EXPECT_EQ(copy.batch_size, mfg.batch_size);
  EXPECT_EQ(copy.n_ids, mfg.n_ids);
  ASSERT_EQ(copy.levels.size(), mfg.levels.size());
  for (std::size_t i = 0; i < mfg.levels.size(); ++i) {
    EXPECT_EQ(copy.levels[i].num_src, mfg.levels[i].num_src);
    EXPECT_EQ(copy.levels[i].num_dst, mfg.levels[i].num_dst);
    EXPECT_EQ(*copy.levels[i].indptr, *mfg.levels[i].indptr);
    EXPECT_EQ(*copy.levels[i].indices, *mfg.levels[i].indices);
  }
  // truncation is detected
  blob.resize(blob.size() / 2);
  EXPECT_THROW(deserialize_mfg(blob), std::runtime_error);
}

/// Shared loader validation: all batches delivered exactly once, contents
/// (MFG, features, labels) match an independent re-computation.
template <class Loader>
void check_loader(int num_workers, bool expect_ordered) {
  const Dataset& ds = small_dataset();
  LoaderConfig cfg;
  cfg.batch_size = 128;
  cfg.fanouts = {4, 3};
  cfg.num_workers = num_workers;
  cfg.seed = 99;
  cfg.shuffle = true;
  Loader loader(ds, ds.train_idx, cfg);

  const auto expected_batches = static_cast<std::int64_t>(
      (ds.train_idx.size() + 127) / 128);
  EXPECT_EQ(loader.num_batches(), expected_batches);

  std::set<std::int64_t> seen;
  std::int64_t last = -1;
  std::int64_t total_nodes = 0;
  while (auto batch = loader.next()) {
    ASSERT_TRUE(batch->mfg.valid());
    ASSERT_TRUE(seen.insert(batch->index).second) << "duplicate batch";
    if (expect_ordered) {
      ASSERT_EQ(batch->index, last + 1);
      last = batch->index;
    }
    // features were sliced from the right rows
    ASSERT_EQ(batch->x.size(0), batch->mfg.num_input_nodes());
    ASSERT_EQ(batch->x.size(1), ds.feature_dim);
    for (std::int64_t k = 0; k < std::min<std::int64_t>(5, batch->x.size(0));
         ++k) {
      const NodeId src = batch->mfg.n_ids[static_cast<std::size_t>(k)];
      for (std::int64_t j = 0; j < ds.feature_dim; ++j) {
        ASSERT_EQ(batch->x.template at<Half>(k, j).bits,
                  ds.features.at<Half>(src, j).bits);
      }
    }
    // labels match the batch nodes
    ASSERT_EQ(batch->y.size(0), batch->mfg.batch_size);
    for (std::int64_t k = 0; k < batch->y.size(0); ++k) {
      const NodeId v = batch->mfg.n_ids[static_cast<std::size_t>(k)];
      ASSERT_EQ(batch->y.template at<std::int64_t>(k), ds.labels.at<std::int64_t>(v));
    }
    total_nodes += batch->mfg.batch_size;
    loader.recycle(std::move(*batch));
  }
  EXPECT_EQ(static_cast<std::size_t>(total_nodes), ds.train_idx.size());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(expected_batches));
}

TEST(SalientLoader, DeliversAllBatchesOneWorker) {
  check_loader<SalientLoader>(1, /*expect_ordered=*/true);
}

TEST(SalientLoader, DeliversAllBatchesManyWorkers) {
  check_loader<SalientLoader>(4, /*expect_ordered=*/false);
}

TEST(BaselineLoader, DeliversAllBatchesInOrder) {
  check_loader<BaselineLoader>(1, /*expect_ordered=*/true);
  check_loader<BaselineLoader>(3, /*expect_ordered=*/true);
}

TEST(Loaders, SameSeedSameBatchesAcrossImplementations) {
  // With per-batch seeding, the set of batch node lists must be identical
  // across loaders and worker counts (sampling differs: different sampler
  // RNG types — but node partitioning must match exactly).
  const Dataset& ds = small_dataset();
  LoaderConfig cfg;
  cfg.batch_size = 256;
  cfg.fanouts = {3};
  cfg.seed = 123;
  cfg.num_workers = 2;

  auto collect = [&](auto& loader) {
    std::map<std::int64_t, std::vector<NodeId>> by_index;
    while (auto b = loader.next()) {
      std::vector<NodeId> nodes(
          b->mfg.n_ids.begin(),
          b->mfg.n_ids.begin() + b->mfg.batch_size);
      by_index[b->index] = std::move(nodes);
      loader.recycle(std::move(*b));
    }
    return by_index;
  };
  SalientLoader s1(ds, ds.train_idx, cfg);
  auto a = collect(s1);
  BaselineLoader b1(ds, ds.train_idx, cfg);
  auto b = collect(b1);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [idx, nodes] : a) {
    ASSERT_EQ(nodes, b.at(idx)) << "batch " << idx;
  }
}

TEST(SalientLoader, EarlyDestructionDoesNotDeadlock) {
  const Dataset& ds = small_dataset();
  LoaderConfig cfg;
  cfg.batch_size = 64;
  cfg.fanouts = {4, 4};
  cfg.num_workers = 2;
  cfg.queue_capacity = 2;
  {
    SalientLoader loader(ds, ds.train_idx, cfg);
    auto b = loader.next();  // consume one, then abandon the epoch
    ASSERT_TRUE(b.has_value());
  }  // destructor must join workers without hanging
  SUCCEED();
}

TEST(SalientLoader, SharedPoolIsReusedAcrossEpochs) {
  const Dataset& ds = small_dataset();
  auto pool = std::make_shared<PinnedPool>();
  LoaderConfig cfg;
  cfg.batch_size = 512;
  cfg.fanouts = {4};
  for (int epoch = 0; epoch < 3; ++epoch) {
    cfg.seed = 100 + static_cast<unsigned>(epoch);
    SalientLoader loader(ds, ds.train_idx, cfg, pool);
    while (auto b = loader.next()) loader.recycle(std::move(*b));
  }
  // second and third epochs should have mostly recycled buffers
  EXPECT_LT(pool->alloc_count(), 3u * 4u);
  EXPECT_GT(pool->idle_count(), 0u);
}

// --- device feature cache + cache-aware transfer plans ----------------------

Mfg cache_test_mfg(std::uint64_t seed = 5) {
  const Dataset& ds = small_dataset();
  std::vector<NodeId> batch;
  for (NodeId v = 0; v < 96; ++v) {
    batch.push_back((v * 37) % ds.graph.num_nodes());
  }
  FastSampler sampler(ds.graph, {6, 4});
  return sampler.sample(batch, seed);
}

TEST(FeatureCache, CapacityZeroAlwaysMisses) {
  const Dataset& ds = small_dataset();
  const FeatureCache cache(ds, 0);
  const Mfg mfg = cache_test_mfg();
  const CachePlan plan = plan_cached_batch(mfg, cache);
  const auto n = static_cast<std::int64_t>(mfg.n_ids.size());
  ASSERT_EQ(static_cast<std::int64_t>(plan.from_cache.size()), n);
  EXPECT_EQ(plan.num_missing, n);
  EXPECT_DOUBLE_EQ(plan.hit_rate(), 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_FALSE(plan.from_cache[static_cast<std::size_t>(i)]);
    // Missing rows are numbered densely in input order.
    EXPECT_EQ(plan.source[static_cast<std::size_t>(i)], i);
  }
}

TEST(FeatureCache, FullCapacityAlwaysHits) {
  const Dataset& ds = small_dataset();
  const FeatureCache cache(ds, ds.graph.num_nodes());
  const Mfg mfg = cache_test_mfg();
  const CachePlan plan = plan_cached_batch(mfg, cache);
  EXPECT_EQ(plan.num_missing, 0);
  EXPECT_DOUBLE_EQ(plan.hit_rate(), 1.0);
  for (std::size_t i = 0; i < mfg.n_ids.size(); ++i) {
    ASSERT_TRUE(plan.from_cache[i]);
    EXPECT_EQ(plan.source[i], cache.slot_of(mfg.n_ids[i]));
  }
}

TEST(FeatureCache, HitRateIsMonotoneInCapacity) {
  // The cache is degree-ordered and static, so a larger capacity caches a
  // superset of nodes: the hit rate on any fixed batch cannot decrease.
  const Dataset& ds = small_dataset();
  const Mfg mfg = cache_test_mfg();
  double prev = -1.0;
  for (const std::int64_t capacity : {0, 100, 500, 2000, 4000}) {
    const FeatureCache cache(ds, capacity);
    const double rate = plan_cached_batch(mfg, cache).hit_rate();
    EXPECT_GE(rate, prev) << "capacity " << capacity;
    prev = rate;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);  // capacity == |V| caches everything
}

TEST(FeatureCache, SliceMissingRowsMatchesNaiveSlice) {
  const Dataset& ds = small_dataset();
  const FeatureCache cache(ds, 700);
  const Mfg mfg = cache_test_mfg();
  const CachePlan plan = plan_cached_batch(mfg, cache);
  ASSERT_GT(plan.num_missing, 0);
  ASSERT_LT(plan.num_missing, static_cast<std::int64_t>(mfg.n_ids.size()));

  Tensor out({plan.num_missing, ds.feature_dim}, DType::kF16);
  slice_rows_serial(ds.features, missing_node_ids(mfg, plan), out);
  for (std::size_t i = 0; i < mfg.n_ids.size(); ++i) {
    if (plan.from_cache[i]) continue;
    const std::int64_t row = plan.source[i];
    for (std::int64_t j = 0; j < ds.feature_dim; ++j) {
      ASSERT_EQ(out.at<Half>(row, j).bits,
                ds.features.at<Half>(mfg.n_ids[i], j).bits)
          << "missing row " << row << " col " << j;
    }
  }
}

// --- prepare_batch -----------------------------------------------------------

/// Same definedness, dtype, shape and bytes.
void expect_same_tensor(const Tensor& got, const Tensor& want,
                        const char* what) {
  ASSERT_EQ(got.defined(), want.defined()) << what;
  if (!want.defined()) return;
  ASSERT_EQ(got.dtype(), want.dtype()) << what;
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.raw(), want.raw(), want.nbytes()), 0) << what;
}

/// prepare_batch, gathering from the wire store, against the calls
/// bench/e2e's traced replay makes in turn: sample -> plan_cached_batch ->
/// missing_node_ids -> stage_feature_rows -> slice_labels, over `ds`'s
/// feature store for every wire dtype and cache kind.
void expect_prepare_batch_equals_steps(const Dataset& ds) {
  const std::vector<std::int64_t> fanouts{6, 4};
  constexpr std::uint64_t kSeed = 99;
  auto make_cache = [&](int kind) -> std::unique_ptr<FeatureCache> {
    if (kind == 0) return nullptr;
    CachePolicyConfig c;
    c.kind = kind == 1 ? CachePolicyKind::kDegree : CachePolicyKind::kLru;
    return std::make_unique<FeatureCache>(ds, 400, c);
  };
  for (const DType wire : {DType::kF16, DType::kF32, DType::kInt8Q}) {
    for (const int kind : {0, 1, 2}) {  // no cache, degree, LRU
      SCOPED_TRACE(std::string(dtype_name(wire)) + " cache kind " +
                   std::to_string(kind));
      const auto store = make_wire_store(ds.features, wire);
      // Two identical caches: an LRU plan mutates the cache it plans against.
      const auto cache_got = make_cache(kind);
      const auto cache_want = make_cache(kind);
      FastSampler sampler_got(ds.graph, fanouts);
      FastSampler sampler_want(ds.graph, fanouts);
      PinnedPool pool;
      bool saw_hits = false;
      for (std::int64_t index = 0; index < 4; ++index) {
        const std::span<const NodeId> seeds(ds.train_idx.data() + index * 64,
                                            64);
        PreparedBatch got = prepare_batch(sampler_got, ds, *store, seeds,
                                          kSeed, index, pool, cache_got.get());

        PreparedBatch want;
        want.index = index;
        want.mfg = sampler_want.sample(seeds, schedule_mix_seed(kSeed, index));
        if (cache_want) {
          auto plan = std::make_shared<CachePlan>(
              plan_cached_batch(want.mfg, *cache_want));
          stage_feature_rows(ds.features, missing_node_ids(want.mfg, *plan),
                             wire, pool, want);
          want.cache_plan = std::move(plan);
        } else {
          stage_feature_rows(ds.features, want.mfg.n_ids, wire, pool, want);
        }
        want.y = pool.acquire({want.mfg.batch_size}, DType::kI64);
        slice_labels(ds.labels,
                     {want.mfg.n_ids.data(),
                      static_cast<std::size_t>(want.mfg.batch_size)},
                     want.y);

        EXPECT_EQ(got.index, want.index);
        EXPECT_EQ(serialize_mfg(got.mfg), serialize_mfg(want.mfg));
        expect_same_tensor(got.x, want.x, "x");
        expect_same_tensor(got.x_scale, want.x_scale, "x_scale");
        expect_same_tensor(got.x_zero, want.x_zero, "x_zero");
        expect_same_tensor(got.y, want.y, "y");
        ASSERT_EQ(got.cache_plan != nullptr, want.cache_plan != nullptr);
        if (want.cache_plan) {
          EXPECT_EQ(got.cache_plan->from_cache, want.cache_plan->from_cache);
          EXPECT_EQ(got.cache_plan->source, want.cache_plan->source);
          EXPECT_EQ(got.cache_plan->num_missing,
                    want.cache_plan->num_missing);
          expect_same_tensor(got.cache_plan->hit_rows,
                             want.cache_plan->hit_rows, "hit_rows");
          saw_hits |= want.cache_plan->hit_rate() > 0;
        }
        release_batch_buffers(pool, std::move(got));
        release_batch_buffers(pool, std::move(want));
      }
      EXPECT_EQ(saw_hits, kind != 0);
    }
  }
}

TEST(PrepareBatch, EqualsTheStepsCalledOneByOne) {
  {
    SCOPED_TRACE("f16 feature store");
    expect_prepare_batch_equals_steps(small_dataset());
  }
  SCOPED_TRACE("f32 feature store");
  Dataset f32_features = small_dataset();
  f32_features.features = f32_features.features.to(DType::kF32);
  expect_prepare_batch_equals_steps(f32_features);
}

// --- wire feature formats (stage_feature_rows) -------------------------------

TEST(FeatureWire, StagesEachWireDtypeCorrectly) {
  const Dataset& ds = small_dataset();  // f16 feature store
  const std::vector<NodeId> ids{5, 100, 7, 3999, 0, 100};
  const std::int64_t n = static_cast<std::int64_t>(ids.size());
  PinnedPool pool;

  // Same-dtype wire: bitwise equal to a plain slice.
  {
    PreparedBatch b;
    stage_feature_rows(ds.features, ids, DType::kF16, pool, b);
    Tensor want({n, ds.feature_dim}, DType::kF16);
    slice_rows_serial(ds.features, ids, want);
    ASSERT_EQ(b.x.dtype(), DType::kF16);
    EXPECT_EQ(std::memcmp(b.x.raw(), want.raw(), want.nbytes()), 0);
    EXPECT_FALSE(b.x_scale.defined());
    release_batch_buffers(pool, std::move(b));
  }
  // Decompressed f32 wire: every element equals the f16 store value.
  {
    PreparedBatch b;
    stage_feature_rows(ds.features, ids, DType::kF32, pool, b);
    ASSERT_EQ(b.x.dtype(), DType::kF32);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < ds.feature_dim; ++j) {
        ASSERT_EQ(b.x.at<float>(i, j),
                  half_to_float(ds.features.at<Half>(ids[i], j)))
            << "row " << i << " col " << j;
      }
    }
    release_batch_buffers(pool, std::move(b));
  }
  // Quantized wire: dequantizes back within the per-row affine bound.
  {
    PreparedBatch b;
    stage_feature_rows(ds.features, ids, DType::kInt8Q, pool, b);
    ASSERT_EQ(b.x.dtype(), DType::kInt8Q);
    ASSERT_TRUE(b.x_scale.defined());
    ASSERT_TRUE(b.x_zero.defined());
    const Tensor back = ops::dequantize_rows(b.x, b.x_scale, b.x_zero);
    for (std::int64_t i = 0; i < n; ++i) {
      const float bound = b.x_scale.at<float>(i) * 0.5f + 1e-6f;
      for (std::int64_t j = 0; j < ds.feature_dim; ++j) {
        ASSERT_NEAR(back.at<float>(i, j),
                    half_to_float(ds.features.at<Half>(ids[i], j)), bound)
            << "row " << i << " col " << j;
      }
    }
    release_batch_buffers(pool, std::move(b));
  }
}

TEST(FeatureWire, CompressionCutsFeatureBytes) {
  // The acceptance numbers of the compressed-transport work: relative to the
  // f32 wire, f16 halves the staged feature bytes (>= 1.9x) and int8q cuts
  // them ~4x (>= 3.4x with the per-row scale/zero sidecars included).
  Tensor features = Tensor::uniform({512, 128}, 5, -1, 1);
  std::vector<NodeId> ids(256);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  PinnedPool pool;
  auto bytes_for = [&](DType wire) {
    PreparedBatch b;
    stage_feature_rows(features, ids, wire, pool, b);
    const std::size_t fb = b.feature_bytes();
    release_batch_buffers(pool, std::move(b));
    return fb;
  };
  const auto f32 = static_cast<double>(bytes_for(DType::kF32));
  const auto f16 = static_cast<double>(bytes_for(DType::kF16));
  const auto i8 = static_cast<double>(bytes_for(DType::kInt8Q));
  EXPECT_GE(f32 / f16, 1.9);
  EXPECT_GE(f32 / i8, 3.4);
}

TEST(FeatureWire, ReleaseReturnsQuantizationSidecarsToPool) {
  Tensor features = Tensor::uniform({64, 16}, 6, -1, 1);
  std::vector<NodeId> ids(32);
  std::iota(ids.begin(), ids.end(), NodeId{0});
  PinnedPool pool;
  PreparedBatch b;
  stage_feature_rows(features, ids, DType::kInt8Q, pool, b);
  EXPECT_EQ(pool.idle_count(), 0u);
  release_batch_buffers(pool, std::move(b));
  // x + scale + zero all return (y was never staged here).
  EXPECT_EQ(pool.idle_count(), 3u);
}

}  // namespace
}  // namespace salient
