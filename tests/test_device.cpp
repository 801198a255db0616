// Device-simulator tests: stream FIFO ordering, event semantics,
// cross-stream synchronization, DMA data integrity + bandwidth modelling,
// full PreparedBatch transfer correctness (f16 -> f32 conversion), and the
// wire -> f32 feature assembly against the convert-then-scatter it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "device/device_sim.h"
#include "util/timer.h"
#include "device/dma.h"
#include "device/stream.h"
#include "graph/dataset.h"
#include "obs/metrics.h"
#include "prep/pinned_pool.h"
#include "prep/slicing.h"
#include "sampling/fast_sampler.h"
#include "tensor/kernel_config.h"
#include "tensor/quantize.h"
#include "util/half.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace salient {
namespace {

TEST(Stream, ExecutesInFifoOrder) {
  Stream s("t");
  std::vector<int> order;
  std::mutex mu;
  for (int i = 0; i < 100; ++i) {
    s.enqueue([&, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  s.synchronize();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Stream, SynchronizeWaitsForEnqueuedWork) {
  Stream s("t");
  std::atomic<bool> done{false};
  s.enqueue([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    done = true;
  });
  s.synchronize();
  EXPECT_TRUE(done.load());
  EXPECT_GT(s.busy_seconds(), 0.0);
}

TEST(Event, QueryAndSynchronize) {
  Stream s("t");
  std::atomic<bool> gate{false};
  s.enqueue([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  Event e = s.record();
  EXPECT_FALSE(e.query());
  gate = true;
  e.synchronize();
  EXPECT_TRUE(e.query());
}

TEST(Stream, CrossStreamWaitOrdersWork) {
  // compute must not run its kernel until copy's event fired.
  Stream copy("copy"), compute("compute");
  std::atomic<int> stage{0};
  copy.enqueue([&stage] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stage = 1;
  });
  Event copied = copy.record();
  compute.wait(copied);
  int observed = -1;
  compute.enqueue([&stage, &observed] { observed = stage.load(); });
  compute.synchronize();
  EXPECT_EQ(observed, 1);
}

TEST(Dma, CopiesBytesAndTracksThroughput) {
  DmaConfig cfg;
  cfg.bandwidth_gb_per_s = 1.0;  // 1 GB/s so timing is observable
  cfg.latency_us = 0;
  std::vector<char> src(1 << 20, 'x');
  std::vector<char> dst(1 << 20, 0);
  {
    DmaEngine dma(cfg);
    WallTimer t;
    dma.copy(dst.data(), src.data(), src.size(), /*pinned=*/true);
    // 1MB at 1GB/s: ~1ms minimum (oversleep only makes this larger)
    EXPECT_GE(t.seconds(), 0.0009);
    EXPECT_EQ(dst, src);
    EXPECT_EQ(dma.bytes_transferred(), src.size());
  }
  // The achieved-throughput accounting is wall-clock sensitive: a loaded
  // machine can oversleep the modelled wait by milliseconds. Take the best
  // of a few fresh-engine trials before judging the model.
  double best = 0;
  for (int trial = 0; trial < 5 && std::abs(best - 1.0) > 0.35; ++trial) {
    DmaEngine dma(cfg);
    dma.copy(dst.data(), src.data(), src.size(), /*pinned=*/true);
    if (std::abs(dma.achieved_gb_per_s() - 1.0) < std::abs(best - 1.0)) {
      best = dma.achieved_gb_per_s();
    }
  }
  EXPECT_NEAR(best, 1.0, 0.35);
}

TEST(Dma, PageablePenaltySlowsTransfer) {
  DmaConfig cfg;
  // 4 ms pinned, 8 ms pageable per MiB: the modelled time, not the real
  // memcpy inside it (slower under ThreadSanitizer), sets each copy's time.
  cfg.bandwidth_gb_per_s = 0.25;
  cfg.pageable_fraction = 0.5;
  cfg.latency_us = 0;
  DmaEngine dma(cfg);
  std::vector<char> buf(1 << 20), out(1 << 20);
  // Each copy's wall time is model time + scheduler noise (the modelled wait
  // can oversleep by milliseconds on a loaded core). min-of-N approximates
  // the model, making the pinned/pageable ratio robust to that noise.
  double pinned_s = 1e9, pageable_s = 1e9;
  for (int trial = 0; trial < 5; ++trial) {
    WallTimer t;
    dma.copy(out.data(), buf.data(), buf.size(), /*pinned=*/true);
    pinned_s = std::min(pinned_s, t.seconds());
    t.reset();
    dma.copy(out.data(), buf.data(), buf.size(), /*pinned=*/false);
    pageable_s = std::min(pageable_s, t.seconds());
  }
  EXPECT_GT(pageable_s, pinned_s * 1.5);
}

TEST(Dma, RoundTripCostsModelledTime) {
  DmaConfig cfg;
  cfg.round_trip_us = 500;
  DmaEngine dma(cfg);
  WallTimer t;
  dma.round_trip();
  EXPECT_GE(t.seconds(), 450e-6);
}

Dataset& dev_dataset() {
  static Dataset ds = [] {
    DatasetConfig c;
    c.name = "device-test";
    c.num_nodes = 2000;
    c.feature_dim = 16;
    c.num_classes = 4;
    c.avg_degree = 6;
    c.seed = 5;
    return generate_dataset(c);
  }();
  return ds;
}

PreparedBatch make_batch(const Dataset& ds) {
  FastSampler sampler(ds.graph, {4, 3});
  std::vector<NodeId> nodes{1, 3, 5, 7, 9, 11, 13, 15};
  PreparedBatch b;
  b.index = 0;
  b.mfg = sampler.sample(nodes, 77);
  b.x = Tensor({b.mfg.num_input_nodes(), ds.feature_dim}, DType::kF16,
               /*pinned=*/true);
  slice_rows_serial(ds.features, b.mfg.n_ids, b.x);
  b.y = Tensor({b.mfg.batch_size}, DType::kI64, /*pinned=*/true);
  slice_labels(ds.labels,
               {b.mfg.n_ids.data(), static_cast<std::size_t>(b.mfg.batch_size)},
               b.y);
  return b;
}

TEST(DeviceSim, BlockingTransferDeliversExactData) {
  const Dataset& ds = dev_dataset();
  PreparedBatch batch = make_batch(ds);
  DeviceConfig cfg;
  cfg.dma.bandwidth_gb_per_s = 50.0;  // fast for tests
  DeviceSim dev(cfg);
  DeviceBatch d = dev.transfer_batch(batch, /*blocking=*/true, nullptr);

  // adjacency arrays copied exactly
  ASSERT_EQ(d.mfg.levels.size(), batch.mfg.levels.size());
  for (std::size_t i = 0; i < d.mfg.levels.size(); ++i) {
    EXPECT_EQ(*d.mfg.levels[i].indptr, *batch.mfg.levels[i].indptr);
    EXPECT_EQ(*d.mfg.levels[i].indices, *batch.mfg.levels[i].indices);
  }
  // features converted to f32 on the compute stream
  ASSERT_EQ(d.x_f32.dtype(), DType::kF32);
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < ds.feature_dim; ++j) {
      EXPECT_FLOAT_EQ(d.x_f32.at<float>(i, j),
                      half_to_float(batch.x.at<Half>(i, j)));
    }
  }
  // labels copied
  EXPECT_TRUE(allclose(d.y, batch.y.clone()));
  EXPECT_GT(dev.dma().bytes_transferred(), 0u);
}

TEST(DeviceSim, NonBlockingTransferSignalsReadyEvent) {
  const Dataset& ds = dev_dataset();
  PreparedBatch batch = make_batch(ds);
  DeviceSim dev;
  Event ready;
  DeviceBatch d = dev.transfer_batch(batch, /*blocking=*/false, &ready);
  ready.synchronize();
  EXPECT_EQ(*d.mfg.levels[0].indices, *batch.mfg.levels[0].indices);
  EXPECT_EQ(d.x_f32.size(0), batch.x.size(0));
}

TEST(DeviceSim, ValidationModeRunsRoundTrips) {
  // Validation mode adds one blocking round trip per MFG level, each of
  // which waits out round_trip_us on the engine's clock; without it there
  // are none. Counted, not raced against a second wall-clock transfer.
  const Dataset& ds = dev_dataset();
  PreparedBatch batch = make_batch(ds);
  const auto levels = static_cast<std::int64_t>(batch.mfg.levels.size());
  ASSERT_GT(levels, 0);
  DeviceConfig with, without;
  with.validate_sparse_after_transfer = true;
  with.dma.round_trip_us = 1000;
  without.validate_sparse_after_transfer = false;
  without.dma.round_trip_us = 1000;
  obs::Counter& round_trips =
      obs::Registry::global().counter("dma.round_trips");

  DeviceSim dev_with(with), dev_without(without);
  const std::int64_t before = round_trips.value();
  dev_with.transfer_batch(batch, true, nullptr);
  EXPECT_EQ(round_trips.value() - before, levels);
  EXPECT_GE(dev_with.dma().busy_seconds(),
            static_cast<double>(levels) * with.dma.round_trip_us * 1e-6);

  const std::int64_t between = round_trips.value();
  dev_without.transfer_batch(batch, true, nullptr);
  EXPECT_EQ(round_trips.value(), between);
}

TEST(DeviceSim, PipelinedTransfersOverlapWithCompute) {
  // Enqueue a long compute kernel, then a transfer; with separate streams
  // the transfer must complete well before the kernel finishes.
  DeviceSim dev;
  std::atomic<bool> kernel_done{false};
  dev.compute_stream().enqueue([&kernel_done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    kernel_done = true;
  });
  std::atomic<bool> copy_done{false};
  dev.copy_stream().enqueue([&copy_done] { copy_done = true; });
  Event e = dev.copy_stream().record();
  e.synchronize();
  EXPECT_TRUE(copy_done.load());
  EXPECT_FALSE(kernel_done.load());  // compute still busy: overlap achieved
  dev.compute_stream().synchronize();
}

// --- wire -> f32 feature assembly --------------------------------------------

/// Reference assembly: convert every transferred wire row to an f32
/// temporary first, then scatter the cache hits and the converted misses
/// by the plan.
Tensor convert_then_scatter(const PreparedBatch& b, const CachePlan* plan,
                            const Tensor& cache_rows) {
  const std::int64_t f = b.x.size(1);
  Tensor wire_f32(b.x.shape(), DType::kF32);
  switch (b.x.dtype()) {
    case DType::kF16:
      half_to_float_n(b.x.data<Half>(), wire_f32.data<float>(),
                      static_cast<std::size_t>(b.x.numel()));
      break;
    case DType::kF32:
      std::memcpy(wire_f32.raw(), b.x.raw(), b.x.nbytes());
      break;
    default:
      for (std::int64_t i = 0; i < b.x.size(0); ++i) {
        ops::dequantize_row(b.x.data<std::int8_t>() + i * f, f,
                            b.x_scale.data<float>()[i],
                            b.x_zero.data<float>()[i],
                            wire_f32.data<float>() + i * f);
      }
  }
  if (plan == nullptr) return wire_f32;
  const Tensor& hits =
      plan->hit_rows.defined() ? plan->hit_rows : cache_rows;
  const auto n = static_cast<std::int64_t>(plan->from_cache.size());
  Tensor out({n, f}, DType::kF32);
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const Tensor& src = plan->from_cache[idx] ? hits : wire_f32;
    std::memcpy(out.data<float>() + i * f,
                src.data<float>() + plan->source[idx] * f,
                static_cast<std::size_t>(f) * sizeof(float));
  }
  return out;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want,
                          const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.raw(), want.raw(), want.nbytes()), 0) << what;
}

TEST(AssembleFeatures, BitwiseEqualsConvertThenScatter) {
  const Dataset& ds = dev_dataset();
  FastSampler sampler(ds.graph, {4, 3});
  std::vector<NodeId> seeds(ds.train_idx.begin(), ds.train_idx.begin() + 64);
  const Mfg mfg = sampler.sample(seeds, 21);
  const auto all = ds.graph.num_nodes();
  CachePolicyConfig lru;
  lru.kind = CachePolicyKind::kLru;
  struct Case {
    const char* name;
    std::shared_ptr<FeatureCache> cache;  // null: no plan
  };
  PinnedPool pool;
  DeviceSim dev;
  for (const DType wire : {DType::kF16, DType::kF32, DType::kInt8Q}) {
    // Fresh caches per wire: planning admits into the LRU cache.
    const std::vector<Case> cases{
        {"no plan", nullptr},
        {"static, mixed", std::make_shared<FeatureCache>(ds, 300)},
        {"dynamic, mixed", std::make_shared<FeatureCache>(ds, all, lru)},
        {"all hits", std::make_shared<FeatureCache>(ds, all)},
        {"all misses", std::make_shared<FeatureCache>(ds, 0)},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(dtype_name(wire)) + ", " + c.name);
      std::shared_ptr<const CachePlan> plan;
      if (c.cache) {
        if (c.cache->dynamic_policy()) {
          // Admit half the input set first, so the plan mixes snapshot hits
          // with misses.
          Mfg warm;
          warm.n_ids.assign(mfg.n_ids.begin(),
                            mfg.n_ids.begin() + static_cast<std::ptrdiff_t>(
                                                    mfg.n_ids.size() / 2));
          (void)plan_cached_batch(warm, *c.cache);
        }
        plan = std::make_shared<CachePlan>(plan_cached_batch(mfg, *c.cache));
      }
      PreparedBatch b;
      b.mfg = mfg;
      stage_feature_rows(ds.features,
                         plan ? missing_node_ids(mfg, *plan) : mfg.n_ids,
                         wire, pool, b);
      b.y = pool.acquire({mfg.batch_size}, DType::kI64);
      slice_labels(ds.labels,
                   {mfg.n_ids.data(), static_cast<std::size_t>(mfg.batch_size)},
                   b.y);
      const Tensor cache_rows = c.cache ? c.cache->features() : Tensor();
      const Tensor want = convert_then_scatter(b, plan.get(), cache_rows);

      Tensor direct(want.shape(), DType::kF32);
      assemble_features(b.x, b.x_scale, b.x_zero, plan.get(), cache_rows,
                        direct);
      expect_bitwise_equal(direct, want, "assemble_features");
      const DeviceBatch d =
          plan ? dev.transfer_batch_cached(b, *plan, *c.cache, true, nullptr)
               : dev.transfer_batch(b, true, nullptr);
      expect_bitwise_equal(d.x_f32, want, "device transfer");
      if (plan && std::string(c.name) == "all hits") {
        EXPECT_EQ(plan->num_missing, 0);
      } else if (plan && std::string(c.name) == "all misses") {
        EXPECT_EQ(plan->num_missing, static_cast<std::int64_t>(
                                         mfg.n_ids.size()));
      } else if (plan) {
        EXPECT_GT(plan->num_missing, 0);
        EXPECT_GT(plan->hit_rate(), 0.0);
      }
      release_batch_buffers(pool, std::move(b));
    }
  }

  // Plans above the memory-bound grain (2^24 elements), where assembly may
  // split its rows across the kernel pool (four workers here, whatever the
  // host): a static plan reading the cache's resident rows and a dynamic
  // one reading its hit-row snapshot, a third of the rows missing.
  constexpr std::int64_t kF = 16;
  const std::int64_t n = ops::kMemoryBoundGrain / kF + 333;
  const Tensor store = Tensor::uniform({4096, kF}, 31, -2, 2);
  const Tensor resident = Tensor::uniform({500, kF}, 32, -2, 2);
  ThreadPool kernels(4);
  ops::set_kernel_pool(&kernels);
  for (const bool dynamic : {false, true}) {
    CachePlan plan;
    std::vector<NodeId> missing;
    Xoshiro256ss rng(dynamic ? 41 : 42);
    std::int64_t hits = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const bool hit = bounded_rand(rng, 3) != 0;
      plan.from_cache.push_back(hit ? 1 : 0);
      if (hit) {
        plan.source.push_back(
            dynamic ? hits : static_cast<std::int64_t>(bounded_rand(rng, 500)));
        ++hits;
      } else {
        plan.source.push_back(plan.num_missing++);
        missing.push_back(static_cast<NodeId>(bounded_rand(rng, 4096)));
      }
    }
    if (dynamic) plan.hit_rows = Tensor::uniform({hits, kF}, 33, -2, 2);
    for (const DType wire : {DType::kF16, DType::kF32, DType::kInt8Q}) {
      SCOPED_TRACE(std::string(dtype_name(wire)) + ", " +
                   (dynamic ? "dynamic" : "static") + ", above the grain");
      PreparedBatch b;
      stage_feature_rows(store, missing, wire, pool, b);
      const Tensor want = convert_then_scatter(b, &plan, resident);
      Tensor direct(want.shape(), DType::kF32);
      assemble_features(b.x, b.x_scale, b.x_zero, &plan, resident, direct);
      expect_bitwise_equal(direct, want, "assemble_features");
      release_batch_buffers(pool, std::move(b));
    }
  }
  ops::set_kernel_pool(nullptr);
}

TEST(DevicePool, TransfersReuseOnlyReleasedBuffersAndOverwriteThem) {
  // Every device buffer a transfer receives into comes from the device's
  // pool and returns to it when its last reference drops.
  const Dataset& ds = dev_dataset();
  FastSampler sampler(ds.graph, {4, 3});
  const std::vector<NodeId> seeds(ds.train_idx.begin(),
                                  ds.train_idx.begin() + 64);
  const Mfg mfg = sampler.sample(seeds, 23);
  const auto cache = std::make_shared<FeatureCache>(ds, 300);
  const CachePlan plan = plan_cached_batch(mfg, *cache);
  PinnedPool staging;
  PreparedBatch b;
  b.mfg = mfg;
  stage_feature_rows(ds.features, missing_node_ids(mfg, plan), DType::kInt8Q,
                     staging, b);
  b.y = staging.acquire({mfg.batch_size}, DType::kI64);
  slice_labels(ds.labels,
               {mfg.n_ids.data(), static_cast<std::size_t>(mfg.batch_size)},
               b.y);
  const Tensor want = convert_then_scatter(b, &plan, cache->features());

  DeviceSim dev;
  const BufferPool& pool = dev.pool();
  auto transfer = [&] {
    DeviceBatch d = dev.transfer_batch_cached(b, plan, *cache,
                                              /*blocking=*/true, nullptr);
    EXPECT_LE(pool.allocated_bytes(), pool.live_high_water());
    return d;
  };
  auto expect_exact = [&](const DeviceBatch& d) {
    expect_bitwise_equal(d.x_f32, want, "x_f32");
    EXPECT_EQ(std::memcmp(d.y.raw(), b.y.raw(), b.y.nbytes()), 0);
    for (std::size_t i = 0; i < mfg.levels.size(); ++i) {
      EXPECT_EQ(*d.mfg.levels[i].indptr, *mfg.levels[i].indptr);
      EXPECT_EQ(*d.mfg.levels[i].indices, *mfg.levels[i].indices);
    }
  };
  // Poison every buffer the batch holds: NaN features, sentinel ids.
  auto poison = [](DeviceBatch& d) {
    d.x_f32.fill_(std::nan(""));
    std::fill_n(d.y.data<std::int64_t>(), d.y.numel(), INT64_MIN);
    for (const MfgLevel& l : d.mfg.levels) {
      for (const auto& ids : {l.indptr, l.indices}) {
        auto& v = const_cast<std::vector<std::int64_t>&>(*ids);
        std::fill(v.begin(), v.end(), INT64_MIN);
      }
    }
  };

  {
    DeviceBatch d = transfer();
    expect_exact(d);
    poison(d);
  }
  const std::size_t allocs = pool.alloc_count();
  EXPECT_GT(allocs, 0u);
  // Repeated transfers of one batch shape allocate nothing after the
  // first, and the poisoned buffers they reuse come back overwritten.
  for (int r = 0; r < 4; ++r) {
    DeviceBatch d = transfer();
    expect_exact(d);
    poison(d);
  }
  EXPECT_EQ(pool.alloc_count(), allocs);

  // A buffer still referenced is never handed out: a held batch keeps its
  // bytes while the next transfer receives into other buffers.
  DeviceBatch held = transfer();
  const Tensor held_x = held.x_f32.clone();
  const DeviceBatch next = transfer();
  expect_exact(next);
  expect_exact(held);
  expect_bitwise_equal(held.x_f32, held_x, "held x_f32");
  EXPECT_NE(next.x_f32.raw(), held.x_f32.raw());
  EXPECT_NE(next.y.raw(), held.y.raw());
  for (std::size_t i = 0; i < mfg.levels.size(); ++i) {
    EXPECT_NE(next.mfg.levels[i].indices->data(),
              held.mfg.levels[i].indices->data());
  }
  EXPECT_GT(pool.alloc_count(), allocs);
}

TEST(AssembleFeatures, RejectsUnknownWireAndMissingSidecars) {
  Tensor out({2, 4}, DType::kF32);
  EXPECT_THROW(assemble_features(Tensor({2, 4}, DType::kI64), Tensor(),
                                 Tensor(), nullptr, Tensor(), out),
               std::invalid_argument);
  EXPECT_THROW(assemble_features(Tensor({2, 4}, DType::kInt8Q), Tensor(),
                                 Tensor(), nullptr, Tensor(), out),
               std::invalid_argument);
}

}  // namespace
}  // namespace salient
