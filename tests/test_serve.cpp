// Serving-subsystem tests: admission control and shedding, micro-batching
// policy, the result cache's LRU + generation semantics, end-to-end
// request->prediction correctness against evaluate_sampled, determinism
// across prep-worker counts, and the SLO metrics surfaced through the obs
// registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "graph/dataset.h"
#include "nn/models.h"
#include "obs/metrics.h"
#include "serve/micro_batcher.h"
#include "serve/request_queue.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "train/inference.h"

namespace salient {
namespace {

using serve::BatchPolicy;
using serve::InferenceServer;
using serve::MicroBatcher;
using serve::Request;
using serve::RequestQueue;
using serve::RequestStatus;
using serve::Response;
using serve::ResultCache;
using serve::ServeConfig;

Dataset& serve_dataset() {
  static Dataset ds = [] {
    DatasetConfig c;
    c.name = "serve-test";
    c.num_nodes = 3000;
    c.feature_dim = 16;
    c.num_classes = 4;
    c.avg_degree = 8;
    c.max_degree = 40;  // bounded so full-fanout sampling is deterministic
    c.p_in = 0.85;
    c.feature_signal = 0.5;
    c.feature_noise = 0.6;
    c.seed = 33;
    return generate_dataset(c);
  }();
  return ds;
}

// Fanouts at least the graph's true max degree: the sampler then takes
// every neighbor deterministically, so sampled inference is exact and
// seed-independent — the basis for the bit-for-bit correctness tests below.
std::vector<std::int64_t> full_fanouts(const Dataset& ds, int levels) {
  std::int64_t max_deg = 0;
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    max_deg = std::max(max_deg, ds.graph.degree(v));
  }
  return std::vector<std::int64_t>(levels, max_deg);
}

std::shared_ptr<nn::GnnModel> serve_model(const Dataset& ds) {
  nn::ModelConfig mc;
  mc.in_channels = ds.feature_dim;
  mc.hidden_channels = 16;
  mc.out_channels = ds.num_classes;
  mc.num_layers = 2;
  mc.seed = 7;
  return nn::make_model("sage", mc);
}

// --- RequestQueue: admission + shedding -------------------------------------

TEST(RequestQueue, ShedsWhenFullAndResolvesImmediately) {
  RequestQueue q(2);
  auto f1 = q.submit({1});
  auto f2 = q.submit({2});
  auto f3 = q.submit({3});  // over capacity: shed
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.admitted(), 2u);
  EXPECT_EQ(q.shed(), 1u);
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f3.get().status, RequestStatus::kShed);
  // Admitted requests are still pending.
  EXPECT_NE(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  (void)f2;
}

TEST(RequestQueue, SubmitAfterCloseResolvesClosed) {
  RequestQueue q(4);
  q.close();
  auto f = q.submit({1, 2});
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f.get().status, RequestStatus::kClosed);
  EXPECT_EQ(q.shed(), 0u);  // closed-rejects are not counted as shed
}

// --- MicroBatcher: max-size / max-wait policy -------------------------------

TEST(MicroBatcher, CoalescesBacklogUpToMaxBatchNodes) {
  RequestQueue q(64);
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 10; ++i) futs.push_back(q.submit({i, i + 100}));  // 2 nodes each

  BatchPolicy policy;
  policy.max_batch_nodes = 6;
  policy.max_wait = std::chrono::microseconds(50'000);
  MicroBatcher batcher(q, policy);

  auto b1 = batcher.next();
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(b1->total_nodes(), 6);
  EXPECT_EQ(b1->requests.size(), 3u);
  EXPECT_EQ(b1->seq, 0);

  auto b2 = batcher.next();
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b2->total_nodes(), 6);
  EXPECT_EQ(b2->seq, 1);

  // Complete the pending promises so the futures don't dangle.
  for (auto* b : {&*b1, &*b2}) {
    for (Request& r : b->requests) r.promise.set_value(Response{});
  }
  q.close();
  auto b3 = batcher.next();  // drains the rest
  auto b4 = batcher.next();
  ASSERT_TRUE(b3.has_value());
  ASSERT_TRUE(b4.has_value());
  EXPECT_EQ(b3->total_nodes() + b4->total_nodes(), 8);
  EXPECT_FALSE(batcher.next().has_value());  // closed and drained
  for (auto* b : {&*b3, &*b4}) {
    for (Request& r : b->requests) r.promise.set_value(Response{});
  }
}

TEST(MicroBatcher, MaxWaitBoundsLoneRequestDelay) {
  RequestQueue q(8);
  BatchPolicy policy;
  policy.max_batch_nodes = 1024;
  policy.max_wait = std::chrono::microseconds(10'000);
  MicroBatcher batcher(q, policy);

  auto fut = q.submit({42});
  const auto t0 = std::chrono::steady_clock::now();
  auto b = batcher.next();
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->requests.size(), 1u);
  // Closed by the wait bound, well before any size bound: the lone request
  // is not held hostage (allow generous slack for slow CI machines).
  EXPECT_LT(waited_ms, 5000.0);
  b->requests[0].promise.set_value(Response{});
  q.close();
}

TEST(MicroBatcher, RequestNeverSpansTwoBatches) {
  RequestQueue q(8);
  BatchPolicy policy;
  policy.max_batch_nodes = 4;
  policy.max_wait = std::chrono::microseconds(20'000);
  MicroBatcher batcher(q, policy);
  auto f1 = q.submit({1, 2, 3});
  auto f2 = q.submit({4, 5, 6});  // would overflow: must carry to batch 2
  auto b1 = batcher.next();
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(b1->requests.size(), 1u);
  EXPECT_EQ(b1->total_nodes(), 3);
  auto b2 = batcher.next();
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b2->requests.size(), 1u);
  EXPECT_EQ(b2->total_nodes(), 3);
  for (auto* b : {&*b1, &*b2}) {
    for (Request& r : b->requests) r.promise.set_value(Response{});
  }
  q.close();
}

TEST(MicroBatcher, ZeroWaitStillDrainsBacklogGreedily) {
  // max_wait == 0 degenerates the coalescing wait to a poll: a backlog is
  // still packed into one batch instead of one singleton batch per request.
  RequestQueue q(16);
  BatchPolicy policy;
  policy.max_batch_nodes = 64;
  policy.max_wait = std::chrono::microseconds(0);
  MicroBatcher batcher(q, policy);
  std::vector<std::future<Response>> futures;
  for (NodeId v = 0; v < 5; ++v) futures.push_back(q.submit({v}));
  auto b = batcher.next();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->requests.size(), 5u);
  EXPECT_EQ(b->total_nodes(), 5);
  for (Request& r : b->requests) r.promise.set_value(Response{});
  q.close();
  EXPECT_FALSE(batcher.next().has_value());
}

TEST(MicroBatcher, OversizedRequestFormsItsOwnBatch) {
  // A single request larger than max_batch_nodes cannot be split (a request
  // never spans two batches), so it is carried over and shipped alone.
  RequestQueue q(8);
  BatchPolicy policy;
  policy.max_batch_nodes = 4;
  policy.max_wait = std::chrono::microseconds(0);
  MicroBatcher batcher(q, policy);
  auto fa = q.submit({0, 1});
  auto fb = q.submit({2, 3, 4, 5, 6, 7});  // oversized: 6 > max_batch_nodes
  auto fc = q.submit({8});
  q.close();

  auto b1 = batcher.next();
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(b1->seq, 0);
  EXPECT_EQ(b1->requests.size(), 1u);
  EXPECT_EQ(b1->total_nodes(), 2);  // {A}; B would overflow and is carried

  auto b2 = batcher.next();
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b2->seq, 1);
  EXPECT_EQ(b2->requests.size(), 1u);
  EXPECT_EQ(b2->total_nodes(), 6);  // {B} alone, over the nominal bound

  auto b3 = batcher.next();
  ASSERT_TRUE(b3.has_value());
  EXPECT_EQ(b3->seq, 2);
  EXPECT_EQ(b3->total_nodes(), 1);  // {C}
  EXPECT_FALSE(batcher.next().has_value());

  for (auto* b : {&*b1, &*b2, &*b3}) {
    for (Request& r : b->requests) r.promise.set_value(Response{});
  }
}

TEST(RequestQueue, ShedThenDrainPreservesFifoOfAdmitted) {
  // Overload then shutdown: the overflow is shed immediately, and what was
  // admitted drains in submission order before the consumer sees nullopt.
  RequestQueue q(3);
  std::vector<std::future<Response>> futures;
  for (NodeId v = 0; v < 5; ++v) futures.push_back(q.submit({v}));
  EXPECT_EQ(q.admitted(), 3u);
  EXPECT_EQ(q.shed(), 2u);
  // The shed futures (the two latest submits) resolved immediately.
  for (std::size_t i = 3; i < 5; ++i) {
    EXPECT_EQ(futures[i].get().status, RequestStatus::kShed);
  }
  q.close();
  for (NodeId expect = 0; expect < 3; ++expect) {
    auto r = q.pop();
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(r->nodes.size(), 1u);
    EXPECT_EQ(r->nodes[0], expect);  // FIFO
    r->promise.set_value(Response{});
  }
  EXPECT_FALSE(q.pop().has_value());  // closed and drained
}

// --- ResultCache ------------------------------------------------------------

TEST(ResultCache, LruEvictsOldestAndGenerationInvalidates) {
  ResultCache cache(2);
  EXPECT_EQ(cache.lookup(1), std::nullopt);
  cache.insert(1, 10, cache.generation());
  cache.insert(2, 20, cache.generation());
  EXPECT_EQ(cache.lookup(1), 10);  // touches 1: LRU order is now [1, 2]
  cache.insert(3, 30, cache.generation());
  EXPECT_EQ(cache.lookup(2), std::nullopt);  // 2 was evicted
  EXPECT_EQ(cache.lookup(1), 10);
  EXPECT_EQ(cache.lookup(3), 30);

  const auto gen = cache.invalidate();
  EXPECT_EQ(gen, cache.generation());
  EXPECT_EQ(cache.lookup(1), std::nullopt);  // stale under the new model
  EXPECT_EQ(cache.lookup(3), std::nullopt);
  EXPECT_EQ(cache.size(), 0);  // stale entries evicted on touch

  // An insert tagged with an outdated generation must be dropped.
  cache.insert(5, 50, gen - 1);
  EXPECT_EQ(cache.lookup(5), std::nullopt);
  cache.insert(5, 51, gen);
  EXPECT_EQ(cache.lookup(5), 51);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.insert(1, 10, cache.generation());
  EXPECT_EQ(cache.lookup(1), std::nullopt);
  EXPECT_EQ(cache.size(), 0);
}

// Regression test for the generation/lock discipline (the annotation sweep
// moved the generation check inside the cache mutex, and invalidate() now
// bumps under it): once invalidate() has returned generation G, a lookup
// that starts afterwards must never serve a prediction computed under a
// generation below G. Predictions are tagged with the generation they were
// inserted under, so a stale serve is directly observable.
TEST(ResultCache, GenerationContractUnderConcurrentInvalidation) {
  ResultCache cache(64);
  constexpr NodeId kNode = 7;
  std::atomic<bool> stop{false};
  // Highest generation for which invalidate() has RETURNED — everything
  // below it is retired and must never be served again.
  std::atomic<std::uint64_t> retired_below{0};

  std::thread invalidator([&] {
    for (int i = 0; i < 1500; ++i) {
      const std::uint64_t g = cache.invalidate();
      retired_below.store(g, std::memory_order_release);
      std::this_thread::yield();  // give the writer/reader a slice per gen
    }
    stop.store(true, std::memory_order_release);
  });
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t g = cache.generation();
      cache.insert(kNode, static_cast<std::int64_t>(g), g);
    }
  });

  while (!stop.load(std::memory_order_acquire)) {
    const std::uint64_t floor = retired_below.load(std::memory_order_acquire);
    if (const auto pred = cache.lookup(kNode)) {
      ASSERT_GE(static_cast<std::uint64_t>(*pred), floor)
          << "served a prediction from a retired model generation";
    }
  }
  invalidator.join();
  writer.join();
  // Quiescent sanity check: the hit path still works after the churn.
  const std::uint64_t g = cache.generation();
  cache.insert(kNode, static_cast<std::int64_t>(g), g);
  EXPECT_EQ(cache.lookup(kNode), static_cast<std::int64_t>(g));
}

// --- End-to-end serving -----------------------------------------------------

ServeConfig base_config() {
  ServeConfig sc;
  sc.fanouts = {6, 6};
  sc.queue_capacity = 64;
  sc.batch.max_batch_nodes = 64;
  sc.batch.max_wait = std::chrono::microseconds(500);
  sc.num_prep_workers = 2;
  sc.seed = 77;
  return sc;
}

TEST(InferenceServer, ServesRequestsEndToEnd) {
  const Dataset& ds = serve_dataset();
  auto model = serve_model(ds);
  DeviceSim device;
  InferenceServer server(ds, model, device, base_config());

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 40; ++i) {
    futs.push_back(server.submit({ds.test_idx[i % ds.test_idx.size()],
                                  ds.test_idx[(i * 7) % ds.test_idx.size()]}));
  }
  for (auto& f : futs) {
    Response r = f.get();
    ASSERT_EQ(r.status, RequestStatus::kOk) << to_string(r.status);
    ASSERT_EQ(r.predictions.size(), 2u);
    for (const auto p : r.predictions) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, ds.num_classes);
    }
    EXPECT_GT(r.total_us, 0.0);
    EXPECT_GE(r.total_us, r.queue_us);
  }
  const auto stats = server.stats();
  EXPECT_GE(stats.completed, 40);
  EXPECT_GE(stats.batches, 1);
}

TEST(InferenceServer, MatchesEvaluateSampledAtFullFanout) {
  // With fanouts >= max degree the sampler takes every neighbor
  // deterministically, so the serving pipeline must reproduce
  // evaluate_sampled's predictions bit-for-bit on the same nodes.
  const Dataset& ds = serve_dataset();
  auto model = serve_model(ds);
  DeviceSim device;

  const std::vector<std::int64_t> fanouts = full_fanouts(ds, 2);
  std::vector<NodeId> nodes(ds.test_idx.begin(), ds.test_idx.begin() + 64);
  // Also on the i8q wire with a degree cache of i8q rows: the model reads
  // the quantized rows as they arrive, so the reference runs on a copy of
  // the dataset whose features are those rows dequantized.
  for (const DType wire : {DType::kF16, DType::kInt8Q}) {
    SCOPED_TRACE(dtype_name(wire));
    Dataset dequantized;
    const Dataset* ref_ds = &ds;
    if (wire == DType::kInt8Q) {
      dequantized = ds;
      dequantized.features =
          make_wire_store(ds.features, DType::kInt8Q)->rows.to(DType::kF32);
      ref_ds = &dequantized;
    }
    const InferenceResult reference = evaluate_sampled(
        *model, *ref_ds, nodes, fanouts, /*batch_size=*/16, /*seed=*/1);

    ServeConfig sc = base_config();
    sc.fanouts = fanouts;
    sc.feature_dtype = wire;
    if (wire == DType::kInt8Q) {
      sc.cache_policy = CachePolicyKind::kDegree;
      sc.cache_percentage = 0.1;
    }
    InferenceServer server(ds, model, device, sc);
    std::vector<std::future<Response>> futs;
    futs.reserve(nodes.size());
    for (const NodeId v : nodes) futs.push_back(server.submit({v}));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      Response r = futs[i].get();
      ASSERT_EQ(r.status, RequestStatus::kOk);
      ASSERT_EQ(r.predictions.size(), 1u);
      EXPECT_EQ(r.predictions[0], reference.predictions[i]) << "node " << i;
    }
    if (wire == DType::kInt8Q) {
      ASSERT_TRUE(server.config().feature_cache);
      EXPECT_EQ(server.config().feature_cache->dtype(), DType::kInt8Q);
      EXPECT_GT(server.stats().feature_cache_hit_rate, 0.0);
    }
  }
}

TEST(InferenceServer, DeterministicAcrossPrepWorkerCounts) {
  // Per-batch seeding by sequence number: with serial (closed-loop)
  // submission the batch composition is fixed, so predictions must be
  // identical no matter how many prep workers race on the queue.
  const Dataset& ds = serve_dataset();
  auto model = serve_model(ds);

  auto run = [&](int workers) {
    DeviceSim device;
    ServeConfig sc = base_config();
    sc.num_prep_workers = workers;
    InferenceServer server(ds, model, device, sc);
    std::vector<std::int64_t> preds;
    for (int i = 0; i < 48; ++i) {
      Response r = server.predict({ds.val_idx[i % ds.val_idx.size()]});
      EXPECT_EQ(r.status, RequestStatus::kOk);
      preds.insert(preds.end(), r.predictions.begin(), r.predictions.end());
    }
    return preds;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(InferenceServer, ResultCacheServesRepeatsAndInvalidatesOnModelUpdate) {
  const Dataset& ds = serve_dataset();
  auto model = serve_model(ds);
  DeviceSim device;
  ServeConfig sc = base_config();
  sc.result_cache_capacity = 1024;
  InferenceServer server(ds, model, device, sc);

  const NodeId v = ds.test_idx[0];
  Response first = server.predict({v});
  ASSERT_EQ(first.status, RequestStatus::kOk);
  EXPECT_EQ(first.nodes_from_cache, 0);

  Response repeat = server.predict({v});
  ASSERT_EQ(repeat.status, RequestStatus::kOk);
  EXPECT_EQ(repeat.nodes_from_cache, 1);
  EXPECT_EQ(repeat.predictions, first.predictions);
  EXPECT_EQ(repeat.model_generation, first.model_generation);

  // A model update invalidates cached predictions: the next request
  // recomputes under the new generation.
  const auto gen = server.notify_model_updated();
  Response fresh = server.predict({v});
  ASSERT_EQ(fresh.status, RequestStatus::kOk);
  EXPECT_EQ(fresh.nodes_from_cache, 0);
  EXPECT_EQ(fresh.model_generation, gen);
}

TEST(InferenceServer, OverloadShedsInsteadOfBuffering) {
  const Dataset& ds = serve_dataset();
  auto model = serve_model(ds);
  DeviceSim device;
  ServeConfig sc = base_config();
  // Tiny buffers everywhere: the whole pipeline can absorb only a few dozen
  // single-node requests, so a fast 2000-request burst must shed.
  sc.queue_capacity = 4;
  sc.batch.max_batch_nodes = 8;
  sc.batch.max_wait = std::chrono::microseconds(5'000);
  sc.num_prep_workers = 1;
  sc.stage_queue_capacity = 2;
  sc.pipeline_depth = 1;
  InferenceServer server(ds, model, device, sc);

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 2000; ++i) {
    futs.push_back(server.submit({ds.test_idx[i % ds.test_idx.size()]}));
  }
  std::int64_t ok = 0, shed = 0;
  for (auto& f : futs) {
    const Response r = f.get();
    (r.status == RequestStatus::kOk ? ok : shed)++;
    if (r.status != RequestStatus::kOk) {
      EXPECT_EQ(r.status, RequestStatus::kShed);
      EXPECT_TRUE(r.predictions.empty());
    }
  }
  EXPECT_EQ(ok + shed, 2000);
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);  // the burst exceeded the bound: load was shed
  EXPECT_EQ(server.stats().shed, shed);
}

TEST(InferenceServer, SloMetricsAreNonDegenerate) {
  obs::Registry::global().reset();
  const Dataset& ds = serve_dataset();
  auto model = serve_model(ds);
  DeviceSim device;
  ServeConfig sc = base_config();
  sc.slo_us = 10e6;  // generous: everything lands in slo_ok
  InferenceServer server(ds, model, device, sc);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(server.predict({ds.test_idx[i % ds.test_idx.size()]}).ok());
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 64);
  EXPECT_GT(stats.p50_us, 0.0);
  EXPECT_LE(stats.p50_us, stats.p95_us);
  EXPECT_LE(stats.p95_us, stats.p99_us);
  EXPECT_EQ(stats.slo_ok, 64);
  EXPECT_EQ(stats.slo_miss, 0);
  EXPECT_FALSE(stats.summary().empty());

  // The registry dump surfaces the serving instruments (and the histogram
  // the percentiles come from).
  const std::string dump = obs::Registry::global().dump_text();
  EXPECT_NE(dump.find("serve.latency_us"), std::string::npos);
  EXPECT_NE(dump.find("serve.completed"), std::string::npos);
}

TEST(InferenceServer, FeatureCachePathServesCorrectlyAndCountsHits) {
  obs::Registry::global().reset();
  const Dataset& ds = serve_dataset();
  auto model = serve_model(ds);

  const std::vector<std::int64_t> fanouts = full_fanouts(ds, 2);
  std::vector<NodeId> nodes(ds.test_idx.begin(), ds.test_idx.begin() + 32);
  const InferenceResult reference = evaluate_sampled(
      *model, ds, nodes, fanouts, /*batch_size=*/8, /*seed=*/3);

  DeviceSim device;
  ServeConfig sc = base_config();
  sc.fanouts = fanouts;
  sc.feature_cache = std::make_shared<const FeatureCache>(ds, 512);
  InferenceServer server(ds, model, device, sc);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Response r = server.predict({nodes[i]});
    ASSERT_EQ(r.status, RequestStatus::kOk);
    EXPECT_EQ(r.predictions[0], reference.predictions[i]) << "node " << i;
  }
  // The FeatureCache hit/miss counters (satellite: surfaced via obs) must
  // have recorded this traffic; degree-ordered caching on a power-law graph
  // hits far more often than capacity/|V|.
  auto& reg = obs::Registry::global();
  const auto hits = reg.counter("prep.cache.row_hits").value();
  const auto misses = reg.counter("prep.cache.row_misses").value();
  EXPECT_GT(hits, 0);
  EXPECT_GT(hits + misses, 0);
  EXPECT_GT(server.stats().feature_cache_hit_rate, 0.05);
  const std::string dump = obs::Registry::global().dump_text();
  EXPECT_NE(dump.find("prep.cache.row_hits"), std::string::npos);
  // The device gathers hits and misses into one tensor of the wire dtype,
  // so a cache of f16 rows cannot serve an i8q wire.
  sc.feature_dtype = DType::kInt8Q;
  EXPECT_THROW(InferenceServer(ds, model, device, sc), std::invalid_argument);
}

TEST(InferenceServer, ShutdownDrainsInFlightRequests) {
  const Dataset& ds = serve_dataset();
  auto model = serve_model(ds);
  DeviceSim device;
  auto server =
      std::make_unique<InferenceServer>(ds, model, device, base_config());
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(server->submit({ds.test_idx[i % ds.test_idx.size()]}));
  }
  server->shutdown();  // must drain, not drop
  for (auto& f : futs) {
    EXPECT_EQ(f.get().status, RequestStatus::kOk);
  }
  // Post-shutdown submits resolve kClosed immediately.
  EXPECT_EQ(server->predict({ds.test_idx[0]}).status, RequestStatus::kClosed);
  server.reset();  // double-shutdown via destructor is a no-op
}

TEST(InferenceServer, EmptyRequestCompletesImmediately) {
  const Dataset& ds = serve_dataset();
  auto model = serve_model(ds);
  DeviceSim device;
  InferenceServer server(ds, model, device, base_config());
  Response r = server.predict({});
  EXPECT_EQ(r.status, RequestStatus::kOk);
  EXPECT_TRUE(r.predictions.empty());
}

}  // namespace
}  // namespace salient
