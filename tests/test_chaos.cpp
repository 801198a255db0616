// Chaos suite: seeded fault-injection runs of the training and serving
// pipelines (src/fault/, docs/TESTING.md).
//
// What is asserted, per the hardening contract:
//   * no deadlock — every run finishes under a fault::Watchdog (and ctest
//     enforces a whole-binary TIMEOUT as the backstop);
//   * no batch loss or duplication — every mini-batch index is delivered
//     exactly once however many workers die, queues wedge, or lock-free
//     pops spuriously miss;
//   * determinism — with a fixed fault schedule the delivered batches are
//     bitwise-identical to a fault-free run (recovery is lossless, so
//     results are invariant to where faults land);
//   * graceful degradation — serving under randomized faults resolves every
//     request (kOk / kShed / kFailed / kInvalid), never wedges, and drains
//     cleanly at shutdown.
//
// Tests that need injection sites compiled in skip themselves unless the
// build sets SALIENT_FAILPOINTS=ON (fault::kFailpointsCompiledIn); the
// framework, pool-backpressure, stream-containment, and poison-request
// tests run in every build. Reproduce a failure by re-arming the schedule
// printed in the test body — triggers depend only on per-failpoint hit
// counters and seeds, never on wall time (see docs/TESTING.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "device/device_sim.h"
#include "device/dma.h"
#include "dist/cluster/cluster_trainer.h"
#include "device/stream.h"
#include "fault/failpoint.h"
#include "fault/watchdog.h"
#include "graph/dataset.h"
#include "nn/models.h"
#include "obs/metrics.h"
#include "prep/cache_policy.h"
#include "prep/feature_cache.h"
#include "prep/salient_loader.h"
#include "serve/server.h"
#include "util/blocking_queue.h"
#include "util/mpmc_queue.h"

namespace salient {
namespace {

using fault::Registry;
using fault::ScopedDisarm;
using fault::TriggerSpec;
using fault::Watchdog;

Dataset& chaos_dataset() {
  static Dataset ds = [] {
    DatasetConfig c;
    c.name = "chaos-test";
    c.num_nodes = 2500;
    c.feature_dim = 12;
    c.num_classes = 4;
    c.avg_degree = 7;
    c.seed = 91;
    return generate_dataset(c);
  }();
  return ds;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Content hash of a prepared batch: MFG structure + sliced features/labels.
std::uint64_t hash_batch(const PreparedBatch& b) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, b.mfg.n_ids.data(), b.mfg.n_ids.size() * sizeof(NodeId));
  for (const auto& level : b.mfg.levels) {
    h = fnv1a(h, level.indptr->data(),
              level.indptr->size() * sizeof(std::int64_t));
    h = fnv1a(h, level.indices->data(),
              level.indices->size() * sizeof(std::int64_t));
  }
  h = fnv1a(h, b.x.raw(), b.x.nbytes());
  h = fnv1a(h, b.y.raw(), b.y.nbytes());
  return h;
}

LoaderConfig chaos_loader_config() {
  LoaderConfig cfg;
  cfg.batch_size = 128;
  cfg.fanouts = {6, 4};
  cfg.num_workers = 3;
  cfg.queue_capacity = 3;
  cfg.seed = 7;
  return cfg;
}

struct EpochResult {
  std::map<std::int64_t, std::uint64_t> hash_by_index;
  std::map<std::int64_t, int> deliveries;
  std::int64_t worker_deaths = 0;
};

/// Drive one full epoch through SalientLoader, hashing every delivered
/// batch. Train-split = all nodes of the chaos dataset.
EpochResult run_epoch(const LoaderConfig& cfg) {
  const Dataset& ds = chaos_dataset();
  std::vector<NodeId> nodes(static_cast<std::size_t>(ds.graph.num_nodes()));
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = static_cast<NodeId>(i);
  }
  EpochResult r;
  SalientLoader loader(ds, nodes, cfg);
  while (auto batch = loader.next()) {
    r.hash_by_index[batch->index] = hash_batch(*batch);
    ++r.deliveries[batch->index];
    loader.recycle(std::move(*batch));
  }
  r.worker_deaths = loader.worker_deaths();
  return r;
}

void expect_exactly_once(const EpochResult& r, std::int64_t num_batches) {
  EXPECT_EQ(static_cast<std::int64_t>(r.deliveries.size()), num_batches);
  for (const auto& [index, count] : r.deliveries) {
    EXPECT_EQ(count, 1) << "batch " << index << " delivered " << count
                        << " times";
    EXPECT_GE(index, 0);
    EXPECT_LT(index, num_batches);
  }
}

// --- failpoint framework (runs in every build) ------------------------------

TEST(Failpoints, TriggersAreDeterministicAndCounted) {
  ScopedDisarm guard;
  auto& fp = Registry::global().failpoint("test.trigger");

  fp.arm(TriggerSpec::every(3));
  std::vector<bool> pattern;
  for (int i = 0; i < 9; ++i) pattern.push_back(fp.should_fire());
  EXPECT_EQ(pattern, (std::vector<bool>{false, false, true, false, false,
                                        true, false, false, true}));
  EXPECT_EQ(fp.hits(), 9u);
  EXPECT_EQ(fp.fires(), 3u);

  fp.arm(TriggerSpec::nth(2));
  int fires = 0;
  for (int i = 0; i < 10; ++i) fires += fp.should_fire() ? 1 : 0;
  EXPECT_EQ(fires, 1);

  // Seeded probabilistic schedules replay exactly after re-arming.
  fp.arm(TriggerSpec::prob(0.3, 42));
  std::vector<bool> first;
  for (int i = 0; i < 200; ++i) first.push_back(fp.should_fire());
  fp.arm(TriggerSpec::prob(0.3, 42));
  std::vector<bool> second;
  for (int i = 0; i < 200; ++i) second.push_back(fp.should_fire());
  EXPECT_EQ(first, second);
  const auto fired = static_cast<int>(fp.fires());
  EXPECT_GT(fired, 20);   // ~60 expected
  EXPECT_LT(fired, 120);

  fp.disarm();
  EXPECT_FALSE(fp.should_fire());
  EXPECT_FALSE(fp.armed());
}

TEST(Failpoints, SpecStringConfiguresSchedules) {
  ScopedDisarm guard;
  Registry::global().configure_from_spec(
      "test.a=every:4,test.b=prob:0.5:9@250,test.c=nth:1");
  EXPECT_TRUE(Registry::global().failpoint("test.a").armed());
  EXPECT_TRUE(Registry::global().failpoint("test.b").armed());
  EXPECT_DOUBLE_EQ(Registry::global().failpoint("test.b").arg(), 250.0);
  EXPECT_TRUE(Registry::global().failpoint("test.c").should_fire());

  EXPECT_THROW(TriggerSpec::parse("sometimes"), std::invalid_argument);
  EXPECT_THROW(TriggerSpec::parse("every:0"), std::invalid_argument);
  EXPECT_THROW(Registry::global().configure_from_spec("=every:2"),
               std::invalid_argument);

  const TriggerSpec s = TriggerSpec::parse("prob:0.25:17@1500");
  EXPECT_EQ(s.mode, fault::TriggerMode::kProb);
  EXPECT_DOUBLE_EQ(s.p, 0.25);
  EXPECT_EQ(s.seed, 17u);
  EXPECT_DOUBLE_EQ(s.arg, 1500.0);
}

// --- hardening that needs no injected faults (runs in every build) ----------

TEST(ChaosStream, WorkItemExceptionDoesNotKillTheStream) {
  obs::Counter& errors = obs::Registry::global().counter("stream.work_errors");
  const auto before = errors.value();
  bool second_ran = false;
  {
    Stream s("chaos");
    s.enqueue([] { throw std::runtime_error("injected kernel failure"); });
    Event e = s.record();
    s.enqueue([&second_ran] { second_ran = true; });
    s.synchronize();
    EXPECT_TRUE(e.query());  // events after the faulty item still fire
  }
  EXPECT_TRUE(second_ran);
  EXPECT_EQ(errors.value(), before + 1);
}

TEST(ChaosPool, BudgetBackpressureBlocksUntilRelease) {
  PinnedPoolConfig pc;
  pc.max_bytes = 64 * 1024;  // budget == exactly one (64 KiB-rounded) bucket
  pc.acquire_timeout = std::chrono::milliseconds(2000);
  PinnedPool pool(pc);

  Tensor held = pool.acquire({16, 8}, DType::kF32);
  EXPECT_EQ(pool.alloc_count(), 1u);
  EXPECT_FALSE(pool.try_acquire({16, 8}, DType::kF32).has_value());

  // A second acquire must wait for the release, then recycle — not allocate.
  Watchdog wd(std::chrono::milliseconds(10000), "pool backpressure");
  std::thread releaser([&pool, &held] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    pool.release(std::move(held));
  });
  Tensor again = pool.acquire({16, 8}, DType::kF32);
  releaser.join();
  EXPECT_TRUE(again.defined());
  EXPECT_EQ(pool.alloc_count(), 1u);  // recycled, not grown
  EXPECT_GE(pool.backpressure_waits(), 1u);
  EXPECT_EQ(pool.overshoots(), 0u);
}

TEST(ChaosPool, TimeoutOvershootsInsteadOfDeadlocking) {
  PinnedPoolConfig pc;
  pc.max_bytes = 64 * 1024;  // one bucket
  pc.acquire_timeout = std::chrono::milliseconds(20);
  PinnedPool pool(pc);

  Tensor a = pool.acquire({16, 8}, DType::kF32);
  Watchdog wd(std::chrono::milliseconds(10000), "pool overshoot");
  Tensor b = pool.acquire({16, 8}, DType::kF32);  // nobody releases
  EXPECT_TRUE(b.defined());
  EXPECT_EQ(pool.alloc_count(), 2u);
  EXPECT_EQ(pool.overshoots(), 1u);
  EXPECT_GT(pool.allocated_bytes(), pc.max_bytes);
}

TEST(ChaosServe, PoisonRequestIsRejectedAtSubmit) {
  const Dataset& ds = chaos_dataset();
  nn::ModelConfig mc;
  mc.in_channels = ds.feature_dim;
  mc.hidden_channels = 8;
  mc.out_channels = ds.num_classes;
  mc.num_layers = 2;
  mc.seed = 3;
  DeviceSim device;
  serve::ServeConfig sc;
  sc.fanouts = {4, 4};
  serve::InferenceServer server(ds, nn::make_model("sage", mc), device, sc);

  auto bad = server.submit({ds.graph.num_nodes() + 5}).get();
  EXPECT_EQ(bad.status, serve::RequestStatus::kInvalid);
  EXPECT_TRUE(bad.predictions.empty());
  auto negative = server.submit({NodeId{-1}}).get();
  EXPECT_EQ(negative.status, serve::RequestStatus::kInvalid);

  // The pipeline is untouched by poison: a valid request still serves.
  auto good = server.predict({0, 1, 2});
  EXPECT_EQ(good.status, serve::RequestStatus::kOk);
  EXPECT_EQ(good.predictions.size(), 3u);
  EXPECT_GE(server.stats().invalid, 2);
}

// --- injected-fault chaos (needs SALIENT_FAILPOINTS=ON) ---------------------

#define SKIP_WITHOUT_FAILPOINTS()                                       \
  if (!fault::kFailpointsCompiledIn) {                                  \
    GTEST_SKIP() << "build with -DSALIENT_FAILPOINTS=ON to run chaos "  \
                    "injection";                                        \
  }

/// The fixed training-chaos schedule: worker deaths, lock-free queue
/// misses, blocking-queue wedges, and staging exhaustion, all seeded.
void arm_training_schedule() {
  auto& reg = Registry::global();
  reg.configure("prep.worker.die", TriggerSpec::every(5));
  reg.configure("mpmc.prep_in.pop_empty", TriggerSpec::prob(0.2, 11));
  reg.configure("mpmc.prep_in.push_full", TriggerSpec::prob(0.15, 12));
  reg.configure("queue.prep_out.push.wedge",
                TriggerSpec::prob(0.2, 13).with_arg(300));
  reg.configure("queue.prep_out.pop.wedge",
                TriggerSpec::prob(0.2, 14).with_arg(300));
  reg.configure("pinned.exhausted", TriggerSpec::every(6));
}

TEST(ChaosTraining, FixedScheduleIsLosslessAndBitwiseDeterministic) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(60000), "training chaos (fixed)");
  const LoaderConfig cfg = chaos_loader_config();

  const EpochResult baseline = run_epoch(cfg);  // fault-free reference
  const auto num_batches =
      static_cast<std::int64_t>(baseline.hash_by_index.size());
  ASSERT_GT(num_batches, 10);
  expect_exactly_once(baseline, num_batches);
  EXPECT_EQ(baseline.worker_deaths, 0);

  arm_training_schedule();
  const EpochResult run1 = run_epoch(cfg);
  const std::int64_t deaths1 = run1.worker_deaths;
  arm_training_schedule();  // re-arming resets counters: same schedule
  const EpochResult run2 = run_epoch(cfg);

  // Lossless: every batch exactly once, despite worker deaths en route.
  expect_exactly_once(run1, num_batches);
  expect_exactly_once(run2, num_batches);
  EXPECT_GE(deaths1, 1) << "schedule should have killed at least one worker";

  // Bitwise determinism: recovery replays the exact same batches — the
  // chaos runs match each other *and* the fault-free baseline.
  EXPECT_EQ(run1.hash_by_index, baseline.hash_by_index);
  EXPECT_EQ(run2.hash_by_index, baseline.hash_by_index);
}

TEST(ChaosTraining, RandomizedSchedulesNeverLoseOrDuplicateBatches) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(120000), "training chaos (random)");
  const LoaderConfig cfg = chaos_loader_config();
  const EpochResult baseline = run_epoch(cfg);
  const auto num_batches =
      static_cast<std::int64_t>(baseline.hash_by_index.size());

  for (std::uint64_t seed : {101u, 202u, 303u}) {
    auto& reg = Registry::global();
    reg.configure("prep.worker.die", TriggerSpec::prob(0.15, seed));
    reg.configure("mpmc.prep_in.pop_empty", TriggerSpec::prob(0.3, seed + 1));
    reg.configure("mpmc.prep_in.push_full", TriggerSpec::prob(0.2, seed + 2));
    reg.configure("queue.prep_out.push.wedge",
                  TriggerSpec::prob(0.1, seed + 3).with_arg(500));
    reg.configure("pinned.exhausted", TriggerSpec::prob(0.1, seed + 4));
    const EpochResult r = run_epoch(cfg);
    expect_exactly_once(r, num_batches);
    EXPECT_EQ(r.hash_by_index, baseline.hash_by_index) << "seed " << seed;
  }
}

TEST(ChaosPresample, AbortedWarmupDegradesToDegreeDeterministically) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(60000), "presample abort chaos");
  const Dataset& ds = chaos_dataset();
  CachePolicyConfig cfg;
  cfg.kind = CachePolicyKind::kPresample;
  cfg.fanouts = {6, 4};
  cfg.batch_size = 128;
  cfg.seed = 7;
  cfg.presample_workers = 0;  // serial warmup: partial counts are scripted

  // Immediate abort: zero batches counted, so the all-zero frequency
  // ranking degrades to exactly the degree policy's pinned set — an
  // interrupted warmup never pins arbitrary rows.
  Registry::global().configure("prep.cache.presample.abort",
                               TriggerSpec::always());
  const FeatureCache interrupted(ds, 250, cfg);
  CachePolicyConfig deg = cfg;
  deg.kind = CachePolicyKind::kDegree;
  const FeatureCache degree(ds, 250, deg);
  EXPECT_EQ(interrupted.resident_nodes(), degree.resident_nodes());
  EXPECT_GE(obs::Registry::global().counter("prep.presample.aborts").value(),
            1);

  // A cluster node's remote cache runs the same warmup over its chunk of
  // the cluster schedule: an immediate abort pins exactly the remote-degree
  // order, slot for slot. Node 0 owns the hubs the greedy partition places
  // first, so its remote order differs from the global degree order.
  dist::ClusterPartitionConfig pcfg;
  pcfg.num_nodes = 2;
  const auto cp = dist::build_cluster_partition(ds.graph, pcfg);
  const dist::RemoteFeatureCache remote_interrupted(ds, cp, 0, 0.1, cfg);
  const dist::RemoteFeatureCache remote_degree(ds, cp, 0, 0.1, deg);
  const auto remote = remote_degree.cache().resident_nodes();
  EXPECT_EQ(remote_interrupted.cache().resident_nodes(), remote);
  EXPECT_GT(remote.size(), 0u);
  for (const NodeId v : remote) {
    EXPECT_NE(cp.owner_of(v), 0);
    EXPECT_EQ(remote_interrupted.cache().slot_of(v),
              remote_degree.cache().slot_of(v));
  }

  // Mid-warmup abort: re-arming the same spec replays the same partial
  // counting, so the pinned set is identical run to run — and differs from
  // the plain degree fallback (some frequency signal survived).
  Registry::global().configure("prep.cache.presample.abort",
                               TriggerSpec::nth(3));
  const FeatureCache partial1(ds, 250, cfg);
  Registry::global().configure("prep.cache.presample.abort",
                               TriggerSpec::nth(3));
  const FeatureCache partial2(ds, 250, cfg);
  EXPECT_EQ(partial1.resident_nodes(), partial2.resident_nodes());
}

TEST(ChaosDma, TransientTransferErrorsRetryLosslessly) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  auto& reg = obs::Registry::global();
  const auto retries_before = reg.counter("dma.retries").value();

  DmaConfig dc;
  dc.latency_us = 0.5;
  dc.retry_backoff_us = 20.0;
  DmaEngine dma(dc);
  Registry::global().configure("dma.h2d", TriggerSpec::every(2));

  std::vector<std::uint8_t> src(4096), dst(4096, 0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  for (int copy = 0; copy < 4; ++copy) {
    ASSERT_NO_THROW(
        dma.copy(dst.data(), src.data(), src.size(), /*pinned=*/true));
    EXPECT_EQ(dst, src);  // data integrity across the retry path
  }
  EXPECT_GE(reg.counter("dma.retries").value(), retries_before + 2);
}

TEST(ChaosDma, ExhaustedRetriesRaiseDmaError) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  DmaConfig dc;
  dc.max_retries = 2;
  dc.retry_backoff_us = 5.0;
  DmaEngine dma(dc);
  Registry::global().configure("dma.h2d", TriggerSpec::always());
  std::uint64_t word = 0, out = 0;
  EXPECT_THROW(dma.copy(&out, &word, sizeof(word), true), DmaError);
  const auto& fp = Registry::global().failpoint("dma.h2d");
  EXPECT_EQ(fp.fires(), 3u);  // initial attempt + max_retries
}

TEST(ChaosServe, RandomFaultsDegradeGracefullyAndDrainOnShutdown) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(120000), "serving chaos");

  const Dataset& ds = chaos_dataset();
  nn::ModelConfig mc;
  mc.in_channels = ds.feature_dim;
  mc.hidden_channels = 8;
  mc.out_channels = ds.num_classes;
  mc.num_layers = 2;
  mc.seed = 5;
  DeviceSim device;
  serve::ServeConfig sc;
  sc.fanouts = {4, 4};
  sc.queue_capacity = 16;  // small: wedges should force shedding, not OOM
  sc.batch.max_batch_nodes = 32;
  sc.batch.max_wait = std::chrono::microseconds(500);
  sc.num_prep_workers = 2;

  auto& reg = Registry::global();
  reg.configure("serve.prep.fail", TriggerSpec::prob(0.25, 71));
  reg.configure("serve.batcher.wedge", TriggerSpec::prob(0.2, 72).with_arg(1500));
  reg.configure("stream.wedge", TriggerSpec::prob(0.05, 73).with_arg(400));
  reg.configure("queue.serve_prep.pop.wedge",
                TriggerSpec::prob(0.1, 74).with_arg(300));
  reg.configure("pinned.exhausted", TriggerSpec::prob(0.05, 75));

  constexpr int kRequests = 150;
  std::vector<std::future<serve::Response>> futures;
  int ok = 0, shed = 0, failed = 0;
  {
    serve::InferenceServer server(ds, nn::make_model("sage", mc), device, sc);
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) {
      futures.push_back(
          server.submit({static_cast<NodeId>((i * 37) % ds.graph.num_nodes()),
                         static_cast<NodeId>((i * 11 + 5) %
                                             ds.graph.num_nodes())}));
      if (i % 8 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    // Destruction mid-traffic must drain: every admitted request resolves.
  }
  for (auto& f : futures) {
    const serve::Response r = f.get();  // would hang on a wedged pipeline
    switch (r.status) {
      case serve::RequestStatus::kOk:
        ++ok;
        EXPECT_EQ(r.predictions.size(), 2u);
        for (const auto p : r.predictions) {
          EXPECT_GE(p, 0);
          EXPECT_LT(p, ds.num_classes);
        }
        break;
      case serve::RequestStatus::kShed:
        ++shed;
        break;
      case serve::RequestStatus::kFailed:
        ++failed;
        break;
      default:
        ADD_FAILURE() << "unexpected status "
                      << serve::to_string(r.status);
    }
  }
  EXPECT_EQ(ok + shed + failed, kRequests);
  EXPECT_GT(ok, 0) << "degradation must not be total";
  EXPECT_GT(failed, 0) << "the prep-fault schedule should have fired";
}

// --- cluster chaos: link/node faults on the simulated cluster ---------------
// (src/dist/cluster/; failpoints dist.net.drop, dist.net.degrade,
// dist.node.fail, dist.node.slow — see docs/DISTRIBUTED.md)

dist::ClusterConfig chaos_cluster_config() {
  const Dataset& ds = chaos_dataset();
  dist::ClusterConfig cc;
  cc.partition.num_nodes = 2;
  cc.partition.seed = 5;
  cc.cache.cache_percentage = 0.05;
  cc.cache.presample_epochs = 1;
  cc.model.in_channels = ds.feature_dim;
  cc.model.hidden_channels = 24;
  cc.model.out_channels = ds.num_classes;
  cc.model.num_layers = 2;
  cc.model.seed = 9;
  cc.fanouts = {6, 4};
  cc.batch_size = 256;
  cc.seed = 33;
  return cc;
}

/// One fresh 2-node epoch under whatever failpoint schedule is armed, at
/// the config's default pipeline depth (>= 1: faults land mid-overlap, with
/// neighbouring batches' fetches already posted on the interconnect).
dist::ClusterEpochResult run_cluster_epoch() {
  dist::ClusterTrainer t(chaos_dataset(), chaos_cluster_config());
  return t.train_epoch(0);
}

/// Same epoch at an explicit pipeline depth (0 = empty prefetch window).
dist::ClusterEpochResult run_cluster_epoch_at_depth(int depth) {
  dist::ClusterConfig cc = chaos_cluster_config();
  cc.pipeline_depth = depth;
  dist::ClusterTrainer t(chaos_dataset(), cc);
  return t.train_epoch(0);
}

TEST(ChaosCluster, DroppedMessagesRetryWithoutChangingResults) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(120000), "cluster drop chaos");

  const auto baseline = run_cluster_epoch();
  ASSERT_GT(baseline.remote_feature_bytes, 0u);
  ASSERT_EQ(baseline.net_retries, 0);

  // Every 3rd message attempt is dropped: each drop is retried within the
  // interconnect's bounded budget, charged wire time + backoff, and the
  // payload is committed only on the delivered attempt — so the training
  // outcome and the delivered traffic are identical to the clean run.
  Registry::global().configure("dist.net.drop", TriggerSpec::every(3));
  const auto dropped = run_cluster_epoch();
  EXPECT_GT(dropped.net_retries, 0) << "the schedule should have dropped";
  EXPECT_EQ(dropped.mean_loss, baseline.mean_loss)
      << "message drops must be lossless";
  EXPECT_EQ(dropped.remote_feature_bytes, baseline.remote_feature_bytes);
  EXPECT_EQ(dropped.wire_bytes, baseline.wire_bytes);
  EXPECT_GT(dropped.sim_net_seconds, baseline.sim_net_seconds)
      << "retries must cost simulated time";
}

TEST(ChaosCluster, UndeliverableMessageRaisesNetError) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(120000), "cluster drop exhaustion");
  Registry::global().configure("dist.net.drop", TriggerSpec::always());
  EXPECT_THROW(run_cluster_epoch(), dist::NetError);
}

TEST(ChaosCluster, DegradedLinksSlowTheEpochButChangeNothingElse) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(120000), "cluster degrade chaos");

  const auto baseline = run_cluster_epoch();
  // Quarter-bandwidth links on every message.
  Registry::global().configure("dist.net.degrade",
                               TriggerSpec::always().with_arg(4));
  const auto degraded = run_cluster_epoch();
  EXPECT_EQ(degraded.mean_loss, baseline.mean_loss);
  EXPECT_EQ(degraded.remote_feature_bytes, baseline.remote_feature_bytes);
  EXPECT_EQ(degraded.net_retries, 0);
  EXPECT_GT(degraded.sim_net_seconds, baseline.sim_net_seconds)
      << "a degraded link must only cost simulated bandwidth";
}

TEST(ChaosCluster, FailedNodeStepRetriesLosslessly) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(120000), "cluster node-fail chaos");

  const auto baseline = run_cluster_epoch();
  // The 2nd step attempt anywhere in the cluster fails once; the node
  // redoes the step (deterministic resampling => identical batch).
  Registry::global().configure("dist.node.fail", TriggerSpec::nth(2));
  const auto failed = run_cluster_epoch();
  EXPECT_EQ(failed.node_retries, 1);
  EXPECT_EQ(failed.mean_loss, baseline.mean_loss)
      << "a retried node step must be lossless";
  EXPECT_EQ(failed.remote_feature_bytes, baseline.remote_feature_bytes);
}

TEST(ChaosCluster, PermanentNodeFailureRaisesClusterError) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(120000), "cluster node loss");
  Registry::global().configure("dist.node.fail", TriggerSpec::always());
  EXPECT_THROW(run_cluster_epoch(), dist::ClusterError);
}

TEST(ChaosCluster, WedgedNodeIsFlaggedAsStraggler) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(120000), "cluster straggler chaos");

  // Wedge one step attempt for 0.6 s — far above both the absolute floor
  // (0.25 s) and factor x median of this tiny epoch — on whichever node
  // takes the first hit. Exactly that node must be flagged.
  Registry::global().configure("dist.node.slow",
                               TriggerSpec::nth(1).with_arg(600000));
  const auto wedged = run_cluster_epoch();
  ASSERT_EQ(wedged.stragglers.size(), 1u);
  const int slow = wedged.stragglers[0];
  EXPECT_GT(wedged.node_seconds[static_cast<std::size_t>(slow)], 0.6);
  EXPECT_EQ(wedged.node_retries, 0);

  // A clean epoch of the same shape flags nobody.
  Registry::global().disarm_all();
  const auto clean = run_cluster_epoch();
  EXPECT_TRUE(clean.stragglers.empty());
}

TEST(ChaosCluster, RetriedPostedFetchDeliversIntactPayload) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(120000), "async drop retry");

  // Clean async baseline.
  dist::InterconnectConfig cfg;
  std::vector<char> payload(1 << 12);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31 + 7);
  }
  std::vector<char> out(payload.size());
  dist::Interconnect clean(2, cfg);
  const auto clean_posted =
      clean.post_fetch(0, 1, payload.data(), out.data(), payload.size(), 0.0);

  // First attempt dropped, retry delivered: the posted fetch completes
  // later (wire time of both attempts + backoff) but wait_fetch still
  // commits the intact payload — a drop can never leave torn bytes.
  Registry::global().configure("dist.net.drop", TriggerSpec::nth(1));
  dist::Interconnect net(2, cfg);
  std::fill(out.begin(), out.end(), 0);
  const auto posted =
      net.post_fetch(0, 1, payload.data(), out.data(), payload.size(), 0.0);
  EXPECT_EQ(net.retries(), 1);
  EXPECT_GT(posted.completion, clean_posted.completion)
      << "the dropped attempt must cost simulated time";
  EXPECT_DOUBLE_EQ(net.wait_fetch(posted.id), posted.completion);
  EXPECT_EQ(out, payload);
  EXPECT_EQ(net.pending_fetches(), 0);
}

TEST(ChaosCluster, TrainerDrainsInFlightFetchesOnFailure) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(120000), "pipeline drain on failure");

  // No retry budget: the first dropped message is undeliverable, and it
  // fires mid-overlap — fetches for the neighbouring in-flight batches are
  // already posted when the epoch aborts. The trainer must drain them all
  // before surfacing NetError, leaving nothing in flight.
  dist::ClusterConfig cc = chaos_cluster_config();
  cc.net.max_retries = 0;
  ASSERT_GE(cc.pipeline_depth, 1);
  Registry::global().configure("dist.net.drop", TriggerSpec::every(3));
  dist::ClusterTrainer t(chaos_dataset(), cc);
  EXPECT_THROW(t.train_epoch(0), dist::NetError);
  EXPECT_EQ(t.interconnect().pending_fetches(), 0)
      << "an aborted epoch must not leave posted fetches in flight";
}

TEST(ChaosCluster, MidOverlapFaultsAreBitwiseInvariantAcrossDepths) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(120000), "mid-overlap determinism");

  // The full invariance square: {depth 0, depth 2} x {clean, faulted} all
  // produce the same losses and deliver the same traffic. Drops land
  // mid-overlap at depth 2 (three batches in flight) and are retried inside
  // the posted fetch.
  const auto none_clean = run_cluster_epoch_at_depth(0);
  const auto pipe_clean = run_cluster_epoch_at_depth(2);
  Registry::global().configure("dist.net.drop", TriggerSpec::every(3));
  const auto none_fault = run_cluster_epoch_at_depth(0);
  const auto pipe_fault = run_cluster_epoch_at_depth(2);
  Registry::global().disarm_all();

  EXPECT_GT(pipe_fault.net_retries, 0) << "the schedule should have dropped";
  for (const auto* r : {&pipe_clean, &none_fault, &pipe_fault}) {
    EXPECT_EQ(r->mean_loss, none_clean.mean_loss);
    EXPECT_EQ(r->remote_feature_bytes, none_clean.remote_feature_bytes);
    EXPECT_EQ(r->remote_rows_fetched, none_clean.remote_rows_fetched);
  }
  // Overlap still wins under faults: retries inflate the simulated epoch at
  // both depths, but prefetching keeps them off the critical path wherever
  // compute covers them.
  EXPECT_LT(pipe_fault.sim_epoch_seconds, none_fault.sim_epoch_seconds);
}

TEST(ChaosCluster, DegradedLinkMidOverlapStallsThePipelineDeterministically) {
  SKIP_WITHOUT_FAILPOINTS();
  ScopedDisarm guard;
  Watchdog wd(std::chrono::milliseconds(120000), "mid-overlap degrade");

  const auto clean = run_cluster_epoch_at_depth(2);
  // 64x slower links: posted fetches now outlast the compute window, so
  // the pipeline records stalls — deterministically.
  Registry::global().configure("dist.net.degrade",
                               TriggerSpec::always().with_arg(64));
  const auto a = run_cluster_epoch_at_depth(2);
  const auto b = run_cluster_epoch_at_depth(2);
  EXPECT_EQ(a.mean_loss, clean.mean_loss)
      << "a degraded link must only cost simulated time";
  EXPECT_EQ(a.remote_feature_bytes, clean.remote_feature_bytes);
  EXPECT_GT(a.sim_epoch_seconds, clean.sim_epoch_seconds);
  EXPECT_EQ(a.mean_loss, b.mean_loss);
  EXPECT_DOUBLE_EQ(a.sim_epoch_seconds, b.sim_epoch_seconds);
  EXPECT_DOUBLE_EQ(a.stall_seconds, b.stall_seconds);
}

}  // namespace
}  // namespace salient
