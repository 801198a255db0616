// Cluster-simulation tests (src/dist/cluster/, docs/DISTRIBUTED.md):
// partition invariants (unique ownership, symmetric halo/boundary maps),
// batch chunking, interconnect timing/occupancy/payload integrity
// (post_fetch/wait_fetch, duplex NIC accounting), remote cache plans against
// the uncached per-owner grouping, monotone replication under growing
// capacity, and the trainer's determinism ladder — a 1-node cluster
// reproduces the single-node Trainer's loss trajectory bitwise, a fixed
// (seed, node count, pipeline depth) is bitwise reproducible, 1/2/4-node
// runs learn while keeping replicas exactly in sync, and every prefetch
// depth reproduces the depth-0 (empty window) losses bitwise while strictly
// lowering simulated epoch time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <string>

#include "dist/cluster/cluster_trainer.h"
#include "dist/cluster/interconnect.h"
#include "dist/cluster/partitioner.h"
#include "dist/cluster/remote_cache.h"
#include "graph/dataset.h"
#include "sampling/distributed.h"
#include "sampling/fast_sampler.h"
#include "train/trainer.h"

namespace salient {
namespace {

using dist::build_cluster_partition;
using dist::ClusterConfig;
using dist::ClusterPartition;
using dist::ClusterPartitionConfig;
using dist::ClusterTrainer;
using dist::Interconnect;
using dist::InterconnectConfig;
using dist::PartitionStrategy;
using dist::RemoteFeatureCache;

Dataset& cluster_dataset() {
  static Dataset ds = [] {
    DatasetConfig c;
    c.name = "cluster-test";
    c.num_nodes = 4000;
    c.feature_dim = 16;
    c.num_classes = 5;
    c.avg_degree = 9;
    c.powerlaw_exponent = 2.0;  // skewed degrees: caching has something to do
    c.p_in = 0.85;
    c.feature_signal = 0.4;
    c.feature_noise = 0.8;
    c.seed = 77;
    return generate_dataset(c);
  }();
  return ds;
}

ClusterConfig cluster_config(int nodes, double cache_pct = 0.0,
                             CachePolicyKind policy =
                                 CachePolicyKind::kPresample) {
  const Dataset& ds = cluster_dataset();
  ClusterConfig cc;
  cc.partition.num_nodes = nodes;
  cc.partition.strategy = PartitionStrategy::kGreedy;
  cc.partition.seed = 5;
  cc.cache.policy = policy;
  cc.cache.cache_percentage = cache_pct;
  cc.cache.presample_epochs = 1;
  cc.model.in_channels = ds.feature_dim;
  cc.model.hidden_channels = 32;
  cc.model.out_channels = ds.num_classes;
  cc.model.num_layers = 2;
  cc.model.seed = 9;
  cc.fanouts = {6, 4};
  cc.batch_size = 256;
  cc.seed = 21;
  cc.lr = 5e-3;
  return cc;
}

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

TEST(ClusterPartition, InvariantsHoldForBothStrategies) {
  const Dataset& ds = cluster_dataset();
  for (const auto strategy :
       {PartitionStrategy::kHash, PartitionStrategy::kGreedy}) {
    for (const int nodes : {1, 2, 4}) {
      ClusterPartitionConfig cfg;
      cfg.num_nodes = nodes;
      cfg.strategy = strategy;
      cfg.seed = 3;
      const ClusterPartition cp = build_cluster_partition(ds.graph, cfg);
      ASSERT_TRUE(cp.valid(ds.graph))
          << dist::partition_strategy_name(strategy) << " x" << nodes;

      // Unique ownership: every vertex owned exactly once.
      std::int64_t owned_total = 0;
      std::vector<char> seen(static_cast<std::size_t>(ds.graph.num_nodes()),
                             0);
      for (int p = 0; p < nodes; ++p) {
        owned_total += static_cast<std::int64_t>(cp.owned[p].size());
        for (const NodeId v : cp.owned[p]) {
          ASSERT_EQ(cp.owner_of(v), p);
          ASSERT_FALSE(seen[static_cast<std::size_t>(v)]);
          seen[static_cast<std::size_t>(v)] = 1;
        }
      }
      ASSERT_EQ(owned_total, ds.graph.num_nodes());

      // Symmetric boundary view: q's boundary toward p is exactly the
      // q-owned slice of p's halo.
      for (int p = 0; p < nodes; ++p) {
        ASSERT_TRUE(cp.boundary[static_cast<std::size_t>(p)]
                        [static_cast<std::size_t>(p)].empty());
        std::int64_t boundary_total = 0;
        for (int q = 0; q < nodes; ++q) {
          for (const NodeId v :
               cp.boundary[static_cast<std::size_t>(q)]
                          [static_cast<std::size_t>(p)]) {
            ASSERT_EQ(cp.owner_of(v), q);
            ASSERT_TRUE(std::binary_search(cp.halo[p].begin(),
                                           cp.halo[p].end(), v));
            ++boundary_total;
          }
        }
        ASSERT_EQ(boundary_total,
                  static_cast<std::int64_t>(cp.halo[p].size()));
      }

      if (nodes == 1) {
        ASSERT_EQ(cp.total_halo(), 0);
        ASSERT_DOUBLE_EQ(cp.edge_cut(), 0.0);
      }
    }
  }
}

TEST(ClusterPartition, GreedyCutsFewerEdgesThanHash) {
  const Dataset& ds = cluster_dataset();
  ClusterPartitionConfig cfg;
  cfg.num_nodes = 4;
  cfg.strategy = PartitionStrategy::kHash;
  const auto hash = build_cluster_partition(ds.graph, cfg);
  cfg.strategy = PartitionStrategy::kGreedy;
  const auto greedy = build_cluster_partition(ds.graph, cfg);
  EXPECT_LT(greedy.edge_cut(), hash.edge_cut());
  EXPECT_LT(greedy.total_halo(), hash.total_halo());
  EXPECT_LE(greedy.balance(), cfg.capacity_slack + 0.05);
}

TEST(ClusterPartition, StrategyNamesRoundTrip) {
  EXPECT_EQ(dist::parse_partition_strategy("hash"), PartitionStrategy::kHash);
  EXPECT_EQ(dist::parse_partition_strategy("greedy"),
            PartitionStrategy::kGreedy);
  EXPECT_STREQ(dist::partition_strategy_name(PartitionStrategy::kHash),
               "hash");
  EXPECT_STREQ(dist::partition_strategy_name(PartitionStrategy::kGreedy),
               "greedy");
  EXPECT_THROW(dist::parse_partition_strategy("metis"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Batch chunking
// ---------------------------------------------------------------------------

TEST(ChunkRange, BalancedCoverAndOneNodeIdentity) {
  for (const std::int64_t rows : {1, 2, 7, 256, 257, 1000}) {
    for (const int world : {1, 2, 3, 4, 8}) {
      std::int64_t covered = 0;
      std::int64_t prev_end = 0;
      std::int64_t min_size = rows, max_size = 0;
      for (int p = 0; p < world; ++p) {
        const ChunkRange r = chunk_range(rows, world, p);
        ASSERT_EQ(r.begin, prev_end);  // contiguous, in rank order
        prev_end = r.end;
        covered += r.size();
        min_size = std::min(min_size, r.size());
        max_size = std::max(max_size, r.size());
      }
      ASSERT_EQ(covered, rows);
      ASSERT_LE(max_size - min_size, 1);  // balanced within one row
    }
    const ChunkRange whole = chunk_range(rows, 1, 0);
    ASSERT_EQ(whole.begin, 0);
    ASSERT_EQ(whole.end, rows);
  }
}

TEST(PipelineAdmitRange, AdmitsEveryBatchExactlyOnceAheadOfTraining) {
  for (const int depth : {0, 1, 2, 4}) {
    for (const std::int64_t steps : {1LL, 2LL, 3LL, 7LL, 10LL}) {
      std::vector<int> admitted(static_cast<std::size_t>(steps), 0);
      for (std::int64_t b = 0; b < steps; ++b) {
        const ChunkRange r = pipeline_admit_range(b, depth, steps);
        for (std::int64_t j = r.begin; j < r.end; ++j) {
          ASSERT_GE(j, b) << "a batch may not be admitted after it trains";
          ASSERT_LE(j, b + depth) << "admission must respect the depth bound";
          ++admitted[static_cast<std::size_t>(j)];
        }
      }
      for (std::int64_t j = 0; j < steps; ++j) {
        ASSERT_EQ(admitted[static_cast<std::size_t>(j)], 1)
            << "batch " << j << " at depth " << depth << ", " << steps
            << " steps";
      }
      // depth 0 is the empty window: each batch enters at its own step.
      if (depth == 0) {
        const ChunkRange r = pipeline_admit_range(steps - 1, 0, steps);
        ASSERT_EQ(r.size(), 1);
        ASSERT_EQ(r.begin, steps - 1);
      }
    }
  }
  EXPECT_THROW(pipeline_admit_range(-1, 0, 1), std::invalid_argument);
  EXPECT_THROW(pipeline_admit_range(0, -1, 1), std::invalid_argument);
  EXPECT_THROW(pipeline_admit_range(0, 0, 0), std::invalid_argument);
}

TEST(GroupRowsByOwner, PartitionsEveryInputRow) {
  const Dataset& ds = cluster_dataset();
  ClusterPartitionConfig cfg;
  cfg.num_nodes = 3;
  const auto cp = build_cluster_partition(ds.graph, cfg);
  FastSampler sampler(ds.graph, {6, 4});
  const Mfg mfg = sampler.sample({ds.train_idx.data(), 128}, 99);
  const auto rows = group_rows_by_owner(mfg, cp.assignment);
  ASSERT_EQ(rows.size(), 3u);
  std::int64_t covered = 0;
  for (int q = 0; q < 3; ++q) {
    ASSERT_TRUE(std::is_sorted(rows[q].begin(), rows[q].end()));
    for (const std::int64_t i : rows[q]) {
      ASSERT_EQ(cp.owner_of(mfg.n_ids[static_cast<std::size_t>(i)]), q);
    }
    covered += static_cast<std::int64_t>(rows[q].size());
  }
  ASSERT_EQ(covered, static_cast<std::int64_t>(mfg.n_ids.size()));
}

// ---------------------------------------------------------------------------
// Interconnect
// ---------------------------------------------------------------------------

TEST(InterconnectTest, PostedFetchTimeMatchesModelAndCommitsAtWait) {
  InterconnectConfig cfg;
  cfg.link_gbps = 8.0;
  cfg.latency_us = 50.0;
  cfg.message_overhead_bytes = 100;
  Interconnect net(2, cfg);

  std::vector<float> src(250, 1.5f), dst(250, 0.0f);
  const std::size_t bytes = src.size() * sizeof(float);  // 1000 B payload
  const auto posted = net.post_fetch(0, 1, src.data(), dst.data(), bytes, 0.5);
  const double expect =
      0.5 + 50e-6 + static_cast<double>(bytes + 100) * 8.0 / (8.0 * 1e9);
  EXPECT_NEAR(posted.completion, expect, 1e-12);
  EXPECT_NEAR(net.busy_seconds(), expect - 0.5, 1e-12);
  EXPECT_EQ(net.messages(), 1);
  EXPECT_EQ(net.bytes_on_wire(), bytes + 100);
  EXPECT_EQ(net.retries(), 0);
  EXPECT_EQ(net.pending_fetches(), 1);
  // Commit happens at wait, not post — the receive buffer is untouched
  // until then, like a NIC receive ring.
  EXPECT_EQ(dst[0], 0.0f);
  EXPECT_DOUBLE_EQ(net.wait_fetch(posted.id), posted.completion);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(net.pending_fetches(), 0);
  // A handle is consumed by its wait.
  EXPECT_THROW(net.wait_fetch(posted.id), std::invalid_argument);
}

TEST(InterconnectTest, ReceiverNicSerializesConcurrentSenders) {
  InterconnectConfig cfg;
  cfg.latency_us = 10.0;
  Interconnect net(3, cfg);
  std::vector<char> payload(1 << 16), sink(1 << 16);
  const double e1 =
      net.post_fetch(0, 2, payload.data(), sink.data(), payload.size(), 0.0)
          .completion;
  // Same destination, same requested start: must queue behind the first.
  const double e2 =
      net.post_fetch(1, 2, payload.data(), sink.data(), payload.size(), 0.0)
          .completion;
  EXPECT_GT(e2, e1);
  EXPECT_NEAR(e2 - e1, e1, 1e-12);  // identical message => identical cost
  // A message between two idle NICs at time 0 is not delayed.
  Interconnect fresh(3, cfg);
  const double e3 =
      fresh.post_fetch(0, 1, payload.data(), sink.data(), payload.size(), 0.0)
          .completion;
  EXPECT_NEAR(e3, e1, 1e-12);
}

TEST(InterconnectTest, AllreduceChargesTwoRingPhases) {
  InterconnectConfig cfg;
  cfg.latency_us = 20.0;
  cfg.message_overhead_bytes = 64;
  const std::size_t buffer = 1 << 20;
  for (const int world : {2, 4}) {
    Interconnect net(world, cfg);
    const double end = net.allreduce_time(buffer, 0.0);
    const double chunk = static_cast<double>(buffer) / world + 64.0;
    const double expect =
        2.0 * (world - 1) * (20e-6 + chunk * 8.0 / (10.0 * 1e9));
    EXPECT_NEAR(end, expect, 1e-9) << "world " << world;
  }
  Interconnect one(1, cfg);
  EXPECT_DOUBLE_EQ(one.allreduce_time(buffer, 0.25), 0.25);
}

TEST(InterconnectTest, DuplexNicOverlapsOppositeDirections) {
  // TX and RX NICs are accounted independently: concurrent post_fetch from
  // both endpoints of a link overlaps perfectly (virtual time of one
  // message), while two same-direction messages serialize on the NICs.
  InterconnectConfig cfg;
  cfg.latency_us = 10.0;
  std::vector<char> a(1 << 16, 'a'), b(1 << 16, 'b');
  std::vector<char> out_a(1 << 16), out_b(1 << 16);

  Interconnect serial(2, cfg);
  const auto s1 =
      serial.post_fetch(0, 1, a.data(), out_a.data(), a.size(), 0.0);
  const auto s2 =
      serial.post_fetch(0, 1, b.data(), out_b.data(), b.size(), 0.0);
  EXPECT_GT(s2.completion, s1.completion);  // same direction: queued

  Interconnect duplex(2, cfg);
  const auto d1 =
      duplex.post_fetch(0, 1, a.data(), out_a.data(), a.size(), 0.0);
  const auto d2 =
      duplex.post_fetch(1, 0, b.data(), out_b.data(), b.size(), 0.0);
  EXPECT_DOUBLE_EQ(d2.completion, d1.completion);  // duplex: full overlap
  EXPECT_LT(std::max(d1.completion, d2.completion), s2.completion);
  // Both directions still deliver their own intact payload.
  EXPECT_DOUBLE_EQ(duplex.wait_fetch(d1.id), d1.completion);
  EXPECT_DOUBLE_EQ(duplex.wait_fetch(d2.id), d2.completion);
  EXPECT_EQ(out_a, a);
  EXPECT_EQ(out_b, b);
  // Busy seconds sum per link, so the overlapped pair still charges two
  // message durations — that is what distinguishes busy time from the
  // critical-path epoch time.
  EXPECT_DOUBLE_EQ(duplex.busy_seconds(), serial.busy_seconds());
}

TEST(InterconnectTest, RejectsBadConfigAndNodes) {
  EXPECT_THROW(Interconnect(0, {}), std::invalid_argument);
  InterconnectConfig bad;
  bad.link_gbps = 0.0;
  EXPECT_THROW(Interconnect(2, bad), std::invalid_argument);
  Interconnect net(2, {});
  char c = 0;
  EXPECT_THROW(net.post_fetch(0, 2, &c, &c, 1, 0.0), std::invalid_argument);
  EXPECT_EQ(net.pending_fetches(), 0);
}

// ---------------------------------------------------------------------------
// Remote feature cache
// ---------------------------------------------------------------------------

TEST(RemoteCache, PlanPartitionsRowsAndMatchesOwnerGrouping) {
  const Dataset& ds = cluster_dataset();
  ClusterPartitionConfig pcfg;
  pcfg.num_nodes = 2;
  const auto cp = build_cluster_partition(ds.graph, pcfg);

  CachePolicyConfig cfg;
  cfg.kind = CachePolicyKind::kDegree;
  cfg.fanouts = {6, 4};
  const RemoteFeatureCache cache(ds, cp, /*node=*/0, 0.05, cfg);
  EXPECT_STREQ(cache.cache().policy_name(), "degree");
  EXPECT_GT(cache.cache().capacity(), 0);

  FastSampler sampler(ds.graph, {6, 4});
  const Mfg mfg = sampler.sample({ds.train_idx.data(), 128}, 7);
  const auto plan = cache.plan(mfg);
  const auto by_owner = group_rows_by_owner(mfg, cp.assignment);

  // Every input row is exactly one of: cache hit, local, fetched.
  std::int64_t planned = static_cast<std::int64_t>(plan.local_rows.size());
  for (const auto& f : plan.fetches) {
    EXPECT_NE(f.owner, 0);  // never fetch from ourselves
    EXPECT_TRUE(std::is_sorted(f.rows.begin(), f.rows.end()));
    for (const std::int64_t i : f.rows) {
      EXPECT_EQ(cp.owner_of(mfg.n_ids[static_cast<std::size_t>(i)]),
                f.owner);
    }
    planned += static_cast<std::int64_t>(f.rows.size());
  }
  EXPECT_EQ(planned + plan.remote_hits,
            static_cast<std::int64_t>(mfg.n_ids.size()));
  EXPECT_EQ(plan.remote_misses,
            static_cast<std::int64_t>(mfg.n_ids.size()) -
                static_cast<std::int64_t>(plan.local_rows.size()) -
                plan.remote_hits);
  // Local rows are exactly the owner grouping's node-0 rows.
  EXPECT_EQ(plan.local_rows, by_owner[0]);
  // All hits are remote vertices (locals are never admitted).
  for (const NodeId v : cache.cache().resident_nodes()) {
    EXPECT_NE(cp.owner_of(v), 0);
  }
  EXPECT_GT(plan.remote_hits, 0);  // 5% of a skewed graph catches hubs
  EXPECT_GT(plan.remote_hit_rate(), 0.0);

  // The staging layout: the missing rows' sources are a permutation of
  // [0, num_missing) — owned rows first, then each fetch as one contiguous
  // block, in fetch order.
  EXPECT_EQ(plan.plan.num_missing, planned);
  std::vector<std::int64_t> slots;
  for (std::size_t i = 0; i < mfg.n_ids.size(); ++i) {
    if (!plan.plan.from_cache[i]) slots.push_back(plan.plan.source[i]);
  }
  std::sort(slots.begin(), slots.end());
  std::vector<std::int64_t> iota(static_cast<std::size_t>(planned));
  std::iota(iota.begin(), iota.end(), std::int64_t{0});
  EXPECT_EQ(slots, iota);
  std::int64_t next = 0;
  for (const std::int64_t i : plan.local_rows) {
    EXPECT_EQ(plan.plan.source[static_cast<std::size_t>(i)], next++);
  }
  for (const auto& f : plan.fetches) {
    for (const std::int64_t i : f.rows) {
      EXPECT_EQ(plan.plan.source[static_cast<std::size_t>(i)], next++);
    }
  }
}

TEST(RemoteCache, StaticPoliciesGrowMonotonically) {
  // The structural fact behind the dist_bench --check gate: a static
  // policy's resident set at a smaller capacity is a subset of its resident
  // set at a larger one, so remote traffic cannot increase with capacity.
  const Dataset& ds = cluster_dataset();
  ClusterPartitionConfig pcfg;
  pcfg.num_nodes = 2;
  const auto cp = build_cluster_partition(ds.graph, pcfg);
  for (const auto policy :
       {CachePolicyKind::kDegree, CachePolicyKind::kPresample}) {
    std::vector<NodeId> prev;
    for (const double pct : {0.02, 0.05, 0.1}) {
      CachePolicyConfig cfg;
      cfg.kind = policy;
      cfg.presample_epochs = 1;
      cfg.fanouts = {6, 4};
      cfg.batch_size = 256;
      cfg.seed = 21;
      const RemoteFeatureCache cache(ds, cp, 1, pct, cfg);
      auto resident = cache.cache().resident_nodes();
      ASSERT_TRUE(std::includes(resident.begin(), resident.end(),
                                prev.begin(), prev.end()))
          << "capacity growth must only add resident rows";
      prev = std::move(resident);
    }
  }
}

TEST(RemoteCache, ZeroCapacityIsAlwaysFetchAndLruAdmitsRemotesOnly) {
  const Dataset& ds = cluster_dataset();
  ClusterPartitionConfig pcfg;
  pcfg.num_nodes = 2;
  const auto cp = build_cluster_partition(ds.graph, pcfg);

  CachePolicyConfig presample;
  presample.kind = CachePolicyKind::kPresample;
  const RemoteFeatureCache uncached(ds, cp, 0, 0.0, presample);
  EXPECT_EQ(uncached.cache().capacity(), 0);
  FastSampler sampler(ds.graph, {6, 4});
  const Mfg mfg = sampler.sample({ds.train_idx.data(), 64}, 3);
  const auto plan = uncached.plan(mfg);
  EXPECT_EQ(plan.remote_hits, 0);
  const auto by_owner = group_rows_by_owner(mfg, cp.assignment);
  std::int64_t fetched = 0;
  for (const auto& f : plan.fetches) {
    fetched += static_cast<std::int64_t>(f.rows.size());
  }
  EXPECT_EQ(fetched, static_cast<std::int64_t>(by_owner[1].size()));

  CachePolicyConfig lru;
  lru.kind = CachePolicyKind::kLru;
  const RemoteFeatureCache dyn(ds, cp, 0, 0.05, lru);
  EXPECT_STREQ(dyn.cache().policy_name(), "lru");
  (void)dyn.plan(mfg);  // populates via admission
  for (const NodeId v : dyn.cache().resident_nodes()) {
    EXPECT_NE(cp.owner_of(v), 0);
  }
  const auto warm = dyn.plan(mfg);  // same batch again: hits now
  EXPECT_GT(warm.remote_hits, 0);
}

TEST(RemoteCache, RejectsAnOutOfRangeNodeBeforeTheWarmup) {
  // The presample warmup samples the node's chunk of every batch; for node
  // -1 that chunk starts before the batch, so the node must be rejected
  // before the warmup runs, not after.
  const Dataset& ds = cluster_dataset();
  ClusterPartitionConfig pcfg;
  pcfg.num_nodes = 2;
  const auto cp = build_cluster_partition(ds.graph, pcfg);
  CachePolicyConfig cfg;
  cfg.kind = CachePolicyKind::kPresample;
  cfg.fanouts = {6, 4};
  cfg.batch_size = 256;
  for (const int node : {-1, 2}) {
    EXPECT_THROW(RemoteFeatureCache(ds, cp, node, 0.05, cfg),
                 std::invalid_argument)
        << "node " << node;
  }
}

// ---------------------------------------------------------------------------
// ClusterTrainer
// ---------------------------------------------------------------------------

TEST(ClusterTrainerTest, OneNodeMatchesSingleNodeTrainerBitwise) {
  const Dataset& ds = cluster_dataset();

  // Single-node reference: pipelined SALIENT trainer, one worker, no cache.
  auto model = nn::make_model("sage", [&] {
    nn::ModelConfig mc;
    mc.in_channels = ds.feature_dim;
    mc.hidden_channels = 32;
    mc.out_channels = ds.num_classes;
    mc.num_layers = 2;
    mc.seed = 9;
    return mc;
  }());
  DeviceSim device;
  TrainConfig tc;
  tc.loader.batch_size = 256;
  tc.loader.fanouts = {6, 4};
  tc.loader.num_workers = 1;
  tc.loader.seed = 21;
  tc.lr = 5e-3;
  Trainer trainer(ds, model, device, tc);

  ClusterTrainer cluster(ds, cluster_config(1));
  for (int epoch = 0; epoch < 2; ++epoch) {
    const EpochStats ref = trainer.train_epoch(epoch);
    const auto got = cluster.train_epoch(epoch);
    ASSERT_EQ(got.num_steps, ref.num_batches);
    ASSERT_EQ(got.mean_loss, ref.mean_loss)
        << "1-node cluster must replay the single-node schedule bitwise "
        << "(epoch " << epoch << ")";
    ASSERT_EQ(got.remote_feature_bytes, 0u);
    ASSERT_EQ(got.wire_bytes, 0u);
    ASSERT_DOUBLE_EQ(got.sim_net_seconds, 0.0);
  }
  // Final parameters bitwise identical too.
  const auto ref_params = model->parameters();
  const auto got_params = cluster.replica(0)->parameters();
  ASSERT_EQ(ref_params.size(), got_params.size());
  for (std::size_t i = 0; i < ref_params.size(); ++i) {
    ASSERT_TRUE(
        allclose(ref_params[i].data(), got_params[i].data(), 0.0, 0.0))
        << "parameter " << i;
  }
}

TEST(ClusterTrainerTest, RejectsNonF16FeatureStoreAtConstruction) {
  DatasetConfig c;
  c.num_nodes = 500;
  c.feature_dim = 16;
  c.num_classes = 5;
  c.feature_dtype = DType::kF32;
  const Dataset f32 = generate_dataset(c);
  ClusterConfig cc = cluster_config(2);
  cc.model.in_channels = f32.feature_dim;
  try {
    ClusterTrainer t(f32, cc);
    FAIL() << "an f32 feature store must be rejected at construction";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("f16"), std::string::npos)
        << "the error must name the required dtype: " << e.what();
  }
}

TEST(ClusterTrainerTest, FixedSeedAndNodeCountIsDeterministic) {
  const Dataset& ds = cluster_dataset();
  auto run = [&] {
    ClusterTrainer t(ds, cluster_config(2, 0.05));
    std::vector<double> losses;
    std::vector<std::size_t> bytes;
    for (int e = 0; e < 2; ++e) {
      const auto r = t.train_epoch(e);
      losses.push_back(r.mean_loss);
      bytes.push_back(r.remote_feature_bytes);
    }
    return std::make_pair(losses, bytes);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first) << "losses must be bitwise reproducible";
  EXPECT_EQ(a.second, b.second) << "traffic must be exactly reproducible";
}

TEST(ClusterTrainerTest, MultiNodeLearnsStaysInSyncAndReportsTraffic) {
  const Dataset& ds = cluster_dataset();
  for (const int nodes : {2, 4}) {
    ClusterTrainer t(ds, cluster_config(nodes, 0.05));
    double first = 0, last = 0;
    for (int e = 0; e < 3; ++e) {
      const auto r = t.train_epoch(e);
      if (e == 0) first = r.mean_loss;
      last = r.mean_loss;
      EXPECT_TRUE(t.replicas_in_sync()) << nodes << " nodes, epoch " << e;
      EXPECT_GT(r.remote_feature_bytes, 0u);
      EXPECT_GT(r.sim_net_seconds, 0.0);
      EXPECT_EQ(r.remote_misses, r.remote_rows_fetched);
      EXPECT_EQ(static_cast<int>(r.node_seconds.size()), nodes);
      EXPECT_EQ(r.node_retries, 0);
      EXPECT_EQ(r.net_retries, 0);
    }
    EXPECT_LT(last, first) << nodes << "-node cluster must learn";
  }
}

TEST(ClusterTrainerTest, NodeCountsAgreeWithinTolerance) {
  // Different node counts sample different chunk seeds, so losses are not
  // bitwise equal — but the optimization problem is the same, and after the
  // same number of global steps the trajectories must agree closely.
  const Dataset& ds = cluster_dataset();
  std::vector<double> finals;
  for (const int nodes : {1, 2, 4}) {
    ClusterTrainer t(ds, cluster_config(nodes, 0.05));
    double last = 0;
    for (int e = 0; e < 3; ++e) last = t.train_epoch(e).mean_loss;
    finals.push_back(last);
  }
  for (std::size_t i = 1; i < finals.size(); ++i) {
    EXPECT_NEAR(finals[i], finals[0], 0.25 * std::abs(finals[0]))
        << "node count " << (1u << i);
  }
}

TEST(ClusterTrainerTest, CacheCutsTrafficWithoutChangingLosses) {
  // Replication only changes *where* feature rows come from, never their
  // values: loss trajectories are bitwise invariant to cache capacity,
  // while remote traffic strictly drops.
  const Dataset& ds = cluster_dataset();
  auto run = [&](double pct) {
    ClusterTrainer t(ds, cluster_config(2, pct));
    std::vector<double> losses;
    std::size_t bytes = 0;
    for (int e = 0; e < 2; ++e) {
      const auto r = t.train_epoch(e);
      losses.push_back(r.mean_loss);
      bytes += r.remote_feature_bytes;
    }
    return std::make_pair(losses, bytes);
  };
  const auto uncached = run(0.0);
  const auto cached = run(0.1);
  EXPECT_EQ(uncached.first, cached.first)
      << "caching must not perturb training";
  EXPECT_LT(cached.second, uncached.second);
}

// ---------------------------------------------------------------------------
// Prefetch depth (pipeline_depth; 0 = empty window)
// ---------------------------------------------------------------------------

/// One run's observables: everything that must be depth-invariant (losses,
/// traffic) plus the simulated times that must not be.
struct ProtocolRun {
  std::vector<double> losses;
  std::int64_t rows_fetched = 0;
  std::size_t feature_bytes = 0;
  double sim_epoch = 0;
  double overlap_saved = 0;
  double stall = 0;
};

ProtocolRun run_protocol(int depth, int nodes, double cache_pct,
                         CachePolicyKind policy, int epochs = 2,
                         sim::Timeline* timeline = nullptr) {
  ClusterConfig cc = cluster_config(nodes, cache_pct, policy);
  cc.pipeline_depth = depth;
  ClusterTrainer t(cluster_dataset(), cc);
  t.set_timeline(timeline);
  ProtocolRun run;
  for (int e = 0; e < epochs; ++e) {
    const auto r = t.train_epoch(e);
    EXPECT_EQ(r.pipeline_depth, depth);
    run.losses.push_back(r.mean_loss);
    run.rows_fetched += r.remote_rows_fetched;
    run.feature_bytes += r.remote_feature_bytes;
    run.sim_epoch += r.sim_epoch_seconds;
    run.overlap_saved += r.overlap_saved_seconds;
    run.stall += r.stall_seconds;
    EXPECT_TRUE(t.replicas_in_sync()) << "depth " << depth << " epoch " << e;
  }
  EXPECT_EQ(t.interconnect().pending_fetches(), 0)
      << "every posted fetch must be waited on by epoch end";
  return run;
}

TEST(ClusterPipeline, AnyDepthMatchesDepthZeroBitwise) {
  // The equivalence theorem of prefetching: overlap changes *when* fetches
  // move on the virtual clock, never what is trained on. Losses and traffic
  // are bitwise depth-invariant — including under the LRU policy, whose
  // cache state depends on the plan order every depth must therefore share
  // — while simulated epoch time strictly drops because fetches leave the
  // critical path. Overlap can hide at most the fetch time the empty window
  // exposes.
  for (const auto policy :
       {CachePolicyKind::kPresample, CachePolicyKind::kLru}) {
    const ProtocolRun none = run_protocol(0, 2, 0.05, policy);
    EXPECT_DOUBLE_EQ(none.overlap_saved, 0.0);
    EXPECT_GT(none.stall, 0.0);
    for (const int depth : {1, 2, 4}) {
      const ProtocolRun pipe = run_protocol(depth, 2, 0.05, policy);
      EXPECT_EQ(pipe.losses, none.losses)
          << "depth " << depth << " policy " << static_cast<int>(policy);
      EXPECT_EQ(pipe.rows_fetched, none.rows_fetched);
      EXPECT_EQ(pipe.feature_bytes, none.feature_bytes);
      EXPECT_LT(pipe.sim_epoch, none.sim_epoch)
          << "overlap must shorten the simulated epoch (depth " << depth
          << ")";
      EXPECT_GE(pipe.sim_epoch + none.stall, none.sim_epoch * (1 - 1e-12))
          << "depth " << depth << " hid more than depth 0 exposed";
      EXPECT_GT(pipe.overlap_saved, 0.0);
    }
  }
}

/// Strictly overlapping (start, end) pairs of node `p`'s compute spans and
/// the messages it receives.
int compute_fetch_overlaps(const sim::Timeline& tl, int p) {
  const std::string compute = "node" + std::to_string(p) + ".compute";
  const std::string rx = "net.rx" + std::to_string(p);
  int overlaps = 0;
  for (const auto& c : tl.spans()) {
    if (c.lane != compute) continue;
    for (const auto& m : tl.spans()) {
      if (m.lane == rx && m.start < c.end && m.end > c.start) ++overlaps;
    }
  }
  return overlaps;
}

TEST(ClusterPipeline, DepthZeroNeverOverlapsFetchesWithCompute) {
  // The empty window is the no-overlap reference: every batch posts its own
  // fetches at its step's start, so on the virtual clock no message a node
  // receives is in flight while that node computes, and all fetch time is
  // reported as stall. Any positive depth overlaps some.
  sim::Timeline none_tl;
  const ProtocolRun none = run_protocol(0, 2, 0.05,
                                        CachePolicyKind::kPresample,
                                        /*epochs=*/1, &none_tl);
  EXPECT_DOUBLE_EQ(none.overlap_saved, 0.0);
  EXPECT_GT(none.stall, 0.0);
  EXPECT_GT(none.sim_epoch, none.stall / 2);  // per-node stalls, 2 nodes
  sim::Timeline pipe_tl;
  run_protocol(2, 2, 0.05, CachePolicyKind::kPresample, /*epochs=*/1,
               &pipe_tl);
  int pipe_overlaps = 0;
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(compute_fetch_overlaps(none_tl, p), 0) << "node " << p;
    pipe_overlaps += compute_fetch_overlaps(pipe_tl, p);
  }
  EXPECT_GT(pipe_overlaps, 0);
}

TEST(ClusterPipeline, EveryDepthIsBitwiseReproducible) {
  // The determinism ladder holds rung by rung: a fixed (seed, nodes, depth)
  // reproduces losses, traffic and simulated times exactly.
  for (const int depth : {0, 1, 2, 4}) {
    const ProtocolRun a = run_protocol(depth, 2, 0.05,
                                       CachePolicyKind::kPresample);
    const ProtocolRun b = run_protocol(depth, 2, 0.05,
                                       CachePolicyKind::kPresample);
    EXPECT_EQ(a.losses, b.losses) << "depth " << depth;
    EXPECT_EQ(a.rows_fetched, b.rows_fetched) << "depth " << depth;
    EXPECT_DOUBLE_EQ(a.sim_epoch, b.sim_epoch) << "depth " << depth;
    EXPECT_DOUBLE_EQ(a.overlap_saved, b.overlap_saved) << "depth " << depth;
    EXPECT_DOUBLE_EQ(a.stall, b.stall) << "depth " << depth;
  }
}

TEST(ClusterPipeline, FourNodeEquivalenceAndSpeedup) {
  const ProtocolRun none =
      run_protocol(0, 4, 0.05, CachePolicyKind::kPresample, /*epochs=*/1);
  const ProtocolRun pipe =
      run_protocol(2, 4, 0.05, CachePolicyKind::kPresample, /*epochs=*/1);
  EXPECT_EQ(pipe.losses, none.losses);
  EXPECT_EQ(pipe.feature_bytes, none.feature_bytes);
  EXPECT_LT(pipe.sim_epoch, none.sim_epoch);
}

TEST(ClusterPipeline, RejectsNegativeDepthAndComputeRate) {
  ClusterConfig bad = cluster_config(2);
  bad.pipeline_depth = -1;
  EXPECT_THROW(ClusterTrainer(cluster_dataset(), bad),
               std::invalid_argument);
  ClusterConfig bad2 = cluster_config(2);
  bad2.sim_train_us_per_input_row = -0.5;
  EXPECT_THROW(ClusterTrainer(cluster_dataset(), bad2),
               std::invalid_argument);
}

}  // namespace
}  // namespace salient
