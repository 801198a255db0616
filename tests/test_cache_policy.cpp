// Cache-policy engine tests (src/prep/cache_policy.h, docs/CACHING.md):
// the FrequencyTable counting structure, per-policy behavior through the
// shared CachePolicy interface (parity of plan classification, missing-row
// slicing, and device assembly across static and dynamic policies), LRU
// admission/eviction/recency semantics, presample determinism across warmup
// pool sizes, partitioned placement over a cluster node's schedule, and
// auto-selection on a skewed access stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "device/device_sim.h"
#include "graph/dataset.h"
#include "graph/partition.h"
#include "obs/metrics.h"
#include "prep/cache_policy.h"
#include "prep/feature_cache.h"
#include "prep/frequency_table.h"
#include "prep/slicing.h"
#include "sampling/distributed.h"
#include "sampling/fast_sampler.h"
#include "util/thread_pool.h"

namespace salient {
namespace {

Dataset& policy_dataset() {
  static Dataset ds = [] {
    DatasetConfig c;
    c.name = "cache-policy-test";
    c.num_nodes = 3000;
    c.feature_dim = 16;
    c.num_classes = 5;
    c.avg_degree = 9;
    c.seed = 123;
    return generate_dataset(c);
  }();
  return ds;
}

/// A config whose warmup sampling matches the test workload below.
CachePolicyConfig policy_config(CachePolicyKind kind) {
  CachePolicyConfig c;
  c.kind = kind;
  c.fanouts = {6, 4};
  c.batch_size = 96;
  c.seed = 5;
  return c;
}

Mfg policy_test_mfg(std::uint64_t seed = 9) {
  const Dataset& ds = policy_dataset();
  std::vector<NodeId> batch;
  for (NodeId v = 0; v < 96; ++v) {
    batch.push_back((v * 37) % ds.graph.num_nodes());
  }
  FastSampler sampler(ds.graph, {6, 4});
  return sampler.sample(batch, seed);
}

// --- FrequencyTable ----------------------------------------------------------

TEST(FrequencyTable, CountsAndDistinct) {
  FrequencyTable t(100);
  EXPECT_EQ(t.distinct(), 0);
  EXPECT_EQ(t.count(7), 0);
  t.add(7);
  t.add(7, 3);
  t.add(42);
  EXPECT_EQ(t.count(7), 4);
  EXPECT_EQ(t.count(42), 1);
  EXPECT_EQ(t.count(8), 0);
  EXPECT_EQ(t.distinct(), 2);

  auto items = t.items();
  std::sort(items.begin(), items.end());
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], (std::pair<std::int64_t, std::int64_t>{7, 4}));
  EXPECT_EQ(items[1], (std::pair<std::int64_t, std::int64_t>{42, 1}));
}

TEST(FrequencyTable, ThrowsWhenFull) {
  FrequencyTable t(4);  // slot array: next pow2 >= 8
  // Insert distinct keys until the structural capacity is exhausted; the
  // table must throw rather than silently drop counts.
  EXPECT_THROW(
      {
        for (std::int64_t k = 0; k < 1000; ++k) t.add(k);
      },
      std::length_error);
}

TEST(FrequencyTable, ParallelCountsEqualSerial) {
  // The map (key -> count) must be independent of thread interleaving:
  // counts are commutative atomic adds, insertion is CAS-claimed.
  const std::int64_t n = 500;
  std::vector<std::int64_t> keys;
  for (std::int64_t i = 0; i < 20000; ++i) {
    keys.push_back((i * i + 13) % n);  // collisions galore
  }
  FrequencyTable serial(n);
  for (const auto k : keys) serial.add(k);

  FrequencyTable parallel(n);
  ThreadPool pool(4);
  pool.parallel_for(0, static_cast<std::int64_t>(keys.size()),
                    [&](std::int64_t b, std::int64_t e) {
                      for (std::int64_t i = b; i < e; ++i) {
                        parallel.add(keys[static_cast<std::size_t>(i)]);
                      }
                    });

  EXPECT_EQ(serial.distinct(), parallel.distinct());
  for (std::int64_t k = 0; k < n; ++k) {
    ASSERT_EQ(serial.count(k), parallel.count(k)) << "key " << k;
  }
}

// --- parse/name --------------------------------------------------------------

TEST(CachePolicy, ParseAndNameRoundTrip) {
  for (const auto kind :
       {CachePolicyKind::kLru, CachePolicyKind::kDegree,
        CachePolicyKind::kPresample, CachePolicyKind::kAuto}) {
    EXPECT_EQ(parse_cache_policy(cache_policy_name(kind)), kind);
  }
  EXPECT_THROW(parse_cache_policy("fifo"), std::invalid_argument);
  EXPECT_THROW(parse_cache_policy(""), std::invalid_argument);
}

TEST(CachePolicy, FactoryValidatesConfig) {
  CachePolicyConfig bad = policy_config(CachePolicyKind::kPresample);
  bad.presample_epochs = 0;
  EXPECT_THROW(make_cache_policy(bad), std::invalid_argument);
  bad = policy_config(CachePolicyKind::kPresample);
  bad.batch_size = 0;
  EXPECT_THROW(make_cache_policy(bad), std::invalid_argument);
  GraphPartition two_nodes;
  two_nodes.num_parts = 2;
  bad = policy_config(CachePolicyKind::kPresample);
  bad.partition = &two_nodes;
  for (const int node : {-1, 2}) {
    bad.node = node;
    EXPECT_THROW(make_cache_policy(bad), std::invalid_argument);
  }
}

// --- interface contract ------------------------------------------------------

class OverPinningPolicy final : public CachePolicy {
 public:
  const char* name() const override { return "overpin"; }
  std::vector<NodeId> pin(const Dataset&, std::int64_t capacity) override {
    std::vector<NodeId> out;
    for (NodeId v = 0; v <= capacity; ++v) out.push_back(v);  // one too many
    return out;
  }
};

TEST(CachePolicy, CacheRejectsOverPinning) {
  const Dataset& ds = policy_dataset();
  EXPECT_THROW(FeatureCache(ds, 10, std::make_unique<OverPinningPolicy>()),
               std::logic_error);
  EXPECT_THROW(FeatureCache(ds, 10, nullptr), std::invalid_argument);
}

// Every policy must satisfy the same plan contract: classification covers
// all input nodes, misses are densely numbered in input order, hit sources
// resolve to the right feature rows, and slicing the missing rows + device
// assembly reconstruct the exact uncached feature matrix.
class PolicyParity : public ::testing::TestWithParam<CachePolicyKind> {};

TEST_P(PolicyParity, PlanClassifiesEveryInputNode) {
  const Dataset& ds = policy_dataset();
  const FeatureCache cache(ds, 600, policy_config(GetParam()));
  const Mfg mfg = policy_test_mfg();
  const CachePlan plan = plan_cached_batch(mfg, cache);
  const auto n = static_cast<std::int64_t>(mfg.n_ids.size());
  ASSERT_EQ(static_cast<std::int64_t>(plan.from_cache.size()), n);
  ASSERT_EQ(static_cast<std::int64_t>(plan.source.size()), n);
  std::int64_t missing_seen = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    if (plan.from_cache[idx]) {
      EXPECT_GE(plan.source[idx], 0);
    } else {
      // Missing rows are numbered densely in input order.
      EXPECT_EQ(plan.source[idx], missing_seen++);
    }
  }
  EXPECT_EQ(plan.num_missing, missing_seen);
  if (cache.dynamic_policy()) {
    ASSERT_TRUE(plan.hit_rows.defined());
    EXPECT_EQ(plan.hit_rows.size(0), n - plan.num_missing);
    EXPECT_EQ(plan.hit_rows.size(1), ds.feature_dim);
  } else {
    EXPECT_FALSE(plan.hit_rows.defined());
  }
}

TEST_P(PolicyParity, SliceMissingRowsMatchesHostStore) {
  const Dataset& ds = policy_dataset();
  const FeatureCache cache(ds, 600, policy_config(GetParam()));
  const Mfg mfg = policy_test_mfg();
  const CachePlan plan = plan_cached_batch(mfg, cache);
  Tensor out({plan.num_missing, ds.feature_dim}, DType::kF16);
  slice_rows_serial(ds.features, missing_node_ids(mfg, plan), out);
  for (std::size_t i = 0; i < mfg.n_ids.size(); ++i) {
    if (plan.from_cache[i]) continue;
    const std::int64_t row = plan.source[i];
    for (std::int64_t j = 0; j < ds.feature_dim; ++j) {
      ASSERT_EQ(out.at<Half>(row, j).bits,
                ds.features.at<Half>(mfg.n_ids[i], j).bits);
    }
  }
}

TEST_P(PolicyParity, CachedTransferMatchesUncachedBitExactly) {
  const Dataset& ds = policy_dataset();
  // Capacity |V|: static policies pin everything they want, LRU never
  // evicts — so the mixed hit/miss pattern below is fully scripted.
  const FeatureCache cache(ds, ds.graph.num_nodes(),
                           policy_config(GetParam()));
  FastSampler sampler(ds.graph, {6, 4});
  std::vector<NodeId> nodes(ds.train_idx.begin(), ds.train_idx.begin() + 64);

  PreparedBatch full;
  full.index = 0;
  full.mfg = sampler.sample(nodes, 77);
  full.x = Tensor({full.mfg.num_input_nodes(), ds.feature_dim}, DType::kF16,
                  true);
  slice_rows_serial(ds.features, full.mfg.n_ids, full.x);
  full.y = Tensor({full.mfg.batch_size}, DType::kI64, true);
  slice_labels(ds.labels,
               {full.mfg.n_ids.data(),
                static_cast<std::size_t>(full.mfg.batch_size)},
               full.y);

  // Warm a dynamic cache with *half* the input set, so the parity plan mixes
  // hits (the warmed half, served from the hit-row snapshot) with misses
  // (the rest, transferred + up-converted). Harmless for static policies.
  Mfg warm;
  warm.n_ids.assign(full.mfg.n_ids.begin(),
                    full.mfg.n_ids.begin() +
                        static_cast<std::ptrdiff_t>(full.mfg.n_ids.size() / 2));
  (void)plan_cached_batch(warm, cache);

  CachePlan plan = plan_cached_batch(full.mfg, cache);
  EXPECT_GT(plan.hit_rate(), 0.0);
  if (cache.dynamic_policy()) {
    EXPECT_GT(plan.num_missing, 0);  // genuinely mixed for LRU
  }
  PreparedBatch cached;
  cached.index = 0;
  cached.mfg = full.mfg;
  cached.x = Tensor({plan.num_missing, ds.feature_dim}, DType::kF16, true);
  slice_rows_serial(ds.features, missing_node_ids(full.mfg, plan), cached.x);
  cached.y = full.y;

  DeviceSim dev;
  DeviceBatch a = dev.transfer_batch(full, true, nullptr);
  DeviceBatch b = dev.transfer_batch_cached(cached, plan, cache, true,
                                            nullptr);
  EXPECT_TRUE(allclose(a.x_f32, b.x_f32, 0.0, 0.0));  // bit-identical
  EXPECT_TRUE(allclose(a.y, b.y));
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyParity,
    ::testing::Values(CachePolicyKind::kDegree, CachePolicyKind::kPresample,
                      CachePolicyKind::kLru),
    [](const ::testing::TestParamInfo<CachePolicyKind>& info) {
      return std::string(cache_policy_name(info.param));
    });

// --- degree ------------------------------------------------------------------

TEST(DegreePolicy, PinsHighestDegreeNodes) {
  const Dataset& ds = policy_dataset();
  const FeatureCache cache(ds, 50, policy_config(CachePolicyKind::kDegree));
  EXPECT_STREQ(cache.policy_name(), "degree");
  EXPECT_FALSE(cache.dynamic_policy());
  const auto resident = cache.resident_nodes();
  ASSERT_EQ(resident.size(), 50u);
  // Every resident node's degree >= every non-resident node's degree.
  std::set<NodeId> in(resident.begin(), resident.end());
  std::int64_t min_resident = std::numeric_limits<std::int64_t>::max();
  for (const NodeId v : resident) {
    min_resident = std::min(min_resident, ds.graph.degree(v));
  }
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    if (!in.count(v)) {
      EXPECT_LE(ds.graph.degree(v), min_resident);
    }
  }
}

// --- lru ---------------------------------------------------------------------

TEST(LruPolicy, ColdStartThenRepeatBatchAllHits) {
  const Dataset& ds = policy_dataset();
  const FeatureCache cache(ds, ds.graph.num_nodes(),
                           policy_config(CachePolicyKind::kLru));
  EXPECT_TRUE(cache.dynamic_policy());
  EXPECT_EQ(cache.resident_nodes().size(), 0u);  // cold
  const Mfg mfg = policy_test_mfg();
  const CachePlan first = plan_cached_batch(mfg, cache);
  EXPECT_DOUBLE_EQ(first.hit_rate(), 0.0);  // everything misses, all admitted
  const CachePlan second = plan_cached_batch(mfg, cache);
  EXPECT_DOUBLE_EQ(second.hit_rate(), 1.0);  // repeat batch: all hits
  // The hit-row snapshot carries the actual feature data.
  ASSERT_TRUE(second.hit_rows.defined());
  const Tensor want = [&] {
    Tensor h({static_cast<std::int64_t>(mfg.n_ids.size()), ds.feature_dim},
             DType::kF16);
    slice_rows_serial(ds.features, mfg.n_ids, h);
    return h.to(DType::kF32);
  }();
  for (std::size_t i = 0; i < mfg.n_ids.size(); ++i) {
    const std::int64_t row = second.source[i];
    for (std::int64_t j = 0; j < ds.feature_dim; ++j) {
      ASSERT_EQ(second.hit_rows.at<float>(row, j),
                want.at<float>(static_cast<std::int64_t>(i), j));
    }
  }
}

TEST(LruPolicy, EvictsLeastRecentlyUsed) {
  const Dataset& ds = policy_dataset();
  const FeatureCache cache(ds, 2, policy_config(CachePolicyKind::kLru));
  auto plan_nodes = [&](std::vector<NodeId> nodes) {
    Mfg mfg;
    mfg.n_ids = std::move(nodes);
    return plan_cached_batch(mfg, cache);
  };
  // Fill: {10, 20}; recency order (MRU first): 20, 10.
  plan_nodes({10, 20});
  // 30 misses and evicts 10 (the LRU); 20 stays.
  plan_nodes({30});
  auto resident = cache.resident_nodes();
  EXPECT_EQ(resident, (std::vector<NodeId>{20, 30}));
  // Touch 20, then admit 40: the LRU is now 30.
  plan_nodes({20});
  plan_nodes({40});
  resident = cache.resident_nodes();
  EXPECT_EQ(resident, (std::vector<NodeId>{20, 40}));
  // slot_of is coherent with the plans.
  EXPECT_GE(cache.slot_of(20), 0);
  EXPECT_EQ(cache.slot_of(30), -1);
}

// --- presample ---------------------------------------------------------------

TEST(PresamplePolicy, DeterministicAcrossWarmupPoolSizes) {
  const Dataset& ds = policy_dataset();
  CachePolicyConfig serial = policy_config(CachePolicyKind::kPresample);
  serial.presample_workers = 0;
  CachePolicyConfig pooled = serial;
  pooled.presample_workers = 3;
  const FeatureCache a(ds, 300, serial);
  const FeatureCache b(ds, 300, pooled);
  EXPECT_EQ(a.resident_nodes(), b.resident_nodes());
  EXPECT_STREQ(a.policy_name(), "presample");
  EXPECT_FALSE(a.dynamic_policy());
}

TEST(PresamplePolicy, BeatsUniformPlacementOnSampledStream) {
  // Pinning by observed access frequency must beat hit rate proportional to
  // capacity (what uniform-random placement achieves in expectation).
  const Dataset& ds = policy_dataset();
  const std::int64_t capacity = ds.graph.num_nodes() / 10;
  const FeatureCache cache(ds, capacity,
                           policy_config(CachePolicyKind::kPresample));
  double hits = 0, total = 0;
  for (std::uint64_t s = 100; s < 108; ++s) {
    const CachePlan plan = plan_cached_batch(policy_test_mfg(s), cache);
    total += static_cast<double>(plan.from_cache.size());
    hits += static_cast<double>(plan.from_cache.size()) -
            static_cast<double>(plan.num_missing);
  }
  const double uniform_rate = static_cast<double>(capacity) /
                              static_cast<double>(ds.graph.num_nodes());
  EXPECT_GT(hits / total, 2.0 * uniform_rate);
}

// --- partitioned (a cluster node's remote cache) -----------------------------

/// A static cache's resident vertices in slot order.
std::vector<NodeId> slot_order(const FeatureCache& cache) {
  std::vector<NodeId> out = cache.resident_nodes();
  std::sort(out.begin(), out.end(), [&](NodeId a, NodeId b) {
    return cache.slot_of(a) < cache.slot_of(b);
  });
  return out;
}

TEST(PartitionedPolicies, RankOnlyRemoteVerticesOverTheNodesSchedule) {
  // Reference: node p's warmup counts the vertices it does not own in its
  // chunk of every batch, seeded as ClusterTrainer seeds that chunk, over a
  // fresh shuffle of the split each epoch; degree ranks the same candidates
  // by degree alone. Both break ties by degree, then id. A single-node
  // cache is node 0 of a 1-node cluster that owns no vertex.
  const Dataset& ds = policy_dataset();
  const int world = 3;
  const GraphPartition part = partition_random(ds.graph, world, 11);
  const std::int64_t capacity = 200;
  auto& presample_batches =
      obs::Registry::global().counter("prep.presample.batches");
  struct Input {
    const GraphPartition* partition;
    int node;
  };
  std::vector<Input> inputs{{nullptr, 0}};
  for (int node = 0; node < world; ++node) inputs.push_back({&part, node});
  for (const Input in : inputs) {
    SCOPED_TRACE(in.partition ? "node " + std::to_string(in.node)
                              : std::string("single node"));
    const int nodes = in.partition ? world : 1;
    const auto candidate = [&](NodeId v) {
      return in.partition == nullptr || part.part_of(v) != in.node;
    };
    CachePolicyConfig cfg = policy_config(CachePolicyKind::kPresample);
    cfg.partition = in.partition;
    cfg.node = in.node;
    cfg.presample_workers = in.node;  // serial and pooled warmups agree
    ASSERT_GE(cfg.presample_epochs, 2);  // epoch 1 must not reuse epoch 0's

    std::vector<std::int64_t> counts(
        static_cast<std::size_t>(ds.graph.num_nodes()), 0);
    const auto total = static_cast<std::int64_t>(ds.train_idx.size());
    FastSampler sampler(ds.graph, cfg.fanouts);
    for (int epoch = 0; epoch < cfg.presample_epochs; ++epoch) {
      const std::uint64_t epoch_seed = schedule_epoch_seed(cfg.seed, epoch);
      std::vector<NodeId> seeds = ds.train_idx;
      schedule_shuffle(seeds, epoch_seed);
      for (std::int64_t b = 0; b * cfg.batch_size < total; ++b) {
        const std::int64_t lo = b * cfg.batch_size;
        const ChunkRange c = chunk_range(
            std::min(total, lo + cfg.batch_size) - lo, nodes, in.node);
        if (c.empty()) continue;
        const Mfg mfg = sampler.sample(
            {seeds.data() + lo + c.begin, static_cast<std::size_t>(c.size())},
            schedule_mix_seed(epoch_seed, b * nodes + in.node));
        for (const NodeId v : mfg.n_ids) {
          if (candidate(v)) ++counts[static_cast<std::size_t>(v)];
        }
      }
    }
    std::vector<NodeId> by_degree, by_count;
    for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
      if (candidate(v)) by_degree.push_back(v);
    }
    const auto degree_order = [&](NodeId a, NodeId b) {
      const auto da = ds.graph.degree(a), db = ds.graph.degree(b);
      return da != db ? da > db : a < b;
    };
    by_count = by_degree;
    std::sort(by_degree.begin(), by_degree.end(), degree_order);
    std::sort(by_count.begin(), by_count.end(), [&](NodeId a, NodeId b) {
      const auto ca = counts[static_cast<std::size_t>(a)];
      const auto cb = counts[static_cast<std::size_t>(b)];
      return ca != cb ? ca > cb : degree_order(a, b);
    });
    by_degree.resize(static_cast<std::size_t>(capacity));
    by_count.resize(static_cast<std::size_t>(capacity));

    EXPECT_EQ(slot_order(FeatureCache(ds, capacity, cfg)), by_count);
    if (in.partition != nullptr) {  // single-node auto runs trial caches
      CachePolicyConfig automatic = cfg;
      automatic.kind = CachePolicyKind::kAuto;
      const FeatureCache auto_cache(ds, capacity, automatic);
      EXPECT_STREQ(auto_cache.policy_name(), "presample");
      EXPECT_EQ(slot_order(auto_cache), by_count);
    }
    CachePolicyConfig degree = cfg;
    degree.kind = CachePolicyKind::kDegree;
    EXPECT_EQ(slot_order(FeatureCache(ds, capacity, degree)), by_degree);

    // Capacity 0 places nothing, so the warmup does not run.
    const std::int64_t batches = presample_batches.value();
    EXPECT_TRUE(FeatureCache(ds, 0, cfg).resident_nodes().empty());
    EXPECT_EQ(presample_batches.value(), batches);
  }
}

// --- auto --------------------------------------------------------------------

TEST(AutoPolicy, SelectsStaticPolicyOnSkewedStreamAndRecordsGauges) {
  const Dataset& ds = policy_dataset();
  auto& reg = obs::Registry::global();
  const FeatureCache cache(ds, 300, policy_config(CachePolicyKind::kAuto));
  // On a neighborhood-sampled power-law stream the frequency-informed static
  // policies dominate LRU, so auto must not delegate to it.
  EXPECT_STRNE(cache.policy_name(), "auto(lru)");
  EXPECT_STRNE(cache.policy_name(), "auto");  // selection happened
  EXPECT_FALSE(cache.dynamic_policy());
  // The probe hit rates are published for the metrics dump.
  for (const char* name : {"lru", "degree", "presample"}) {
    const double rate =
        reg.gauge(std::string("prep.cache.auto.hit_rate.") + name).value();
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
  const double lru =
      reg.gauge("prep.cache.auto.hit_rate.lru").value();
  const double best =
      std::max(reg.gauge("prep.cache.auto.hit_rate.degree").value(),
               reg.gauge("prep.cache.auto.hit_rate.presample").value());
  EXPECT_GT(best, lru);
}

}  // namespace
}  // namespace salient
