// Distributed-training tests: ring all-reduce correctness under various
// world sizes and buffer lengths (TEST_P), and data-parallel training as a
// fully replicated ClusterTrainer — no remote fetches, losses bitwise equal
// to the partitioned run, replicas bit-identical, loss decreases.
#include <gtest/gtest.h>

#include <thread>

#include "dist/allreduce.h"
#include "dist/cluster/cluster_trainer.h"
#include "graph/dataset.h"
#include "train/inference.h"

namespace salient {
namespace {

class AllreduceTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(AllreduceTest, ComputesElementwiseMean) {
  const auto [world, n] = GetParam();
  std::vector<std::vector<float>> buffers(static_cast<std::size_t>(world));
  std::vector<std::vector<float>> expected_sum(1, std::vector<float>(n, 0));
  for (int r = 0; r < world; ++r) {
    auto& buf = buffers[static_cast<std::size_t>(r)];
    buf.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      buf[i] = static_cast<float>((r + 1) * 100 + static_cast<int>(i % 17));
      expected_sum[0][i] += buf[i];
    }
  }
  RingAllreduce ar(world);
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      ar.run(r, buffers[static_cast<std::size_t>(r)]);
    });
  }
  for (auto& t : threads) t.join();
  for (int r = 0; r < world; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(buffers[static_cast<std::size_t>(r)][i],
                  expected_sum[0][i] / static_cast<float>(world), 1e-3)
          << "rank " << r << " index " << i;
    }
  }
  // all ranks hold bitwise-identical results (required for DDP sync)
  for (int r = 1; r < world; ++r) {
    ASSERT_EQ(buffers[static_cast<std::size_t>(r)], buffers[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorldSizesAndLengths, AllreduceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 7),
                       ::testing::Values<std::size_t>(1, 5, 64, 1000)));

TEST(Allreduce, RepeatedRoundsStayConsistent) {
  constexpr int kWorld = 3;
  RingAllreduce ar(kWorld);
  std::vector<std::vector<float>> buffers(kWorld,
                                          std::vector<float>(10, 1.0f));
  for (int round = 0; round < 5; ++round) {
    std::vector<std::thread> threads;
    for (int r = 0; r < kWorld; ++r) {
      threads.emplace_back([&, r] {
        ar.run(r, buffers[static_cast<std::size_t>(r)]);
      });
    }
    for (auto& t : threads) t.join();
    for (int r = 0; r < kWorld; ++r) {
      for (float v : buffers[static_cast<std::size_t>(r)]) {
        ASSERT_FLOAT_EQ(v, 1.0f);  // mean of equal values is unchanged
      }
    }
  }
}

Dataset& dp_dataset() {
  static Dataset ds = [] {
    DatasetConfig c;
    c.name = "dp-test";
    c.num_nodes = 5000;
    c.feature_dim = 16;
    c.num_classes = 4;
    c.avg_degree = 8;
    c.p_in = 0.85;
    c.seed = 13;
    c.train_frac = 0.6;
    c.val_frac = 0.1;
    c.test_frac = 0.3;
    return generate_dataset(c);
  }();
  return ds;
}

constexpr std::int64_t kReplicaBatch = 128;

/// Data-parallel training over `world` replicas is a ClusterTrainer whose
/// replication cache holds every remote vertex: each replica trains its
/// kReplicaBatch-row chunk of a world x kReplicaBatch global batch.
dist::ClusterConfig dp_config(int world, double cache_pct = 1.0) {
  const Dataset& ds = dp_dataset();
  dist::ClusterConfig cfg;
  cfg.partition.num_nodes = world;
  cfg.cache.policy = CachePolicyKind::kDegree;
  cfg.cache.cache_percentage = cache_pct;
  cfg.arch = "sage";
  cfg.model.in_channels = ds.feature_dim;
  cfg.model.hidden_channels = 24;
  cfg.model.out_channels = ds.num_classes;
  cfg.model.num_layers = 2;
  cfg.model.seed = 3;
  cfg.batch_size = world * kReplicaBatch;
  cfg.fanouts = {6, 4};
  cfg.seed = 17;
  cfg.lr = 5e-3;
  return cfg;
}

TEST(DataParallel, FullReplicationFetchesNothingAndMatchesPartitioned) {
  const Dataset& ds = dp_dataset();
  const auto train = static_cast<std::int64_t>(ds.train_idx.size());
  for (const int world : {2, 4}) {
    dist::ClusterTrainer replicated(ds, dp_config(world));
    dist::ClusterTrainer partitioned(ds, dp_config(world, 0.05));
    EXPECT_TRUE(replicated.replicas_in_sync()) << "identical init";
    double first = 0, last = 0;
    for (int e = 0; e < 5; ++e) {
      const auto r = replicated.train_epoch(e);
      const auto p = partitioned.train_epoch(e);
      EXPECT_EQ(r.num_steps,
                (train + world * kReplicaBatch - 1) / (world * kReplicaBatch))
          << "each replica trains a kReplicaBatch chunk per global step";
      EXPECT_EQ(r.remote_feature_bytes, 0u) << world << " replicas, epoch "
                                            << e;
      EXPECT_EQ(r.remote_misses, 0);
      EXPECT_GT(r.remote_hits, 0) << "remote rows are served locally";
      EXPECT_GT(p.remote_feature_bytes, 0u);
      EXPECT_EQ(r.mean_loss, p.mean_loss)
          << "replication must not change what is computed (" << world
          << " replicas, epoch " << e << ")";
      EXPECT_TRUE(replicated.replicas_in_sync())
          << world << " replicas diverged after epoch " << e;
      if (e == 0) first = r.mean_loss;
      last = r.mean_loss;
    }
    EXPECT_LT(last, first) << world << " replicas must learn";

    const std::vector<std::int64_t> fanouts{8, 8};
    const double acc = evaluate_sampled(*replicated.replica(0), ds,
                                        ds.test_idx, fanouts, 256, 5)
                           .accuracy;
    EXPECT_GT(acc, 2.0 / static_cast<double>(ds.num_classes))
        << "replica 0 must beat twice chance";
  }
}

TEST(DataParallel, RejectsZeroReplicas) {
  EXPECT_THROW(dist::ClusterTrainer(dp_dataset(), dp_config(0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace salient
