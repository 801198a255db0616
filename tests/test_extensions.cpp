// Tests for the paper's §8 future-work extensions implemented in this repo:
// device feature caching (GNS-style), streaming graph partitioning (LDG) +
// distributed-sampling communication metrics, and model checkpointing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "device/device_sim.h"
#include "prep/feature_cache.h"
#include "tensor/quantize.h"
#include "graph/partition.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "prep/slicing.h"
#include "sampling/distributed.h"
#include "sampling/fast_sampler.h"
#include "tensor/ops.h"

namespace salient {
namespace {

Dataset& ext_dataset() {
  static Dataset ds = [] {
    DatasetConfig c;
    c.name = "ext-test";
    c.num_nodes = 8000;
    c.feature_dim = 20;
    c.num_classes = 5;
    c.avg_degree = 12;
    c.max_degree = 800;
    c.seed = 31;
    return generate_dataset(c);
  }();
  return ds;
}

// --- feature cache ----------------------------------------------------------

TEST(FeatureCache, CachesHighestDegreeNodesExactly) {
  const Dataset& ds = ext_dataset();
  FeatureCache cache(ds, 500);
  EXPECT_EQ(cache.capacity(), 500);
  EXPECT_EQ(cache.features().size(0), 500);
  // The cache holds the store's rows in their own dtype (f16 here), 2F
  // bytes each.
  EXPECT_EQ(cache.features().dtype(), DType::kF16);
  EXPECT_EQ(cache.dtype(), DType::kF16);
  EXPECT_EQ(cache.device_bytes(),
            500u * ops::wire_row_bytes(DType::kF16, ds.feature_dim));
  EXPECT_EQ(ops::wire_row_bytes(DType::kF16, ds.feature_dim),
            static_cast<std::size_t>(2 * ds.feature_dim));
  // Every cached node's degree >= every uncached node's degree (allowing
  // ties at the boundary), and cached rows equal the host store's bits.
  std::int64_t min_cached_degree = 1 << 30;
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    const std::int64_t slot = cache.slot_of(v);
    if (slot < 0) continue;
    min_cached_degree = std::min(min_cached_degree, ds.graph.degree(v));
    for (std::int64_t j = 0; j < ds.feature_dim; ++j) {
      EXPECT_EQ(cache.features().at<Half>(slot, j).bits,
                ds.features.at<Half>(v, j).bits);
    }
  }
  std::int64_t violations = 0;
  for (NodeId v = 0; v < ds.graph.num_nodes(); ++v) {
    if (cache.slot_of(v) < 0 && ds.graph.degree(v) > min_cached_degree) {
      ++violations;
    }
  }
  EXPECT_EQ(violations, 0);
}

TEST(FeatureCache, HitRateExceedsCapacityFraction) {
  // Degree-biased sampling makes hub nodes far more likely to appear in an
  // MFG than uniform: a 5% cache should serve >> 5% of input rows.
  // One hop keeps the frontier small so the degree bias is not flattened by
  // whole-graph coverage (input node sets are deduplicated).
  const Dataset& ds = ext_dataset();
  FeatureCache cache(ds, ds.graph.num_nodes() / 20);  // 5%
  FastSampler sampler(ds.graph, {10});
  std::vector<NodeId> batch(ds.train_idx.begin(), ds.train_idx.begin() + 128);
  Mfg mfg = sampler.sample(batch, 9);
  CachePlan plan = plan_cached_batch(mfg, cache);
  EXPECT_EQ(plan.from_cache.size(), mfg.n_ids.size());
  EXPECT_GT(plan.hit_rate(), 0.10);  // >2x the capacity fraction
  EXPECT_LT(plan.hit_rate(), 1.0);
}

TEST(FeatureCache, CachedTransferMatchesUncachedBitExactly) {
  const Dataset& ds = ext_dataset();
  FeatureCache cache(ds, 1000);
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

  // Cached variant: same MFG, x holds only the missing rows.
  CachePlan plan = plan_cached_batch(full.mfg, cache);
  PreparedBatch cached;
  cached.index = 0;
  cached.mfg = full.mfg;
  cached.x = Tensor({plan.num_missing, ds.feature_dim}, DType::kF16, true);
  slice_rows_serial(ds.features, missing_node_ids(full.mfg, plan), cached.x);
  cached.y = full.y;

  DeviceSim dev;
  DeviceBatch a = dev.transfer_batch(full, true, nullptr);
  const std::size_t bytes_before = dev.dma().bytes_transferred();
  DeviceBatch b = dev.transfer_batch_cached(cached, plan, cache, true,
                                            nullptr);
  const std::size_t cached_bytes =
      dev.dma().bytes_transferred() - bytes_before;

  EXPECT_TRUE(allclose(a.x_f32, b.x_f32, 0.0, 0.0));  // bit-identical
  EXPECT_TRUE(allclose(a.y, b.y));
  // The cached transfer moved strictly fewer feature bytes.
  EXPECT_LT(cached.x.nbytes(), full.x.nbytes());
  EXPECT_LT(cached_bytes, bytes_before);
}

TEST(FeatureCache, ZeroCapacityAlwaysMisses) {
  const Dataset& ds = ext_dataset();
  FeatureCache cache(ds, 0);
  FastSampler sampler(ds.graph, {4});
  std::vector<NodeId> nodes{1, 2, 3};
  Mfg mfg = sampler.sample(nodes, 3);
  CachePlan plan = plan_cached_batch(mfg, cache);
  EXPECT_EQ(plan.num_missing,
            static_cast<std::int64_t>(mfg.n_ids.size()));
  EXPECT_DOUBLE_EQ(plan.hit_rate(), 0.0);
}

TEST(FeatureCache, TransferValidatesPlan) {
  const Dataset& ds = ext_dataset();
  FeatureCache cache(ds, 100);
  FastSampler sampler(ds.graph, {4});
  std::vector<NodeId> nodes{1, 2, 3, 4};
  PreparedBatch batch;
  batch.mfg = sampler.sample(nodes, 3);
  CachePlan plan = plan_cached_batch(batch.mfg, cache);
  batch.x = Tensor({plan.num_missing + 5, ds.feature_dim}, DType::kF16);
  batch.y = Tensor({batch.mfg.batch_size}, DType::kI64);
  DeviceSim dev;
  EXPECT_THROW(dev.transfer_batch_cached(batch, plan, cache, true, nullptr),
               std::invalid_argument);
}

// --- partitioning ------------------------------------------------------------

TEST(Partition, RandomIsBalancedAndComplete) {
  const Dataset& ds = ext_dataset();
  GraphPartition p = partition_random(ds.graph, 4, 5);
  ASSERT_EQ(p.assignment.size(),
            static_cast<std::size_t>(ds.graph.num_nodes()));
  for (const auto a : p.assignment) {
    ASSERT_GE(a, 0);
    ASSERT_LT(a, 4);
  }
  EXPECT_LT(balance_factor(p), 1.1);
  // Random 4-way cut of any graph: ~75% of edges cross.
  EXPECT_NEAR(edge_cut_fraction(ds.graph, p), 0.75, 0.05);
}

TEST(Partition, LdgBeatsRandomOnEdgeCut) {
  const Dataset& ds = ext_dataset();
  GraphPartition random = partition_random(ds.graph, 4, 7);
  GraphPartition ldg = partition_ldg(ds.graph, 4, 1.05);
  EXPECT_LE(balance_factor(ldg), 1.06);
  const double cut_random = edge_cut_fraction(ds.graph, random);
  const double cut_ldg = edge_cut_fraction(ds.graph, ldg);
  EXPECT_LT(cut_ldg, cut_random * 0.9)
      << "LDG " << cut_ldg << " vs random " << cut_random;
}

TEST(Partition, RejectsBadArguments) {
  const Dataset& ds = ext_dataset();
  EXPECT_THROW(partition_random(ds.graph, 0, 1), std::invalid_argument);
  EXPECT_THROW(partition_ldg(ds.graph, 2, 0.5), std::invalid_argument);
  GraphPartition wrong;
  wrong.num_parts = 2;
  wrong.assignment = {0, 1};
  EXPECT_THROW(edge_cut_fraction(ds.graph, wrong), std::invalid_argument);
}

TEST(Partition, SamplingCommunicationFollowsEdgeCut) {
  const Dataset& ds = ext_dataset();
  GraphPartition random = partition_random(ds.graph, 4, 11);
  GraphPartition ldg = partition_ldg(ds.graph, 4);
  const std::vector<std::int64_t> fanouts{8, 6};
  const double comm_random = estimate_sampling_comm_fraction(
      ds.graph, random, ds.train_idx, fanouts, 256, 4, 13);
  const double comm_ldg = estimate_sampling_comm_fraction(
      ds.graph, ldg, ds.train_idx, fanouts, 256, 4, 13);
  EXPECT_GT(comm_random, 0.6);  // ~3/4 cross under random 4-way
  EXPECT_LT(comm_ldg, comm_random);
  // the MFG metric agrees with a direct per-MFG computation
  FastSampler sampler(ds.graph, {8, 6});
  std::vector<NodeId> b(ds.train_idx.begin(), ds.train_idx.begin() + 128);
  Mfg mfg = sampler.sample(b, 17);
  const double f = mfg_cross_partition_fraction(mfg, ldg);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
}

TEST(Partition, SinglePartHasNoCut) {
  const Dataset& ds = ext_dataset();
  GraphPartition p = partition_ldg(ds.graph, 1);
  EXPECT_DOUBLE_EQ(edge_cut_fraction(ds.graph, p), 0.0);
  EXPECT_DOUBLE_EQ(balance_factor(p), 1.0);
}

// --- checkpointing -------------------------------------------------------------

TEST(Checkpoint, RoundTripsAllArchitectures) {
  const Dataset& ds = ext_dataset();
  for (const char* arch : {"sage", "gat", "gin", "sage-ri"}) {
    nn::ModelConfig mc;
    mc.in_channels = ds.feature_dim;
    mc.hidden_channels = 16;
    mc.out_channels = ds.num_classes;
    mc.num_layers = 2;
    mc.seed = 5;
    auto original = nn::make_model(arch, mc);
    // Perturb away from init so the round trip is meaningful.
    for (auto& p : original->parameters()) {
      ops::axpy_(p.data(), Tensor::uniform(p.data().shape(), 3, -1, 1), 0.5);
    }
    const std::string path =
        std::string("/tmp/salient_ckpt_") + arch + ".bin";
    nn::save_checkpoint(*original, path);

    mc.seed = 999;  // different init on the receiving side
    auto restored = nn::make_model(arch, mc);
    nn::load_checkpoint(*restored, path);
    const auto pa = original->parameters();
    const auto pb = restored->parameters();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_TRUE(allclose(pa[i].data(), pb[i].data(), 0.0, 0.0))
          << arch << " parameter " << i;
    }
    std::remove(path.c_str());
  }
}

TEST(Checkpoint, RestoresBatchNormRunningStats) {
  nn::BatchNorm1d bn(3);
  bn.train(true);
  for (int i = 0; i < 50; ++i) {
    bn.forward(Variable(Tensor::uniform({8, 3}, 10 + i, 2.0, 4.0)));
  }
  nn::save_checkpoint(bn, "/tmp/salient_ckpt_bn.bin");
  nn::BatchNorm1d fresh(3);
  nn::load_checkpoint(fresh, "/tmp/salient_ckpt_bn.bin");
  EXPECT_TRUE(allclose(fresh.running_mean(), bn.running_mean(), 0.0, 0.0));
  EXPECT_TRUE(allclose(fresh.running_var(), bn.running_var(), 0.0, 0.0));
  std::remove("/tmp/salient_ckpt_bn.bin");
}

TEST(Checkpoint, RejectsArchitectureMismatch) {
  nn::Linear a(4, 5), b(4, 6);
  nn::save_checkpoint(a, "/tmp/salient_ckpt_mismatch.bin");
  EXPECT_THROW(nn::load_checkpoint(b, "/tmp/salient_ckpt_mismatch.bin"),
               std::runtime_error);
  EXPECT_THROW(nn::load_checkpoint(a, "/tmp/salient_ckpt_missing.bin"),
               std::runtime_error);
  std::remove("/tmp/salient_ckpt_mismatch.bin");
}

TEST(Checkpoint, RejectsCorruptedFile) {
  nn::Linear a(3, 3);
  nn::save_checkpoint(a, "/tmp/salient_ckpt_trunc.bin");
  // Truncate the file.
  {
    std::ifstream in("/tmp/salient_ckpt_trunc.bin", std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out("/tmp/salient_ckpt_trunc.bin",
                      std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_THROW(nn::load_checkpoint(a, "/tmp/salient_ckpt_trunc.bin"),
               std::runtime_error);
  std::remove("/tmp/salient_ckpt_trunc.bin");
}

}  // namespace
}  // namespace salient
