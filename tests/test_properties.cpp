// Property-based and adversarial-input tests across modules:
// randomized shape sweeps for the numeric kernels, statistical tests of the
// samplers, degenerate graphs (isolated nodes, stars, empty batches),
// partition/fetch-plan invariants over the pipelined cluster's in-flight
// batch windows, and monotonicity properties of the cluster simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <numeric>
#include <set>

#include "autograd/functions.h"
#include "autograd/gradcheck.h"
#include "dist/cluster/partitioner.h"
#include "dist/cluster/remote_cache.h"
#include "graph/builder.h"
#include "graph/dataset.h"
#include "graph/generator.h"
#include "prep/salient_loader.h"
#include "sampling/baseline_sampler.h"
#include "sampling/distributed.h"
#include "sampling/fast_sampler.h"
#include "sampling/sample_set.h"
#include "sim/pipeline_model.h"
#include "tensor/ops.h"
#include "train/inference.h"
#include "util/rng.h"

namespace salient {
namespace {

namespace ag = autograd;

// --- matmul shape sweep -----------------------------------------------------

class MatmulShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulShapeSweep, MatchesNaiveAtAllShapes) {
  const auto [m, k, n] = GetParam();
  Tensor a = Tensor::uniform({m, k}, static_cast<unsigned>(m * 31 + k), -2, 2);
  Tensor b = Tensor::uniform({k, n}, static_cast<unsigned>(k * 17 + n), -2, 2);
  Tensor c = ops::matmul(a, b);
  ASSERT_EQ(c.size(0), m);
  ASSERT_EQ(c.size(1), n);
  // spot-check a handful of entries against the naive inner product
  Xoshiro256ss rng(9);
  for (int t = 0; t < 8; ++t) {
    const auto i = static_cast<std::int64_t>(
        bounded_rand(rng, static_cast<std::uint64_t>(m)));
    const auto j = static_cast<std::int64_t>(
        bounded_rand(rng, static_cast<std::uint64_t>(n)));
    double want = 0;
    for (std::int64_t p = 0; p < k; ++p) {
      want += double(a.at<float>(i, p)) * double(b.at<float>(p, j));
    }
    ASSERT_NEAR(c.at<float>(i, j), want, 1e-3) << i << "," << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapeSweep,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 64, 1},
                      std::tuple{7, 1, 9}, std::tuple{64, 64, 64},
                      std::tuple{3, 129, 5}, std::tuple{130, 2, 257},
                      std::tuple{33, 300, 17}));

// --- elementwise identities over random tensors --------------------------------

TEST(OpsProperties, AlgebraicIdentities) {
  for (unsigned seed = 1; seed <= 5; ++seed) {
    Tensor x = Tensor::uniform({13, 7}, seed, -3, 3);
    Tensor zero = Tensor::zeros({13, 7});
    // x + 0 == x; x - x == 0; 1*x == x; relu(x) - relu(-x) == x
    EXPECT_TRUE(allclose(ops::add(x, zero), x));
    EXPECT_TRUE(allclose(ops::sub(x, x), zero, 0, 0));
    EXPECT_TRUE(allclose(ops::scale(x, 1.0), x, 0, 0));
    Tensor relu_id =
        ops::sub(ops::relu(x), ops::relu(ops::scale(x, -1.0)));
    EXPECT_TRUE(allclose(relu_id, x, 1e-6, 1e-6));
    // exp(log(|x|+1)) == |x|+1
    Tensor absx_p1 = ops::add(ops::mul(ops::relu_mask(x), x),
                              ops::mul(ops::relu_mask(ops::scale(x, -1.0)),
                                       ops::scale(x, -1.0)));
    absx_p1 = ops::add(absx_p1, Tensor::ones({13, 7}));
    EXPECT_TRUE(allclose(ops::exp(ops::log(absx_p1)), absx_p1, 1e-4, 1e-4));
  }
}

TEST(OpsProperties, SpmmMeanIsConvexCombination) {
  // Mean aggregation of values in [lo, hi] stays in [lo, hi].
  Xoshiro256ss rng(4);
  std::vector<std::int64_t> indptr{0};
  std::vector<std::int64_t> indices;
  for (int d = 0; d < 50; ++d) {
    const auto deg = bounded_rand(rng, 6);  // includes zero-degree rows
    for (std::uint64_t k = 0; k < deg; ++k) {
      indices.push_back(static_cast<std::int64_t>(bounded_rand(rng, 30)));
    }
    indptr.push_back(static_cast<std::int64_t>(indices.size()));
  }
  Tensor x = Tensor::uniform({30, 4}, 8, 2.0, 5.0);
  Tensor y = ops::spmm_mean(indptr, indices, x, 50);
  for (std::int64_t d = 0; d < 50; ++d) {
    const bool empty = indptr[static_cast<std::size_t>(d)] ==
                       indptr[static_cast<std::size_t>(d) + 1];
    for (std::int64_t j = 0; j < 4; ++j) {
      const float v = y.at<float>(d, j);
      if (empty) {
        ASSERT_EQ(v, 0.0f);
      } else {
        ASSERT_GE(v, 2.0f - 1e-5);
        ASSERT_LE(v, 5.0f + 1e-5);
      }
    }
  }
}

// --- half precision properties ---------------------------------------------------

TEST(HalfProperties, ConversionIsMonotone) {
  Xoshiro256ss rng(6);
  for (int t = 0; t < 20000; ++t) {
    const float a = static_cast<float>(
        (static_cast<double>(rng()) / 1.8e19 - 0.5) * 100);
    const float b = static_cast<float>(
        (static_cast<double>(rng()) / 1.8e19 - 0.5) * 100);
    const float ha = half_to_float(float_to_half(a));
    const float hb = half_to_float(float_to_half(b));
    if (a <= b) {
      ASSERT_LE(ha, hb) << a << " vs " << b;
    } else {
      ASSERT_GE(ha, hb) << a << " vs " << b;
    }
  }
}

TEST(HalfProperties, RelativeErrorWithinHalfUlp) {
  Xoshiro256ss rng(7);
  for (int t = 0; t < 20000; ++t) {
    const double u = static_cast<double>(rng()) / 1.8446744e19;
    const float x = static_cast<float>(std::pow(10.0, (u - 0.5) * 8));
    const float back = half_to_float(float_to_half(x));
    // Round-to-nearest: relative error <= 2^-11 for normal halves.
    ASSERT_NEAR(back, x, std::abs(x) * 0x1p-11 + 1e-7f) << x;
  }
}

// --- sampler statistics -------------------------------------------------------------

TEST(SamplerStatistics, FullPipelineSelectionIsUniformChiSquare) {
  // One node with 40 neighbors, fanout 8, many trials through FastSampler:
  // each neighbor should be chosen with probability 8/40.
  EdgeList edges;
  for (NodeId u = 1; u <= 40; ++u) edges.push(0, u);
  CsrGraph g = build_csr(41, edges);
  FastSampler sampler(g, {8});
  std::vector<NodeId> batch{0};
  std::vector<int> counts(41, 0);
  const int trials = 8000;
  for (int t = 0; t < trials; ++t) {
    Mfg mfg = sampler.sample(batch, 1000 + static_cast<unsigned>(t));
    const auto& level = mfg.levels[0];
    ASSERT_EQ(level.num_edges(), 8);
    for (const auto local : *level.indices) {
      ++counts[static_cast<std::size_t>(
          mfg.n_ids[static_cast<std::size_t>(local)])];
    }
  }
  const double expected = trials * 8.0 / 40.0;
  double chi2 = 0;
  for (NodeId u = 1; u <= 40; ++u) {
    const double diff = counts[static_cast<std::size_t>(u)] - expected;
    chi2 += diff * diff / expected;
  }
  // 39 dof: 99.9th percentile ~ 72.1. Flag only gross non-uniformity.
  EXPECT_LT(chi2, 72.1);
}

TEST(SamplerStatistics, EveryPolicyCoversAllNeighborsEventually) {
  std::vector<NodeId> neighbors(25);
  std::iota(neighbors.begin(), neighbors.end(), 100);
  auto covers = [&](auto policy_tag) {
    using Policy = decltype(policy_tag);
    Xoshiro256ss rng(3);
    std::set<NodeId> seen;
    for (int t = 0; t < 400; ++t) {
      std::vector<NodeId> out;
      Policy::sample(neighbors, 3, rng, out);
      seen.insert(out.begin(), out.end());
    }
    return seen.size();
  };
  EXPECT_EQ(covers(StdSetSampler{}), 25u);
  EXPECT_EQ(covers(FlatSetSampler{}), 25u);
  EXPECT_EQ(covers(ArraySetSampler{}), 25u);
  EXPECT_EQ(covers(FisherYatesSampler{}), 25u);
}

// --- MFG structural invariants, sampler-agnostic ----------------------------

// Check every invariant an MFG must satisfy regardless of which sampler
// produced it. Level order is model-consumption order (levels[0] outermost),
// so levels[l] was sampled with fanouts[L-1-l].
void check_mfg_invariants(const Mfg& mfg, const CsrGraph& g,
                          const std::vector<std::int64_t>& fanouts,
                          std::int64_t batch_size) {
  ASSERT_TRUE(mfg.valid());
  const std::size_t num_levels = fanouts.size();
  ASSERT_EQ(mfg.levels.size(), num_levels);
  EXPECT_EQ(mfg.batch_size, batch_size);
  EXPECT_EQ(mfg.levels.back().num_dst, batch_size);

  // n_ids is exactly the largest source set: no duplicate locals, every
  // global ID in range.
  ASSERT_EQ(static_cast<std::int64_t>(mfg.n_ids.size()),
            mfg.levels.front().num_src);
  const std::set<NodeId> unique_ids(mfg.n_ids.begin(), mfg.n_ids.end());
  EXPECT_EQ(unique_ids.size(), mfg.n_ids.size())
      << "two locals map to the same global node";
  for (const NodeId id : mfg.n_ids) {
    ASSERT_GE(id, 0);
    ASSERT_LT(id, g.num_nodes());
  }

  for (std::size_t l = 0; l < num_levels; ++l) {
    const MfgLevel& level = mfg.levels[l];
    const std::int64_t fanout = fanouts[num_levels - 1 - l];
    ASSERT_EQ(static_cast<std::int64_t>(level.indptr->size()),
              level.num_dst + 1);
    // Destinations are a prefix of every enclosing source set, so local d
    // resolves globally through n_ids at every level.
    for (std::int64_t d = 0; d < level.num_dst; ++d) {
      const std::int64_t deg =
          (*level.indptr)[static_cast<std::size_t>(d) + 1] -
          (*level.indptr)[static_cast<std::size_t>(d)];
      ASSERT_GE(deg, 0);
      ASSERT_LE(deg, fanout) << "level " << l << " dst " << d;
      ASSERT_LE(deg, g.degree(mfg.n_ids[static_cast<std::size_t>(d)]))
          << "sampled more neighbors than node " << d << " has";
    }
    for (const std::int64_t local : *level.indices) {
      ASSERT_GE(local, 0);
      ASSERT_LT(local, level.num_src);
    }
    // Frontier growth bound: each destination contributes itself plus at
    // most `fanout` sampled sources.
    ASSERT_LE(level.num_src, level.num_dst * (1 + fanout));
    if (l + 1 < num_levels) {
      ASSERT_EQ(level.num_dst, mfg.levels[l + 1].num_src);
    }
  }
}

class MfgInvariantSweep : public ::testing::TestWithParam<int> {};

TEST_P(MfgInvariantSweep, HoldForBothSamplersOnRandomGraphs) {
  const unsigned seed = static_cast<unsigned>(GetParam());
  Xoshiro256ss rng(seed);
  // A mix of graph families, sizes, and fanout shapes per instance.
  const std::int64_t n = 200 + static_cast<std::int64_t>(bounded_rand(rng, 800));
  const double avg_degree = 2.0 + static_cast<double>(bounded_rand(rng, 10));
  const CsrGraph graph =
      (seed % 2 == 0) ? erdos_renyi(n, avg_degree, seed)
                      : powerlaw_configuration(n, avg_degree, 2.5, n / 4, seed);
  const std::vector<std::vector<std::int64_t>> fanout_shapes{
      {5}, {4, 3}, {6, 4, 2}, {1, 1}};
  for (const auto& fanouts : fanout_shapes) {
    // Random batch, possibly with repeated scans over high-degree nodes.
    const std::int64_t batch_size =
        1 + static_cast<std::int64_t>(bounded_rand(rng, 64));
    std::vector<NodeId> batch;
    std::set<NodeId> used;
    while (static_cast<std::int64_t>(batch.size()) < batch_size) {
      const auto v = static_cast<NodeId>(
          bounded_rand(rng, static_cast<std::uint64_t>(n)));
      if (used.insert(v).second) batch.push_back(v);
    }
    FastSampler fast(graph, fanouts);
    BaselineSampler baseline(graph, fanouts);
    const Mfg m_fast = fast.sample(batch, seed * 31 + 7);
    const Mfg m_base = baseline.sample(batch, seed * 31 + 7);
    check_mfg_invariants(m_fast, graph, fanouts,
                         static_cast<std::int64_t>(batch.size()));
    check_mfg_invariants(m_base, graph, fanouts,
                         static_cast<std::int64_t>(batch.size()));
    // Both samplers anchor the batch: the first batch_size n_ids are the
    // requested destinations, in order.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(m_fast.n_ids[i], batch[i]);
      EXPECT_EQ(m_base.n_ids[i], batch[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MfgInvariantSweep,
                         ::testing::Range(1, 9));

// --- degenerate graphs ----------------------------------------------------------------

TEST(DegenerateGraphs, IsolatedNodesSampleEmptyNeighborhoods) {
  // Node 0 isolated; node 1-2 connected.
  EdgeList edges;
  edges.push(1, 2);
  CsrGraph g = build_csr(3, edges);
  ASSERT_EQ(g.degree(0), 0);
  FastSampler sampler(g, {5, 5});
  std::vector<NodeId> batch{0, 1};
  Mfg mfg = sampler.sample(batch, 1);
  ASSERT_TRUE(mfg.valid());
  // isolated node contributes zero edges at every level
  for (const auto& level : mfg.levels) {
    EXPECT_EQ((*level.indptr)[1] - (*level.indptr)[0], 0);
  }
  // and the model still runs (zero rows aggregate to zeros)
  Tensor x = Tensor::uniform({mfg.num_input_nodes(), 4}, 2, -1, 1);
  Variable agg = ag::spmm_mean(mfg.levels[0].indptr, mfg.levels[0].indices,
                               Variable(x), mfg.levels[0].num_dst);
  for (std::int64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(agg.data().at<float>(0, j), 0.0f);
  }
}

TEST(DegenerateGraphs, StarGraphHubSampling) {
  // Star: hub 0 with 200 leaves. Sampling the hub respects the fanout;
  // sampling a leaf always returns the hub.
  EdgeList edges;
  for (NodeId u = 1; u <= 200; ++u) edges.push(0, u);
  CsrGraph g = build_csr(201, edges);
  FastSampler sampler(g, {10});
  std::vector<NodeId> hub{0};
  Mfg m1 = sampler.sample(hub, 5);
  EXPECT_EQ(m1.levels[0].num_edges(), 10);
  std::vector<NodeId> leaf{17};
  Mfg m2 = sampler.sample(leaf, 5);
  EXPECT_EQ(m2.levels[0].num_edges(), 1);
  EXPECT_EQ(m2.n_ids[1], 0);  // the hub
}

TEST(DegenerateGraphs, LoaderHandlesEmptyAndTinyNodeSets) {
  DatasetConfig c;
  c.num_nodes = 200;
  c.feature_dim = 4;
  c.num_classes = 2;
  c.avg_degree = 4;
  c.seed = 9;
  Dataset ds = generate_dataset(c);
  LoaderConfig cfg;
  cfg.batch_size = 64;
  cfg.fanouts = {3};
  // empty node set: zero batches, next() returns nullopt immediately
  {
    SalientLoader loader(ds, std::span<const NodeId>{}, cfg);
    EXPECT_EQ(loader.num_batches(), 0);
    EXPECT_FALSE(loader.next().has_value());
  }
  // fewer nodes than one batch: a single short batch
  {
    std::vector<NodeId> three{1, 2, 3};
    SalientLoader loader(ds, three, cfg);
    EXPECT_EQ(loader.num_batches(), 1);
    auto b = loader.next();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(b->mfg.batch_size, 3);
    EXPECT_FALSE(loader.next().has_value());
  }
}

TEST(DegenerateGraphs, InferenceOnSingleNode) {
  DatasetConfig c;
  c.num_nodes = 300;
  c.feature_dim = 6;
  c.num_classes = 3;
  c.avg_degree = 5;
  c.seed = 12;
  Dataset ds = generate_dataset(c);
  nn::ModelConfig mc{6, 8, 3, 2, 1};
  auto model = nn::make_model("sage", mc);
  const std::vector<NodeId> one{7};
  const std::vector<std::int64_t> fanouts{4, 4};
  auto r = evaluate_sampled(*model, ds, one, fanouts, 16, 5);
  EXPECT_EQ(r.predictions.size(), 1u);
}

// --- autograd property sweep ------------------------------------------------------------

class GradcheckShapeSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GradcheckShapeSweep, LinearLogSoftmaxNllAtManyShapes) {
  const auto [m, n] = GetParam();
  Tensor target({m}, DType::kI64);
  for (std::int64_t i = 0; i < m; ++i) {
    target.at<std::int64_t>(i) = i % n;
  }
  auto fn = [&target](const std::vector<Variable>& in) {
    return ag::nll_loss(ag::log_softmax(ag::linear(in[0], in[1], in[2])),
                        target);
  };
  auto r = ag::gradcheck(
      fn,
      {Variable(Tensor::uniform({m, 3}, static_cast<unsigned>(m), -1, 1,
                                DType::kF64),
                true),
       Variable(Tensor::uniform({n, 3}, static_cast<unsigned>(n), -1, 1,
                                DType::kF64),
                true),
       Variable(Tensor::uniform({n}, 5, -1, 1, DType::kF64), true)});
  EXPECT_TRUE(r.ok) << r.message;
}

INSTANTIATE_TEST_SUITE_P(Shapes, GradcheckShapeSweep,
                         ::testing::Values(std::pair{1, 2}, std::pair{2, 2},
                                           std::pair{5, 3}, std::pair{8, 7},
                                           std::pair{3, 11}));

// --- cluster plan invariants over pipelined batch windows --------------------

// Replays ClusterTrainer's exact per-node planning order (the epoch
// shuffle, per-chunk sampler seeds, and ascending batch order every depth
// shares) and checks the structural invariants every in-flight
// batch's transfer plan must satisfy regardless of policy or depth.
TEST(ClusterPlanProperties, WindowPlansPartitionRowsAndNeverDoubleFetch) {
  DatasetConfig dc;
  dc.name = "prop-cluster";
  dc.num_nodes = 2000;
  dc.feature_dim = 8;
  dc.num_classes = 4;
  dc.avg_degree = 8;
  dc.powerlaw_exponent = 2.0;
  dc.seed = 13;
  const Dataset ds = generate_dataset(dc);

  dist::ClusterPartitionConfig pcfg;
  pcfg.num_nodes = 2;
  pcfg.strategy = dist::PartitionStrategy::kGreedy;
  const auto cp = dist::build_cluster_partition(ds.graph, pcfg);

  const int world = 2;
  const int depth = 2;  // in-flight window = depth + 1 batches
  const std::int64_t batch = 128;
  const std::uint64_t seed = 21;
  const std::uint64_t epoch_seed = schedule_epoch_seed(seed, 0);
  std::vector<NodeId> order = ds.train_idx;
  schedule_shuffle(order, epoch_seed);
  const auto total = static_cast<std::int64_t>(order.size());
  const std::int64_t num_steps = std::min<std::int64_t>(
      6, (total + batch - 1) / batch);

  struct PolicyCase {
    CachePolicyKind policy;
    double pct;
  };
  for (const PolicyCase pc :
       {PolicyCase{CachePolicyKind::kPresample, 0.0},   // always-fetch
        PolicyCase{CachePolicyKind::kPresample, 0.05},  // static pinning
        PolicyCase{CachePolicyKind::kLru, 0.5}}) {      // dynamic admission
    CachePolicyConfig cc;
    cc.kind = pc.policy;
    cc.presample_epochs = 1;
    cc.fanouts = {5, 3};
    cc.batch_size = batch;
    cc.seed = seed;
    for (int p = 0; p < world; ++p) {
      const dist::RemoteFeatureCache cache(ds, cp, p, pc.pct, cc);
      FastSampler sampler(ds.graph, {5, 3});
      // Fetched vertex sets of the batches currently in flight together.
      std::deque<std::set<NodeId>> window;
      for (std::int64_t b = 0; b < num_steps; ++b) {
        const std::int64_t lo = b * batch;
        const std::int64_t global_rows = std::min(total, lo + batch) - lo;
        const ChunkRange chunk = chunk_range(global_rows, world, p);
        if (chunk.size() == 0) continue;
        const Mfg mfg = sampler.sample(
            {order.data() + lo + chunk.begin,
             static_cast<std::size_t>(chunk.size())},
            schedule_mix_seed(epoch_seed, b * world + p));
        const dist::RemotePlan plan = cache.plan(mfg);

        // Partition: every MFG input row is exactly one of cache hit,
        // locally owned, or listed in exactly one per-owner fetch.
        const std::size_t n = mfg.n_ids.size();
        ASSERT_EQ(plan.plan.from_cache.size(), n);
        std::vector<int> covered(n, 0);
        std::int64_t hits = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (plan.plan.from_cache[i]) {
            ++covered[i];
            ++hits;
          }
        }
        ASSERT_EQ(hits, plan.remote_hits);  // locals never sit in the cache
        for (const std::int64_t i : plan.local_rows) {
          ASSERT_EQ(cp.owner_of(mfg.n_ids[static_cast<std::size_t>(i)]), p);
          ++covered[static_cast<std::size_t>(i)];
        }
        std::set<NodeId> fetched;
        std::int64_t misses = 0;
        int prev_owner = -1;
        for (const auto& f : plan.fetches) {
          ASSERT_NE(f.owner, p);
          ASSERT_GT(f.owner, prev_owner);  // ascending, so no owner twice
          prev_owner = f.owner;
          for (const std::int64_t i : f.rows) {
            ASSERT_EQ(cp.owner_of(mfg.n_ids[static_cast<std::size_t>(i)]),
                      f.owner);
            ++covered[static_cast<std::size_t>(i)];
            fetched.insert(mfg.n_ids[static_cast<std::size_t>(i)]);
            ++misses;
          }
        }
        ASSERT_EQ(misses, plan.remote_misses);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(covered[i], 1)
              << "row " << i << " of batch " << b << " on node " << p;
        }

        // Dynamic admission caches a fetched row at plan time, so a vertex
        // fetched for batch j is a *hit* for any later batch planned while
        // it is resident: overlapping in-flight batches never move the same
        // row over the interconnect twice. (Static policies legitimately
        // re-fetch their misses, so the claim is admission-specific.)
        if (pc.policy == CachePolicyKind::kLru) {
          for (const auto& prev : window) {
            std::vector<NodeId> dup;
            std::set_intersection(prev.begin(), prev.end(), fetched.begin(),
                                  fetched.end(), std::back_inserter(dup));
            ASSERT_TRUE(dup.empty())
                << dup.size() << " rows fetched twice within the in-flight "
                << "window ending at batch " << b << " on node " << p;
          }
        }
        window.push_back(std::move(fetched));
        if (window.size() > static_cast<std::size_t>(depth + 1)) {
          window.pop_front();
        }
      }
    }
  }
}

// --- simulator monotonicity --------------------------------------------------------------

TEST(SimulatorProperties, EpochTimeMonotoneInEveryCost) {
  sim::WorkloadModel base;
  base.dataset = "prop";
  base.num_batches = 50;
  base.sample_pyg_s = 0.2;
  base.sample_salient_s = 0.1;
  base.slice_s = 0.02;
  base.pin_copy_s = 0.02;
  base.ipc_s = 0.01;
  base.transfer_mb = 50;
  base.train_gpu_s = 0.01;
  base.grad_mb = 1;
  const sim::HwProfile hw;
  const auto opts = sim::SystemOptions::salient();
  const double t0 = sim::simulate_epoch(base, hw, opts, 8, 1).epoch_seconds;
  auto bump = [&](auto setter) {
    sim::WorkloadModel w = base;
    setter(w);
    return sim::simulate_epoch(w, hw, opts, 8, 1).epoch_seconds;
  };
  EXPECT_GE(bump([](auto& w) { w.sample_salient_s *= 2; }), t0);
  EXPECT_GE(bump([](auto& w) { w.slice_s *= 2; }), t0);
  EXPECT_GE(bump([](auto& w) { w.transfer_mb *= 4; }), t0);
  EXPECT_GE(bump([](auto& w) { w.train_gpu_s *= 2; }), t0);
  EXPECT_GE(bump([](auto& w) { w.num_batches *= 2; }), 1.5 * t0);
}

TEST(SimulatorProperties, FasterGpuNeverHurts) {
  sim::WorkloadModel w = sim::paper_workload("products");
  sim::HwProfile slow, fast;
  slow.gpu_relative_speed = 1.0;
  fast.gpu_relative_speed = 4.0;
  for (const auto& opts :
       {sim::SystemOptions::pyg(), sim::SystemOptions::salient()}) {
    const double t_slow =
        sim::simulate_epoch(w, slow, opts, 20, 1).epoch_seconds;
    const double t_fast =
        sim::simulate_epoch(w, fast, opts, 20, 1).epoch_seconds;
    EXPECT_LE(t_fast, t_slow + 1e-9);
  }
}

}  // namespace
}  // namespace salient
