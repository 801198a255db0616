// Sampler tests: MFG structural invariants under every one of the 96 design
// space variants (TEST_P), semantic properties of sampling without
// replacement, ID-map correctness by fuzzing against std::unordered_map,
// and the production samplers' behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "graph/generator.h"
#include "sampling/baseline_sampler.h"
#include "sampling/fast_sampler.h"
#include "sampling/id_map.h"
#include "sampling/parameterized.h"
#include "sampling/sample_set.h"
#include "sampling/trace.h"
#include "util/rng.h"

namespace salient {
namespace {

CsrGraph& test_graph() {
  static CsrGraph g = powerlaw_configuration(5000, 12.0, 2.4, 800, 17);
  return g;
}

std::vector<NodeId> make_batch(std::int64_t n, std::uint64_t seed) {
  // distinct batch nodes
  std::vector<NodeId> all(static_cast<std::size_t>(test_graph().num_nodes()));
  std::iota(all.begin(), all.end(), 0);
  Xoshiro256ss rng(seed);
  for (std::size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[bounded_rand(rng, i)]);
  }
  all.resize(static_cast<std::size_t>(n));
  return all;
}

/// Full semantic validation of an MFG against its batch and graph.
void check_mfg(const Mfg& mfg, const std::vector<NodeId>& batch,
               const std::vector<std::int64_t>& fanouts, const CsrGraph& g) {
  ASSERT_TRUE(mfg.valid());
  ASSERT_EQ(mfg.levels.size(), fanouts.size());
  ASSERT_EQ(mfg.batch_size, static_cast<std::int64_t>(batch.size()));
  // n_ids begins with the batch (prefix property through all levels).
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(mfg.n_ids[i], batch[i]);
  }
  // n_ids are unique (dedup across hops).
  std::set<NodeId> uniq(mfg.n_ids.begin(), mfg.n_ids.end());
  ASSERT_EQ(uniq.size(), mfg.n_ids.size());
  // Per level (model order is outermost first; fanouts[k] applies to the
  // level consumed last, i.e. levels[L-1-k]):
  for (std::size_t li = 0; li < mfg.levels.size(); ++li) {
    const auto& level = mfg.levels[li];
    const std::int64_t fanout = fanouts[mfg.levels.size() - 1 - li];
    for (std::int64_t d = 0; d < level.num_dst; ++d) {
      const NodeId dst_global = mfg.n_ids[static_cast<std::size_t>(d)];
      const auto b = (*level.indptr)[static_cast<std::size_t>(d)];
      const auto e = (*level.indptr)[static_cast<std::size_t>(d) + 1];
      // fanout bound: min(degree, fanout) edges
      const std::int64_t expect =
          std::min<std::int64_t>(g.degree(dst_global), fanout);
      ASSERT_EQ(e - b, expect) << "dst " << dst_global;
      std::set<std::int64_t> seen_srcs;
      const auto nb = g.neighbors(dst_global);
      for (std::int64_t k = b; k < e; ++k) {
        const std::int64_t src_local = (*level.indices)[
            static_cast<std::size_t>(k)];
        // no replacement
        ASSERT_TRUE(seen_srcs.insert(src_local).second);
        // sampled source is a real neighbor
        const NodeId src_global =
            mfg.n_ids[static_cast<std::size_t>(src_local)];
        ASSERT_TRUE(std::binary_search(nb.begin(), nb.end(), src_global))
            << src_global << " not a neighbor of " << dst_global;
      }
    }
  }
}

// --- all 96 variants ------------------------------------------------------------

class SamplerVariantTest : public ::testing::TestWithParam<SamplerVariant> {};

TEST_P(SamplerVariantTest, ProducesValidMfg) {
  const SamplerVariant v = GetParam();
  const auto batch = make_batch(64, 100 + v.map + v.set * 10);
  const std::vector<std::int64_t> fanouts{5, 3, 2};
  Mfg mfg = sample_with_variant(v, test_graph(), batch, fanouts, 1234);
  check_mfg(mfg, batch, fanouts, test_graph());
}

TEST_P(SamplerVariantTest, HopRunnerCountsEdges) {
  const SamplerVariant v = GetParam();
  const auto frontier = make_batch(128, 7);
  const std::int64_t edges =
      run_hop_with_variant(v, test_graph(), frontier, 4, 99);
  // Every frontier node contributes min(degree, 4) >= 1 edges.
  ASSERT_GE(edges, static_cast<std::int64_t>(frontier.size()));
  ASSERT_LE(edges, static_cast<std::int64_t>(frontier.size()) * 4);
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, SamplerVariantTest,
    ::testing::ValuesIn(all_sampler_variants()),
    [](const ::testing::TestParamInfo<SamplerVariant>& info) {
      std::string n = info.param.name();
      for (auto& c : n) {
        if (c == '/') c = '_';
      }
      return n;
    });

TEST(DesignSpace, Has96VariantsWithBaselineAndSalient) {
  const auto all = all_sampler_variants();
  EXPECT_EQ(all.size(), 96u);
  int baseline = 0, salient = 0;
  std::set<std::string> names;
  for (const auto& v : all) {
    baseline += v.is_baseline();
    salient += v.is_salient();
    names.insert(v.name());
  }
  EXPECT_EQ(baseline, 1);
  EXPECT_EQ(salient, 1);
  EXPECT_EQ(names.size(), 96u);  // all distinct
}

// --- set samplers ------------------------------------------------------------------

template <typename Policy>
class SampleSetTest : public ::testing::Test {};

using SetPolicies = ::testing::Types<StdSetSampler, FlatSetSampler,
                                     ArraySetSampler, FisherYatesSampler>;
TYPED_TEST_SUITE(SampleSetTest, SetPolicies);

TYPED_TEST(SampleSetTest, SamplesDistinctNeighbors) {
  std::vector<NodeId> neighbors(100);
  std::iota(neighbors.begin(), neighbors.end(), 1000);
  Xoshiro256ss rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<NodeId> out;
    TypeParam::sample(neighbors, 10, rng, out);
    ASSERT_EQ(out.size(), 10u);
    std::set<NodeId> uniq(out.begin(), out.end());
    ASSERT_EQ(uniq.size(), 10u);
    for (const NodeId v : out) {
      ASSERT_GE(v, 1000);
      ASSERT_LT(v, 1100);
    }
  }
}

TYPED_TEST(SampleSetTest, TakesAllWhenDegreeSmall) {
  std::vector<NodeId> neighbors{7, 8, 9};
  Xoshiro256ss rng(6);
  std::vector<NodeId> out;
  TypeParam::sample(neighbors, 10, rng, out);
  EXPECT_EQ(out, neighbors);
  // exactly fanout == degree also takes all, in order
  out.clear();
  TypeParam::sample(neighbors, 3, rng, out);
  EXPECT_EQ(out, neighbors);
}

TYPED_TEST(SampleSetTest, IsRoughlyUniform) {
  std::vector<NodeId> neighbors(20);
  std::iota(neighbors.begin(), neighbors.end(), 0);
  Xoshiro256ss rng(8);
  std::vector<int> counts(20, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    std::vector<NodeId> out;
    TypeParam::sample(neighbors, 5, rng, out);
    for (const NodeId v : out) ++counts[static_cast<std::size_t>(v)];
  }
  // Each neighbor expected trials*5/20 times.
  const double expected = trials * 5.0 / 20.0;
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.1);
  }
}

// --- flat ID map fuzz ---------------------------------------------------------------

TEST(FlatIdMap, MatchesStdMapUnderFuzz) {
  FlatIdMap flat;
  StdIdMap ref;
  std::vector<NodeId> flat_locals, ref_locals;
  Xoshiro256ss rng(13);
  for (int i = 0; i < 200000; ++i) {
    const auto key = static_cast<NodeId>(bounded_rand(rng, 30000));
    const auto a = flat.get_or_insert(key, flat_locals);
    const auto b = ref.get_or_insert(key, ref_locals);
    ASSERT_EQ(a, b) << "iteration " << i;
  }
  EXPECT_EQ(flat_locals, ref_locals);
  // clear and reuse
  flat.clear();
  flat_locals.clear();
  EXPECT_EQ(flat.get_or_insert(42, flat_locals), 0);
  EXPECT_EQ(flat.get_or_insert(42, flat_locals), 0);
  EXPECT_EQ(flat.get_or_insert(7, flat_locals), 1);
}

// Regression test for the reserve()/clear() reuse fast paths: reserving an
// empty (freshly cleared) table must keep it usable and must not shrink it,
// and the per-minibatch clear → reserve → refill cycle must behave exactly
// like a fresh map at every step.
TEST(FlatIdMap, ClearThenReserveReusesCapacity) {
  FlatIdMap map;
  StdIdMap ref;
  Xoshiro256ss rng(29);
  for (int round = 0; round < 5; ++round) {
    map.clear();
    ref.clear();
    map.reserve(4000);
    std::vector<NodeId> locals, ref_locals;
    for (int i = 0; i < 12000; ++i) {
      const auto key = static_cast<NodeId>(bounded_rand(rng, 6000));
      ASSERT_EQ(map.get_or_insert(key, locals),
                ref.get_or_insert(key, ref_locals))
          << "round " << round << " iteration " << i;
    }
    EXPECT_EQ(locals, ref_locals);
    // A smaller reserve on the next round must not lose existing capacity.
    map.reserve(16);
  }
}

TEST(FlatIdMap, GrowsBeyondInitialCapacity) {
  FlatIdMap map;
  std::vector<NodeId> locals;
  for (NodeId k = 0; k < 10000; ++k) {
    ASSERT_EQ(map.get_or_insert(k * 1000003, locals), k);
  }
  for (NodeId k = 0; k < 10000; ++k) {
    ASSERT_EQ(map.get_or_insert(k * 1000003, locals), k);
  }
}

// --- production samplers --------------------------------------------------------------

TEST(Samplers, BaselineAndFastProduceValidMfgs) {
  const auto batch = make_batch(128, 55);
  const std::vector<std::int64_t> fanouts{15, 10, 5};
  BaselineSampler baseline(test_graph(), fanouts, 3);
  FastSampler fast(test_graph(), fanouts, 3);
  check_mfg(baseline.sample(batch), batch, fanouts, test_graph());
  check_mfg(fast.sample(batch), batch, fanouts, test_graph());
}

TEST(Samplers, SeededSamplingIsDeterministic) {
  const auto batch = make_batch(64, 56);
  const std::vector<std::int64_t> fanouts{5, 5};
  FastSampler fast(test_graph(), fanouts);
  Mfg a = fast.sample(batch, 42);
  Mfg b = fast.sample(batch, 42);
  EXPECT_EQ(a.n_ids, b.n_ids);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(*a.levels[i].indices, *b.levels[i].indices);
  }
  Mfg c = fast.sample(batch, 43);
  EXPECT_NE(*a.levels[0].indices, *c.levels[0].indices);
}

TEST(Samplers, FullFanoutTakesWholeNeighborhood) {
  const auto batch = make_batch(32, 57);
  const std::vector<std::int64_t> fanouts{100000};
  FastSampler fast(test_graph(), fanouts);
  Mfg mfg = fast.sample(batch);
  const auto& level = mfg.levels[0];
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto deg = test_graph().degree(batch[i]);
    EXPECT_EQ((*level.indptr)[i + 1] - (*level.indptr)[i], deg);
  }

  // A fanout far beyond the graph (2^40 over two hops) reserves by the
  // graph, not by the fanout, and samples the max-degree MFG.
  std::int64_t max_degree = 0;
  for (NodeId v = 0; v < test_graph().num_nodes(); ++v) {
    max_degree = std::max(max_degree, test_graph().degree(v));
  }
  const std::int64_t huge = std::int64_t{1} << 40;
  const Mfg full = FastSampler(test_graph(), {max_degree, max_degree})
                       .sample(batch);
  const Mfg beyond = FastSampler(test_graph(), {huge, huge}).sample(batch);
  EXPECT_EQ(beyond.n_ids, full.n_ids);
  ASSERT_EQ(beyond.levels.size(), full.levels.size());
  for (std::size_t i = 0; i < full.levels.size(); ++i) {
    EXPECT_EQ(*beyond.levels[i].indptr, *full.levels[i].indptr);
    EXPECT_EQ(*beyond.levels[i].indices, *full.levels[i].indices);
  }
}

TEST(Samplers, NeighborhoodGrowsAcrossHops) {
  const auto batch = make_batch(16, 58);
  FastSampler fast(test_graph(), {10, 10, 10});
  Mfg mfg = fast.sample(batch);
  // model order: levels[0] outermost (largest), sizes shrink toward batch
  ASSERT_EQ(mfg.levels.size(), 3u);
  EXPECT_GT(mfg.levels[0].num_src, mfg.levels[1].num_src);
  EXPECT_GT(mfg.levels[1].num_src, mfg.levels[2].num_src);
  EXPECT_EQ(mfg.levels[2].num_dst, 16);
}

TEST(Trace, RecordsGrowingFrontiers) {
  const auto batch = make_batch(32, 59);
  const std::vector<std::int64_t> fanouts{8, 4};
  SampleTrace trace = record_trace(test_graph(), batch, fanouts, 7);
  ASSERT_EQ(trace.hops.size(), 2u);
  EXPECT_EQ(trace.hops[0].frontier.size(), 32u);
  EXPECT_EQ(trace.hops[0].fanout, 8);
  EXPECT_GT(trace.hops[1].frontier.size(), trace.hops[0].frontier.size());
  // hop 0 frontier is exactly the batch
  EXPECT_TRUE(std::equal(batch.begin(), batch.end(),
                         trace.hops[0].frontier.begin()));
}

TEST(Mfg, SerializationHelpersRoundTripThroughValidation) {
  const auto batch = make_batch(32, 60);
  FastSampler fast(test_graph(), {6, 3});
  Mfg mfg = fast.sample(batch);
  EXPECT_GT(mfg.total_edges(), 0);
  EXPECT_GT(mfg.adjacency_bytes(), 0u);
}

}  // namespace
}  // namespace salient
