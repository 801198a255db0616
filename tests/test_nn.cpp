// NN layer and model tests: parameter registration, Linear/BatchNorm
// semantics, conv-layer gradchecks through real bipartite levels, and the
// four paper architectures' forward shapes/probability outputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "autograd/functions.h"
#include "autograd/gradcheck.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/gat_conv.h"
#include "nn/gin_conv.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/sage_conv.h"
#include "sampling/fast_sampler.h"
#include "graph/generator.h"
#include "tensor/kernel_config.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace salient {
namespace {

namespace ag = autograd;
using nn::ModelConfig;

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.dtype() == b.dtype() && a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.nbytes()) == 0;
}

/// The wire copies of an f32 feature matrix a device batch can hold: f16,
/// and i8q carrying its row scale/zero.
std::vector<Tensor> wire_copies(const Tensor& x32) {
  Tensor scale, zero;
  return {x32.to(DType::kF16), ops::quantize_rows(x32, &scale, &zero)};
}

MfgLevel tiny_level() {
  // 2 destinations, 4 sources; dst0 <- {1,2}, dst1 <- {0,3}
  MfgLevel level;
  level.num_src = 4;
  level.num_dst = 2;
  level.indptr = std::make_shared<std::vector<std::int64_t>>(
      std::vector<std::int64_t>{0, 2, 4});
  level.indices = std::make_shared<std::vector<std::int64_t>>(
      std::vector<std::int64_t>{1, 2, 0, 3});
  return level;
}

TEST(Module, ParameterRegistrationAndCounts) {
  nn::Linear lin(3, 4, /*bias=*/true);
  const auto params = lin.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(lin.num_parameters(), 3 * 4 + 4);
  const auto named = lin.named_parameters();
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
  // handles share state with the module
  auto p = lin.parameters();
  p[0].data().fill_(0.0);
  EXPECT_DOUBLE_EQ(ops::sum_all(lin.parameters()[0].data()), 0.0);
}

TEST(Module, TrainModePropagatesToChildren) {
  ModelConfig mc{8, 16, 5, 3, 1};
  auto model = nn::make_model("gin", mc);
  model->train(false);
  EXPECT_FALSE(model->is_training());
  model->train(true);
  EXPECT_TRUE(model->is_training());
}

TEST(Linear, MatchesManualComputation) {
  nn::Linear lin(2, 3, true, 5);
  auto params = lin.parameters();
  Tensor w = params[0].data();  // [3,2]
  Tensor b = params[1].data();  // [3]
  Variable x(Tensor::from_vector<float>({1, 2}, {1, 2}));
  Tensor y = lin.forward(x).data();
  for (int j = 0; j < 3; ++j) {
    const float expect = w.at<float>(j, 0) * 1 + w.at<float>(j, 1) * 2 +
                         b.at<float>(j);
    EXPECT_NEAR(y.at<float>(0, j), expect, 1e-5);
  }
}

TEST(BatchNorm, NormalizesInTraining) {
  nn::BatchNorm1d bn(2);
  bn.train(true);
  Variable x(Tensor::from_vector<float>({1, 10, 3, 30, 5, 50}, {3, 2}));
  Tensor y = bn.forward(x).data();
  // Each column has ~0 mean and ~unit variance after normalization.
  for (int j = 0; j < 2; ++j) {
    double mean = 0, var = 0;
    for (int i = 0; i < 3; ++i) mean += y.at<float>(i, j);
    mean /= 3;
    for (int i = 0; i < 3; ++i) {
      var += std::pow(y.at<float>(i, j) - mean, 2);
    }
    var /= 3;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  nn::BatchNorm1d bn(1);
  bn.train(true);
  for (int i = 0; i < 200; ++i) {
    Variable x(Tensor::from_vector<float>({4.0f, 6.0f}, {2, 1}));
    bn.forward(x);
  }
  bn.train(false);
  Variable probe(Tensor::from_vector<float>({5.0f}, {1, 1}));
  // running mean converges to 5, running var to 2 (unbiased): output ~0.
  EXPECT_NEAR(bn.forward(probe).data().at<float>(0, 0), 0.0, 0.05);
}

TEST(SageConv, MeanAggregationPlusRoot) {
  nn::SageConv conv(2, 2, false, 3);
  MfgLevel level = tiny_level();
  Tensor x = Tensor::from_vector<float>({1, 0, 0, 1, 2, 2, -1, 1}, {4, 2});
  Variable out = conv.forward(Variable(x), level);
  ASSERT_EQ(out.data().size(0), 2);
  ASSERT_EQ(out.data().size(1), 2);
  // Compare against manual: out = W_l * mean + W_r * x_dst.
  auto params = conv.parameters();  // lin_l.weight, lin_r.weight
  Tensor wl = params[0].data(), wr = params[1].data();
  const float mean0[2] = {(0 + 2) / 2.0f, (1 + 2) / 2.0f};
  for (int j = 0; j < 2; ++j) {
    const float expect = wl.at<float>(j, 0) * mean0[0] +
                         wl.at<float>(j, 1) * mean0[1] +
                         wr.at<float>(j, 0) * 1 + wr.at<float>(j, 1) * 0;
    EXPECT_NEAR(out.data().at<float>(0, j), expect, 1e-5);
  }
}

TEST(Gradcheck, SageConvEndToEnd) {
  MfgLevel level = tiny_level();
  auto fn = [&level](const std::vector<Variable>& in) {
    // in: x, wl, wr — emulate the conv with explicit linear ops so we test
    // the same composition the layer uses.
    Variable agg = ag::spmm_mean(level.indptr, level.indices, in[0], 2);
    Variable root = ag::narrow_rows(in[0], 0, 2);
    Variable y = ag::add(ag::linear(agg, in[1], Variable()),
                         ag::linear(root, in[2], Variable()));
    return ag::nll_loss(ag::log_softmax(y),
                        Tensor::from_vector<std::int64_t>({0, 1}, {2}));
  };
  auto r = ag::gradcheck(
      fn, {Variable(Tensor::uniform({4, 3}, 1, -1, 1, DType::kF64), true),
           Variable(Tensor::uniform({2, 3}, 2, -1, 1, DType::kF64), true),
           Variable(Tensor::uniform({2, 3}, 3, -1, 1, DType::kF64), true)});
  EXPECT_TRUE(r.ok) << r.message;
}

/// A random MFG level with ragged in-degrees (some empty rows).
MfgLevel random_level(std::int64_t num_src, std::int64_t num_dst,
                      std::uint64_t seed) {
  std::vector<std::int64_t> indptr{0}, indices;
  Xoshiro256ss rng(seed);
  for (std::int64_t d = 0; d < num_dst; ++d) {
    const auto deg = static_cast<std::int64_t>(bounded_rand(rng, 7));
    for (std::int64_t k = 0; k < deg; ++k) {
      indices.push_back(static_cast<std::int64_t>(
          bounded_rand(rng, static_cast<std::uint64_t>(num_src))));
    }
    indptr.push_back(static_cast<std::int64_t>(indices.size()));
  }
  MfgLevel level;
  level.num_src = num_src;
  level.num_dst = num_dst;
  level.indptr = std::make_shared<std::vector<std::int64_t>>(indptr);
  level.indices = std::make_shared<std::vector<std::int64_t>>(indices);
  return level;
}

/// The unfused composition the fused conv replaced: spmm_mean, two Linears
/// and an Add, then ReLU and a multiply by the same counter mask.
Variable unfused_sage_conv(const MfgLevel& level, const Variable& x,
                           const Variable& wl, const Variable& wr, bool relu,
                           double p, bool training, std::uint64_t seed) {
  Variable agg = ag::spmm_mean(level.indptr, level.indices, x, level.num_dst);
  Variable root = ag::narrow_rows(x, 0, level.num_dst);
  Variable y = ag::add(ag::linear(agg, wl, Variable()),
                       ag::linear(root, wr, Variable()));
  if (!relu) return y;
  y = ag::relu(y);
  if (!training || p == 0.0) return y;
  return ag::mul(y, Variable(ops::dropout_mask_counter(
                        y.data().shape(), p, seed, y.data().dtype())));
}

TEST(SageConv, FusedNodeWithinUlpBoundOfUnfusedComposition) {
  // Forward and every gradient, f32 and f64, train and eval, with and
  // without x needing a gradient, with and without the ReLU/dropout tail.
  // The large level runs on a 4-thread kernel pool: its conv GEMM, its dx
  // GEMMs and its weight gradients (split-K) clear ops::kGemmGrain, so pool
  // workers write them. It runs without the tail, because among its 288k
  // outputs a pre-activation within rounding of 0 could take the ReLU gate
  // differently in the two compositions.
  struct Shape {
    std::int64_t src, dst, in, out;
  };
  struct PoolScope {
    explicit PoolScope(ThreadPool* p) { ops::set_kernel_pool(p); }
    ~PoolScope() { ops::set_kernel_pool(nullptr); }
  };
  ThreadPool pool(4);
  for (const Shape sh :
       {Shape{300, 170, 24, 20}, Shape{6000, 4500, 128, 64}}) {
    const bool large = sh.src > 1000;
    EXPECT_EQ(sh.out * sh.dst * sh.in >= ops::kGemmGrain, large);
    const MfgLevel level = random_level(sh.src, sh.dst, 41);
    const PoolScope scope(large ? &pool : nullptr);
    for (const DType dt : {DType::kF32, DType::kF64}) {
      const double tol = dt == DType::kF32 ? 2e-5 : 1e-12;
      for (const bool training : {true, false}) {
        for (const bool x_grad : {true, false}) {
          for (const bool relu : {true, false}) {
            if (large && relu) continue;
            auto leaf = [&](std::vector<std::int64_t> shape,
                            std::uint64_t sd, bool grad) {
              return Variable(
                  Tensor::uniform(std::move(shape), sd, -1, 1, dt), grad);
            };
            Variable x = leaf({sh.src, sh.in}, 42, x_grad);
            Variable wl = leaf({sh.out, sh.in}, 43, true);
            Variable wr = leaf({sh.out, sh.in}, 44, true);
            const Tensor seed_grad =
                Tensor::uniform({sh.dst, sh.out}, 45, -1, 1, dt);
            const double p = 0.3;
            const std::uint64_t seed = 0x5a6e;

            Variable fused = ag::sage_conv(level.indptr, level.indices, x,
                                           level.num_dst, wl, wr, Variable(),
                                           relu, p, training, seed);
            fused.backward(seed_grad);
            const Tensor f_dx = x_grad ? x.grad() : Tensor();
            const Tensor f_dwl = wl.grad(), f_dwr = wr.grad();
            for (Variable* v : {&x, &wl, &wr}) v->zero_grad();

            Variable ref =
                unfused_sage_conv(level, x, wl, wr, relu, p, training, seed);
            ref.backward(seed_grad);
            const std::string what =
                std::string("src=") + std::to_string(sh.src) +
                " dtype=" + (dt == DType::kF32 ? "f32" : "f64") +
                " training=" + std::to_string(training) +
                " x_grad=" + std::to_string(x_grad) +
                " relu=" + std::to_string(relu);
            EXPECT_TRUE(allclose(fused.data(), ref.data(), tol, tol)) << what;
            EXPECT_TRUE(allclose(f_dwl, wl.grad(), tol, tol)) << what;
            EXPECT_TRUE(allclose(f_dwr, wr.grad(), tol, tol)) << what;
            if (x_grad) {
              EXPECT_TRUE(allclose(f_dx, x.grad(), tol, tol)) << what;
            }
          }
        }
      }
    }
    // Wire rows as the first layer's x: the fused node aggregates and
    // packs them directly, bitwise equal to the same rows converted first,
    // for the output and both weight gradients.
    for (const Tensor& xw :
         wire_copies(Tensor::uniform({sh.src, sh.in}, 46, -1, 1))) {
      for (const bool training : {true, false}) {
        for (const bool relu : {true, false}) {
          std::vector<Tensor> got;
          for (const Tensor& in : {xw, xw.to(DType::kF32)}) {
            Variable wl(Tensor::uniform({sh.out, sh.in}, 43, -1, 1), true);
            Variable wr(Tensor::uniform({sh.out, sh.in}, 44, -1, 1), true);
            Variable y = ag::sage_conv(level.indptr, level.indices,
                                       Variable(in), level.num_dst, wl, wr,
                                       Variable(), relu, 0.3, training,
                                       0x5a6e);
            y.backward(Tensor::uniform({sh.dst, sh.out}, 45, -1, 1));
            got.insert(got.end(), {y.data(), wl.grad(), wr.grad()});
          }
          for (int k = 0; k < 3; ++k) {
            EXPECT_TRUE(bitwise_equal(got[static_cast<std::size_t>(k)],
                                      got[static_cast<std::size_t>(k + 3)]))
                << dtype_name(xw.dtype()) << " src=" << sh.src
                << " training=" << training << " relu=" << relu
                << " output " << k;
          }
        }
      }
    }
  }
}

TEST(Gradcheck, FusedSageConvNode) {
  // f64 gradcheck of the fused node with its full tail (ReLU + dropout in
  // training), every input needing a gradient.
  MfgLevel level = tiny_level();
  auto fn = [&level](const std::vector<Variable>& in) {
    Variable y = ag::sage_conv(level.indptr, level.indices, in[0], 2, in[1],
                               in[2], Variable(), /*relu=*/true, 0.25,
                               /*training=*/true, 0x77);
    return ag::nll_loss(ag::log_softmax(y),
                        Tensor::from_vector<std::int64_t>({0, 1}, {2}));
  };
  auto r = ag::gradcheck(
      fn, {Variable(Tensor::uniform({4, 3}, 1, -1, 1, DType::kF64), true),
           Variable(Tensor::uniform({5, 3}, 2, -1, 1, DType::kF64), true),
           Variable(Tensor::uniform({5, 3}, 3, -1, 1, DType::kF64), true)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GatConv, OutputShapeAndAttentionNormalization) {
  nn::GatConv conv(3, 4, false, 0.2, 7);
  MfgLevel level = tiny_level();
  Tensor x = Tensor::uniform({4, 3}, 9, -1, 1);
  Variable out = conv.forward(Variable(x), level);
  EXPECT_EQ(out.data().size(0), 2);
  EXPECT_EQ(out.data().size(1), 4);
  // With identical source projections, attention reduces to a plain mean of
  // neighbors+self: feed constant rows and verify the output matches any
  // single projected row (softmax of equal scores is uniform; weighted sum
  // of identical vectors is that vector).
  Tensor same = Tensor::zeros({4, 3});
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 3; ++j) same.at<float>(i, j) = static_cast<float>(j);
  Variable out2 = conv.forward(Variable(same), level);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(out2.data().at<float>(0, j), out2.data().at<float>(1, j),
                1e-5);
  }
}

TEST(Gradcheck, GatEdgeSoftmaxAggregate) {
  MfgLevel level = tiny_level();
  auto fn = [&level](const std::vector<Variable>& in) {
    Variable y = nn::gat_edge_softmax_aggregate(
        in[0], in[1], in[2], level.indptr, level.indices, 2, 0.2,
        /*heads=*/1);
    return ag::nll_loss(ag::log_softmax(y),
                        Tensor::from_vector<std::int64_t>({1, 0}, {2}));
  };
  auto r = ag::gradcheck(
      fn,
      {Variable(Tensor::uniform({4, 3}, 11, -1, 1, DType::kF64), true),
       Variable(Tensor::uniform({4, 1}, 12, -1, 1, DType::kF64), true),
       Variable(Tensor::uniform({2, 1}, 13, -1, 1, DType::kF64), true)},
      1e-5, 1e-5);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, GatEdgeSoftmaxAggregateMultiHead) {
  // 2 heads of width 3: h is [4, 6], scores are [*, 2].
  MfgLevel level = tiny_level();
  auto fn = [&level](const std::vector<Variable>& in) {
    Variable y = nn::gat_edge_softmax_aggregate(
        in[0], in[1], in[2], level.indptr, level.indices, 2, 0.2,
        /*heads=*/2);
    return ag::nll_loss(ag::log_softmax(y),
                        Tensor::from_vector<std::int64_t>({1, 0}, {2}));
  };
  auto r = ag::gradcheck(
      fn,
      {Variable(Tensor::uniform({4, 6}, 14, -1, 1, DType::kF64), true),
       Variable(Tensor::uniform({4, 2}, 15, -1, 1, DType::kF64), true),
       Variable(Tensor::uniform({2, 2}, 16, -1, 1, DType::kF64), true)},
      1e-5, 1e-5);
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(GatConv, MultiHeadShapesAndSingleHeadEquivalence) {
  MfgLevel level = tiny_level();
  nn::GatConv multi(3, 4, false, 0.2, 7, /*heads=*/3);
  Tensor x = Tensor::uniform({4, 3}, 21, -1, 1);
  Variable out = multi.forward(Variable(x), level);
  EXPECT_EQ(out.data().size(0), 2);
  EXPECT_EQ(out.data().size(1), 12);  // heads * out_channels, concatenated
  // backward flows to every parameter
  Variable loss = nn::nll_loss(nn::log_softmax(out),
                               Tensor::from_vector<std::int64_t>({0, 1}, {2}));
  multi.zero_grad();
  loss.backward();
  for (const auto& p : multi.parameters()) {
    EXPECT_TRUE(p.grad().defined());
  }
  EXPECT_THROW(nn::GatConv(3, 4, false, 0.2, 7, 0), std::invalid_argument);
}

TEST(GinConv, SumAggregationThroughMlp) {
  auto mlp = std::make_shared<nn::GinMlp>(2, 4, 5);
  nn::GinConv conv(mlp);
  conv.train(false);  // freeze batch-norm statistics path
  MfgLevel level = tiny_level();
  Tensor x = Tensor::uniform({4, 2}, 19, -1, 1);
  Variable out = conv.forward(Variable(x), level);
  EXPECT_EQ(out.data().size(0), 2);
  EXPECT_EQ(out.data().size(1), 4);
  // GIN MLP ends in ReLU: outputs nonnegative.
  for (float v : out.data().span<float>()) EXPECT_GE(v, 0.0f);
}

// --- full architectures -----------------------------------------------------------

class ModelForwardTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelForwardTest, ProducesLogProbabilitiesOverBatch) {
  const std::string arch = GetParam();
  CsrGraph g = powerlaw_configuration(2000, 10.0, 2.5, 300, 23);
  std::vector<NodeId> batch;
  for (NodeId v = 0; v < 37; ++v) batch.push_back(v * 13);
  FastSampler sampler(g, {6, 4, 3});
  Mfg mfg = sampler.sample(batch);

  ModelConfig mc;
  mc.in_channels = 12;
  mc.hidden_channels = 16;
  mc.out_channels = 7;
  mc.num_layers = 3;
  auto model = nn::make_model(arch, mc);
  model->train(true);
  Tensor x = Tensor::uniform({mfg.num_input_nodes(), 12}, 29, -1, 1);
  Variable logp = model->forward(Variable(x), mfg);
  ASSERT_EQ(logp.data().size(0), 37);
  ASSERT_EQ(logp.data().size(1), 7);
  // rows are log-probabilities
  for (std::int64_t i = 0; i < 37; ++i) {
    double sum = 0;
    for (std::int64_t j = 0; j < 7; ++j) {
      sum += std::exp(logp.data().at<float>(i, j));
    }
    ASSERT_NEAR(sum, 1.0, 1e-4);
  }
  // backward produces gradients for every parameter
  Tensor y({37}, DType::kI64);
  Variable loss = nn::nll_loss(logp, y);
  model->zero_grad();
  loss.backward();
  for (const auto& p : model->parameters()) {
    EXPECT_TRUE(p.grad().defined());
  }

  // Wire rows as the model's input (f16, i8q with its row scale/zero), as a
  // device batch delivers them: bitwise equal to the same rows converted
  // first, for the output and every parameter gradient. For GraphSAGE also
  // the max and pool aggregators, which convert the rows once.
  for (const Tensor& xw : wire_copies(x)) {
    std::vector<Tensor> got;
    for (const Tensor& in : {xw, xw.to(DType::kF32)}) {
      auto m = nn::make_model(arch, mc);
      m->train(true);
      Variable lp = m->forward(Variable(in), mfg);
      m->zero_grad();
      nn::nll_loss(lp, y).backward();
      got.push_back(lp.data());
      for (const auto& p : m->parameters()) got.push_back(p.grad());
      if (arch != "sage") continue;
      for (const nn::SageAggregator agg :
           {nn::SageAggregator::kMax, nn::SageAggregator::kPool}) {
        nn::SageConv conv(12, 16, false, 3, agg);
        Variable h = conv.forward(Variable(in), mfg.levels[0]);
        h.backward(Tensor::uniform(h.data().shape(), 31, -1, 1));
        got.push_back(h.data());
        for (const auto& p : conv.parameters()) got.push_back(p.grad());
      }
    }
    const std::size_t half = got.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      EXPECT_TRUE(bitwise_equal(got[i], got[half + i]))
          << arch << " on " << dtype_name(xw.dtype()) << " rows, result "
          << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ModelForwardTest,
                         ::testing::Values("sage", "gat", "gin", "sage-ri"));

TEST(Models, FactoryRejectsUnknownArch) {
  ModelConfig mc{4, 8, 3, 2, 1};
  EXPECT_THROW(nn::make_model("gcnii", mc), std::invalid_argument);
  EXPECT_THROW(nn::make_model("sage", ModelConfig{0, 8, 3, 2, 1}),
               std::invalid_argument);
}

TEST(Models, LayerwiseSupportFlags) {
  ModelConfig mc{4, 8, 3, 2, 1};
  EXPECT_TRUE(nn::make_model("sage", mc)->supports_layerwise());
  EXPECT_TRUE(nn::make_model("gat", mc)->supports_layerwise());
  EXPECT_TRUE(nn::make_model("gin", mc)->supports_layerwise());
  EXPECT_FALSE(nn::make_model("sage-ri", mc)->supports_layerwise());
}

TEST(Models, DropoutSeedingMakesForwardDeterministic) {
  CsrGraph g = powerlaw_configuration(500, 8.0, 2.5, 100, 31);
  std::vector<NodeId> batch{1, 2, 3, 4, 5};
  FastSampler sampler(g, {4, 4});
  Mfg mfg = sampler.sample(batch, 5);
  ModelConfig mc{6, 8, 4, 2, 77};
  Tensor x = Tensor::uniform({mfg.num_input_nodes(), 6}, 37, -1, 1);

  auto m1 = nn::make_model("sage", mc);
  auto m2 = nn::make_model("sage", mc);
  Tensor y1 = m1->forward(Variable(x), mfg).data();
  Tensor y2 = m2->forward(Variable(x), mfg).data();
  EXPECT_TRUE(allclose(y1, y2));  // same seed, same dropout stream
}

TEST(Loss, CrossEntropyEqualsLogSoftmaxPlusNll) {
  Variable logits(Tensor::uniform({5, 4}, 41, -2, 2), true);
  Tensor target = Tensor::from_vector<std::int64_t>({0, 1, 2, 3, 0}, {5});
  Variable a = nn::cross_entropy(logits, target);
  Variable b = nn::nll_loss(nn::log_softmax(logits), target);
  EXPECT_NEAR(a.data().at<float>(0), b.data().at<float>(0), 1e-6);
}

}  // namespace
}  // namespace salient
