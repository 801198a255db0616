// Autograd tests: engine mechanics (accumulation, diamond graphs, leaves)
// plus finite-difference gradient checks for every differentiable op.
#include <gtest/gtest.h>

#include "autograd/functions.h"
#include "autograd/gradcheck.h"
#include "autograd/variable.h"
#include "tensor/kernel_config.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace salient {
namespace {

namespace ag = autograd;

Variable leaf(std::vector<std::int64_t> shape, std::uint64_t seed,
              double lo = -1, double hi = 1) {
  return Variable(Tensor::uniform(std::move(shape), seed, lo, hi, DType::kF64),
                  /*requires_grad=*/true);
}

TEST(Engine, LeafAccumulatesSeed) {
  Variable x(Tensor::ones({3}, DType::kF64), true);
  x.backward(Tensor::full({3}, 2.0, DType::kF64));
  EXPECT_TRUE(allclose(x.grad(), Tensor::full({3}, 2.0, DType::kF64)));
  // second backward accumulates
  x.backward(Tensor::full({3}, 1.0, DType::kF64));
  EXPECT_TRUE(allclose(x.grad(), Tensor::full({3}, 3.0, DType::kF64)));
  x.zero_grad();
  EXPECT_FALSE(x.grad().defined());
}

TEST(Engine, DiamondGraphSumsBothPaths) {
  // y = x*x + x*x : dy/dx = 4x
  Variable x = leaf({4}, 3);
  Variable a = ag::mul(x, x);
  Variable b = ag::mul(x, x);
  Variable y = ag::add(a, b);
  y.backward(Tensor::ones({4}, DType::kF64));
  Tensor expected = ops::scale(x.data(), 4.0);
  EXPECT_TRUE(allclose(x.grad(), expected, 1e-9, 1e-9));
}

TEST(Engine, ReusedVariableAsBothInputs) {
  // y = x * x (same variable twice in one node): dy/dx = 2x
  Variable x = leaf({5}, 4);
  Variable y = ag::mul(x, x);
  y.backward(Tensor::ones({5}, DType::kF64));
  EXPECT_TRUE(allclose(x.grad(), ops::scale(x.data(), 2.0), 1e-9, 1e-9));
}

TEST(Engine, SharedGradientBuffersAreNeverAccumulatedInPlace) {
  // Add hands its grad_out on to both inputs uncopied. In
  // z = (a + b) + a with a = 2x and b = 3x, the outer Add gives one buffer
  // to the inner Add and to a; the inner Add then gives that same buffer
  // to a again and to b. Accumulating a's second contribution in place
  // would double b's gradient too: dz/dx would read 10 instead of 7.
  Variable x = leaf({4}, 6);
  Variable a = ag::scale(x, 2.0);
  Variable b = ag::scale(x, 3.0);
  Variable z = ag::add(ag::add(a, b), a);
  const Tensor seed = Tensor::full({4}, 1.0, DType::kF64);
  z.backward(seed);
  EXPECT_TRUE(allclose(x.grad(), Tensor::full({4}, 7.0, DType::kF64), 0, 0));
  EXPECT_TRUE(allclose(seed, Tensor::full({4}, 1.0, DType::kF64), 0, 0))
      << "the caller's seed was written";
  // A leaf's first gradient may be a buffer some other slot also holds;
  // the leaf must own what it accumulates into.
  Variable u = leaf({3}, 7);
  Variable v = leaf({3}, 8);
  ag::add(u, v).backward(Tensor::full({3}, 1.0, DType::kF64));
  EXPECT_NE(u.grad().storage(), v.grad().storage());
}

TEST(Engine, BackwardSkipsGradientsOfInputsThatNeedNone) {
  // MatMul and Linear compute an input's gradient only when that input
  // needs one, so a layer over the features skips its dX GEMM. The batch
  // is tall (K = 6,000 rows), so the weight gradient runs split-K on the
  // 4-thread kernel pool; it must equal the standalone gᵀx bitwise.
  struct PoolScope {
    explicit PoolScope(ThreadPool* p) { ops::set_kernel_pool(p); }
    ~PoolScope() { ops::set_kernel_pool(nullptr); }
  };
  ThreadPool pool(4);
  const PoolScope scope(&pool);
  const Tensor tx = Tensor::uniform({6000, 128}, 61, -1, 1);
  const Tensor tw = Tensor::uniform({64, 128}, 62, -1, 1);
  const Tensor g = Tensor::uniform({6000, 64}, 63, -1, 1);
  EXPECT_GE(64 * 6000 * 128, ops::kGemmGrain);
  const Tensor want_dw = ops::matmul(g, tx, true, false);
  const Tensor want_dx = ops::matmul(g, tw, false, false);
  for (const bool linear : {false, true}) {
    for (const bool x_needs_grad : {false, true}) {
      Variable x(tx, x_needs_grad);
      Variable w(tw, !x_needs_grad);
      Variable y = linear ? ag::linear(x, w, Variable())
                          : ag::matmul(x, w, false, true);
      const std::vector<Tensor> gins = y.grad_fn()->backward(g);
      ASSERT_EQ(gins.size(), 2u);
      EXPECT_EQ(gins[0].defined(), x_needs_grad) << "linear=" << linear;
      EXPECT_EQ(gins[1].defined(), !x_needs_grad) << "linear=" << linear;
      const Tensor& got = x_needs_grad ? gins[0] : gins[1];
      const Tensor& want = x_needs_grad ? want_dx : want_dw;
      EXPECT_TRUE(allclose(got, want, 0, 0)) << "linear=" << linear;
    }
  }
}

TEST(Engine, NoGradInputsProduceConstant) {
  Variable x(Tensor::ones({2}, DType::kF64), false);
  Variable y = ag::scale(x, 3.0);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_EQ(y.grad_fn(), nullptr);
}

TEST(Engine, ScalarImplicitSeed) {
  Variable x = leaf({3, 2}, 5);
  Variable loss = ag::nll_loss(ag::log_softmax(x),
                               Tensor::from_vector<std::int64_t>({0, 1, 0},
                                                                 {3}));
  loss.backward();  // implicit seed of 1
  EXPECT_TRUE(x.grad().defined());
  Variable y = ag::add(x, x);
  EXPECT_THROW(y.backward(), std::runtime_error);  // non-scalar
}

// --- gradchecks -------------------------------------------------------------

TEST(Gradcheck, AddSubMulScale) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable s = ag::add(in[0], in[1]);
    s = ag::sub(s, ag::scale(in[1], 0.5));
    s = ag::mul(s, in[0]);
    return ag::nll_loss(ag::log_softmax(s),
                        Tensor::from_vector<std::int64_t>({1, 0}, {2}));
  };
  auto r = ag::gradcheck(fn, {leaf({2, 3}, 10), leaf({2, 3}, 11)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, MatmulAllTransposes) {
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      auto fn = [ta, tb](const std::vector<Variable>& in) {
        Variable y = ag::matmul(in[0], in[1], ta, tb);
        return ag::nll_loss(ag::log_softmax(y),
                            Tensor::from_vector<std::int64_t>({0, 2, 1},
                                                              {3}));
      };
      Variable a = leaf(ta ? std::vector<std::int64_t>{4, 3}
                           : std::vector<std::int64_t>{3, 4},
                        20 + ta);
      Variable b = leaf(tb ? std::vector<std::int64_t>{5, 4}
                           : std::vector<std::int64_t>{4, 5},
                        22 + tb);
      auto r = ag::gradcheck(fn, {a, b});
      EXPECT_TRUE(r.ok) << "ta=" << ta << " tb=" << tb << ": " << r.message;
    }
  }
}

TEST(Gradcheck, LinearWithBias) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable y = ag::linear(in[0], in[1], in[2]);
    return ag::nll_loss(ag::log_softmax(y),
                        Tensor::from_vector<std::int64_t>({1, 3}, {2}));
  };
  auto r = ag::gradcheck(fn, {leaf({2, 3}, 30), leaf({4, 3}, 31),
                              leaf({4}, 32)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, ReluAndLeakyRelu) {
  // Offset inputs away from 0 so finite differences don't cross the kink.
  auto fn = [](const std::vector<Variable>& in) {
    Variable y = ag::relu(in[0]);
    y = ag::leaky_relu(y, 0.2);
    return ag::nll_loss(ag::log_softmax(y),
                        Tensor::from_vector<std::int64_t>({0, 1}, {2}));
  };
  Variable x(Tensor::from_vector<double>(
                 {0.5, -0.7, 1.2, -0.3, 0.9, 2.0}, {2, 3}),
             true);
  auto r = ag::gradcheck(fn, {x});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, LogSoftmaxNll) {
  auto fn = [](const std::vector<Variable>& in) {
    return ag::nll_loss(ag::log_softmax(in[0]),
                        Tensor::from_vector<std::int64_t>({2, 0, 1, 2}, {4}));
  };
  auto r = ag::gradcheck(fn, {leaf({4, 3}, 40, -2, 2)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, NarrowRowsAndConcat) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable top = ag::narrow_rows(in[0], 0, 2);
    Variable both = ag::concat_cols({top, in[1]});
    return ag::nll_loss(ag::log_softmax(both),
                        Tensor::from_vector<std::int64_t>({0, 3}, {2}));
  };
  auto r = ag::gradcheck(fn, {leaf({4, 2}, 50), leaf({2, 3}, 51)});
  EXPECT_TRUE(r.ok) << r.message;
}

TEST(Gradcheck, SpmmMeanAndSum) {
  auto indptr = std::make_shared<const std::vector<std::int64_t>>(
      std::vector<std::int64_t>{0, 2, 3, 3});
  auto indices = std::make_shared<const std::vector<std::int64_t>>(
      std::vector<std::int64_t>{0, 3, 1});
  for (const bool mean : {true, false}) {
    auto fn = [&, mean](const std::vector<Variable>& in) {
      Variable y = mean ? ag::spmm_mean(indptr, indices, in[0], 3)
                        : ag::spmm_sum(indptr, indices, in[0], 3);
      return ag::nll_loss(ag::log_softmax(y),
                          Tensor::from_vector<std::int64_t>({0, 1, 1}, {3}));
    };
    auto r = ag::gradcheck(fn, {leaf({4, 2}, 60 + mean)});
    EXPECT_TRUE(r.ok) << "mean=" << mean << ": " << r.message;
  }
}

TEST(Gradcheck, BatchNormTrainingAndEval) {
  for (const bool training : {true, false}) {
    Tensor running_mean = Tensor::zeros({3}, DType::kF64);
    Tensor running_var = Tensor::ones({3}, DType::kF64);
    auto fn = [&](const std::vector<Variable>& in) {
      Tensor rm = running_mean.clone();  // keep stats fixed across calls
      Tensor rv = running_var.clone();
      Variable y = ag::batch_norm(in[0], in[1], in[2], rm, rv, training);
      return ag::nll_loss(ag::log_softmax(y),
                          Tensor::from_vector<std::int64_t>({0, 1, 2, 0},
                                                            {4}));
    };
    auto r = ag::gradcheck(fn, {leaf({4, 3}, 70, -2, 2), leaf({3}, 71, 0.5, 1.5),
                                leaf({3}, 72)},
                           1e-5, 1e-5);
    EXPECT_TRUE(r.ok) << "training=" << training << ": " << r.message;
  }
}

TEST(BatchNorm, RunningStatsUpdate) {
  Tensor rm = Tensor::zeros({2}, DType::kF64);
  Tensor rv = Tensor::ones({2}, DType::kF64);
  Variable x(Tensor::from_vector<double>({1, 10, 3, 20}, {2, 2}), false);
  Variable gamma(Tensor::ones({2}, DType::kF64), false);
  Variable beta(Tensor::zeros({2}, DType::kF64), false);
  ag::batch_norm(x, gamma, beta, rm, rv, /*training=*/true, 0.1);
  // batch mean = (2, 15); running = 0.9*0 + 0.1*mean
  EXPECT_NEAR(rm.at<double>(0), 0.2, 1e-12);
  EXPECT_NEAR(rm.at<double>(1), 1.5, 1e-12);
  // batch var (biased) = (1, 25); unbiased (m=2) doubles it
  EXPECT_NEAR(rv.at<double>(0), 0.9 + 0.1 * 2.0, 1e-12);
  EXPECT_NEAR(rv.at<double>(1), 0.9 + 0.1 * 50.0, 1e-12);
}

TEST(Dropout, EvalModeIsIdentityAndTrainScales) {
  Variable x(Tensor::ones({1000}, DType::kF64), true);
  Variable eval_y = ag::dropout(x, 0.5, /*training=*/false, 1);
  EXPECT_TRUE(allclose(eval_y.data(), x.data()));
  Variable train_y = ag::dropout(x, 0.5, /*training=*/true, 1);
  const double mean = ops::mean_all(train_y.data());
  EXPECT_NEAR(mean, 1.0, 0.1);  // inverted dropout preserves expectation
}

TEST(Gradcheck, DropoutMaskChainRule) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable y = ag::dropout(in[0], 0.4, true, /*seed=*/99);
    return ag::nll_loss(ag::log_softmax(y),
                        Tensor::from_vector<std::int64_t>({0, 1}, {2}));
  };
  auto r = ag::gradcheck(fn, {leaf({2, 4}, 80)});
  EXPECT_TRUE(r.ok) << r.message;
}

}  // namespace
}  // namespace salient
