// Optimizer tests: Adam (the library's one optimizer) against a
// hand-computed reference trajectory, convergence on a quadratic, weight
// decay, zero_grad, and a tiny classifier through the full autograd stack.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "autograd/functions.h"
#include "optim/adam.h"
#include "tensor/ops.h"

namespace salient {
namespace {

namespace ag = autograd;

TEST(Adam, FirstStepMatchesClosedForm) {
  // With constant gradient g on the first step: m=(1-b1)g, v=(1-b2)g^2,
  // mhat=g, vhat=g^2 => update = -lr * g/(|g|+eps) = -lr*sign(g).
  Variable p(Tensor::from_vector<float>({1.0f, -2.0f}, {2}), true);
  p.accumulate_grad(Tensor::from_vector<float>({0.5f, -3.0f}, {2}));
  optim::Adam adam({p}, /*lr=*/0.1);
  adam.step();
  EXPECT_NEAR(p.data().at<float>(0), 1.0f - 0.1f, 1e-5);
  EXPECT_NEAR(p.data().at<float>(1), -2.0f + 0.1f, 1e-5);
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(Adam, TwoStepReferenceTrajectory) {
  // Scalar parameter, gradients g1=1, g2=2; verify against the textbook
  // recurrence computed by hand in double precision.
  Variable p(Tensor::from_vector<float>({0.0f}, {1}), true);
  optim::Adam adam({p}, 0.01, 0.9, 0.999, 1e-8);
  const double g[2] = {1.0, 2.0};
  double m = 0, v = 0, x = 0;
  for (int t = 1; t <= 2; ++t) {
    p.zero_grad();
    p.accumulate_grad(Tensor::full({1}, g[t - 1]));
    adam.step();
    m = 0.9 * m + 0.1 * g[t - 1];
    v = 0.999 * v + 0.001 * g[t - 1] * g[t - 1];
    const double mhat = m / (1 - std::pow(0.9, t));
    const double vhat = v / (1 - std::pow(0.999, t));
    x -= 0.01 * mhat / (std::sqrt(vhat) + 1e-8);
    EXPECT_NEAR(p.data().at<float>(0), x, 1e-6) << "step " << t;
  }
}

TEST(Adam, SkipsParametersWithoutGrad) {
  Variable a(Tensor::ones({2}), true);
  Variable b(Tensor::ones({2}), true);
  a.accumulate_grad(Tensor::ones({2}));
  optim::Adam adam({a, b}, 0.1);
  adam.step();
  EXPECT_LT(a.data().at<float>(0), 1.0f);
  EXPECT_FLOAT_EQ(b.data().at<float>(0), 1.0f);  // untouched
}

TEST(Adam, MinimizesQuadratic) {
  // minimize ||x - c||^2 via autograd
  Variable x(Tensor::zeros({3}), true);
  Tensor c = Tensor::from_vector<float>({1.0f, -2.0f, 0.5f}, {3});
  optim::Adam adam({x}, 0.05);
  for (int it = 0; it < 500; ++it) {
    x.zero_grad();
    // grad of ||x-c||^2 = 2(x-c)
    x.accumulate_grad(ops::scale(ops::sub(x.data(), c), 2.0));
    adam.step();
  }
  EXPECT_TRUE(allclose(x.data(), c, 1e-2, 1e-2));
}

TEST(Adam, WeightDecayPullsTowardZero) {
  Variable x(Tensor::full({1}, 5.0), true);
  optim::Adam adam({x}, 0.1, 0.9, 0.999, 1e-8, /*weight_decay=*/1.0);
  for (int it = 0; it < 300; ++it) {
    x.zero_grad();
    x.accumulate_grad(Tensor::zeros({1}));  // only decay acts
    adam.step();
  }
  EXPECT_NEAR(x.data().at<float>(0), 0.0, 0.05);
}

TEST(Adam, ZeroGradClearsAll) {
  Variable p(Tensor::ones({2}), true);
  p.accumulate_grad(Tensor::ones({2}));
  optim::Adam adam({p}, 0.1);
  adam.zero_grad();
  EXPECT_FALSE(p.grad().defined());
}

TEST(Adam, TrainsTinyClassifierToLowLoss) {
  // Logistic-regression-style smoke test through the full autograd stack.
  const std::int64_t n = 64, d = 8, c = 3;
  Tensor x = Tensor::uniform({n, d}, 3, -1, 1);
  Tensor y({n}, DType::kI64);
  // linearly separable-ish labels from a random teacher
  Tensor teacher = Tensor::uniform({c, d}, 4, -1, 1);
  Tensor scores = ops::matmul(x, teacher, false, true);
  Tensor t_arg = ops::argmax_rows(scores);
  std::memcpy(y.raw(), t_arg.raw(), y.nbytes());

  Variable w(Tensor::zeros({c, d}), true);
  Variable b(Tensor::zeros({c}), true);
  optim::Adam adam({w, b}, 0.05);
  double first_loss = 0, last_loss = 0;
  for (int it = 0; it < 200; ++it) {
    Variable logits = ag::linear(Variable(x), w, b);
    Variable loss = ag::nll_loss(ag::log_softmax(logits), y);
    if (it == 0) first_loss = loss.data().at<float>(0);
    last_loss = loss.data().at<float>(0);
    w.zero_grad();
    b.zero_grad();
    loss.backward();
    adam.step();
  }
  EXPECT_LT(last_loss, first_loss * 0.3);
}

}  // namespace
}  // namespace salient
