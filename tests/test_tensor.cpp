// Tests for the tensor library: construction, views, dtype conversion, and
// every kernel in ops.h (validated against naive references), including the
// CSR aggregation kernels and matmul with all transpose combinations.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace salient {
namespace {

using ops::matmul;

TEST(Tensor, ConstructionAndShape) {
  Tensor t({3, 4}, DType::kF32);
  EXPECT_TRUE(t.defined());
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 3);
  EXPECT_EQ(t.size(1), 4);
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.numel(), 12);
  EXPECT_EQ(t.nbytes(), 48u);
  // zero-initialized
  for (std::int64_t i = 0; i < 3; ++i)
    for (std::int64_t j = 0; j < 4; ++j) EXPECT_EQ(t.at<float>(i, j), 0.0f);
}

TEST(Tensor, UndefinedAndErrors) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  Tensor a({2, 2}, DType::kF32);
  EXPECT_THROW(a.data<double>(), std::runtime_error);  // dtype mismatch
  EXPECT_THROW(a.at<float>(2, 0), std::out_of_range);
  EXPECT_THROW(a.size(3), std::out_of_range);
}

TEST(Tensor, FactoriesAndFill) {
  Tensor ones = Tensor::ones({2, 2});
  EXPECT_FLOAT_EQ(ones.at<float>(1, 1), 1.0f);
  Tensor full = Tensor::full({3}, 2.5);
  EXPECT_FLOAT_EQ(full.at<float>(2), 2.5f);
  Tensor ar = Tensor::arange(5);
  EXPECT_EQ(ar.at<std::int64_t>(4), 4);
  Tensor r = Tensor::randn({100, 10}, 3, 1.0);
  const double mean = ops::mean_all(r);
  EXPECT_NEAR(mean, 0.0, 0.15);
  Tensor u = Tensor::uniform({1000}, 5, 2.0, 4.0);
  for (float v : u.span<float>()) {
    ASSERT_GE(v, 2.0f);
    ASSERT_LT(v, 4.0f);
  }
}

TEST(Tensor, CloneIsDeepAndCopyIsShallow) {
  Tensor a = Tensor::full({2, 2}, 1.0);
  Tensor shallow = a;
  Tensor deep = a.clone();
  a.at<float>(0, 0) = 9.0f;
  EXPECT_FLOAT_EQ(shallow.at<float>(0, 0), 9.0f);
  EXPECT_FLOAT_EQ(deep.at<float>(0, 0), 1.0f);
}

TEST(Tensor, NarrowRowsSharesStorage) {
  Tensor a = Tensor::zeros({4, 3});
  Tensor view = a.narrow_rows(1, 2);
  EXPECT_EQ(view.size(0), 2);
  EXPECT_EQ(view.size(1), 3);
  view.at<float>(0, 0) = 5.0f;
  EXPECT_FLOAT_EQ(a.at<float>(1, 0), 5.0f);
  EXPECT_THROW(a.narrow_rows(3, 2), std::out_of_range);
}

TEST(Tensor, Reshape) {
  Tensor a = Tensor::arange(6);
  Tensor m = a.reshape({2, 3});
  EXPECT_EQ(m.at<std::int64_t>(1, 2), 5);
  EXPECT_THROW(a.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, DtypeConversionRoundTrip) {
  Tensor f32 = Tensor::uniform({50}, 11, -3.0, 3.0);
  Tensor f16 = f32.to(DType::kF16);
  Tensor back = f16.to(DType::kF32);
  // Half has ~3 decimal digits: tolerance 2^-10 relative.
  EXPECT_TRUE(allclose(back, f32, 1e-3, 1e-3));
  Tensor f64 = f32.to(DType::kF64);
  EXPECT_EQ(f64.dtype(), DType::kF64);
  EXPECT_NEAR(f64.at<double>(0), static_cast<double>(f32.at<float>(0)), 0);
}

TEST(Tensor, WrapStorage) {
  auto storage = std::make_shared<Storage>(64);
  Tensor t = Tensor::wrap_storage(storage, {4, 2}, DType::kF32);
  EXPECT_EQ(t.numel(), 8);
  EXPECT_THROW(Tensor::wrap_storage(storage, {100}, DType::kF64),
               std::invalid_argument);
}

// --- elementwise ops ------------------------------------------------------------

TEST(Ops, AddSubMulScale) {
  Tensor a = Tensor::from_vector<float>({1, 2, 3}, {3});
  Tensor b = Tensor::from_vector<float>({4, 5, 6}, {3});
  EXPECT_TRUE(allclose(ops::add(a, b),
                       Tensor::from_vector<float>({5, 7, 9}, {3})));
  EXPECT_TRUE(allclose(ops::sub(a, b),
                       Tensor::from_vector<float>({-3, -3, -3}, {3})));
  EXPECT_TRUE(allclose(ops::mul(a, b),
                       Tensor::from_vector<float>({4, 10, 18}, {3})));
  EXPECT_TRUE(allclose(ops::scale(a, 2.0),
                       Tensor::from_vector<float>({2, 4, 6}, {3})));
  EXPECT_TRUE(allclose(ops::add_scaled(a, b, 0.5),
                       Tensor::from_vector<float>({3, 4.5, 6}, {3})));
  Tensor c = a.clone();
  ops::axpy_(c, b, 2.0);
  EXPECT_TRUE(allclose(c, Tensor::from_vector<float>({9, 12, 15}, {3})));
  Tensor wrong({2}, DType::kF32);
  EXPECT_THROW(ops::add(a, wrong), std::runtime_error);
}

TEST(Ops, UnaryKernels) {
  Tensor x = Tensor::from_vector<float>({-2, -0.5, 0, 1, 3}, {5});
  EXPECT_TRUE(allclose(ops::relu(x),
                       Tensor::from_vector<float>({0, 0, 0, 1, 3}, {5})));
  EXPECT_TRUE(allclose(ops::relu_mask(x),
                       Tensor::from_vector<float>({0, 0, 0, 1, 1}, {5})));
  EXPECT_TRUE(allclose(
      ops::leaky_relu(x, 0.1),
      Tensor::from_vector<float>({-0.2f, -0.05f, 0, 1, 3}, {5})));
  const Tensor e = ops::exp(x);
  EXPECT_NEAR(e.at<float>(4), std::exp(3.0f), 1e-4);
  const Tensor l = ops::log(ops::exp(x));
  EXPECT_TRUE(allclose(l, x, 1e-5, 1e-5));
  const Tensor s = ops::sqrt(Tensor::from_vector<float>({4, 9}, {2}));
  EXPECT_TRUE(allclose(s, Tensor::from_vector<float>({2, 3}, {2})));
}

TEST(Ops, BroadcastAndReductions) {
  Tensor x = Tensor::from_vector<float>({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::from_vector<float>({10, 20}, {2});
  EXPECT_TRUE(allclose(ops::add_row_broadcast(x, b),
                       Tensor::from_vector<float>({11, 22, 13, 24}, {2, 2})));
  EXPECT_TRUE(
      allclose(ops::sum_rows(x), Tensor::from_vector<float>({4, 6}, {2})));
  EXPECT_DOUBLE_EQ(ops::sum_all(x), 10.0);
  EXPECT_DOUBLE_EQ(ops::mean_all(x), 2.5);
}

TEST(Ops, GatherScatterRows) {
  Tensor x = Tensor::from_vector<float>({1, 2, 3, 4, 5, 6}, {3, 2});
  Tensor idx = Tensor::from_vector<std::int64_t>({2, 0, 2}, {3});
  Tensor g = ops::gather_rows(x, idx);
  EXPECT_TRUE(allclose(g, Tensor::from_vector<float>({5, 6, 1, 2, 5, 6},
                                                     {3, 2})));
  Tensor dst = Tensor::zeros({3, 2});
  ops::scatter_add_rows_(dst, idx, g);
  // row 2 gets (5,6)+(5,6), row 0 gets (1,2)
  EXPECT_TRUE(allclose(dst, Tensor::from_vector<float>({1, 2, 0, 0, 10, 12},
                                                       {3, 2})));
  Tensor bad_idx = Tensor::from_vector<std::int64_t>({5}, {1});
  EXPECT_THROW(ops::gather_rows(x, bad_idx), std::out_of_range);
}

TEST(Ops, GatherRowsWorksOnF16) {
  Tensor f32 = Tensor::uniform({4, 3}, 2, -1, 1);
  Tensor f16 = f32.to(DType::kF16);
  Tensor idx = Tensor::from_vector<std::int64_t>({3, 1}, {2});
  Tensor g = ops::gather_rows(f16, idx);
  EXPECT_EQ(g.dtype(), DType::kF16);
  EXPECT_EQ(g.at<Half>(0, 0).bits, f16.at<Half>(3, 0).bits);
}

TEST(Ops, ConcatCols) {
  Tensor a = Tensor::from_vector<float>({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::from_vector<float>({5, 6}, {2, 1});
  Tensor c = ops::concat_cols({a, b});
  EXPECT_TRUE(allclose(c, Tensor::from_vector<float>({1, 2, 5, 3, 4, 6},
                                                     {2, 3})));
  EXPECT_THROW(ops::concat_cols({}), std::runtime_error);
}

TEST(Ops, LogSoftmaxRowsSumsToOne) {
  Tensor x = Tensor::uniform({5, 7}, 9, -5, 5);
  Tensor y = ops::log_softmax_rows(x);
  for (std::int64_t i = 0; i < 5; ++i) {
    double sum = 0;
    for (std::int64_t j = 0; j < 7; ++j) sum += std::exp(y.at<float>(i, j));
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  // shift invariance
  Tensor shifted = ops::log_softmax_rows(
      ops::add(x, Tensor::full({5, 7}, 100.0)));
  EXPECT_TRUE(allclose(shifted, y, 1e-4, 1e-4));
}

TEST(Ops, NllLossAndBackward) {
  Tensor logp = ops::log_softmax_rows(Tensor::uniform({4, 3}, 13, -1, 1));
  Tensor target = Tensor::from_vector<std::int64_t>({0, 2, 1, 1}, {4});
  double expected = 0;
  for (int i = 0; i < 4; ++i) {
    expected -= logp.at<float>(i, target.at<std::int64_t>(i));
  }
  expected /= 4;
  EXPECT_NEAR(ops::nll_loss_mean(logp, target), expected, 1e-6);
  Tensor g = ops::nll_loss_mean_backward(logp, target);
  EXPECT_FLOAT_EQ(g.at<float>(0, 0), -0.25f);
  EXPECT_FLOAT_EQ(g.at<float>(0, 1), 0.0f);
}

TEST(Ops, ArgmaxAndAccuracy) {
  Tensor logits =
      Tensor::from_vector<float>({0.1f, 0.9f, 0.2f, 0.8f, 0.1f, 0.1f}, {2, 3});
  Tensor pred = ops::argmax_rows(logits);
  EXPECT_EQ(pred.at<std::int64_t>(0), 1);
  EXPECT_EQ(pred.at<std::int64_t>(1), 0);
  Tensor target = Tensor::from_vector<std::int64_t>({1, 2}, {2});
  EXPECT_DOUBLE_EQ(ops::accuracy(logits, target), 0.5);
}

TEST(Ops, DropoutMaskStatistics) {
  const double p = 0.3;
  Tensor m = ops::dropout_mask_counter({10000}, p, 77);
  std::int64_t zeros = 0;
  for (float v : m.span<float>()) {
    ASSERT_TRUE(v == 0.0f || std::abs(v - 1.0f / 0.7f) < 1e-5);
    zeros += (v == 0.0f);
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, p, 0.02);
  EXPECT_THROW(ops::dropout_mask_counter({4}, 1.0, 1), std::invalid_argument);
}

// --- matmul ---------------------------------------------------------------------

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor c = Tensor::zeros({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t p = 0; p < k; ++p)
      for (std::int64_t j = 0; j < n; ++j)
        c.at<float>(i, j) += a.at<float>(i, p) * b.at<float>(p, j);
  return c;
}

Tensor transpose(const Tensor& a) {
  Tensor t = Tensor::zeros({a.size(1), a.size(0)});
  for (std::int64_t i = 0; i < a.size(0); ++i)
    for (std::int64_t j = 0; j < a.size(1); ++j)
      t.at<float>(j, i) = a.at<float>(i, j);
  return t;
}

class MatmulTransposeTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(MatmulTransposeTest, MatchesNaiveReference) {
  const auto [ta, tb] = GetParam();
  const std::int64_t m = 17, k = 23, n = 13;
  Tensor a = Tensor::uniform(ta ? std::vector<std::int64_t>{k, m}
                                : std::vector<std::int64_t>{m, k},
                             1, -1, 1);
  Tensor b = Tensor::uniform(tb ? std::vector<std::int64_t>{n, k}
                                : std::vector<std::int64_t>{k, n},
                             2, -1, 1);
  Tensor got = matmul(a, b, ta, tb);
  Tensor want = naive_matmul(ta ? transpose(a) : a, tb ? transpose(b) : b);
  EXPECT_TRUE(allclose(got, want, 1e-4, 1e-4));
}

INSTANTIATE_TEST_SUITE_P(AllTransposeCombos, MatmulTransposeTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(Matmul, LargeBlockedMatchesNaive) {
  Tensor a = Tensor::uniform({150, 300}, 4, -1, 1);
  Tensor b = Tensor::uniform({300, 90}, 5, -1, 1);
  EXPECT_TRUE(allclose(matmul(a, b), naive_matmul(a, b), 1e-3, 1e-3));
}

TEST(Matmul, ShapeErrors) {
  Tensor a({2, 3}, DType::kF32), b({4, 5}, DType::kF32);
  EXPECT_THROW(matmul(a, b), std::runtime_error);
  Tensor i({3, 3}, DType::kI64);
  EXPECT_THROW(matmul(i, i), std::runtime_error);
}

// --- CSR aggregation ------------------------------------------------------------

TEST(Ops, SpmmMeanAndSum) {
  // 3 destinations, 4 sources; dst0 <- {0,1}, dst1 <- {}, dst2 <- {3,3?no}
  std::vector<std::int64_t> indptr{0, 2, 2, 3};
  std::vector<std::int64_t> indices{0, 1, 3};
  Tensor x = Tensor::from_vector<float>({1, 2, 3, 4, 5, 6, 7, 8}, {4, 2});
  Tensor mean = ops::spmm_mean(indptr, indices, x, 3);
  EXPECT_TRUE(allclose(mean, Tensor::from_vector<float>({2, 3, 0, 0, 7, 8},
                                                        {3, 2})));
  Tensor sum = ops::spmm_sum(indptr, indices, x, 3);
  EXPECT_TRUE(allclose(sum, Tensor::from_vector<float>({4, 6, 0, 0, 7, 8},
                                                       {3, 2})));
}

TEST(Ops, SpmmBackwardScattersCorrectly) {
  std::vector<std::int64_t> indptr{0, 2, 3};
  std::vector<std::int64_t> indices{0, 1, 0};
  Tensor g = Tensor::from_vector<float>({1, 1, 2, 2}, {2, 2});
  Tensor gx_mean = ops::spmm_mean_backward(indptr, indices, g, 3);
  // src0: 0.5*g0 + 1.0*g1 = (0.5+2, 0.5+2); src1: 0.5*g0; src2: 0
  EXPECT_TRUE(allclose(
      gx_mean,
      Tensor::from_vector<float>({2.5f, 2.5f, 0.5f, 0.5f, 0, 0}, {3, 2})));
  Tensor gx_sum = ops::spmm_sum_backward(indptr, indices, g, 3);
  EXPECT_TRUE(allclose(
      gx_sum, Tensor::from_vector<float>({3, 3, 1, 1, 0, 0}, {3, 2})));
}

TEST(Ops, SpmmValidatesIndices) {
  std::vector<std::int64_t> indptr{0, 1};
  std::vector<std::int64_t> indices{7};
  Tensor x = Tensor::zeros({2, 2});
  EXPECT_THROW(ops::spmm_mean(indptr, indices, x, 1), std::out_of_range);
}

}  // namespace
}  // namespace salient
