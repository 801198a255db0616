// Kernel-layer tests (tensor/kernel_config.h, tensor/ops.cpp,
// tensor/matmul.cpp): the optimized (vectorized + parallel) kernels must be
//   * bitwise identical to the reference kernels for the SpMM family,
//     elementwise/reduction ops, and row indexing;
//   * within a tight tolerance of the reference for GEMM (register tiling
//     changes the floating-point association, nothing else);
//   * bitwise deterministic across thread-pool sizes {1, 2, 8};
//   * correct on edge cases (empty index sets, ragged rows, all-zero-degree
//     CSRs) and under autograd::gradcheck on the optimized path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "autograd/functions.h"
#include "autograd/gradcheck.h"
#include "tensor/kernel_config.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace salient {
namespace {

namespace ag = autograd;

/// Scoped kernel-kind + kernel-pool override; restores defaults on exit.
class KernelGuard {
 public:
  KernelGuard() : saved_(ops::kernel_kind()) {}
  ~KernelGuard() {
    ops::set_kernel_pool(nullptr);
    ops::set_kernel_kind(saved_);
  }
  void use(ops::KernelKind kind, ThreadPool* pool = nullptr) {
    ops::set_kernel_kind(kind);
    ops::set_kernel_pool(pool);
  }

 private:
  ops::KernelKind saved_;
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.dtype() == b.dtype() && a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.nbytes()) == 0;
}

/// Random destination-major CSR with ragged rows: a mix of empty rows,
/// light rows, and one heavy row to make chunk boundaries interesting.
struct Csr {
  std::vector<std::int64_t> indptr;
  std::vector<std::int64_t> indices;
  std::vector<double> weights;
  std::int64_t num_dst = 0;
  std::int64_t num_src = 0;
};

Csr make_csr(std::int64_t num_dst, std::int64_t num_src, std::uint64_t seed) {
  Csr c;
  c.num_dst = num_dst;
  c.num_src = num_src;
  c.indptr.push_back(0);
  Xoshiro256ss rng(seed);
  for (std::int64_t d = 0; d < num_dst; ++d) {
    std::int64_t deg = 0;
    const std::uint64_t r = bounded_rand(rng, 10);
    if (r == 0) {
      deg = 0;  // empty row
    } else if (r == 1) {
      deg = 40;  // heavy row
    } else {
      deg = 1 + static_cast<std::int64_t>(bounded_rand(rng, 8));
    }
    for (std::int64_t k = 0; k < deg; ++k) {
      c.indices.push_back(static_cast<std::int64_t>(
          bounded_rand(rng, static_cast<std::uint64_t>(num_src))));
      c.weights.push_back(
          0.1 + static_cast<double>(bounded_rand(rng, 100)) / 50.0);
    }
    c.indptr.push_back(static_cast<std::int64_t>(c.indices.size()));
  }
  return c;
}

/// Run `fn` under the reference kernels, then under the optimized kernels on
/// pools of size {1, 2, 8}; assert every optimized result is bitwise equal
/// to the reference result.
void expect_ref_opt_bitwise(const std::function<Tensor()>& fn,
                            const char* what) {
  KernelGuard guard;
  guard.use(ops::KernelKind::kRef);
  const Tensor ref = fn();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    guard.use(ops::KernelKind::kOpt, &pool);
    const Tensor opt = fn();
    EXPECT_TRUE(bitwise_equal(ref, opt))
        << what << ": optimized kernel diverges at " << threads << " threads";
  }
}

// Sizes chosen so total work clears ops::kParallelGrain and the parallel
// decomposition actually engages on the multi-thread pools.
constexpr std::int64_t kRows = 160;
constexpr std::int64_t kCols = 128;

TEST(Elementwise, RefVsOptBitwise) {
  for (const DType dt : {DType::kF32, DType::kF64}) {
    const Tensor a = Tensor::uniform({kRows, kCols}, 11, -2, 2, dt);
    const Tensor b = Tensor::uniform({kRows, kCols}, 12, -2, 2, dt);
    expect_ref_opt_bitwise([&] { return ops::add(a, b); }, "add");
    expect_ref_opt_bitwise([&] { return ops::sub(a, b); }, "sub");
    expect_ref_opt_bitwise([&] { return ops::mul(a, b); }, "mul");
    expect_ref_opt_bitwise([&] { return ops::scale(a, 0.37); }, "scale");
    expect_ref_opt_bitwise([&] { return ops::add_scaled(a, b, -1.25); },
                           "add_scaled");
    expect_ref_opt_bitwise([&] { return ops::relu(a); }, "relu");
    expect_ref_opt_bitwise([&] { return ops::leaky_relu(a, 0.1); },
                           "leaky_relu");
    expect_ref_opt_bitwise([&] { return ops::exp(a); }, "exp");
    expect_ref_opt_bitwise([&] { return ops::log(ops::relu(a)); }, "log");
    expect_ref_opt_bitwise(
        [&] {
          Tensor acc = a.clone();
          ops::axpy_(acc, b, 0.77);
          return acc;
        },
        "axpy_");
  }
}

TEST(Reductions, RefVsOptBitwise) {
  for (const DType dt : {DType::kF32, DType::kF64}) {
    const Tensor x = Tensor::uniform({kRows, kCols}, 21, -3, 3, dt);
    const Tensor bias = Tensor::uniform({kCols}, 22, -1, 1, dt);
    expect_ref_opt_bitwise([&] { return ops::add_row_broadcast(x, bias); },
                           "add_row_broadcast");
    expect_ref_opt_bitwise([&] { return ops::sum_rows(x); }, "sum_rows");
    expect_ref_opt_bitwise([&] { return ops::log_softmax_rows(x); },
                           "log_softmax_rows");
    expect_ref_opt_bitwise([&] { return ops::argmax_rows(x); },
                           "argmax_rows");
  }
}

TEST(RowIndexing, RefVsOptBitwise) {
  const Tensor x = Tensor::uniform({kRows, kCols}, 31, -1, 1);
  Xoshiro256ss rng(32);
  std::vector<std::int64_t> raw(512);
  for (auto& v : raw) {
    v = static_cast<std::int64_t>(
        bounded_rand(rng, static_cast<std::uint64_t>(kRows)));
  }
  const Tensor idx = Tensor::from_vector<std::int64_t>(
      raw, {static_cast<std::int64_t>(raw.size())});
  expect_ref_opt_bitwise([&] { return ops::gather_rows(x, idx); },
                         "gather_rows");
  const Tensor src =
      Tensor::uniform({static_cast<std::int64_t>(raw.size()), kCols}, 33);
  expect_ref_opt_bitwise(
      [&] {
        Tensor dst = Tensor::zeros({kRows, kCols}, DType::kF32);
        ops::scatter_add_rows_(dst, idx, src);
        return dst;
      },
      "scatter_add_rows_");
}

TEST(Spmm, ForwardAndBackwardRefVsOptBitwise) {
  const Csr c = make_csr(200, 160, 41);
  auto indptr = c.indptr;
  auto indices = c.indices;
  for (const DType dt : {DType::kF32, DType::kF64}) {
    const Tensor x = Tensor::uniform({c.num_src, 64}, 42, -1, 1, dt);
    const Tensor g = Tensor::uniform({c.num_dst, 64}, 43, -1, 1, dt);
    expect_ref_opt_bitwise(
        [&] { return ops::spmm_mean(indptr, indices, x, c.num_dst); },
        "spmm_mean");
    expect_ref_opt_bitwise(
        [&] { return ops::spmm_sum(indptr, indices, x, c.num_dst); },
        "spmm_sum");
    expect_ref_opt_bitwise(
        [&] {
          return ops::spmm_weighted(indptr, indices, c.weights, x, c.num_dst);
        },
        "spmm_weighted");
    expect_ref_opt_bitwise(
        [&] { return ops::spmm_mean_backward(indptr, indices, g, c.num_src); },
        "spmm_mean_backward");
    expect_ref_opt_bitwise(
        [&] { return ops::spmm_sum_backward(indptr, indices, g, c.num_src); },
        "spmm_sum_backward");
    expect_ref_opt_bitwise(
        [&] {
          return ops::spmm_weighted_backward(indptr, indices, c.weights, g,
                                             c.num_src);
        },
        "spmm_weighted_backward");
    expect_ref_opt_bitwise(
        [&] { return ops::spmm_max(indptr, indices, x, c.num_dst, nullptr); },
        "spmm_max");
    // spmm_max argmax + its backward routing.
    KernelGuard guard;
    guard.use(ops::KernelKind::kRef);
    std::vector<std::int64_t> arg_ref;
    const Tensor max_ref = ops::spmm_max(indptr, indices, x, c.num_dst,
                                         &arg_ref);
    const Tensor gmax_ref = ops::spmm_max_backward(arg_ref, g, c.num_src);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      guard.use(ops::KernelKind::kOpt, &pool);
      std::vector<std::int64_t> arg_opt;
      const Tensor max_opt = ops::spmm_max(indptr, indices, x, c.num_dst,
                                           &arg_opt);
      EXPECT_TRUE(bitwise_equal(max_ref, max_opt));
      EXPECT_EQ(arg_ref, arg_opt) << "argmax diverges at " << threads;
      const Tensor gmax_opt = ops::spmm_max_backward(arg_opt, g, c.num_src);
      EXPECT_TRUE(bitwise_equal(gmax_ref, gmax_opt));
    }
  }
}

TEST(Spmm, EdgeCases) {
  KernelGuard guard;
  ThreadPool pool(4);
  guard.use(ops::KernelKind::kOpt, &pool);
  const Tensor x = Tensor::uniform({8, 16}, 51);
  // All-zero-degree CSR: every output row stays zero, argmax stays -1.
  const std::vector<std::int64_t> empty_indptr(7, 0);
  const std::vector<std::int64_t> no_indices;
  std::vector<std::int64_t> argmax;
  const Tensor y = ops::spmm_max(empty_indptr, no_indices, x, 6, &argmax);
  EXPECT_TRUE(bitwise_equal(y, Tensor::zeros({6, 16}, DType::kF32)));
  for (const std::int64_t a : argmax) EXPECT_EQ(a, -1);
  EXPECT_TRUE(bitwise_equal(ops::spmm_mean(empty_indptr, no_indices, x, 6),
                            Tensor::zeros({6, 16}, DType::kF32)));
  // Empty gather.
  const Tensor no_idx = Tensor::zeros({0}, DType::kI64);
  EXPECT_EQ(ops::gather_rows(x, no_idx).size(0), 0);
  // Out-of-range source indices still throw (validation is hoisted, not
  // dropped).
  const std::vector<std::int64_t> bad_indptr{0, 1};
  const std::vector<std::int64_t> bad_indices{99};
  EXPECT_THROW(ops::spmm_sum(bad_indptr, bad_indices, x, 1),
               std::out_of_range);
  EXPECT_THROW(ops::spmm_mean_backward(
                   bad_indptr, bad_indices,
                   Tensor::uniform({1, 16}, 52), 8),
               std::out_of_range);
  const Tensor bad_idx = Tensor::from_vector<std::int64_t>({-3}, {1});
  EXPECT_THROW(ops::gather_rows(x, bad_idx), std::out_of_range);
}

TEST(Gemm, RefVsOptWithinUlpBound) {
  KernelGuard guard;
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      for (const DType dt : {DType::kF32, DType::kF64}) {
        const Tensor a = Tensor::uniform(ta ? std::vector<std::int64_t>{96, 70}
                                            : std::vector<std::int64_t>{70, 96},
                                         61 + ta, -1, 1, dt);
        const Tensor b = Tensor::uniform(tb ? std::vector<std::int64_t>{83, 96}
                                            : std::vector<std::int64_t>{96, 83},
                                         63 + tb, -1, 1, dt);
        guard.use(ops::KernelKind::kRef);
        const Tensor ref = ops::matmul(a, b, ta, tb);
        ThreadPool pool(4);
        guard.use(ops::KernelKind::kOpt, &pool);
        const Tensor opt = ops::matmul(a, b, ta, tb);
        // Only the summation association differs; with K=96 and inputs in
        // [-1,1] the results agree to a few ULP.
        const double tol = dt == DType::kF32 ? 2e-5 : 1e-13;
        EXPECT_TRUE(allclose(ref, opt, tol, tol))
            << "ta=" << ta << " tb=" << tb;
      }
    }
  }
}

TEST(Gemm, OptDeterministicAcrossPoolSizes) {
  KernelGuard guard;
  // A GEMM below ops::kGemmGrain (130x77x90) runs on the calling thread;
  // one above it splits row panels across the pool; and the layer-0 weight
  // gradient of the e2e train workload, dW = gᵀx with K = 25,995, takes the
  // split-K path.
  struct Case {
    Tensor a, b;
    bool trans_a;
  };
  const Case cases[] = {
      {Tensor::uniform({130, 77}, 71, -1, 1),
       Tensor::uniform({77, 90}, 72, -1, 1), false},
      {Tensor::uniform({390, 300}, 73, -1, 1),
       Tensor::uniform({300, 300}, 74, -1, 1), false},
      {Tensor::uniform({25995, 64}, 75, -1, 1),
       Tensor::uniform({25995, 128}, 76, -1, 1), true},
  };
  EXPECT_LT(130 * 77 * 90, ops::kGemmGrain);
  EXPECT_GE(390 * 300 * 300, ops::kGemmGrain);
  for (const Case& c : cases) {
    ThreadPool p1(1);
    guard.use(ops::KernelKind::kOpt, &p1);
    const Tensor base = ops::matmul(c.a, c.b, c.trans_a, false);
    for (const std::size_t threads : {2u, 8u}) {
      ThreadPool pool(threads);
      guard.use(ops::KernelKind::kOpt, &pool);
      EXPECT_TRUE(
          bitwise_equal(base, ops::matmul(c.a, c.b, c.trans_a, false)))
          << "GEMM " << c.a.str() << " depends on pool size (" << threads
          << " threads)";
    }
  }
}

TEST(Gemm, SplitKWithinUlpBoundOfReference) {
  // Small outputs with a long K (weight-gradient shapes) accumulate fixed K
  // chunks separately and sum them in order. Within a tight bound of the
  // reference in both precisions, including a K long enough that the
  // chunk count is capped and the chunks grow.
  KernelGuard guard;
  ThreadPool pool(4);
  struct Shape {
    std::int64_t m, k, n;
  };
  for (const Shape sh : {Shape{64, 5000, 128}, Shape{7, 70001, 9}}) {
    for (const DType dt : {DType::kF32, DType::kF64}) {
      const Tensor g = Tensor::uniform({sh.k, sh.m}, 141, -1, 1, dt);
      const Tensor x = Tensor::uniform({sh.k, sh.n}, 142, -1, 1, dt);
      guard.use(ops::KernelKind::kRef);
      const Tensor ref = ops::matmul(g, x, true, false);
      guard.use(ops::KernelKind::kOpt, &pool);
      const Tensor opt = ops::matmul(g, x, true, false);
      // Sums of K products in [-1,1] reach ~sqrt(K) in magnitude; the bound
      // scales with K like the rounding error of any summation order.
      const double eps = dt == DType::kF32 ? 1.2e-7 : 2.3e-16;
      const double tol = 4 * eps * std::sqrt(double(sh.k)) * 8;
      EXPECT_TRUE(allclose(ref, opt, tol, tol))
          << sh.m << "x" << sh.k << "x" << sh.n << " dtype "
          << static_cast<int>(dt);
    }
  }
}

TEST(Gemm, TallSkinnyAndTinyShapes) {
  KernelGuard guard;
  ThreadPool pool(4);
  for (const auto& dims : std::vector<std::vector<std::int64_t>>{
           {1, 1, 1}, {2, 3, 5}, {5, 1, 7}, {1, 64, 1}, {257, 3, 19}}) {
    const Tensor a = Tensor::uniform({dims[0], dims[1]}, 81, -1, 1);
    const Tensor b = Tensor::uniform({dims[1], dims[2]}, 82, -1, 1);
    guard.use(ops::KernelKind::kRef);
    const Tensor ref = ops::matmul(a, b);
    guard.use(ops::KernelKind::kOpt, &pool);
    const Tensor opt = ops::matmul(a, b);
    EXPECT_TRUE(allclose(ref, opt, 1e-5, 1e-6))
        << dims[0] << "x" << dims[1] << "x" << dims[2];
  }
}

TEST(Gradcheck, OptimizedKernelPath) {
  KernelGuard guard;
  ThreadPool pool(4);
  guard.use(ops::KernelKind::kOpt, &pool);
  // Matmul through the packed microkernel.
  {
    auto fn = [](const std::vector<Variable>& in) {
      Variable y = ag::matmul(in[0], in[1]);
      return ag::nll_loss(ag::log_softmax(y),
                          Tensor::from_vector<std::int64_t>({0, 2, 1}, {3}));
    };
    auto leaf = [](std::vector<std::int64_t> shape, std::uint64_t seed) {
      return Variable(Tensor::uniform(std::move(shape), seed, -1, 1,
                                      DType::kF64),
                      true);
    };
    auto r = ag::gradcheck(fn, {leaf({3, 5}, 91), leaf({5, 4}, 92)});
    EXPECT_TRUE(r.ok) << r.message;
  }
  // The SpMM family through the validated/parallel kernels.
  {
    auto indptr = std::make_shared<const std::vector<std::int64_t>>(
        std::vector<std::int64_t>{0, 2, 2, 5});
    auto indices = std::make_shared<const std::vector<std::int64_t>>(
        std::vector<std::int64_t>{1, 3, 0, 2, 3});
    auto weights = std::make_shared<const std::vector<double>>(
        std::vector<double>{0.5, 1.5, 2.0, 0.25, 1.0});
    const Tensor target = Tensor::from_vector<std::int64_t>({0, 1, 1}, {3});
    std::vector<std::function<Variable(const Variable&)>> builders{
        [&](const Variable& x) { return ag::spmm_mean(indptr, indices, x, 3); },
        [&](const Variable& x) { return ag::spmm_sum(indptr, indices, x, 3); },
        [&](const Variable& x) {
          return ag::spmm_weighted(indptr, indices, weights, x, 3);
        },
        [&](const Variable& x) { return ag::spmm_max(indptr, indices, x, 3); },
    };
    for (std::size_t i = 0; i < builders.size(); ++i) {
      auto fn = [&](const std::vector<Variable>& in) {
        return ag::nll_loss(ag::log_softmax(builders[i](in[0])), target);
      };
      Variable x(Tensor::uniform({4, 2}, 95 + i, -1, 1, DType::kF64), true);
      auto r = ag::gradcheck(fn, {x});
      EXPECT_TRUE(r.ok) << "builder " << i << ": " << r.message;
    }
  }
}

// --- fused GEMM epilogues (tensor/epilogue.h) --------------------------------

/// The unfused composition the fused epilogue must agree with bitwise when
/// both run under the same kernel kind: {matmul(trans_b), add_row_broadcast,
/// relu, mul(dropout_mask_counter)}, truncated to the requested kind.
Tensor unfused_linear(const Tensor& x, const Tensor& w, const Tensor& bias,
                      ops::Epilogue kind, double p, std::uint64_t seed) {
  Tensor y = ops::matmul(x, w, false, true);
  if (kind == ops::Epilogue::kNone) return y;
  y = ops::add_row_broadcast(y, bias);
  if (kind == ops::Epilogue::kBias) return y;
  y = ops::relu(y);
  if (kind == ops::Epilogue::kBiasRelu) return y;
  return ops::mul(y, ops::dropout_mask_counter(y.shape(), p, seed));
}

TEST(FusedEpilogue, BitwiseMatchesUnfusedCompositionPerKind) {
  // Shapes straddle microkernel tile boundaries (m % MR != 0, n % NR != 0)
  // and clear the parallel grain so multi-thread pools actually split work.
  const Tensor x = Tensor::uniform({301, 47}, 101, -1, 1);
  const Tensor w = Tensor::uniform({133, 47}, 102, -1, 1);
  const Tensor bias = Tensor::uniform({133}, 103, -1, 1);
  const double p = 0.35;
  const std::uint64_t seed = 0xd20;
  KernelGuard guard;
  for (const ops::Epilogue kind :
       {ops::Epilogue::kNone, ops::Epilogue::kBias, ops::Epilogue::kBiasRelu,
        ops::Epilogue::kBiasReluDropout}) {
    for (const ops::KernelKind kk :
         {ops::KernelKind::kRef, ops::KernelKind::kOpt}) {
      for (const std::size_t threads : {1u, 4u, 8u}) {
        ThreadPool pool(threads);
        guard.use(kk, &pool);
        const Tensor want = unfused_linear(x, w, bias, kind, p, seed);
        Tensor mask;
        const Tensor got =
            ops::gemm_epilogue(x, w, bias, kind, p, seed, &mask);
        EXPECT_TRUE(bitwise_equal(want, got))
            << "kind=" << static_cast<int>(kind)
            << " kernel=" << static_cast<int>(kk) << " threads=" << threads;
        if (kind == ops::Epilogue::kBiasRelu ||
            kind == ops::Epilogue::kBiasReluDropout) {
          // The saved mask is exactly d y/d pre: rebuild y from the
          // pre-activation and compare.
          ASSERT_EQ(mask.shape(), got.shape());
          const Tensor pre = ops::add_row_broadcast(
              ops::matmul(x, w, false, true), bias);
          EXPECT_TRUE(bitwise_equal(got, ops::mul(pre, mask)) ||
                      allclose(got, ops::mul(pre, mask), 0, 0))
              << "mask does not reconstruct the output";
        }
      }
    }
  }
}

TEST(FusedEpilogue, RefVsOptWithinUlpBound) {
  const Tensor x = Tensor::uniform({96, 64}, 111, -1, 1);
  const Tensor w = Tensor::uniform({80, 64}, 112, -1, 1);
  const Tensor bias = Tensor::uniform({80}, 113, -1, 1);
  KernelGuard guard;
  guard.use(ops::KernelKind::kRef);
  const Tensor ref = ops::gemm_epilogue(x, w, bias, ops::Epilogue::kBiasRelu,
                                        0, 0, nullptr);
  ThreadPool pool(4);
  guard.use(ops::KernelKind::kOpt, &pool);
  const Tensor opt = ops::gemm_epilogue(x, w, bias, ops::Epilogue::kBiasRelu,
                                        0, 0, nullptr);
  // Only the GEMM association differs between ref and opt.
  EXPECT_TRUE(allclose(ref, opt, 2e-5, 2e-5));
}

TEST(FusedEpilogue, DeterministicAcrossPoolSizes) {
  // One shape below ops::kGemmGrain (serial at every pool size) and one
  // above it (row panels split across the pool).
  for (const std::int64_t rows : {257, 2200}) {
    const std::int64_t k = rows == 257 ? 33 : 160;
    const std::int64_t n = rows == 257 ? 65 : 100;
    const Tensor x = Tensor::uniform({rows, k}, 121, -1, 1);
    const Tensor w = Tensor::uniform({n, k}, 122, -1, 1);
    const Tensor bias = Tensor::uniform({n}, 123, -1, 1);
    EXPECT_EQ(rows * k * n >= ops::kGemmGrain, rows == 2200);
    KernelGuard guard;
    ThreadPool p1(1);
    guard.use(ops::KernelKind::kOpt, &p1);
    Tensor mask1;
    const Tensor base = ops::gemm_epilogue(
        x, w, bias, ops::Epilogue::kBiasReluDropout, 0.5, 0xfeed, &mask1);
    for (const std::size_t threads : {4u, 8u}) {
      ThreadPool pool(threads);
      guard.use(ops::KernelKind::kOpt, &pool);
      Tensor mask;
      const Tensor got = ops::gemm_epilogue(
          x, w, bias, ops::Epilogue::kBiasReluDropout, 0.5, 0xfeed, &mask);
      EXPECT_TRUE(bitwise_equal(base, got)) << rows << " rows, " << threads
                                            << " threads";
      EXPECT_TRUE(bitwise_equal(mask1, mask)) << rows << " rows, "
                                              << threads << " threads";
    }
  }
}

TEST(FusedEpilogue, ConcatKBitwiseMatchesMaterializedConcat) {
  // gemm_epilogue_cat packs [x0 | x1] and [w0 | w1] in place; the product
  // must be bitwise the one-operand GEMM over the materialized concatenation
  // (same packed values, same k blocks), for every kind, with and without a
  // bias, on both kernels and every pool size. x1 is a narrow_rows view, as
  // GraphSAGE's destination rows are.
  const Tensor x0 = Tensor::uniform({301, 70}, 151, -1, 1);
  const Tensor x1_full = Tensor::uniform({340, 70}, 152, -1, 1);
  const Tensor x1 = x1_full.narrow_rows(0, 301);
  const Tensor w0 = Tensor::uniform({45, 70}, 153, -1, 1);
  const Tensor w1 = Tensor::uniform({45, 70}, 154, -1, 1);
  const Tensor bias = Tensor::uniform({45}, 155, -1, 1);
  const Tensor xcat = ops::concat_cols({x0, x1});
  const Tensor wcat = ops::concat_cols({w0, w1});
  KernelGuard guard;
  for (const ops::Epilogue kind :
       {ops::Epilogue::kNone, ops::Epilogue::kBias, ops::Epilogue::kBiasRelu,
        ops::Epilogue::kBiasReluDropout}) {
    for (const bool with_bias : {false, true}) {
      if (kind == ops::Epilogue::kBias && !with_bias) continue;
      const Tensor b = with_bias ? bias : Tensor();
      for (const ops::KernelKind kk :
           {ops::KernelKind::kRef, ops::KernelKind::kOpt}) {
        for (const std::size_t threads : {1u, 4u, 8u}) {
          ThreadPool pool(threads);
          guard.use(kk, &pool);
          const Tensor want =
              ops::gemm_epilogue(xcat, wcat, b, kind, 0.3, 0xc0, nullptr);
          const Tensor got =
              ops::gemm_epilogue_cat(x0, w0, x1, w1, b, kind, 0.3, 0xc0);
          EXPECT_TRUE(bitwise_equal(want, got))
              << "kind=" << static_cast<int>(kind) << " bias=" << with_bias
              << " kernel=" << static_cast<int>(kk) << " threads=" << threads;
        }
      }
    }
  }
}

TEST(FusedEpilogue, ReluDropoutBackwardFromOutputEqualsSavedMask) {
  // The fused SAGE conv writes no mask: its backward reads d y/d pre off the
  // output. That must equal g ⊙ mask for the mask gemm_epilogue saves (up
  // to the sign of zero, which allclose(0, 0) ignores).
  const Tensor x = Tensor::uniform({200, 40}, 161, -1, 1);
  const Tensor w = Tensor::uniform({30, 40}, 162, -1, 1);
  const Tensor g = Tensor::uniform({200, 30}, 163, -1, 1);
  for (const double p : {0.0, 0.4}) {
    Tensor mask;
    const Tensor y = ops::gemm_epilogue(
        x, w, Tensor(),
        p > 0 ? ops::Epilogue::kBiasReluDropout : ops::Epilogue::kBiasRelu, p,
        0x5a, &mask);
    EXPECT_TRUE(allclose(ops::mul(g, mask),
                         ops::relu_dropout_backward(g, y, 1.0 / (1.0 - p)),
                         0, 0))
        << "p=" << p;
  }
}

TEST(ActDropout, BitwiseMatchesActivationThenCounterMask) {
  // The one-pass tail GAT (ReLU) and GraphSAGE-RI (leaky ReLU, and plain
  // input dropout) run must equal the activation op followed by
  // mul(dropout_mask_counter), and p = 0 must equal the activation alone.
  ThreadPool pool(4);
  KernelGuard guard;
  for (const DType dt : {DType::kF32, DType::kF64}) {
    const Tensor x = Tensor::uniform({kRows, kCols}, 171, -1, 1, dt);
    for (const ops::Activation act :
         {ops::Activation::kIdentity, ops::Activation::kRelu,
          ops::Activation::kLeakyRelu}) {
      const Tensor a = act == ops::Activation::kRelu ? ops::relu(x)
                       : act == ops::Activation::kLeakyRelu
                           ? ops::leaky_relu(x, 0.01)
                           : x;
      for (const double p : {0.0, 0.1, 0.5}) {
        const Tensor want =
            p == 0.0 ? a
                     : ops::mul(a, ops::dropout_mask_counter(x.shape(), p,
                                                             0xab, dt));
        for (const ops::KernelKind kk :
             {ops::KernelKind::kRef, ops::KernelKind::kOpt}) {
          guard.use(kk, &pool);
          Tensor mask;
          const Tensor got = ops::act_dropout(x, act, 0.01, p, 0xab, &mask);
          EXPECT_TRUE(bitwise_equal(want, got))
              << "act=" << static_cast<int>(act) << " p=" << p
              << " dtype=" << static_cast<int>(dt);
          ASSERT_EQ(mask.shape(), x.shape());
        }
      }
    }
  }
}

// --- mixed-precision + compressed GEMM (tensor/quantize.h) -------------------

TEST(MixedMatmul, F16OperandsBitwiseMatchUpconvert) {
  KernelGuard guard;
  const Tensor a32 = Tensor::uniform({85, 50}, 131, -1, 1);
  const Tensor b32 = Tensor::uniform({50, 67}, 132, -1, 1);
  const Tensor a16 = a32.to(DType::kF16);
  const Tensor b16 = b32.to(DType::kF16);
  const Tensor a16up = a16.to(DType::kF32);
  const Tensor b16up = b16.to(DType::kF32);
  struct Case {
    Tensor a, b, ua, ub;
    const char* what;
  };
  const Case cases[] = {
      {a16, b32, a16up, b32, "f16 x f32"},
      {a32, b16, a32, b16up, "f32 x f16"},
      {a16, b16, a16up, b16up, "f16 x f16"},
  };
  for (const ops::KernelKind kk :
       {ops::KernelKind::kRef, ops::KernelKind::kOpt}) {
    for (const std::size_t threads : {1u, 4u}) {
      ThreadPool pool(threads);
      guard.use(kk, &pool);
      for (const Case& c : cases) {
        const Tensor mixed = ops::matmul(c.a, c.b);
        const Tensor up = ops::matmul(c.ua, c.ub);
        EXPECT_EQ(mixed.dtype(), DType::kF32);
        EXPECT_TRUE(bitwise_equal(mixed, up))
            << c.what << " kernel=" << static_cast<int>(kk)
            << " threads=" << threads;
      }
      // Transposed f16 operand (the grad_w shape of the backward pass).
      const Tensor wt16 = Tensor::uniform({67, 50}, 133, -1, 1).to(DType::kF16);
      const Tensor mixed_t = ops::matmul(a32, wt16, false, true);
      const Tensor up_t = ops::matmul(a32, wt16.to(DType::kF32), false, true);
      EXPECT_TRUE(bitwise_equal(mixed_t, up_t)) << "f32 x f16^T";
    }
  }
}

TEST(QuantizeRows, RoundTripWithinPerRowBound) {
  const Tensor x = Tensor::uniform({60, 93}, 141, -5, 5);
  Tensor scale, zero;
  const Tensor q = ops::quantize_rows(x, &scale, &zero);
  ASSERT_EQ(q.dtype(), DType::kInt8Q);
  ASSERT_EQ(scale.shape(), (std::vector<std::int64_t>{60}));
  const Tensor back = ops::dequantize_rows(q, scale, zero);
  const float* px = x.data<float>();
  const float* pb = back.data<float>();
  const float* ps = scale.data<float>();
  for (std::int64_t i = 0; i < 60; ++i) {
    // Affine rounding error is at most scale/2 = (max-min)/510 per element.
    const float bound = ps[i] * 0.5f + 1e-6f;
    for (std::int64_t j = 0; j < 93; ++j) {
      ASSERT_NEAR(pb[i * 93 + j], px[i * 93 + j], bound)
          << "row " << i << " col " << j;
    }
  }
}

TEST(QuantizeRows, ConstantRowIsExact) {
  Tensor x({2, 5}, DType::kF32);
  float* p = x.data<float>();
  for (int j = 0; j < 5; ++j) p[j] = 3.25f;
  for (int j = 5; j < 10; ++j) p[j] = -0.75f;
  Tensor scale, zero;
  const Tensor q = ops::quantize_rows(x, &scale, &zero);
  const Tensor back = ops::dequantize_rows(q, scale, zero);
  EXPECT_TRUE(bitwise_equal(x, back));
}

TEST(QuantizeRow, OptimizedBitwiseEqualsReference) {
  // The vectorized quantizer against the scalar reference loop, codes and
  // sidecar bits alike, on random rows of every width around the 8-lane
  // block and on adversarial rows.
  KernelGuard guard;
  std::vector<std::vector<float>> rows;
  Xoshiro256ss rng(171);
  for (const int cols : {1, 3, 7, 8, 9, 16, 100, 128, 131}) {
    for (int r = 0; r < 20; ++r) {
      std::vector<float> row(static_cast<std::size_t>(cols));
      const double span = std::ldexp(1.0, static_cast<int>(r) - 8);
      for (float& v : row) {
        v = static_cast<float>(
            (static_cast<double>(bounded_rand(rng, 1u << 24)) / (1 << 23) -
             1.0) * span);
      }
      rows.push_back(std::move(row));
    }
  }
  const float z = 0.0f;
  const float nz = -0.0f;
  rows.push_back(std::vector<float>(37, 3.25f));                // constant
  rows.push_back({nz, z, nz, z, z, nz, z, nz, z, nz});          // only zeros
  rows.push_back({z, nz, 1, 2, 3, 4, 5, 6, 7, 8, 9});           // +0 min first
  rows.push_back({4, 3, nz, 2, z, 1, 7, 8, 9, 10, 11, 12});     // -0 min first
  rows.push_back({-1, -2, z, -3, nz, -4, -5, -6, -7, -8, -9});  // +0 max first
  rows.push_back({-5, nz, -1, z, -2, -3, -4, -6, -7, -8, -9});  // -0 max first
  std::vector<float> huge{-1e30f, 1e30f};
  for (int j = 0; j < 30; ++j) {
    huge.push_back(static_cast<float>(j - 15) * 6.5e28f);
  }
  rows.push_back(huge);
  std::vector<float> ties{0.0f, 255.0f};  // scale exactly 1: k + 0.5 ties
  for (int k = 0; k < 255; ++k) ties.push_back(static_cast<float>(k) + 0.5f);
  rows.push_back(ties);
  for (const std::vector<float>& row : rows) {
    const auto cols = static_cast<std::int64_t>(row.size());
    std::vector<std::int8_t> q_ref(row.size()), q_opt(row.size());
    float scale_ref = 0, zero_ref = 0, scale_opt = 0, zero_opt = 0;
    guard.use(ops::KernelKind::kRef);
    ops::quantize_row(row.data(), cols, q_ref.data(), &scale_ref, &zero_ref);
    guard.use(ops::KernelKind::kOpt);
    ops::quantize_row(row.data(), cols, q_opt.data(), &scale_opt, &zero_opt);
    EXPECT_EQ(q_opt, q_ref) << cols << " columns";
    EXPECT_EQ(std::memcmp(&scale_opt, &scale_ref, sizeof(float)), 0);
    EXPECT_EQ(std::memcmp(&zero_opt, &zero_ref, sizeof(float)), 0)
        << zero_opt << " vs " << zero_ref;
  }
}

TEST(CompressedMatmul, BitwiseMatchesDequantizedMatmul) {
  KernelGuard guard;
  const Tensor a = Tensor::uniform({91, 53}, 151, -2, 2);
  const Tensor b = Tensor::uniform({53, 72}, 152, -1, 1);
  const Tensor bt = Tensor::uniform({72, 53}, 153, -1, 1);
  Tensor scale, zero;
  const Tensor q = ops::quantize_rows(a, &scale, &zero);
  for (const ops::KernelKind kk :
       {ops::KernelKind::kRef, ops::KernelKind::kOpt}) {
    for (const std::size_t threads : {1u, 4u, 8u}) {
      ThreadPool pool(threads);
      guard.use(kk, &pool);
      const Tensor deq = ops::dequantize_rows(q, scale, zero);
      EXPECT_TRUE(bitwise_equal(ops::matmul_compressed(q, scale, zero, b),
                                ops::matmul(deq, b)))
          << "kernel=" << static_cast<int>(kk) << " threads=" << threads;
      EXPECT_TRUE(
          bitwise_equal(ops::matmul_compressed(q, scale, zero, bt, true),
                        ops::matmul(deq, bt, false, true)))
          << "trans_b kernel=" << static_cast<int>(kk)
          << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace salient
