// Dense + sparse CPU kernels with runtime selection (tensor/kernel_config.h).
//
// Every op has two implementations:
//   * reference (SALIENT_KERNEL=ref) — the original serial loops, kept
//     verbatim as ground truth for A/B benchmarks;
//   * optimized (default) — the same arithmetic restructured for
//     auto-vectorization (validation hoisted out of hot loops, branch-free
//     inner loops) and parallelized on the kernel pool.
//
// Determinism contract: the optimized kernels accumulate every output
// element in the same order as the reference — elementwise ops are
// trivially order-free, SpMM forwards parallelize over destination rows
// (per-row edge order unchanged), SpMM backwards scatter through an
// explicit CSR transpose whose per-source order equals the serial scatter
// order, and spmm_max_backward partitions by feature column. Results are
// therefore bitwise identical to the reference AND invariant to the pool
// size (tests/test_kernels.cpp asserts both; tests/test_chaos.cpp relies on
// the latter). The shared `parallel_for_n` cost heuristic keeps small
// serve-path tensors serial.
#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "tensor/kernel_config.h"

namespace salient::ops {

namespace {

void check_float(const Tensor& t, const char* op) {
  if (t.dtype() != DType::kF32 && t.dtype() != DType::kF64) {
    throw std::runtime_error(std::string(op) + ": float tensor required");
  }
}

void check_same(const Tensor& a, const Tensor& b, const char* op) {
  if (a.dtype() != b.dtype() || a.shape() != b.shape()) {
    throw std::runtime_error(std::string(op) +
                             ": shape/dtype mismatch: " + a.str() + " vs " +
                             b.str());
  }
}

/// Run fn over [0, n): serial on the reference path, pool-parallel (above
/// the shared cost heuristic) on the optimized path. fn(begin, end) must
/// write disjoint outputs per index.
template <typename Fn>
void run_indexed(std::int64_t n, std::int64_t work, const Fn& fn,
                 GrainClass cls = GrainClass::kCompute) {
  if (kernel_kind() == KernelKind::kRef) {
    if (n > 0) fn(std::int64_t{0}, n);
  } else {
    parallel_for_n(n, work, fn, cls);
  }
}

/// Validate that every entry of `indices` lands in [0, limit) before the
/// hot loop runs, so the loop itself stays branch-free. Matches the
/// reference kernels' exception type and message.
void check_source_indices(const std::vector<std::int64_t>& indices,
                          std::int64_t limit, const char* name) {
  const auto lim = static_cast<std::uint64_t>(limit);
  std::uint64_t bad = 0;
  for (const std::int64_t ix : indices) {
    bad |= static_cast<std::uint64_t>(static_cast<std::uint64_t>(ix) >= lim);
  }
  if (bad) throw std::out_of_range(std::string(name) + ": source index");
}

/// Hint the next random source row into cache. The SpMM/gather family is
/// memory-latency-bound on x-row gathers (random rows of a matrix far larger
/// than L2); prefetching the head of a row a few edges ahead overlaps that
/// latency with the current row's accumulate. No semantic effect, so
/// bitwise determinism is untouched. The hardware prefetcher picks up the
/// rest of the row once the first lines are touched.
inline void prefetch_row_head(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
  __builtin_prefetch(static_cast<const char*>(p) + 64);
#else
  (void)p;
#endif
}

/// Edges to look ahead when prefetching gathered rows.
constexpr std::int64_t kPrefetchDist = 8;

/// Apply f elementwise over two same-shaped tensors into a new tensor.
template <typename F>
Tensor binary_op(const Tensor& a, const Tensor& b, const char* name, F f) {
  check_float(a, name);
  check_same(a, b, name);
  Tensor out(a.shape(), a.dtype());
  const std::int64_t n = a.numel();
  // Three streams, one flop per element: memory-bound grain class.
  if (a.dtype() == DType::kF32) {
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    float* po = out.data<float>();
    run_indexed(
        n, n,
        [&](std::int64_t ib, std::int64_t ie) {
          for (std::int64_t i = ib; i < ie; ++i) {
            po[i] = static_cast<float>(f(pa[i], pb[i]));
          }
        },
        GrainClass::kMemoryBound);
  } else {
    const double* pa = a.data<double>();
    const double* pb = b.data<double>();
    double* po = out.data<double>();
    run_indexed(
        n, n,
        [&](std::int64_t ib, std::int64_t ie) {
          for (std::int64_t i = ib; i < ie; ++i) po[i] = f(pa[i], pb[i]);
        },
        GrainClass::kMemoryBound);
  }
  return out;
}

template <typename F>
Tensor unary_op(const Tensor& x, const char* name, F f,
                GrainClass cls = GrainClass::kMemoryBound) {
  check_float(x, name);
  Tensor out(x.shape(), x.dtype());
  const std::int64_t n = x.numel();
  if (x.dtype() == DType::kF32) {
    const float* px = x.data<float>();
    float* po = out.data<float>();
    run_indexed(
        n, n,
        [&](std::int64_t ib, std::int64_t ie) {
          for (std::int64_t i = ib; i < ie; ++i) {
            po[i] = static_cast<float>(f(px[i]));
          }
        },
        cls);
  } else {
    const double* px = x.data<double>();
    double* po = out.data<double>();
    run_indexed(
        n, n,
        [&](std::int64_t ib, std::int64_t ie) {
          for (std::int64_t i = ib; i < ie; ++i) po[i] = f(px[i]);
        },
        cls);
  }
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "add", [](double x, double y) { return x + y; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "sub", [](double x, double y) { return x - y; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return binary_op(a, b, "mul", [](double x, double y) { return x * y; });
}

Tensor scale(const Tensor& a, double alpha) {
  return unary_op(a, "scale", [alpha](double x) { return alpha * x; });
}

Tensor add_scaled(const Tensor& a, const Tensor& b, double alpha) {
  return binary_op(a, b, "add_scaled",
                   [alpha](double x, double y) { return x + alpha * y; });
}

void axpy_(Tensor& a, const Tensor& b, double alpha) {
  check_float(a, "axpy_");
  check_same(a, b, "axpy_");
  const std::int64_t n = a.numel();
  if (a.dtype() == DType::kF32) {
    float* pa = a.data<float>();
    const float* pb = b.data<float>();
    const auto al = static_cast<float>(alpha);
    run_indexed(
        n, n,
        [&](std::int64_t ib, std::int64_t ie) {
          for (std::int64_t i = ib; i < ie; ++i) pa[i] += al * pb[i];
        },
        GrainClass::kMemoryBound);
  } else {
    double* pa = a.data<double>();
    const double* pb = b.data<double>();
    run_indexed(
        n, n,
        [&](std::int64_t ib, std::int64_t ie) {
          for (std::int64_t i = ib; i < ie; ++i) pa[i] += alpha * pb[i];
        },
        GrainClass::kMemoryBound);
  }
}

Tensor relu(const Tensor& x) {
  return unary_op(x, "relu", [](double v) { return v > 0 ? v : 0.0; });
}

Tensor relu_mask(const Tensor& x) {
  return unary_op(x, "relu_mask", [](double v) { return v > 0 ? 1.0 : 0.0; });
}

Tensor leaky_relu(const Tensor& x, double slope) {
  return unary_op(x, "leaky_relu",
                  [slope](double v) { return v > 0 ? v : slope * v; });
}

Tensor leaky_relu_mask(const Tensor& x, double slope) {
  return unary_op(x, "leaky_relu_mask",
                  [slope](double v) { return v > 0 ? 1.0 : slope; });
}

Tensor exp(const Tensor& x) {
  // Transcendental per element — genuinely compute-bound.
  return unary_op(x, "exp", [](double v) { return std::exp(v); },
                  GrainClass::kCompute);
}

Tensor log(const Tensor& x) {
  return unary_op(x, "log", [](double v) { return std::log(v); },
                  GrainClass::kCompute);
}

Tensor sqrt(const Tensor& x) {
  return unary_op(x, "sqrt", [](double v) { return std::sqrt(v); });
}

Tensor add_row_broadcast(const Tensor& x, const Tensor& b) {
  check_float(x, "add_row_broadcast");
  if (x.dim() != 2 || b.dim() != 1 || b.size(0) != x.size(1) ||
      b.dtype() != x.dtype()) {
    throw std::runtime_error("add_row_broadcast: need [M,N] + [N]");
  }
  Tensor out(x.shape(), x.dtype());
  const std::int64_t m = x.size(0), n = x.size(1);
  auto run = [&](const auto* px, const auto* pb, auto* po) {
    run_indexed(
        m, m * n,
        [&](std::int64_t ib, std::int64_t ie) {
          for (std::int64_t i = ib; i < ie; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
              po[i * n + j] = px[i * n + j] + pb[j];
            }
          }
        },
        GrainClass::kMemoryBound);
  };
  if (x.dtype() == DType::kF32) {
    run(x.data<float>(), b.data<float>(), out.data<float>());
  } else {
    run(x.data<double>(), b.data<double>(), out.data<double>());
  }
  return out;
}

Tensor sum_rows(const Tensor& x) {
  check_float(x, "sum_rows");
  if (x.dim() != 2) throw std::runtime_error("sum_rows: need [M,N]");
  const std::int64_t m = x.size(0), n = x.size(1);
  Tensor out({n}, x.dtype());
  // Parallel decomposition is by output column so each po[j] is owned by
  // one thread and accumulated in ascending-row order — the same order as
  // the serial loop, keeping the result bitwise identical. A narrow output
  // stays serial (kReduceColumnGrain): every row pass rewrites the whole
  // output vector, so threads sharing its few cache lines false-share it
  // into a slowdown however large m is.
  auto run = [&](const auto* px, auto* po) {
    run_indexed(n, n < kReduceColumnGrain ? 0 : m * n,
                [&](std::int64_t jb, std::int64_t je) {
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = jb; j < je; ++j) po[j] += px[i * n + j];
      }
    });
  };
  if (x.dtype() == DType::kF32) {
    run(x.data<float>(), out.data<float>());
  } else {
    run(x.data<double>(), out.data<double>());
  }
  return out;
}

double sum_all(const Tensor& x) {
  check_float(x, "sum_all");
  double s = 0;
  const std::int64_t n = x.numel();
  if (x.dtype() == DType::kF32) {
    const float* p = x.data<float>();
    for (std::int64_t i = 0; i < n; ++i) s += p[i];
  } else {
    const double* p = x.data<double>();
    for (std::int64_t i = 0; i < n; ++i) s += p[i];
  }
  return s;
}

double mean_all(const Tensor& x) {
  const std::int64_t n = x.numel();
  return n ? sum_all(x) / static_cast<double>(n) : 0.0;
}

Tensor gather_rows(const Tensor& x, const Tensor& idx) {
  if (x.dim() != 2 || idx.dim() != 1 || idx.dtype() != DType::kI64) {
    throw std::runtime_error("gather_rows: need x [M,N], idx [K] i64");
  }
  const std::int64_t m = x.size(0), n = x.size(1), k = idx.size(0);
  Tensor out({k, n}, x.dtype());
  const std::int64_t* pi = idx.data<std::int64_t>();
  // Validate every index up front so the copy loop is branch-free.
  {
    const auto lim = static_cast<std::uint64_t>(m);
    std::uint64_t bad = 0;
    for (std::int64_t r = 0; r < k; ++r) {
      bad |= static_cast<std::uint64_t>(static_cast<std::uint64_t>(pi[r]) >=
                                        lim);
    }
    if (bad) throw std::out_of_range("gather_rows: index");
  }
  const std::size_t row_bytes = static_cast<std::size_t>(n) * dtype_size(x.dtype());
  const char* src = static_cast<const char*>(x.raw());
  char* dst = static_cast<char*>(out.raw());
  // Pure row memcpy — bandwidth-bound, so use the memory-bound grain: on
  // benchmark-sized gathers (a few MB) splitting the copy across threads
  // only adds dispatch and cache-line handoff (the ×8 regression).
  run_indexed(
      k, k * n,
      [&](std::int64_t rb, std::int64_t re) {
        for (std::int64_t r = rb; r < re; ++r) {
          std::memcpy(dst + static_cast<std::size_t>(r) * row_bytes,
                      src + static_cast<std::size_t>(pi[r]) * row_bytes,
                      row_bytes);
        }
      },
      GrainClass::kMemoryBound);
  return out;
}

void scatter_add_rows_(Tensor& dst, const Tensor& idx, const Tensor& src) {
  check_float(dst, "scatter_add_rows_");
  if (dst.dim() != 2 || src.dim() != 2 || idx.dim() != 1 ||
      idx.dtype() != DType::kI64 || src.dtype() != dst.dtype() ||
      src.size(1) != dst.size(1) || idx.size(0) != src.size(0)) {
    throw std::runtime_error("scatter_add_rows_: shape mismatch");
  }
  const std::int64_t k = src.size(0), n = src.size(1), m = dst.size(0);
  const std::int64_t* pi = idx.data<std::int64_t>();
  // One add per loaded element — bandwidth-bound; the memory-bound grain
  // keeps benchmark-sized scatters serial (the inversion + handoff overhead
  // was the ×8 regression) while huge ones still fan out.
  const bool parallel = kernel_kind() == KernelKind::kOpt &&
                        use_parallel(k * n, GrainClass::kMemoryBound);
  if (!parallel) {
    auto run = [&](auto* pd, const auto* ps) {
      for (std::int64_t r = 0; r < k; ++r) {
        const std::int64_t i = pi[r];
        if (i < 0 || i >= m) {
          throw std::out_of_range("scatter_add_rows_: index");
        }
        for (std::int64_t j = 0; j < n; ++j) pd[i * n + j] += ps[r * n + j];
      }
    };
    if (dst.dtype() == DType::kF32) {
      run(dst.data<float>(), src.data<float>());
    } else {
      run(dst.data<double>(), src.data<double>());
    }
    return;
  }
  // Deterministic parallel scatter: invert the index map (stable counting
  // sort), then parallelize over destination rows. Each destination row is
  // owned by one thread and accumulates its source rows in ascending-r
  // order — exactly the serial order, so the result is bitwise identical
  // regardless of pool size.
  {
    const auto lim = static_cast<std::uint64_t>(m);
    std::uint64_t bad = 0;
    for (std::int64_t r = 0; r < k; ++r) {
      bad |= static_cast<std::uint64_t>(static_cast<std::uint64_t>(pi[r]) >=
                                        lim);
    }
    if (bad) throw std::out_of_range("scatter_add_rows_: index");
  }
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(m) + 1, 0);
  for (std::int64_t r = 0; r < k; ++r) ++offsets[pi[r] + 1];
  for (std::int64_t i = 0; i < m; ++i) offsets[i + 1] += offsets[i];
  std::vector<std::int64_t> rows(static_cast<std::size_t>(k));
  {
    std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::int64_t r = 0; r < k; ++r) rows[cursor[pi[r]]++] = r;
  }
  auto run = [&](auto* pd, const auto* ps) {
    kernel_pool().parallel_for(0, m, [&](std::int64_t ib, std::int64_t ie) {
      for (std::int64_t i = ib; i < ie; ++i) {
        auto* drow = pd + i * n;
        for (std::int64_t t = offsets[i]; t < offsets[i + 1]; ++t) {
          const auto* srow = ps + rows[t] * n;
          for (std::int64_t j = 0; j < n; ++j) drow[j] += srow[j];
        }
      }
    });
  };
  if (dst.dtype() == DType::kF32) {
    run(dst.data<float>(), src.data<float>());
  } else {
    run(dst.data<double>(), src.data<double>());
  }
}

Tensor concat_cols(const std::vector<Tensor>& xs) {
  if (xs.empty()) throw std::runtime_error("concat_cols: empty input");
  const std::int64_t m = xs[0].size(0);
  const DType dt = xs[0].dtype();
  std::int64_t total = 0;
  for (const auto& x : xs) {
    if (x.dim() != 2 || x.size(0) != m || x.dtype() != dt) {
      throw std::runtime_error("concat_cols: mismatched inputs");
    }
    total += x.size(1);
  }
  Tensor out({m, total}, dt);
  const std::size_t esz = dtype_size(dt);
  char* pd = static_cast<char*>(out.raw());
  std::int64_t col = 0;
  for (const auto& x : xs) {
    const std::int64_t n = x.size(1);
    const char* ps = static_cast<const char*>(x.raw());
    run_indexed(m, m * n, [&](std::int64_t ib, std::int64_t ie) {
      for (std::int64_t i = ib; i < ie; ++i) {
        std::memcpy(pd + (static_cast<std::size_t>(i) * total + col) * esz,
                    ps + static_cast<std::size_t>(i) * n * esz,
                    static_cast<std::size_t>(n) * esz);
      }
    });
    col += n;
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& x) {
  check_float(x, "log_softmax_rows");
  if (x.dim() != 2) throw std::runtime_error("log_softmax_rows: need [M,N]");
  const std::int64_t m = x.size(0), n = x.size(1);
  Tensor out(x.shape(), x.dtype());
  auto run = [&](const auto* px, auto* po) {
    using T = std::remove_cv_t<std::remove_reference_t<decltype(px[0])>>;
    run_indexed(m, m * n, [&](std::int64_t ib, std::int64_t ie) {
      for (std::int64_t i = ib; i < ie; ++i) {
        const auto* row = px + i * n;
        auto* orow = po + i * n;
        T mx = row[0];
        for (std::int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
        double s = 0;
        for (std::int64_t j = 0; j < n; ++j) s += std::exp(double(row[j] - mx));
        const double lse = std::log(s) + double(mx);
        for (std::int64_t j = 0; j < n; ++j) {
          orow[j] = static_cast<T>(double(row[j]) - lse);
        }
      }
    });
  };
  if (x.dtype() == DType::kF32) {
    run(x.data<float>(), out.data<float>());
  } else {
    run(x.data<double>(), out.data<double>());
  }
  return out;
}

double nll_loss_mean(const Tensor& logp, const Tensor& target) {
  check_float(logp, "nll_loss_mean");
  if (logp.dim() != 2 || target.dim() != 1 ||
      target.dtype() != DType::kI64 || target.size(0) != logp.size(0)) {
    throw std::runtime_error("nll_loss_mean: need logp [M,C], target [M]");
  }
  const std::int64_t m = logp.size(0), c = logp.size(1);
  const std::int64_t* pt = target.data<std::int64_t>();
  double s = 0;
  if (logp.dtype() == DType::kF32) {
    const float* p = logp.data<float>();
    for (std::int64_t i = 0; i < m; ++i) {
      if (pt[i] < 0 || pt[i] >= c) throw std::out_of_range("nll: label");
      s -= p[i * c + pt[i]];
    }
  } else {
    const double* p = logp.data<double>();
    for (std::int64_t i = 0; i < m; ++i) {
      if (pt[i] < 0 || pt[i] >= c) throw std::out_of_range("nll: label");
      s -= p[i * c + pt[i]];
    }
  }
  return m ? s / static_cast<double>(m) : 0.0;
}

Tensor nll_loss_mean_backward(const Tensor& logp, const Tensor& target) {
  const std::int64_t m = logp.size(0), c = logp.size(1);
  Tensor g(logp.shape(), logp.dtype());
  const std::int64_t* pt = target.data<std::int64_t>();
  const double inv = m ? -1.0 / static_cast<double>(m) : 0.0;
  if (logp.dtype() == DType::kF32) {
    float* pg = g.data<float>();
    for (std::int64_t i = 0; i < m; ++i)
      pg[i * c + pt[i]] = static_cast<float>(inv);
  } else {
    double* pg = g.data<double>();
    for (std::int64_t i = 0; i < m; ++i) pg[i * c + pt[i]] = inv;
  }
  return g;
}

Tensor argmax_rows(const Tensor& x) {
  check_float(x, "argmax_rows");
  if (x.dim() != 2) throw std::runtime_error("argmax_rows: need [M,N]");
  const std::int64_t m = x.size(0), n = x.size(1);
  Tensor out({m}, DType::kI64);
  std::int64_t* po = out.data<std::int64_t>();
  auto run = [&](const auto* px) {
    // One compare per loaded element: memory-bound grain class.
    run_indexed(
        m, m * n,
        [&](std::int64_t ib, std::int64_t ie) {
          for (std::int64_t i = ib; i < ie; ++i) {
            const auto* row = px + i * n;
            std::int64_t best = 0;
            for (std::int64_t j = 1; j < n; ++j)
              if (row[j] > row[best]) best = j;
            po[i] = best;
          }
        },
        GrainClass::kMemoryBound);
  };
  if (x.dtype() == DType::kF32) {
    run(x.data<float>());
  } else {
    run(x.data<double>());
  }
  return out;
}

double accuracy(const Tensor& logits, const Tensor& target) {
  const Tensor pred = argmax_rows(logits);
  const std::int64_t m = pred.size(0);
  if (m == 0) return 0.0;
  const std::int64_t* pp = pred.data<std::int64_t>();
  const std::int64_t* pt = target.data<std::int64_t>();
  std::int64_t hit = 0;
  for (std::int64_t i = 0; i < m; ++i) hit += (pp[i] == pt[i]);
  return static_cast<double>(hit) / static_cast<double>(m);
}

Tensor dropout_mask_counter(const std::vector<std::int64_t>& shape, double p,
                            std::uint64_t seed, DType dtype) {
  if (p < 0 || p >= 1) {
    throw std::invalid_argument("dropout_mask_counter: bad p");
  }
  Tensor mask(shape, dtype);
  const double inv_keep = 1.0 / (1.0 - p);
  const std::uint64_t thr = dropout_drop_threshold(p);
  const std::int64_t n = mask.numel();
  // Each entry is a pure function of (seed, i): chunk-order independent, so
  // the parallel split cannot change the mask.
  if (dtype == DType::kF32) {
    float* pm = mask.data<float>();
    const auto scale = static_cast<float>(inv_keep);
    run_indexed(n, n, [&](std::int64_t ib, std::int64_t ie) {
      for (std::int64_t i = ib; i < ie; ++i) {
        pm[i] = dropout_keep(seed, i, thr) ? scale : 0.0f;
      }
    });
  } else if (dtype == DType::kF64) {
    double* pm = mask.data<double>();
    run_indexed(n, n, [&](std::int64_t ib, std::int64_t ie) {
      for (std::int64_t i = ib; i < ie; ++i) {
        pm[i] = dropout_keep(seed, i, thr) ? inv_keep : 0.0;
      }
    });
  } else {
    throw std::runtime_error("dropout_mask_counter: dtype must be f32/f64");
  }
  return mask;
}

namespace {

/// act_dropout's loop for one activation, bitwise equal to the unfused
/// unary op (which rounds its double result to T) followed by ops::mul (a
/// product of two T values, which T's own multiply rounds alike). Each
/// block stages its dropout factors, and leaky ReLU's negative branch, in
/// arrays of their own, so every loop is branch-free and vectorizes: a
/// product under a select compiled to a branch and ran ~15x slower.
template <Activation A, typename T>
void act_dropout_kernel(const T* px, T* py, T* pm, std::int64_t n,
                        double slope, double p, std::uint64_t seed) {
  constexpr std::int64_t kBlock = 256;
  const std::uint64_t thr = dropout_drop_threshold(p);  // p = 0 keeps all
  const T scale = static_cast<T>(1.0 / (1.0 - p));
  const T dslope = static_cast<T>(slope);
  run_indexed(
      n, n,
      [&](std::int64_t ib, std::int64_t ie) {
        // Locals, not captures: run through ThreadPool::parallel_for's
        // std::function, a loop reading a captured parameter does not
        // vectorize (a counter mask ran 12.7 ms against 0.9 ms in a probe).
        const std::uint64_t s = seed, t = thr;
        const T sc = scale, ds = dslope;
        const double sl = slope;
        T m[kBlock], neg[kBlock];
        for (std::int64_t b = ib; b < ie; b += kBlock) {
          const std::int64_t len = std::min(kBlock, ie - b);
          const T* x = px + b;
          for (std::int64_t i = 0; i < len; ++i) {
            m[i] = dropout_keep(s, b + i, t) ? sc : T(0);
          }
          if constexpr (A == Activation::kLeakyRelu) {
            for (std::int64_t i = 0; i < len; ++i) {
              neg[i] = static_cast<T>(sl * double(x[i]));
            }
          }
          for (std::int64_t i = 0; i < len; ++i) {
            T a = x[i];
            if constexpr (A == Activation::kRelu) {
              a = x[i] > T(0) ? x[i] : T(0);
            } else if constexpr (A == Activation::kLeakyRelu) {
              a = x[i] > T(0) ? x[i] : neg[i];
            }
            py[b + i] = a * m[i];
          }
          if (pm == nullptr) continue;
          for (std::int64_t i = 0; i < len; ++i) {
            T d = T(1);
            if constexpr (A == Activation::kRelu) {
              d = x[i] > T(0) ? T(1) : T(0);
            } else if constexpr (A == Activation::kLeakyRelu) {
              d = x[i] > T(0) ? T(1) : ds;
            }
            pm[b + i] = d * m[i];
          }
        }
      },
      GrainClass::kMemoryBound);
}

template <typename T>
void act_dropout_typed(const Tensor& x, Tensor& y, T* pm, Activation act,
                       double slope, double p, std::uint64_t seed) {
  const T* px = x.data<T>();
  T* py = y.data<T>();
  const std::int64_t n = x.numel();
  switch (act) {
    case Activation::kIdentity:
      act_dropout_kernel<Activation::kIdentity>(px, py, pm, n, slope, p, seed);
      break;
    case Activation::kRelu:
      act_dropout_kernel<Activation::kRelu>(px, py, pm, n, slope, p, seed);
      break;
    case Activation::kLeakyRelu:
      act_dropout_kernel<Activation::kLeakyRelu>(px, py, pm, n, slope, p,
                                                 seed);
      break;
  }
}

template <typename T>
void relu_dropout_backward_typed(const Tensor& g, const Tensor& y, Tensor& out,
                                 T s) {
  const T* pg = g.data<T>();
  const T* py = y.data<T>();
  T* po = out.data<T>();
  const std::int64_t n = g.numel();
  run_indexed(
      n, n,
      [&](std::int64_t ib, std::int64_t ie) {
        // Both loads unconditional, the product in T and the operands in
        // locals, so the select vectorizes: binary_op's double lambda
        // compiled to a branch on y > 0 and ran ~8x slower on this gate.
        const T* const gs = pg;
        const T* const ys = py;
        T* const out = po;
        const T sv = s;
        for (std::int64_t i = ib; i < ie; ++i) {
          const T gv = gs[i];
          out[i] = ys[i] > T(0) ? gv * sv : T(0);
        }
      },
      GrainClass::kMemoryBound);
}

}  // namespace

Tensor act_dropout(const Tensor& x, Activation act, double slope, double p,
                   std::uint64_t seed, Tensor* mask_out) {
  check_float(x, "act_dropout");
  if (p < 0 || p >= 1) throw std::invalid_argument("act_dropout: bad p");
  Tensor y(x.shape(), x.dtype());
  if (mask_out != nullptr) *mask_out = Tensor(x.shape(), x.dtype());
  if (x.dtype() == DType::kF32) {
    act_dropout_typed<float>(
        x, y, mask_out != nullptr ? mask_out->data<float>() : nullptr, act,
        slope, p, seed);
  } else {
    act_dropout_typed<double>(
        x, y, mask_out != nullptr ? mask_out->data<double>() : nullptr, act,
        slope, p, seed);
  }
  return y;
}

Tensor relu_dropout_backward(const Tensor& g, const Tensor& y,
                             double keep_scale) {
  check_float(g, "relu_dropout_backward");
  check_same(g, y, "relu_dropout_backward");
  Tensor out(g.shape(), g.dtype());
  // The scale as the epilogue stored it (rounded to the dtype). A float
  // product is the correctly rounded double one, so g·s here is bitwise
  // ops::mul(g, mask).
  if (g.dtype() == DType::kF32) {
    relu_dropout_backward_typed(g, y, out, static_cast<float>(keep_scale));
  } else {
    relu_dropout_backward_typed(g, y, out, keep_scale);
  }
  return out;
}

namespace {

/// Incoming-edge view of a destination-major CSR: for each source row, the
/// incoming edges in ascending (destination, edge) order — i.e. exactly the
/// order the serial backward scatter visits them, which is what makes the
/// parallel backward bitwise identical to the reference.
struct CsrTranspose {
  std::vector<std::int64_t> indptr;  ///< num_src + 1
  std::vector<std::int64_t> dst;     ///< destination row per incoming edge
  std::vector<std::int64_t> edge;    ///< original edge id per incoming edge
};

CsrTranspose build_transpose(const std::vector<std::int64_t>& indptr,
                             const std::vector<std::int64_t>& indices,
                             std::int64_t num_src, std::int64_t d_count) {
  CsrTranspose t;
  const std::size_t nnz = indices.size();
  t.indptr.assign(static_cast<std::size_t>(num_src) + 1, 0);
  for (const std::int64_t src : indices) ++t.indptr[src + 1];
  for (std::int64_t i = 0; i < num_src; ++i) t.indptr[i + 1] += t.indptr[i];
  t.dst.resize(nnz);
  t.edge.resize(nnz);
  std::vector<std::int64_t> cursor(t.indptr.begin(), t.indptr.end() - 1);
  for (std::int64_t d = 0; d < d_count; ++d) {
    for (std::int64_t e = indptr[d]; e < indptr[d + 1]; ++e) {
      const std::int64_t slot = cursor[indices[static_cast<std::size_t>(e)]]++;
      t.dst[static_cast<std::size_t>(slot)] = d;
      t.edge[static_cast<std::size_t>(slot)] = e;
    }
  }
  return t;
}

template <bool Mean>
Tensor spmm_impl(const std::vector<std::int64_t>& indptr,
                 const std::vector<std::int64_t>& indices, const Tensor& x,
                 std::int64_t num_dst, const char* name) {
  check_float(x, name);
  if (x.dim() != 2) throw std::runtime_error(std::string(name) + ": x rank");
  if (static_cast<std::int64_t>(indptr.size()) != num_dst + 1) {
    throw std::runtime_error(std::string(name) + ": indptr size");
  }
  const std::int64_t s = x.size(0), f = x.size(1);
  Tensor out({num_dst, f}, x.dtype());
  if (kernel_kind() == KernelKind::kRef) {
    auto run = [&](const auto* px, auto* po) {
      using T = std::remove_cv_t<std::remove_reference_t<decltype(px[0])>>;
      for (std::int64_t d = 0; d < num_dst; ++d) {
        const std::int64_t b = indptr[d], e = indptr[d + 1];
        auto* orow = po + d * f;
        for (std::int64_t k = b; k < e; ++k) {
          const std::int64_t src = indices[static_cast<std::size_t>(k)];
          if (src < 0 || src >= s) {
            throw std::out_of_range(std::string(name) + ": source index");
          }
          const auto* row = px + src * f;
          for (std::int64_t j = 0; j < f; ++j) orow[j] += row[j];
        }
          if (Mean && e > b) {
            const T inv = static_cast<T>(1.0 / static_cast<double>(e - b));
          for (std::int64_t j = 0; j < f; ++j) orow[j] *= inv;
        }
      }
    };
    if (x.dtype() == DType::kF32) {
      run(x.data<float>(), out.data<float>());
    } else {
      run(x.data<double>(), out.data<double>());
    }
    return out;
  }
  // Optimized: validate up front, then destination-row-block parallelism
  // with a branch-free, vectorizable accumulate loop. Per-row edge order is
  // unchanged, so the result matches the reference bitwise.
  check_source_indices(indices, s, name);
  const auto work =
      static_cast<std::int64_t>(indices.size()) * std::max<std::int64_t>(f, 1);
  auto run = [&](const auto* px, auto* po) {
    using T = std::remove_cv_t<std::remove_reference_t<decltype(px[0])>>;
    // One add per gathered element — bandwidth-bound (the ROADMAP's "spmm
    // mean/sum sit at <=1x" family), so the memory-bound grain applies.
    parallel_for_n(
        num_dst, work,
        [&](std::int64_t db, std::int64_t de) {
          const std::int64_t chunk_end = indptr[de];
          for (std::int64_t d = db; d < de; ++d) {
            const std::int64_t b = indptr[d], e = indptr[d + 1];
            auto* orow = po + d * f;
            for (std::int64_t k = b; k < e; ++k) {
              const std::int64_t pf = k + kPrefetchDist;
              if (pf < chunk_end) {
                prefetch_row_head(px +
                                  indices[static_cast<std::size_t>(pf)] * f);
              }
              const auto* row = px + indices[static_cast<std::size_t>(k)] * f;
              for (std::int64_t j = 0; j < f; ++j) orow[j] += row[j];
            }
            if (Mean && e > b) {
              const T inv = static_cast<T>(1.0 / static_cast<double>(e - b));
              for (std::int64_t j = 0; j < f; ++j) orow[j] *= inv;
            }
          }
        },
        GrainClass::kMemoryBound);
  };
  if (x.dtype() == DType::kF32) {
    run(x.data<float>(), out.data<float>());
  } else {
    run(x.data<double>(), out.data<double>());
  }
  return out;
}

template <bool Mean>
Tensor spmm_backward_impl(const std::vector<std::int64_t>& indptr,
                          const std::vector<std::int64_t>& indices,
                          const Tensor& grad_out, std::int64_t num_src,
                          const char* name) {
  check_float(grad_out, name);
  const std::int64_t d_count = grad_out.size(0), f = grad_out.size(1);
  if (static_cast<std::int64_t>(indptr.size()) != d_count + 1) {
    throw std::runtime_error(std::string(name) + ": indptr size");
  }
  Tensor gx({num_src, f}, grad_out.dtype());
  const auto work =
      static_cast<std::int64_t>(indices.size()) * std::max<std::int64_t>(f, 1);
  // The backward scatter is one multiply-add per streamed element —
  // bandwidth-bound, so the memory-bound grain applies (the ×8 pool was
  // regressing 0.76–0.84x on benchmark-sized graphs).
  const bool parallel = kernel_kind() == KernelKind::kOpt &&
                        use_parallel(work, GrainClass::kMemoryBound);
  if (!parallel) {
    auto run = [&](const auto* pg, auto* px) {
      using T = std::remove_cv_t<std::remove_reference_t<decltype(pg[0])>>;
      for (std::int64_t d = 0; d < d_count; ++d) {
        const std::int64_t b = indptr[d], e = indptr[d + 1];
        if (e == b) continue;
        const T w =
            Mean ? static_cast<T>(1.0 / static_cast<double>(e - b)) : T(1);
        const auto* grow = pg + d * f;
        for (std::int64_t k = b; k < e; ++k) {
          const std::int64_t src = indices[static_cast<std::size_t>(k)];
          if (src < 0 || src >= num_src) {
            throw std::out_of_range(std::string(name) + ": source index");
          }
          auto* xrow = px + src * f;
          for (std::int64_t j = 0; j < f; ++j) xrow[j] += w * grow[j];
        }
      }
    };
    if (grad_out.dtype() == DType::kF32) {
      run(grad_out.data<float>(), gx.data<float>());
    } else {
      run(grad_out.data<double>(), gx.data<double>());
    }
    return gx;
  }
  // Deterministic parallel scatter: segment by source-row ownership through
  // an explicit transpose. Each source row is accumulated by one thread in
  // ascending (destination, edge) order — the serial scatter order — so the
  // result is bitwise identical to the reference for any pool size.
  check_source_indices(indices, num_src, name);
  const CsrTranspose t = build_transpose(indptr, indices, num_src, d_count);
  auto run = [&](const auto* pg, auto* px) {
    using T = std::remove_cv_t<std::remove_reference_t<decltype(pg[0])>>;
    kernel_pool().parallel_for(
        0, num_src, [&](std::int64_t sb, std::int64_t se) {
          for (std::int64_t src = sb; src < se; ++src) {
            auto* xrow = px + src * f;
            for (std::int64_t e2 = t.indptr[src]; e2 < t.indptr[src + 1];
                 ++e2) {
              const std::int64_t d = t.dst[static_cast<std::size_t>(e2)];
              const T w = Mean ? static_cast<T>(1.0 / static_cast<double>(
                                                          indptr[d + 1] -
                                                          indptr[d]))
                               : T(1);
              const auto* grow = pg + d * f;
              for (std::int64_t j = 0; j < f; ++j) xrow[j] += w * grow[j];
            }
          }
        });
  };
  if (grad_out.dtype() == DType::kF32) {
    run(grad_out.data<float>(), gx.data<float>());
  } else {
    run(grad_out.data<double>(), gx.data<double>());
  }
  return gx;
}

}  // namespace

Tensor spmm_mean(const std::vector<std::int64_t>& indptr,
                 const std::vector<std::int64_t>& indices, const Tensor& x,
                 std::int64_t num_dst) {
  return spmm_impl<true>(indptr, indices, x, num_dst, "spmm_mean");
}

Tensor spmm_sum(const std::vector<std::int64_t>& indptr,
                const std::vector<std::int64_t>& indices, const Tensor& x,
                std::int64_t num_dst) {
  return spmm_impl<false>(indptr, indices, x, num_dst, "spmm_sum");
}

Tensor spmm_mean_backward(const std::vector<std::int64_t>& indptr,
                          const std::vector<std::int64_t>& indices,
                          const Tensor& grad_out, std::int64_t num_src) {
  return spmm_backward_impl<true>(indptr, indices, grad_out, num_src,
                                  "spmm_mean_backward");
}

Tensor spmm_sum_backward(const std::vector<std::int64_t>& indptr,
                         const std::vector<std::int64_t>& indices,
                         const Tensor& grad_out, std::int64_t num_src) {
  return spmm_backward_impl<false>(indptr, indices, grad_out, num_src,
                                   "spmm_sum_backward");
}

Tensor spmm_weighted(const std::vector<std::int64_t>& indptr,
                     const std::vector<std::int64_t>& indices,
                     const std::vector<double>& weights, const Tensor& x,
                     std::int64_t num_dst) {
  check_float(x, "spmm_weighted");
  if (weights.size() != indices.size()) {
    throw std::invalid_argument("spmm_weighted: weights size");
  }
  if (static_cast<std::int64_t>(indptr.size()) != num_dst + 1) {
    throw std::invalid_argument("spmm_weighted: indptr size");
  }
  const std::int64_t s = x.size(0), f = x.size(1);
  Tensor out({num_dst, f}, x.dtype());
  if (kernel_kind() == KernelKind::kRef) {
    auto run = [&](const auto* px, auto* po) {
      using T = std::remove_cv_t<std::remove_reference_t<decltype(px[0])>>;
      for (std::int64_t d = 0; d < num_dst; ++d) {
        auto* orow = po + d * f;
        for (std::int64_t e = indptr[static_cast<std::size_t>(d)];
             e < indptr[static_cast<std::size_t>(d) + 1]; ++e) {
          const std::int64_t src = indices[static_cast<std::size_t>(e)];
          if (src < 0 || src >= s) {
            throw std::out_of_range("spmm_weighted: source index");
          }
          const T w = static_cast<T>(weights[static_cast<std::size_t>(e)]);
          const auto* row = px + src * f;
          for (std::int64_t j = 0; j < f; ++j) orow[j] += w * row[j];
        }
      }
    };
    if (x.dtype() == DType::kF32) {
      run(x.data<float>(), out.data<float>());
    } else {
      run(x.data<double>(), out.data<double>());
    }
    return out;
  }
  check_source_indices(indices, s, "spmm_weighted");
  const auto work =
      static_cast<std::int64_t>(indices.size()) * std::max<std::int64_t>(f, 1);
  auto run = [&](const auto* px, auto* po) {
    using T = std::remove_cv_t<std::remove_reference_t<decltype(px[0])>>;
    // Same bandwidth-bound profile as the mean/sum forward.
    parallel_for_n(
        num_dst, work,
        [&](std::int64_t db, std::int64_t de) {
          for (std::int64_t d = db; d < de; ++d) {
            auto* orow = po + d * f;
            for (std::int64_t e = indptr[static_cast<std::size_t>(d)];
                 e < indptr[static_cast<std::size_t>(d) + 1]; ++e) {
              const T w = static_cast<T>(weights[static_cast<std::size_t>(e)]);
              const auto* row = px + indices[static_cast<std::size_t>(e)] * f;
              for (std::int64_t j = 0; j < f; ++j) orow[j] += w * row[j];
            }
          }
        },
        GrainClass::kMemoryBound);
  };
  if (x.dtype() == DType::kF32) {
    run(x.data<float>(), out.data<float>());
  } else {
    run(x.data<double>(), out.data<double>());
  }
  return out;
}

Tensor spmm_weighted_backward(const std::vector<std::int64_t>& indptr,
                              const std::vector<std::int64_t>& indices,
                              const std::vector<double>& weights,
                              const Tensor& grad_out, std::int64_t num_src) {
  check_float(grad_out, "spmm_weighted_backward");
  const std::int64_t d_count = grad_out.size(0), f = grad_out.size(1);
  Tensor gx({num_src, f}, grad_out.dtype());
  const auto work =
      static_cast<std::int64_t>(indices.size()) * std::max<std::int64_t>(f, 1);
  // Bandwidth-bound scatter, same grain-class reasoning as
  // spmm_backward_impl above.
  const bool parallel = kernel_kind() == KernelKind::kOpt &&
                        use_parallel(work, GrainClass::kMemoryBound);
  if (!parallel) {
    auto run = [&](const auto* pg, auto* px) {
      using T = std::remove_cv_t<std::remove_reference_t<decltype(pg[0])>>;
      for (std::int64_t d = 0; d < d_count; ++d) {
        const auto* grow = pg + d * f;
        for (std::int64_t e = indptr[static_cast<std::size_t>(d)];
             e < indptr[static_cast<std::size_t>(d) + 1]; ++e) {
          const std::int64_t src = indices[static_cast<std::size_t>(e)];
          if (src < 0 || src >= num_src) {
            throw std::out_of_range("spmm_weighted_backward: source index");
          }
          const T w = static_cast<T>(weights[static_cast<std::size_t>(e)]);
          auto* xrow = px + src * f;
          for (std::int64_t j = 0; j < f; ++j) xrow[j] += w * grow[j];
        }
      }
    };
    if (grad_out.dtype() == DType::kF32) {
      run(grad_out.data<float>(), gx.data<float>());
    } else {
      run(grad_out.data<double>(), gx.data<double>());
    }
    return gx;
  }
  // Same source-ownership decomposition as spmm_sum_backward; the packed
  // edge ids recover each contribution's weight.
  check_source_indices(indices, num_src, "spmm_weighted_backward");
  const CsrTranspose t = build_transpose(indptr, indices, num_src, d_count);
  auto run = [&](const auto* pg, auto* px) {
    using T = std::remove_cv_t<std::remove_reference_t<decltype(pg[0])>>;
    kernel_pool().parallel_for(
        0, num_src, [&](std::int64_t sb, std::int64_t se) {
          for (std::int64_t src = sb; src < se; ++src) {
            auto* xrow = px + src * f;
            for (std::int64_t e2 = t.indptr[src]; e2 < t.indptr[src + 1];
                 ++e2) {
              const std::int64_t d = t.dst[static_cast<std::size_t>(e2)];
              const T w = static_cast<T>(
                  weights[static_cast<std::size_t>(
                      t.edge[static_cast<std::size_t>(e2)])]);
              const auto* grow = pg + d * f;
              for (std::int64_t j = 0; j < f; ++j) xrow[j] += w * grow[j];
            }
          }
        });
  };
  if (grad_out.dtype() == DType::kF32) {
    run(grad_out.data<float>(), gx.data<float>());
  } else {
    run(grad_out.data<double>(), gx.data<double>());
  }
  return gx;
}

Tensor spmm_max(const std::vector<std::int64_t>& indptr,
                const std::vector<std::int64_t>& indices, const Tensor& x,
                std::int64_t num_dst, std::vector<std::int64_t>* argmax_out) {
  check_float(x, "spmm_max");
  if (static_cast<std::int64_t>(indptr.size()) != num_dst + 1) {
    throw std::invalid_argument("spmm_max: indptr size");
  }
  const std::int64_t s = x.size(0), f = x.size(1);
  Tensor out({num_dst, f}, x.dtype());
  if (argmax_out != nullptr) {
    argmax_out->assign(static_cast<std::size_t>(num_dst * f), -1);
  }
  if (kernel_kind() == KernelKind::kRef) {
    auto run = [&](const auto* px, auto* po) {
      for (std::int64_t d = 0; d < num_dst; ++d) {
        const std::int64_t b = indptr[static_cast<std::size_t>(d)];
        const std::int64_t e = indptr[static_cast<std::size_t>(d) + 1];
        if (b == e) continue;  // empty row stays zero
        auto* orow = po + d * f;
        for (std::int64_t j = 0; j < f; ++j) {
          double best = -1e300;
          std::int64_t arg = -1;
          for (std::int64_t k = b; k < e; ++k) {
            const std::int64_t src = indices[static_cast<std::size_t>(k)];
            if (src < 0 || src >= s) {
              throw std::out_of_range("spmm_max: source index");
            }
            const double v = double(px[src * f + j]);
            if (v > best) {
              best = v;
              arg = src;
            }
          }
          orow[j] = static_cast<std::remove_reference_t<decltype(orow[0])>>(
              best);
          if (argmax_out != nullptr) {
            (*argmax_out)[static_cast<std::size_t>(d * f + j)] = arg;
          }
        }
      }
    };
    if (x.dtype() == DType::kF32) {
      run(x.data<float>(), out.data<float>());
    } else {
      run(x.data<double>(), out.data<double>());
    }
    return out;
  }
  // Optimized: edge-outer / feature-inner order so the inner loop is
  // unit-stride over both the candidate row and the running max. The strict
  // `>` keeps the first maximum in edge order, matching the reference's
  // winner (and the reference compares exact float values widened to
  // double, so the selected maxima are identical).
  check_source_indices(indices, s, "spmm_max");
  const auto work =
      static_cast<std::int64_t>(indices.size()) * std::max<std::int64_t>(f, 1);
  auto run = [&](const auto* px, auto* po) {
    parallel_for_n(num_dst, work, [&](std::int64_t db, std::int64_t de) {
      for (std::int64_t d = db; d < de; ++d) {
        const std::int64_t b = indptr[static_cast<std::size_t>(d)];
        const std::int64_t e = indptr[static_cast<std::size_t>(d) + 1];
        if (b == e) continue;  // empty row stays zero
        auto* orow = po + d * f;
        std::int64_t* arow =
            argmax_out ? argmax_out->data() + d * f : nullptr;
        const std::int64_t src0 = indices[static_cast<std::size_t>(b)];
        const auto* row0 = px + src0 * f;
        for (std::int64_t j = 0; j < f; ++j) orow[j] = row0[j];
        if (arow != nullptr) {
          for (std::int64_t j = 0; j < f; ++j) arow[j] = src0;
        }
        for (std::int64_t k = b + 1; k < e; ++k) {
          const std::int64_t src = indices[static_cast<std::size_t>(k)];
          const auto* row = px + src * f;
          if (arow != nullptr) {
            for (std::int64_t j = 0; j < f; ++j) {
              if (row[j] > orow[j]) {
                orow[j] = row[j];
                arow[j] = src;
              }
            }
          } else {
            for (std::int64_t j = 0; j < f; ++j) {
              orow[j] = std::max(orow[j], row[j]);
            }
          }
        }
      }
    });
  };
  if (x.dtype() == DType::kF32) {
    run(x.data<float>(), out.data<float>());
  } else {
    run(x.data<double>(), out.data<double>());
  }
  return out;
}

Tensor spmm_max_backward(const std::vector<std::int64_t>& argmax,
                         const Tensor& grad_out, std::int64_t num_src) {
  check_float(grad_out, "spmm_max_backward");
  const std::int64_t d_count = grad_out.size(0), f = grad_out.size(1);
  if (static_cast<std::int64_t>(argmax.size()) != d_count * f) {
    throw std::invalid_argument("spmm_max_backward: argmax size");
  }
  Tensor gx({num_src, f}, grad_out.dtype());
  const bool parallel = kernel_kind() == KernelKind::kOpt &&
                        use_parallel(d_count * std::max<std::int64_t>(f, 1));
  if (!parallel) {
    auto run = [&](const auto* pg, auto* px) {
      for (std::int64_t d = 0; d < d_count; ++d) {
        for (std::int64_t j = 0; j < f; ++j) {
          const std::int64_t src = argmax[static_cast<std::size_t>(d * f + j)];
          if (src < 0) continue;
          if (src >= num_src) {
            throw std::out_of_range("spmm_max_backward: source index");
          }
          px[src * f + j] += pg[d * f + j];
        }
      }
    };
    if (grad_out.dtype() == DType::kF32) {
      run(grad_out.data<float>(), gx.data<float>());
    } else {
      run(grad_out.data<double>(), gx.data<double>());
    }
    return gx;
  }
  // Deterministic parallel scatter: partition by feature column. Element
  // (src, j) is only ever written by the thread owning column j, in
  // ascending-d order — the serial order — so results are bitwise identical
  // for any pool size.
  {
    // Negative entries flag empty rows and are skipped (as in the reference
    // loop); only src >= num_src is an error.
    std::int64_t mx = -1;
    for (const std::int64_t src : argmax) mx = std::max(mx, src);
    if (mx >= num_src) {
      throw std::out_of_range("spmm_max_backward: source index");
    }
  }
  auto run = [&](const auto* pg, auto* px) {
    kernel_pool().parallel_for(0, f, [&](std::int64_t jb, std::int64_t je) {
      for (std::int64_t d = 0; d < d_count; ++d) {
        for (std::int64_t j = jb; j < je; ++j) {
          const std::int64_t src = argmax[static_cast<std::size_t>(d * f + j)];
          if (src < 0) continue;
          px[src * f + j] += pg[d * f + j];
        }
      }
    });
  };
  if (grad_out.dtype() == DType::kF32) {
    run(grad_out.data<float>(), gx.data<float>());
  } else {
    run(grad_out.data<double>(), gx.data<double>());
  }
  return gx;
}

}  // namespace salient::ops
