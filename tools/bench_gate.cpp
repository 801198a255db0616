// bench_gate — kernel-layer benchmark regression gate.
//
// Measures every kernel the optimized layer covers (GEMM, the SpMM family,
// row indexing, elementwise/reduction ops, row quantization) under the
// reference kernels and under the optimized kernels at 1/4/8 pool threads,
// min-of-N timed with the four settings alternating within each round, on
// fixed MFG-like shapes.
//
// Modes:
//   bench_gate --emit BENCH_kernels.json [--smoke]
//       Write the measured baseline (committed at the repo root; refresh it
//       whenever kernels change intentionally — see docs/PERFORMANCE.md).
//   bench_gate --baseline BENCH_kernels.json [--smoke] [--tolerance F]
//       Re-measure and fail (exit 1) if any kernel's speedup-over-reference
//       fell below `baseline_speedup * F`, if an optimized kernel became
//       >2x slower than its reference, or if the fused Linear epilogue beat
//       the unfused sequence by less than 1.3x (single-thread, timed in one
//       loop that alternates the two). Speedup *ratios* (not absolute times)
//       are compared so the gate tolerates machine differences; the ctest
//       registration uses --smoke (fewer repetitions, looser tolerance) and
//       only catches order-of-magnitude regressions.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_lite.h"
#include "tensor/kernel_config.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace salient;
namespace json = salient::obs::json;

struct Entry {
  std::string name;
  std::function<void()> run;  ///< executes the kernel under the current kind/pool
};

struct Measurement {
  std::string name;
  double ref_ms = 0, opt1_ms = 0, opt4_ms = 0, opt8_ms = 0;
  double speedup1() const { return ref_ms / opt1_ms; }
  double speedup4() const { return ref_ms / opt4_ms; }
  double speedup8() const { return ref_ms / opt8_ms; }
};

double time_ms(const std::function<void()>& fn) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

/// Synthetic destination-major CSR with MFG-like degree statistics.
struct Csr {
  std::vector<std::int64_t> indptr;
  std::vector<std::int64_t> indices;
  std::vector<double> weights;
};

Csr make_csr(std::int64_t num_dst, std::int64_t num_src, std::int64_t fanout,
             std::uint64_t seed) {
  Csr c;
  Xoshiro256ss rng(seed);
  c.indptr.push_back(0);
  for (std::int64_t d = 0; d < num_dst; ++d) {
    // sampled-fanout style: most rows at the fanout cap, some below.
    const std::int64_t deg =
        1 + static_cast<std::int64_t>(
                bounded_rand(rng, static_cast<std::uint64_t>(fanout)));
    for (std::int64_t k = 0; k < deg; ++k) {
      c.indices.push_back(static_cast<std::int64_t>(
          bounded_rand(rng, static_cast<std::uint64_t>(num_src))));
      c.weights.push_back(
          0.05 + static_cast<double>(bounded_rand(rng, 64)) / 64.0);
    }
    c.indptr.push_back(static_cast<std::int64_t>(c.indices.size()));
  }
  return c;
}

// Keep kernel outputs observable so the work is not optimized away.
volatile double g_sink = 0;
void sink(const Tensor& t) {
  g_sink = g_sink + static_cast<const char*>(t.raw())[0];
}

std::vector<Entry> build_entries() {
  std::vector<Entry> es;
  // GEMM at the issue's headline shape plus a larger one; f64 at a smaller
  // shape (gradcheck precision path, less hot).
  struct GemmShape { std::int64_t m, k, n; };
  static const Tensor ga = Tensor::uniform({512, 128}, 1, -1, 1);
  static const Tensor gb = Tensor::uniform({128, 256}, 2, -1, 1);
  es.push_back({"gemm_f32_512x128x256",
                [] { sink(ops::matmul(ga, gb)); }});
  static const Tensor ga2 = Tensor::uniform({1024, 256}, 3, -1, 1);
  static const Tensor gb2 = Tensor::uniform({256, 512}, 4, -1, 1);
  es.push_back({"gemm_f32_1024x256x512",
                [] { sink(ops::matmul(ga2, gb2)); }});
  static const Tensor ga3 =
      Tensor::uniform({256, 128}, 5, -1, 1, DType::kF64);
  static const Tensor gb3 =
      Tensor::uniform({128, 128}, 6, -1, 1, DType::kF64);
  es.push_back({"gemm_f64_256x128x128",
                [] { sink(ops::matmul(ga3, gb3)); }});

  // SpMM family on an ogbn-like MFG level: ~8k destination rows with
  // fanout-15 sampled in-degrees over ~24k sources, 128 features.
  static const Csr csr = make_csr(8192, 24576, 15, 7);
  static const Tensor sx = Tensor::uniform({24576, 128}, 8, -1, 1);
  static const Tensor sg = Tensor::uniform({8192, 128}, 9, -1, 1);
  es.push_back({"spmm_mean_fwd_8kx24k_f128", [] {
                  sink(ops::spmm_mean(csr.indptr, csr.indices, sx, 8192));
                }});
  es.push_back({"spmm_sum_fwd_8kx24k_f128", [] {
                  sink(ops::spmm_sum(csr.indptr, csr.indices, sx, 8192));
                }});
  es.push_back({"spmm_weighted_fwd_8kx24k_f128", [] {
                  sink(ops::spmm_weighted(csr.indptr, csr.indices,
                                          csr.weights, sx, 8192));
                }});
  es.push_back({"spmm_max_fwd_8kx24k_f128", [] {
                  sink(ops::spmm_max(csr.indptr, csr.indices, sx, 8192,
                                     nullptr));
                }});
  es.push_back({"spmm_mean_bwd_8kx24k_f128", [] {
                  sink(ops::spmm_mean_backward(csr.indptr, csr.indices, sg,
                                               24576));
                }});
  es.push_back({"spmm_sum_bwd_8kx24k_f128", [] {
                  sink(ops::spmm_sum_backward(csr.indptr, csr.indices, sg,
                                              24576));
                }});
  es.push_back({"spmm_weighted_bwd_8kx24k_f128", [] {
                  sink(ops::spmm_weighted_backward(csr.indptr, csr.indices,
                                                   csr.weights, sg, 24576));
                }});

  // Fused-epilogue Linear forward vs the unfused three-pass sequence at a
  // hidden-layer shape. check_gate() additionally enforces the fusion win
  // directly: the unfused over the fused single-thread time, interleaved
  // by measure_fusion(), must stay >= 1.3 (the bytes-moved analysis in
  // docs/PERFORMANCE.md predicts ~2x).
  static const Tensor lx = Tensor::uniform({4096, 64}, 16, -1, 1);
  static const Tensor lw = Tensor::uniform({256, 64}, 17, -1, 1);
  static const Tensor lbias = Tensor::uniform({256}, 18, -1, 1);
  es.push_back({"linear_unfused3_4096x64x256", [] {
                  Tensor h = ops::matmul(lx, lw, false, true);
                  Tensor hb = ops::add_row_broadcast(h, lbias);
                  sink(ops::relu(hb));
                }});
  es.push_back({"linear_fused_epi_4096x64x256", [] {
                  sink(ops::gemm_epilogue(lx, lw, lbias,
                                          ops::Epilogue::kBiasRelu, 0.0, 0,
                                          nullptr));
                }});

  // The layer-0 weight gradient of the e2e train workload, dW = gᵀx with
  // K = 25,995 rows: Aᵀ is packed straight from g and K is split into
  // fixed chunks across the pool.
  static const Tensor wg = Tensor::uniform({25995, 64}, 19, -1, 1);
  static const Tensor wx = Tensor::uniform({25995, 128}, 20, -1, 1);
  es.push_back({"gemm_f32_tA_64x25995x128",
                [] { sink(ops::matmul(wg, wx, true, false)); }});

  // A GraphSAGE conv with its ReLU/dropout tail on the SpMM entries' MFG
  // level, 128 -> 64 features: the unfused composition (two Linears, add,
  // ReLU, counter mask) against the fused one (one GEMM over K = 256 with
  // the tail in its store).
  static const Csr sage_csr = make_csr(8192, 24576, 15, 7);
  static const Tensor swl = Tensor::uniform({64, 128}, 21, -1, 1);
  static const Tensor swr = Tensor::uniform({64, 128}, 22, -1, 1);
  es.push_back({"sage_unfused_8kx24k_f128x64", [] {
                  Tensor agg = ops::spmm_mean(sage_csr.indptr,
                                              sage_csr.indices, sx, 8192);
                  Tensor h = ops::add(
                      ops::matmul(agg, swl, false, true),
                      ops::matmul(sx.narrow_rows(0, 8192), swr, false, true));
                  h = ops::relu(h);
                  sink(ops::mul(
                      h, ops::dropout_mask_counter(h.shape(), 0.5, 23)));
                }});
  es.push_back({"sage_fused_8kx24k_f128x64", [] {
                  Tensor agg = ops::spmm_mean(sage_csr.indptr,
                                              sage_csr.indices, sx, 8192);
                  sink(ops::gemm_epilogue_cat(
                      agg, swl, sx.narrow_rows(0, 8192), swr, Tensor(),
                      ops::Epilogue::kBiasReluDropout, 0.5, 23));
                }});

  // Compressed-feature GEMM: an f16 activation matrix against f32 weights.
  // The optimized kernel decompresses rows inside its packing stage; the
  // reference materializes the f32 matrix first, so the speedup ratio
  // tracks the dequantize-in-pack win.
  static const Tensor lx16 = lx.to(DType::kF16);
  es.push_back({"gemm_f16a_4096x64x256",
                [] { sink(ops::matmul(lx16, lw, false, true)); }});

  // Row indexing at batch-preparation scale.
  static const Tensor gi = [] {
    Xoshiro256ss rng(10);
    std::vector<std::int64_t> ids(20000);
    for (auto& v : ids) {
      v = static_cast<std::int64_t>(bounded_rand(rng, 24576));
    }
    return Tensor::from_vector<std::int64_t>(
        ids, {static_cast<std::int64_t>(ids.size())});
  }();
  es.push_back({"gather_rows_20kx128", [] { sink(ops::gather_rows(sx, gi)); }});
  static const Tensor scat_src = Tensor::uniform({20000, 128}, 11, -1, 1);
  es.push_back({"scatter_add_rows_20kx128", [] {
                  Tensor dst = Tensor::zeros({24576, 128}, DType::kF32);
                  ops::scatter_add_rows_(dst, gi, scat_src);
                  sink(dst);
                }});

  // Elementwise / reduction ops at hidden-activation scale.
  static const Tensor ea = Tensor::uniform({8192, 256}, 12, -1, 1);
  static const Tensor eb = Tensor::uniform({8192, 256}, 13, -1, 1);
  static const Tensor ebias = Tensor::uniform({256}, 14, -1, 1);
  es.push_back({"add_8kx256", [] { sink(ops::add(ea, eb)); }});
  es.push_back({"relu_8kx256", [] { sink(ops::relu(ea)); }});
  es.push_back({"axpy_8kx256", [] {
                  Tensor acc = ea.clone();
                  ops::axpy_(acc, eb, 0.9);
                  sink(acc);
                }});
  es.push_back({"add_row_broadcast_8kx256",
                [] { sink(ops::add_row_broadcast(ea, ebias)); }});
  es.push_back({"sum_rows_8kx256", [] { sink(ops::sum_rows(ea)); }});
  static const Tensor logits = Tensor::uniform({8192, 48}, 15, -4, 4);
  es.push_back({"log_softmax_rows_8kx48",
                [] { sink(ops::log_softmax_rows(logits)); }});
  es.push_back({"argmax_rows_8kx48", [] { sink(ops::argmax_rows(logits)); }});

  // Per-row int8 quantization at a feature-store width (products-sim rows
  // hold 100 features): the scalar reference loop against the vectorized
  // quantizer that builds the i8q wire store and runs in stage_feature_rows.
  static const Tensor qx = Tensor::uniform({16384, 100}, 19, -3, 3);
  es.push_back({"quantize_rows_16kx100", [] {
                  Tensor scale, zero;
                  sink(ops::quantize_rows(qx, &scale, &zero));
                }});
  return es;
}

/// Each entry's four timings, taken in one loop: each of `reps` rounds
/// times one rep under the reference kernels and one under the optimized
/// kernels at 1, 4 and 8 threads, and each keeps its minimum, so host drift
/// between timings taken seconds apart cannot move the speedup ratios.
std::vector<Measurement> measure(int reps) {
  ThreadPool p1(1), p4(4), p8(8);
  struct Setting {
    ops::KernelKind kind;
    ThreadPool* pool;
    double Measurement::*ms;
  };
  const Setting settings[] = {
      {ops::KernelKind::kRef, &p1, &Measurement::ref_ms},
      {ops::KernelKind::kOpt, &p1, &Measurement::opt1_ms},
      {ops::KernelKind::kOpt, &p4, &Measurement::opt4_ms},
      {ops::KernelKind::kOpt, &p8, &Measurement::opt8_ms},
  };
  auto use = [](const Setting& s) {
    ops::set_kernel_kind(s.kind);
    ops::set_kernel_pool(s.pool);
  };
  std::vector<Measurement> out;
  for (const Entry& e : build_entries()) {
    Measurement m;
    m.name = e.name;
    for (const Setting& s : settings) {
      use(s);
      e.run();  // warmup
      m.*s.ms = 1e300;
    }
    for (int r = 0; r < reps; ++r) {
      for (const Setting& s : settings) {
        use(s);
        m.*s.ms = std::min(m.*s.ms, time_ms(e.run));
      }
    }
    out.push_back(m);
    std::cerr << "  " << m.name << ": ref " << m.ref_ms << " ms, opt "
              << m.opt1_ms << " / " << m.opt4_ms << " / " << m.opt8_ms
              << " ms (1/4/8 thr) — speedup x" << m.speedup1() << " / x"
              << m.speedup4() << " / x" << m.speedup8() << "\n";
  }
  ops::set_kernel_pool(nullptr);
  ops::set_kernel_kind(ops::KernelKind::kOpt);
  return out;
}

/// The two timings of the fused-epilogue floor (single-thread optimized
/// kernels), taken in one loop: each of `reps` rounds times one unfused rep
/// and then one fused rep, and each side keeps its minimum, as measure()
/// does for each entry's four timings.
struct FusionTiming {
  double unfused_ms = 1e300, fused_ms = 1e300;
};

FusionTiming measure_fusion(int reps) {
  std::function<void()> unfused, fused;
  for (Entry& e : build_entries()) {
    if (e.name == "linear_unfused3_4096x64x256") unfused = std::move(e.run);
    if (e.name == "linear_fused_epi_4096x64x256") fused = std::move(e.run);
  }
  ThreadPool p1(1);
  ops::set_kernel_kind(ops::KernelKind::kOpt);
  ops::set_kernel_pool(&p1);
  unfused();  // warmup
  fused();
  FusionTiming t;
  for (int r = 0; r < reps; ++r) {
    t.unfused_ms = std::min(t.unfused_ms, time_ms(unfused));
    t.fused_ms = std::min(t.fused_ms, time_ms(fused));
  }
  ops::set_kernel_pool(nullptr);
  return t;
}

int emit(const std::vector<Measurement>& ms, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "bench_gate: cannot write " << path << "\n";
    return 1;
  }
  os << "{\n  \"schema\": \"salient-bench-kernels-v1\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Measurement& m = ms[i];
    os << "    {\"name\": \"" << m.name << "\", \"ref_ms\": " << m.ref_ms
       << ", \"opt1_ms\": " << m.opt1_ms << ", \"opt4_ms\": " << m.opt4_ms
       << ", \"opt8_ms\": " << m.opt8_ms
       << ", \"speedup1\": " << m.speedup1()
       << ", \"speedup4\": " << m.speedup4()
       << ", \"speedup8\": " << m.speedup8() << "}"
       << (i + 1 < ms.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cerr << "bench_gate: wrote " << path << " (" << ms.size()
            << " entries)\n";
  return 0;
}

int check_gate(const std::vector<Measurement>& ms, const FusionTiming& fusion,
               const std::string& path, double tolerance) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << "bench_gate: cannot open baseline " << path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << is.rdbuf();
  json::Value doc;
  std::string error;
  if (!json::parse(buf.str(), doc, error) || !doc.is_object()) {
    std::cerr << "bench_gate: baseline is not valid JSON: " << error << "\n";
    return 1;
  }
  const json::Value* entries = doc.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    std::cerr << "bench_gate: baseline lacks \"entries\" array\n";
    return 1;
  }
  int failures = 0;
  for (const Measurement& m : ms) {
    const json::Value* base = nullptr;
    for (const json::Value& e : entries->array) {
      const json::Value* n = e.is_object() ? e.find("name") : nullptr;
      if (n != nullptr && n->is_string() && n->string == m.name) {
        base = &e;
        break;
      }
    }
    if (base == nullptr) {
      std::cerr << "bench_gate: FAIL " << m.name
                << ": missing from baseline (refresh BENCH_kernels.json)\n";
      ++failures;
      continue;
    }
    struct Axis { const char* key; double measured; };
    const Axis axes[] = {{"speedup1", m.speedup1()},
                         {"speedup8", m.speedup8()}};
    for (const Axis& ax : axes) {
      const json::Value* b = base->find(ax.key);
      if (b == nullptr || !b->is_number()) continue;
      const double floor = b->number * tolerance;
      if (ax.measured < floor) {
        std::cerr << "bench_gate: FAIL " << m.name << " " << ax.key << " x"
                  << ax.measured << " < baseline x" << b->number
                  << " * tolerance " << tolerance << "\n";
        ++failures;
      }
    }
    // Absolute backstop, machine-independent: the optimized kernel must
    // never be more than 2x slower than the reference.
    if (m.speedup1() < 0.5) {
      std::cerr << "bench_gate: FAIL " << m.name
                << ": optimized kernel is >2x slower than reference (x"
                << m.speedup1() << ")\n";
      ++failures;
    }
  }
  // Explicit fusion gate (machine-independent, a ratio of two timings taken
  // on this machine in one interleaved loop): the fused bias+ReLU epilogue
  // must beat the unfused three-pass {matmul, add_row_broadcast, relu}
  // sequence by >= 1.3x on single-thread optimized timings.
  const double ratio = fusion.unfused_ms / fusion.fused_ms;
  constexpr double kFusionFloor = 1.3;
  if (ratio < kFusionFloor) {
    std::cerr << "bench_gate: FAIL fused epilogue win x" << ratio
              << " < required x" << kFusionFloor << " (unfused "
              << fusion.unfused_ms << " ms vs fused " << fusion.fused_ms
              << " ms)\n";
    ++failures;
  } else {
    std::cerr << "bench_gate: fused epilogue win x" << ratio << " (>= x"
              << kFusionFloor << ")\n";
  }
  if (failures != 0) {
    std::cerr << "bench_gate: " << failures << " regression(s)\n";
    return 1;
  }
  std::cout << "bench_gate: OK — " << ms.size()
            << " kernels within tolerance " << tolerance << " of baseline\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string emit_path, baseline_path;
  bool smoke = false;
  double tolerance = 0.35;
  bool tolerance_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--emit") == 0 && i + 1 < argc) {
      emit_path = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::atof(argv[++i]);
      tolerance_set = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::cerr << "usage: bench_gate (--emit out.json | --baseline in.json)"
                   " [--smoke] [--tolerance F]\n";
      return 1;
    }
  }
  if (emit_path.empty() == baseline_path.empty()) {
    std::cerr << "bench_gate: exactly one of --emit / --baseline required\n";
    return 1;
  }
  // Smoke mode trades repetitions for runtime and loosens the tolerance so
  // CI only trips on order-of-magnitude regressions.
  const int reps = smoke ? 3 : 7;
  if (smoke && !tolerance_set) tolerance = 0.25;
  std::cerr << "bench_gate: measuring (" << (smoke ? "smoke" : "full")
            << ", min of " << reps << ")\n";
  const std::vector<Measurement> ms = measure(reps);
  return emit_path.empty()
             ? check_gate(ms, measure_fusion(reps), baseline_path, tolerance)
             : emit(ms, emit_path);
}
