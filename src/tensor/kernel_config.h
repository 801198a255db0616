// Runtime configuration for the CPU kernel layer (tensor/ops.cpp,
// tensor/matmul.cpp).
//
// Two kernel implementations live behind the ops:: API:
//   * kRef — the straightforward serial loops the repo started with. They
//     are the ground truth for A/B testing and gradient checking.
//   * kOpt — vectorization-friendly, thread-pool-parallel kernels (packed
//     GEMM microkernel, destination-row-block SpMM, parallel elementwise).
//
// The optimized kernels are *bitwise deterministic*: every output element is
// accumulated by exactly one thread in a fixed order that does not depend on
// the pool size, so results are identical across runs and worker counts
// (tests/test_chaos.cpp and tests/test_kernels.cpp assert this). For the
// SpMM/elementwise family the fixed order matches the reference order, so
// kRef and kOpt agree bitwise; GEMM uses a different (register-tiled)
// accumulation order and agrees within a tight ULP bound instead.
//
// Selection: the SALIENT_KERNEL environment variable ("ref" or "opt", read
// once at first use, default "opt") or set_kernel_kind() from code. Tests
// and benchmarks can also redirect the kernels onto a private pool with
// set_kernel_pool() to measure scaling at fixed worker counts.
#pragma once

#include <cstdint>

#include "util/thread_pool.h"

namespace salient::ops {

enum class KernelKind {
  kRef,  ///< serial reference loops
  kOpt,  ///< vectorized + parallel kernels
};

/// Active kernel implementation. First call reads SALIENT_KERNEL ("ref"
/// selects the reference path; anything else, including unset, selects the
/// optimized path).
KernelKind kernel_kind();

/// Override the kernel selection (benchmarks/tests; not thread-safe with
/// concurrently running kernels).
void set_kernel_kind(KernelKind kind);

/// Pool the optimized kernels run on. Defaults to ThreadPool::global().
ThreadPool& kernel_pool();

/// Redirect kernels onto `pool` (nullptr restores the global pool). The
/// caller keeps ownership and must keep the pool alive while kernels run.
void set_kernel_pool(ThreadPool* pool);

/// Shared cost heuristic: one threshold below which every kernel stays
/// serial so small serve-path tensors never pay pool-dispatch latency.
/// `work` is the total number of scalar operations (≈ elements touched).
inline constexpr std::int64_t kParallelGrain = 1 << 14;

/// Per-op grain classes: kernels declare which cost regime they are in and
/// the table below picks the serial/parallel threshold.
///
///   * kCompute — FLOP-bound (GEMM, SpMM forward, softmax): each loaded byte
///     feeds multiple arithmetic ops, so extra threads buy real speedup as
///     soon as the range clears the dispatch cost (kParallelGrain).
///   * kMemoryBound — pure data movement or one-flop-per-byte streams
///     (gather/scatter rows, SpMM backward scatter, large elementwise). A
///     single core already saturates most of the sustainable memory
///     bandwidth on these, so splitting the range mostly adds dispatch +
///     cache-line handoff overhead — the BENCH_kernels ×8 regressions
///     (gather_rows 0.89x, scatter_add_rows 0.78x, spmm_*_bwd 0.76–0.84x)
///     were exactly this. Such ops stay serial until the range is large
///     enough (kMemoryBoundGrain) that per-thread streams are long enough to
///     amortize the handoff and win on multi-channel machines.
enum class GrainClass {
  kCompute,      ///< FLOP-bound: parallelize above kParallelGrain
  kMemoryBound,  ///< bandwidth-bound: parallelize above kMemoryBoundGrain
  kGemm,         ///< one GEMM call, work = m·n·k: parallel above kGemmGrain
};

/// Threshold (total elements touched) for GrainClass::kMemoryBound ops. 2^24
/// elements ≈ 64 MB of f32 traffic — well past L2/LLC, where splitting
/// across cores can actually add memory channels instead of just contending
/// for one prefetch stream. Training-batch-sized gathers/scatters (a few
/// million elements) stay serial.
inline constexpr std::int64_t kMemoryBoundGrain = 1 << 24;

/// Threshold (multiply-adds, m·n·k) for GrainClass::kGemm: a GEMM below it
/// runs on the calling thread, decided once per call. 2^25 sits between the
/// crossover points `bench_gate --smoke` measures on a 4-core host: at 2^22
/// (gemm_f64_256x128x128) and 2^24 (gemm_f32_512x128x256) multiply-adds
/// the 4-thread pool lost to one thread (0.23 vs 0.17 ms, 0.42 vs 0.35 ms),
/// while the training shapes above 2^25 (GraphSAGE's layer-0 GEMMs, 2^27
/// and up) gain from it. Every serve micro-batch GEMM stays serial.
inline constexpr std::int64_t kGemmGrain = std::int64_t{1} << 25;

/// True when `work` clears the grain and the kernel pool has >1 worker.
bool use_parallel(std::int64_t work);

/// Grain-table overload: `work` is compared against the class threshold.
bool use_parallel(std::int64_t work, GrainClass cls);

/// Minimum *output columns* for column-decomposed reductions (sum_rows) to
/// parallelize. Those kernels split the output vector across threads and
/// sweep every input row, so a narrow output (e.g. 256 floats = 16 cache
/// lines shared by 8 threads over thousands of row passes) false-shares its
/// way to a slowdown regardless of total work — the BENCH_kernels
/// sum_rows_8kx256 regression. Below this width the reduction runs serial;
/// above it each thread owns >= ~2 KB of the output and sharing is confined
/// to block boundaries.
inline constexpr std::int64_t kReduceColumnGrain = 4096;

/// Run fn over [0, n) — chunked on the kernel pool when `work` clears the
/// cost heuristic, serially otherwise. fn receives (begin, end). fn must be
/// safe to run from pool workers and must write disjoint outputs per index
/// so results stay deterministic under any chunking.
template <typename Fn>
void parallel_for_n(std::int64_t n, std::int64_t work, const Fn& fn,
                    GrainClass cls = GrainClass::kCompute) {
  if (n <= 0) return;
  if (use_parallel(work, cls)) {
    kernel_pool().parallel_for(0, n, fn);
  } else {
    fn(0, n);
  }
}

}  // namespace salient::ops
