// Dense matrix multiply with runtime kernel selection.
//
// Stands in for the cuBLAS/ATen GEMMs that dominate the paper's GPU training
// phase. Two implementations live behind ops::matmul (see
// tensor/kernel_config.h):
//
//   * reference (SALIENT_KERNEL=ref) — the original cache-blocked i-k-j
//     loop, kept as the ground truth for A/B benchmarks and gradcheck;
//   * optimized (default) — a register-blocked microkernel over packed
//     panels (tensor/gemm_kernel.h). One blocked loop serves every operand
//     layout: transposed operands, two operands concatenated along K (the
//     fused GraphSAGE conv) and compressed rows are packed straight from
//     their source, so the hot loops stay unit-stride with no staging copy.
//     A GEMM of at least kGemmGrain multiply-adds runs as one dispatch on
//     the kernel pool, over MR-row panels of C — or, for a small output
//     with a long K (weight gradients), over fixed K chunks; smaller GEMMs
//     run on the calling thread.
//
// Determinism: each C element (or, under split-K, each chunk's partial of
// it) is accumulated by one thread in ascending-k order, and partials are
// summed in chunk order; the chunking depends on the shape alone. So the
// optimized result is bitwise identical across runs and pool sizes. It
// differs from the reference only by floating-point association (register
// tiling, K chunks), within a tight ULP bound (tests/test_kernels.cpp).
#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "tensor/gemm_kernel.h"
#include "tensor/kernel_config.h"
#include "tensor/ops.h"
#include "tensor/quantize.h"
#include "util/half.h"
#include "util/thread_pool.h"

namespace salient::ops {

namespace {

constexpr std::int64_t kBlockK = 128;
constexpr std::int64_t kBlockJ = 256;

/// Reference: C[M,N] += A[M,K] * B[K,N], all row-major contiguous.
template <typename T>
void gemm_ref(const T* a, const T* b, T* c, std::int64_t m, std::int64_t k,
              std::int64_t n) {
  auto body = [&](std::int64_t i_begin, std::int64_t i_end) {
    for (std::int64_t kk = 0; kk < k; kk += kBlockK) {
      const std::int64_t k_end = std::min(kk + kBlockK, k);
      for (std::int64_t jj = 0; jj < n; jj += kBlockJ) {
        const std::int64_t j_end = std::min(jj + kBlockJ, n);
        for (std::int64_t i = i_begin; i < i_end; ++i) {
          T* crow = c + i * n;
          const T* arow = a + i * k;
          for (std::int64_t p = kk; p < k_end; ++p) {
            const T av = arow[p];
            if (av == T(0)) continue;
            const T* brow = b + p * n;
            for (std::int64_t j = jj; j < j_end; ++j) {
              crow[j] += av * brow[j];
            }
          }
        }
      }
    }
  };
  // Parallelize across row blocks; small problems stay serial.
  if (m * n * k >= (1 << 20) && kernel_pool().size() > 1) {
    kernel_pool().parallel_for(0, m, body);
  } else {
    body(0, m);
  }
}

/// Inner-dimension block size for the optimized path: bounds one packed B
/// column panel to kKC * NR elements (32 KiB for f32 and f64 alike), small
/// enough to stay L1-resident while a thread sweeps its row panels.
constexpr std::int64_t kBlockKC = 256;

/// Row panels a thread packs and sweeps together: one k block of them is
/// kPanelsMC * kBlockKC * MR elements (96 KiB f32), which stays in L2 while
/// the thread walks every column panel against it.
constexpr std::int64_t kPanelsMC = 16;

/// Split-K: a GEMM with a small output (m·n <= kSplitKMaxOutput) and a
/// long inner dimension — the weight gradient dW = gᵀx, whose K is the
/// batch's row count — has too few row panels to occupy the pool. K is cut
/// into fixed chunks of kSplitKChunk (grown so there are at most
/// kSplitKMaxChunks), each accumulated by one thread into its own partial,
/// and the partials are summed in chunk order. The chunking depends on the
/// shape alone, so the result is bitwise equal across pool sizes and runs.
constexpr std::int64_t kSplitKChunk = 4 * kBlockKC;
constexpr std::int64_t kSplitKMaxChunks = 64;
constexpr std::int64_t kSplitKMaxOutput = std::int64_t{1} << 14;

/// Reused per-thread scratch, one buffer per Tag: a fresh allocation here
/// costs a page-fault storm on every call (the packing loops touch each page
/// exactly once), which at MFG sizes is a measurable slice of the whole
/// GEMM. new[] (not std::vector) so growth skips value-initialization —
/// packing overwrites every element. The calling thread's tags (kScratchB,
/// kScratchPartials) differ from the ones every executing thread uses
/// (kScratchA, kScratchSplitB), because the caller also runs a chunk; and
/// matmul never calls itself, so one buffer per tag and thread is safe.
enum ScratchTag { kScratchA, kScratchB, kScratchSplitB, kScratchPartials };

template <typename T, ScratchTag Tag>
T* scratch(std::int64_t want) {
  struct Buf {
    std::unique_ptr<T[]> p;
    std::int64_t cap = 0;
  };
  thread_local Buf buf;
  if (buf.cap < want) {
    buf.p.reset(new T[static_cast<std::size_t>(want)]);
    buf.cap = want;
  }
  return buf.p.get();
}

// --- panel packers -----------------------------------------------------------
//
// gemm_opt below reads its operands only through two packers:
//   pack_a(i0, h, k0, kc, dst) writes rows [i0, i0+h) of op(A), inner slice
//     [k0, k0+kc), as a [kc][MR] panel (rows past h zeroed);
//   pack_b(j0, w, k0, kc, dst) writes columns [j0, j0+w) of op(B) as a
//     [kc][NR] panel (columns past w zeroed).
// So transposed operands, two operands concatenated along K and compressed
// rows are all packed straight from their source, with no staging copy.

/// A from a row-major [M, K] matrix.
template <typename T>
struct ARows {
  const T* a;
  std::int64_t lda;
  void operator()(std::int64_t i0, std::int64_t h, std::int64_t k0,
                  std::int64_t kc, T* dst) const {
    detail::gemm_pack_a(a, lda, dst, i0, h, k0, kc);
  }
};

/// A = Sᵀ for a row-major [K, M] matrix S: each k step is a contiguous run.
template <typename T>
struct ARowsT {
  const T* a;
  std::int64_t lda;
  void operator()(std::int64_t i0, std::int64_t h, std::int64_t k0,
                  std::int64_t kc, T* dst) const {
    using detail::kGemmMR;
    for (std::int64_t p = 0; p < kc; ++p) {
      const T* src = a + (k0 + p) * lda + i0;
      T* d = dst + p * kGemmMR;
      for (std::int64_t r = 0; r < h; ++r) d[r] = src[r];
      for (std::int64_t r = h; r < kGemmMR; ++r) d[r] = T(0);
    }
  }
};

/// B from a row-major [K, N] matrix.
template <typename T>
struct BCols {
  const T* b;
  std::int64_t ldb;
  void operator()(std::int64_t j0, std::int64_t w, std::int64_t k0,
                  std::int64_t kc, T* dst) const {
    constexpr std::int64_t kNR = detail::kGemmNR<T>;
    for (std::int64_t p = 0; p < kc; ++p) {
      const T* src = b + (k0 + p) * ldb + j0;
      T* d = dst + p * kNR;
      for (std::int64_t c = 0; c < w; ++c) d[c] = src[c];
      for (std::int64_t c = w; c < kNR; ++c) d[c] = T(0);
    }
  }
};

/// B = Sᵀ for a row-major [N, K] matrix S (the nn::Linear weight layout).
template <typename T>
struct BColsT {
  const T* b;
  std::int64_t ldb;
  void operator()(std::int64_t j0, std::int64_t w, std::int64_t k0,
                  std::int64_t kc, T* dst) const {
    constexpr std::int64_t kNR = detail::kGemmNR<T>;
    for (std::int64_t c = 0; c < w; ++c) {
      const T* src = b + (j0 + c) * ldb + k0;
      for (std::int64_t p = 0; p < kc; ++p) dst[p * kNR + c] = src[p];
    }
    for (std::int64_t p = 0; p < kc; ++p) {
      for (std::int64_t c = w; c < kNR; ++c) dst[p * kNR + c] = T(0);
    }
  }
};

/// A from a row loader `void(row, k0, len, float* dst)` that decompresses a
/// contiguous run of a source row (f16 or i8q features): each row's
/// kc-long segment is decompressed contiguously (bulk converters want unit
/// stride), then the tiny tile is transposed into the panel layout.
template <typename RowFn>
struct ALoaded {
  RowFn row;
  void operator()(std::int64_t i0, std::int64_t h, std::int64_t k0,
                  std::int64_t kc, float* dst) const {
    using detail::kGemmMR;
    float stage[kGemmMR][kBlockKC];
    for (std::int64_t r = 0; r < h; ++r) row(i0 + r, k0, kc, stage[r]);
    for (std::int64_t p = 0; p < kc; ++p) {
      float* d = dst + p * kGemmMR;
      for (std::int64_t r = 0; r < h; ++r) d[r] = stage[r][p];
      for (std::int64_t r = h; r < kGemmMR; ++r) d[r] = 0.0f;
    }
  }
};

/// B from a row loader `void(k, j0, len, float* dst)`.
template <typename RowFn>
struct BLoaded {
  RowFn row;
  void operator()(std::int64_t j0, std::int64_t w, std::int64_t k0,
                  std::int64_t kc, float* dst) const {
    constexpr std::int64_t kNR = detail::kGemmNR<float>;
    for (std::int64_t p = 0; p < kc; ++p) {
      row(k0 + p, j0, w, dst + p * kNR);
      for (std::int64_t c = w; c < kNR; ++c) dst[p * kNR + c] = 0.0f;
    }
  }
};

/// The concatenation [lo | hi] along K: k < split packs from `lo`, and
/// k >= split from `hi` at k - split. kStride is the packed width of one k
/// step (MR for A panels, NR for B panels).
template <std::int64_t kStride, typename Lo, typename Hi>
struct ConcatK {
  Lo lo;
  Hi hi;
  std::int64_t split;
  template <typename T>
  void operator()(std::int64_t x0, std::int64_t len, std::int64_t k0,
                  std::int64_t kc, T* dst) const {
    const std::int64_t n_lo = std::clamp<std::int64_t>(split - k0, 0, kc);
    if (n_lo > 0) lo(x0, len, k0, n_lo, dst);
    if (n_lo < kc) {
      hi(x0, len, k0 + n_lo - split, kc - n_lo, dst + n_lo * kStride);
    }
  }
};

// --- the optimized GEMM --------------------------------------------------------

/// Split-K path of gemm_opt (see kSplitKChunk): one dispatch over the K
/// chunks; chunk 0 accumulates into C itself, chunk c > 0 into partial c,
/// and the partials are then added into C in chunk order on the caller.
template <typename T, typename PackA, typename PackB>
void gemm_split_k(std::int64_t m, std::int64_t k, std::int64_t n,
                  const PackA& pack_a, const PackB& pack_b, T* c) {
  using namespace detail;
  constexpr std::int64_t kNR = kGemmNR<T>;
  const std::int64_t panels = gemm_num_col_panels<T>(n);
  const std::int64_t row_panels = (m + kGemmMR - 1) / kGemmMR;
  std::int64_t chunk = kSplitKChunk;
  if (k > chunk * kSplitKMaxChunks) {
    const std::int64_t blocks = (k + kBlockKC - 1) / kBlockKC;
    chunk = (blocks + kSplitKMaxChunks - 1) / kSplitKMaxChunks * kBlockKC;
  }
  const std::int64_t chunks = (k + chunk - 1) / chunk;
  const std::int64_t mn = m * n;
  T* const partials = scratch<T, kScratchPartials>((chunks - 1) * mn);
  parallel_for_n(
      chunks, m * n * k,
      [&](std::int64_t cb, std::int64_t ce) {
        T* const a_packed =
            scratch<T, kScratchA>(row_panels * kBlockKC * kGemmMR);
        T* const b_packed =
            scratch<T, kScratchSplitB>(panels * kBlockKC * kNR);
        for (std::int64_t ch = cb; ch < ce; ++ch) {
          T* const dst = ch == 0 ? c : partials + (ch - 1) * mn;
          const std::int64_t k_lo = ch * chunk;
          const std::int64_t k_hi = std::min(k_lo + chunk, k);
          for (std::int64_t kk = k_lo; kk < k_hi; kk += kBlockKC) {
            const std::int64_t kc = std::min(kBlockKC, k_hi - kk);
            for (std::int64_t ip = 0; ip < row_panels; ++ip) {
              pack_a(ip * kGemmMR, std::min(kGemmMR, m - ip * kGemmMR), kk,
                     kc, a_packed + ip * kc * kGemmMR);
            }
            for (std::int64_t jp = 0; jp < panels; ++jp) {
              pack_b(jp * kNR, std::min(kNR, n - jp * kNR), kk, kc,
                     b_packed + jp * kc * kNR);
            }
            for (std::int64_t jp = 0; jp < panels; ++jp) {
              const std::int64_t j0 = jp * kNR;
              for (std::int64_t ip = 0; ip < row_panels; ++ip) {
                const std::int64_t i0 = ip * kGemmMR;
                gemm_microkernel(a_packed + ip * kc * kGemmMR,
                                 b_packed + jp * kc * kNR, kc, dst, n, i0,
                                 std::min(kGemmMR, m - i0), j0,
                                 std::min(kNR, n - j0), kk != k_lo);
              }
            }
          }
        }
      },
      GrainClass::kGemm);
  for (std::int64_t ch = 1; ch < chunks; ++ch) {
    const T* p = partials + (ch - 1) * mn;
    for (std::int64_t e = 0; e < mn; ++e) c[e] += p[e];
  }
}

/// Optimized GEMM: C[M,N] = op(A) op(B), packed panels + register-tiled
/// microkernel, one pool dispatch per call (none below the kGemm grain).
///
/// B is packed once, whole, on the caller. The dispatch then splits the
/// MR-row panels of C across threads; each thread takes its panels
/// kPanelsMC at a time and, for each kKC-deep k block, packs that group's A
/// panels and sweeps every column panel against them, GotoBLAS-style: the
/// 32 KiB B panel stays hot in L1 and the A group in L2. (The first cut of
/// this kernel had every row panel sweep all of packed B and was
/// L2-bandwidth-bound at ~20% of FMA peak.)
///
/// `epi`, when set, is applied by gemm_microkernel_epi to each tile in its
/// final k block — the epilogue must see the completed sum, so it runs once
/// per output element. GEMMs without one take the split-K path when their
/// shape qualifies.
///
/// Determinism: every C element belongs to one thread and accumulates its
/// k blocks in ascending order (ascending k within a block), so the result
/// is bitwise identical across runs and pool sizes.
template <typename T, typename PackA, typename PackB>
void gemm_opt(std::int64_t m, std::int64_t k, std::int64_t n,
              const PackA& pack_a, const PackB& pack_b, T* c,
              const detail::GemmEpilogue<T>* epi = nullptr) {
  using namespace detail;
  if (m == 0 || n == 0 || k == 0) return;
  if (epi == nullptr && m * n <= kSplitKMaxOutput &&
      k >= 2 * kSplitKChunk) {
    gemm_split_k(m, k, n, pack_a, pack_b, c);
    return;
  }
  constexpr std::int64_t kNR = kGemmNR<T>;
  const std::int64_t panels = gemm_num_col_panels<T>(n);
  const std::int64_t row_panels = (m + kGemmMR - 1) / kGemmMR;
  const std::int64_t kc_max = std::min(kBlockKC, k);
  const std::int64_t kblocks = (k + kBlockKC - 1) / kBlockKC;
  // Packed B: block kb, panel jp at (kb * panels + jp) * kc_max * NR.
  T* const b_packed = scratch<T, kScratchB>(kblocks * panels * kc_max * kNR);
  for (std::int64_t kb = 0; kb < kblocks; ++kb) {
    const std::int64_t kk = kb * kBlockKC;
    const std::int64_t kc = std::min(kBlockKC, k - kk);
    for (std::int64_t jp = 0; jp < panels; ++jp) {
      pack_b(jp * kNR, std::min(kNR, n - jp * kNR), kk, kc,
             b_packed + (kb * panels + jp) * kc_max * kNR);
    }
  }
  parallel_for_n(
      row_panels, m * n * k,
      [&](std::int64_t pb, std::int64_t pe) {
        T* const a_packed =
            scratch<T, kScratchA>(kPanelsMC * kc_max * kGemmMR);
        for (std::int64_t gb = pb; gb < pe; gb += kPanelsMC) {
          const std::int64_t ge = std::min(gb + kPanelsMC, pe);
          for (std::int64_t kb = 0; kb < kblocks; ++kb) {
            const std::int64_t kk = kb * kBlockKC;
            const std::int64_t kc = std::min(kBlockKC, k - kk);
            const bool epilogue = epi != nullptr && kk + kc == k;
            for (std::int64_t ip = gb; ip < ge; ++ip) {
              pack_a(ip * kGemmMR, std::min(kGemmMR, m - ip * kGemmMR), kk,
                     kc, a_packed + (ip - gb) * kc * kGemmMR);
            }
            for (std::int64_t jp = 0; jp < panels; ++jp) {
              const std::int64_t j0 = jp * kNR;
              const std::int64_t w = std::min(kNR, n - j0);
              const T* bp = b_packed + (kb * panels + jp) * kc_max * kNR;
              for (std::int64_t ip = gb; ip < ge; ++ip) {
                const std::int64_t i0 = ip * kGemmMR;
                const std::int64_t h = std::min(kGemmMR, m - i0);
                const T* ap = a_packed + (ip - gb) * kc * kGemmMR;
                if (epilogue) {
                  gemm_microkernel_epi(ap, bp, kc, c, n, i0, h, j0, w,
                                       kk != 0, *epi);
                } else {
                  gemm_microkernel(ap, bp, kc, c, n, i0, h, j0, w, kk != 0);
                }
              }
            }
          }
        }
      },
      GrainClass::kGemm);
}

/// Materialize the transpose of a row-major [r, c] matrix into out ([c, r]).
template <typename T>
void transpose_into(const T* src, T* out, std::int64_t r, std::int64_t c) {
  constexpr std::int64_t kTile = 32;
  for (std::int64_t ii = 0; ii < r; ii += kTile) {
    const std::int64_t i_end = std::min(ii + kTile, r);
    for (std::int64_t jj = 0; jj < c; jj += kTile) {
      const std::int64_t j_end = std::min(jj + kTile, c);
      for (std::int64_t i = ii; i < i_end; ++i) {
        for (std::int64_t j = jj; j < j_end; ++j) {
          out[j * r + i] = src[i * c + j];
        }
      }
    }
  }
}

/// Bulk-convert an f16 matrix to a freshly allocated f32 tensor (cold path:
/// the reference kernel and transposed mixed operands).
Tensor half_matrix_to_f32(const Tensor& a) {
  Tensor out(a.shape(), DType::kF32);
  half_to_float_n(a.data<Half>(), out.data<float>(),
                  static_cast<std::size_t>(a.numel()));
  return out;
}

/// Mixed f16/f32 matmul: either operand (or both) may be kF16; the result is
/// kF32. Untransposed f16 operands are decompressed inside the packing stage
/// (ALoaded / BLoaded); transposed ones (backward-pass shapes, not the
/// feature hot path) are materialized as transposed f32 copies first.
Tensor matmul_mixed(const Tensor& a, const Tensor& b, bool trans_a,
                    bool trans_b) {
  const std::int64_t m = trans_a ? a.size(1) : a.size(0);
  const std::int64_t k = trans_a ? a.size(0) : a.size(1);
  const std::int64_t kb = trans_b ? b.size(1) : b.size(0);
  const std::int64_t n = trans_b ? b.size(0) : b.size(1);
  if (k != kb) {
    throw std::runtime_error("matmul: inner dimension mismatch: " + a.str() +
                             " x " + b.str());
  }
  Tensor out({m, n}, DType::kF32);

  // Resolve each operand to either a raw f16 row source or an f32 one
  // (materializing a converted/transposed copy when needed).
  const Half* a16 = nullptr;
  const float* a32 = nullptr;
  std::vector<float> a_stage;
  if (a.dtype() == DType::kF16 && !trans_a) {
    a16 = a.data<Half>();
  } else {
    Tensor af = a.dtype() == DType::kF16 ? half_matrix_to_f32(a) : a;
    if (trans_a) {
      a_stage.resize(static_cast<std::size_t>(m) * k);
      transpose_into(af.data<float>(), a_stage.data(), a.size(0), a.size(1));
      a32 = a_stage.data();
    } else if (a.dtype() == DType::kF16) {
      a_stage.assign(af.data<float>(), af.data<float>() + af.numel());
      a32 = a_stage.data();
    } else {
      a32 = a.data<float>();
    }
  }
  const Half* b16 = nullptr;
  const float* b32 = nullptr;
  std::vector<float> b_stage;
  if (b.dtype() == DType::kF16 && !trans_b) {
    b16 = b.data<Half>();
  } else {
    Tensor bf = b.dtype() == DType::kF16 ? half_matrix_to_f32(b) : b;
    if (trans_b) {
      b_stage.resize(static_cast<std::size_t>(k) * n);
      transpose_into(bf.data<float>(), b_stage.data(), b.size(0), b.size(1));
      b32 = b_stage.data();
    } else if (b.dtype() == DType::kF16) {
      b_stage.assign(bf.data<float>(), bf.data<float>() + bf.numel());
      b32 = b_stage.data();
    } else {
      b32 = b.data<float>();
    }
  }

  if (kernel_kind() == KernelKind::kRef) {
    // Reference: materialize f32 copies and run the ground-truth loop.
    std::vector<float> a_ref, b_ref;
    const float* pa = a32;
    const float* pb = b32;
    if (a16 != nullptr) {
      a_ref.resize(static_cast<std::size_t>(m) * k);
      half_to_float_n(a16, a_ref.data(), a_ref.size());
      pa = a_ref.data();
    }
    if (b16 != nullptr) {
      b_ref.resize(static_cast<std::size_t>(k) * n);
      half_to_float_n(b16, b_ref.data(), b_ref.size());
      pb = b_ref.data();
    }
    gemm_ref(pa, pb, out.data<float>(), m, k, n);
    return out;
  }

  auto a_f32row = [a32, k](std::int64_t i, std::int64_t k0, std::int64_t len,
                           float* dst) {
    std::memcpy(dst, a32 + i * k + k0, static_cast<std::size_t>(len) *
                                           sizeof(float));
  };
  auto a_f16row = [a16, k](std::int64_t i, std::int64_t k0, std::int64_t len,
                           float* dst) {
    half_to_float_n(a16 + i * k + k0, dst, static_cast<std::size_t>(len));
  };
  auto b_f32row = [b32, n](std::int64_t p, std::int64_t j0, std::int64_t len,
                           float* dst) {
    std::memcpy(dst, b32 + p * n + j0, static_cast<std::size_t>(len) *
                                           sizeof(float));
  };
  auto b_f16row = [b16, n](std::int64_t p, std::int64_t j0, std::int64_t len,
                           float* dst) {
    half_to_float_n(b16 + p * n + j0, dst, static_cast<std::size_t>(len));
  };
  float* c = out.data<float>();
  if (a16 != nullptr && b16 != nullptr) {
    gemm_opt(m, k, n, ALoaded{a_f16row}, BLoaded{b_f16row}, c);
  } else if (a16 != nullptr) {
    gemm_opt(m, k, n, ALoaded{a_f16row}, BLoaded{b_f32row}, c);
  } else if (b16 != nullptr) {
    gemm_opt(m, k, n, ALoaded{a_f32row}, BLoaded{b_f16row}, c);
  } else {
    gemm_opt(m, k, n, ALoaded{a_f32row}, BLoaded{b_f32row}, c);
  }
  return out;
}

template <typename T>
Tensor matmul_typed(const Tensor& a, const Tensor& b, bool trans_a,
                    bool trans_b) {
  const std::int64_t m = trans_a ? a.size(1) : a.size(0);
  const std::int64_t k = trans_a ? a.size(0) : a.size(1);
  const std::int64_t kb = trans_b ? b.size(1) : b.size(0);
  const std::int64_t n = trans_b ? b.size(0) : b.size(1);
  if (k != kb) {
    throw std::runtime_error("matmul: inner dimension mismatch: " + a.str() +
                             " x " + b.str());
  }
  Tensor out({m, n}, a.dtype());
  const T* pa = a.data<T>();
  const T* pb = b.data<T>();
  T* pc = out.data<T>();
  if (kernel_kind() == KernelKind::kRef) {
    std::vector<T> at, bt;
    if (trans_a) {
      at.resize(static_cast<std::size_t>(m) * k);
      transpose_into(pa, at.data(), a.size(0), a.size(1));
      pa = at.data();
    }
    if (trans_b) {
      bt.resize(static_cast<std::size_t>(k) * n);
      transpose_into(pb, bt.data(), b.size(0), b.size(1));
      pb = bt.data();
    }
    gemm_ref(pa, pb, pc, m, k, n);
    return out;
  }
  // Each operand layout is packed straight from its source.
  const std::int64_t lda = a.size(1), ldb = b.size(1);
  if (trans_a && trans_b) {
    gemm_opt(m, k, n, ARowsT<T>{pa, lda}, BColsT<T>{pb, ldb}, pc);
  } else if (trans_a) {
    gemm_opt(m, k, n, ARowsT<T>{pa, lda}, BCols<T>{pb, ldb}, pc);
  } else if (trans_b) {
    gemm_opt(m, k, n, ARows<T>{pa, lda}, BColsT<T>{pb, ldb}, pc);
  } else {
    gemm_opt(m, k, n, ARows<T>{pa, lda}, BCols<T>{pb, ldb}, pc);
  }
  return out;
}

/// y = epilogue(x0 w0ᵀ + x1 w1ᵀ) as one GEMM over K = K0 + K1 (x1/w1 null:
/// the one-operand Linear). The optimized path packs A from [x0 | x1] and B
/// from [w0 | w1]ᵀ through ConcatK, so no concatenated copy is made.
template <typename T>
Tensor gemm_epilogue_typed(const Tensor& x0, const Tensor& w0,
                           const Tensor* x1, const Tensor* w1,
                           const Tensor& bias, Epilogue ep, double dropout_p,
                           std::uint64_t seed, Tensor* mask_out) {
  const std::int64_t m = x0.size(0), k0 = x0.size(1), n = w0.size(0);
  const std::int64_t k1 = x1 != nullptr ? x1->size(1) : 0;
  const std::int64_t k = k0 + k1;
  if (w0.size(1) != k0 ||
      (x1 != nullptr &&
       (x1->size(0) != m || w1->size(0) != n || w1->size(1) != k1))) {
    throw std::runtime_error("gemm_epilogue: inner dimension mismatch: " +
                             x0.str() + " x " + w0.str() + "^T");
  }
  if (ep == Epilogue::kBias && !bias.defined()) {
    throw std::runtime_error("gemm_epilogue: kBias needs a bias");
  }
  const bool has_bias = ep != Epilogue::kNone && bias.defined();
  if (has_bias &&
      (bias.dim() != 1 || bias.size(0) != n || bias.dtype() != x0.dtype())) {
    throw std::runtime_error("gemm_epilogue: bias must be [N] of x's dtype");
  }
  if (ep == Epilogue::kBiasReluDropout && (dropout_p < 0 || dropout_p >= 1)) {
    throw std::invalid_argument("gemm_epilogue: bad dropout_p");
  }
  Tensor out({m, n}, x0.dtype());
  T* pmask = nullptr;
  if (mask_out != nullptr &&
      (ep == Epilogue::kBiasRelu || ep == Epilogue::kBiasReluDropout)) {
    *mask_out = Tensor({m, n}, x0.dtype());
    pmask = mask_out->data<T>();
  }
  detail::GemmEpilogue<T> epi;
  epi.kind = ep;
  epi.bias = has_bias ? bias.data<T>() : nullptr;
  epi.mask = pmask;
  epi.n = n;
  if (ep == Epilogue::kBiasReluDropout) {
    epi.keep_scale = static_cast<T>(1.0 / (1.0 - dropout_p));
    epi.seed = seed;
    epi.drop_threshold = dropout_drop_threshold(dropout_p);
  }
  T* pc = out.data<T>();

  if (kernel_kind() == KernelKind::kRef) {
    // Reference: materialize [x0 | x1] and [w0 | w1]ᵀ, run the ground-truth
    // GEMM, then the same epilogue math in one serial elementwise pass (the
    // branch-select forms mirror gemm_microkernel_epi so ref and opt differ
    // only by GEMM association).
    const Tensor xc = x1 != nullptr ? concat_cols({x0, *x1}) : x0;
    const Tensor wc = w1 != nullptr ? concat_cols({w0, *w1}) : w0;
    std::vector<T> wt(static_cast<std::size_t>(k) * n);
    transpose_into(wc.data<T>(), wt.data(), n, k);
    gemm_ref(xc.data<T>(), wt.data(), pc, m, k, n);
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        T pre = pc[i * n + j];
        if (has_bias) pre += epi.bias[j];
        switch (ep) {
          case Epilogue::kNone:
          case Epilogue::kBias:
            pc[i * n + j] = pre;
            break;
          case Epilogue::kBiasRelu: {
            const bool pos = pre > T(0);
            pc[i * n + j] = pos ? pre : T(0);
            if (pmask != nullptr) pmask[i * n + j] = pos ? T(1) : T(0);
            break;
          }
          case Epilogue::kBiasReluDropout: {
            const bool keep =
                dropout_keep(epi.seed, i * n + j, epi.drop_threshold);
            const bool pos = pre > T(0);
            pc[i * n + j] = pos && keep ? pre * epi.keep_scale : T(0);
            if (pmask != nullptr) {
              pmask[i * n + j] = pos && keep ? epi.keep_scale : T(0);
            }
            break;
          }
        }
      }
    }
    return out;
  }
  const detail::GemmEpilogue<T>* pepi =
      ep == Epilogue::kNone ? nullptr : &epi;
  const ARows<T> a0{x0.data<T>(), k0};
  const BColsT<T> b0{w0.data<T>(), k0};
  if (x1 == nullptr) {
    gemm_opt(m, k, n, a0, b0, pc, pepi);
  } else {
    using namespace detail;
    gemm_opt(m, k, n,
             ConcatK<kGemmMR, ARows<T>, ARows<T>>{
                 a0, ARows<T>{x1->data<T>(), k1}, k0},
             ConcatK<kGemmNR<T>, BColsT<T>, BColsT<T>>{
                 b0, BColsT<T>{w1->data<T>(), k1}, k0},
             pc, pepi);
  }
  return out;
}

}  // namespace

Tensor gemm_epilogue(const Tensor& x, const Tensor& w, const Tensor& bias,
                     Epilogue epilogue, double dropout_p, std::uint64_t seed,
                     Tensor* mask_out) {
  if (x.dim() != 2 || w.dim() != 2) {
    throw std::runtime_error("gemm_epilogue: x and w must be 2-D");
  }
  if (x.dtype() != w.dtype()) {
    throw std::runtime_error("gemm_epilogue: dtype mismatch");
  }
  switch (x.dtype()) {
    case DType::kF32:
      return gemm_epilogue_typed<float>(x, w, nullptr, nullptr, bias,
                                        epilogue, dropout_p, seed, mask_out);
    case DType::kF64:
      return gemm_epilogue_typed<double>(x, w, nullptr, nullptr, bias,
                                         epilogue, dropout_p, seed, mask_out);
    default:
      throw std::runtime_error("gemm_epilogue: float tensor required");
  }
}

Tensor gemm_epilogue_cat(const Tensor& x0, const Tensor& w0, const Tensor& x1,
                         const Tensor& w1, const Tensor& bias,
                         Epilogue epilogue, double dropout_p,
                         std::uint64_t seed) {
  for (const Tensor* t : {&x0, &w0, &x1, &w1}) {
    if (t->dim() != 2) {
      throw std::runtime_error("gemm_epilogue_cat: operands must be 2-D");
    }
    if (t->dtype() != x0.dtype()) {
      throw std::runtime_error("gemm_epilogue_cat: dtype mismatch");
    }
  }
  switch (x0.dtype()) {
    case DType::kF32:
      return gemm_epilogue_typed<float>(x0, w0, &x1, &w1, bias, epilogue,
                                        dropout_p, seed, nullptr);
    case DType::kF64:
      return gemm_epilogue_typed<double>(x0, w0, &x1, &w1, bias, epilogue,
                                         dropout_p, seed, nullptr);
    default:
      throw std::runtime_error("gemm_epilogue_cat: float tensor required");
  }
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  if (a.dim() != 2 || b.dim() != 2) {
    throw std::runtime_error("matmul: both operands must be 2-D");
  }
  // Mixed precision: any combination of f16/f32 operands runs through the
  // decompress-in-pack path and yields f32 (the first-layer GEMM over a
  // half-precision feature batch, plus its backward shapes).
  const bool a_half = a.dtype() == DType::kF16;
  const bool b_half = b.dtype() == DType::kF16;
  if ((a_half || b_half) &&
      (a_half || a.dtype() == DType::kF32) &&
      (b_half || b.dtype() == DType::kF32)) {
    return matmul_mixed(a, b, trans_a, trans_b);
  }
  if (a.dtype() != b.dtype()) {
    throw std::runtime_error("matmul: dtype mismatch");
  }
  switch (a.dtype()) {
    case DType::kF32:
      return matmul_typed<float>(a, b, trans_a, trans_b);
    case DType::kF64:
      return matmul_typed<double>(a, b, trans_a, trans_b);
    default:
      throw std::runtime_error("matmul: float tensor required");
  }
}

Tensor matmul_compressed(const Tensor& a, const Tensor& a_scale,
                         const Tensor& a_zero, const Tensor& b, bool trans_b) {
  if (a.dim() != 2 || b.dim() != 2) {
    throw std::runtime_error("matmul_compressed: operands must be 2-D");
  }
  if (a.dtype() != DType::kInt8Q) {
    throw std::runtime_error("matmul_compressed: a must be i8q");
  }
  if (b.dtype() != DType::kF32) {
    throw std::runtime_error("matmul_compressed: b must be f32");
  }
  const std::int64_t m = a.size(0);
  const std::int64_t k = a.size(1);
  if (a_scale.dtype() != DType::kF32 || a_zero.dtype() != DType::kF32 ||
      a_scale.numel() != m || a_zero.numel() != m) {
    throw std::runtime_error(
        "matmul_compressed: a_scale/a_zero must be [M] f32");
  }
  const std::int64_t kb = trans_b ? b.size(1) : b.size(0);
  const std::int64_t n = trans_b ? b.size(0) : b.size(1);
  if (k != kb) {
    throw std::runtime_error("matmul_compressed: inner dimension mismatch: " +
                             a.str() + " x " + b.str());
  }
  if (kernel_kind() == KernelKind::kRef) {
    // Reference path: reconstruct the f32 matrix and reuse the ground-truth
    // pipeline (mixed matmul ref falls through to gemm_ref).
    return matmul(dequantize_rows(a, a_scale, a_zero), b, false, trans_b);
  }
  Tensor out({m, n}, DType::kF32);
  const std::int8_t* qa = a.data<std::int8_t>();
  const float* scales = a_scale.data<float>();
  const float* zeros = a_zero.data<float>();
  auto a_qrow = [qa, scales, zeros, k](std::int64_t i, std::int64_t k0,
                                       std::int64_t len, float* dst) {
    dequantize_row(qa + i * k + k0, len, scales[i], zeros[i], dst);
  };
  const ALoaded<decltype(a_qrow)> pack_a{a_qrow};
  float* pc = out.data<float>();
  if (trans_b) {
    gemm_opt(m, k, n, pack_a, BColsT<float>{b.data<float>(), k}, pc);
  } else {
    gemm_opt(m, k, n, pack_a, BCols<float>{b.data<float>(), n}, pc);
  }
  return out;
}

}  // namespace salient::ops
