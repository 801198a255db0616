// Register-blocked GEMM microkernel over packed panels.
//
// The optimized matmul path (tensor/matmul.cpp) computes C[M,N] = A[M,K] *
// B[K,N] as a grid of MR×NR register tiles, GotoBLAS-style:
//
//   * B is packed once into NR-wide column panels, laid out so the inner
//     loop reads NR contiguous values per k step (unit stride, zero-padded
//     at the right edge);
//   * each row panel of A (MR rows) is packed into [k][MR] order so the k
//     loop reads MR contiguous values per step;
//   * the microkernel keeps an MR×NR accumulator block in registers and
//     walks k start-to-finish with a single fused multiply-add per element.
//
// On GCC/Clang the accumulators are explicit vector-extension values sized
// to exactly one machine vector register (64 bytes under AVX-512, 32 under
// AVX, 16 otherwise), two per tile row — so NR depends on the element type:
// 2 × (register bytes / sizeof(T)) lanes. Oversized vector types or plain
// `T acc[MR][NR]` arrays both get lowered to stack memory by GCC, turning
// every k step into a store/reload chain; one-register vectors held in
// named locals are what actually pins the accumulator block in registers.
// The k loop is branch-free (unlike the reference kernel's `if (a == 0)
// continue;`): per k step it is MR broadcasts and 2·MR FMAs — twelve
// independent FMA chains, enough to cover FMA latency on two-port cores
// (chains >= latency x ports with slack; eight chains measurably stall).
// Other compilers fall back to a plain-array form of the same computation.
//
// Each output element has exactly one accumulator walked in ascending-k
// order, so results are bitwise deterministic regardless of how row panels
// are distributed across threads — the property tests/test_kernels.cpp
// locks in. Lanes are independent accumulators, so the vector and fallback
// forms also agree bitwise with each other.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "tensor/epilogue.h"

#if defined(__GNUC__) || defined(__clang__)
#define SALIENT_GEMM_VECTOR_EXT 1
#endif

namespace salient::ops::detail {

inline constexpr std::int64_t kGemmMR = 6;  ///< rows per register tile

/// Bytes in one machine vector register (the only width GCC reliably keeps
/// in registers for vector-extension values).
#if defined(__AVX512F__)
inline constexpr std::int64_t kGemmVecBytes = 64;
#elif defined(__AVX__)
inline constexpr std::int64_t kGemmVecBytes = 32;
#else
inline constexpr std::int64_t kGemmVecBytes = 16;
#endif

/// Lanes of T per machine vector.
template <typename T>
inline constexpr std::int64_t kGemmLanes =
    kGemmVecBytes / static_cast<std::int64_t>(sizeof(T));

/// Columns per register tile: two machine vectors per tile row.
template <typename T>
inline constexpr std::int64_t kGemmNR = 2 * kGemmLanes<T>;

/// Number of NR-wide column panels covering n columns.
template <typename T>
inline std::int64_t gemm_num_col_panels(std::int64_t n) {
  return (n + kGemmNR<T> - 1) / kGemmNR<T>;
}

/// Pack rows [i0, i0+h), inner-dim slice [k0, k0+kc) of row-major A[M,lda]
/// into [kc][MR] order (columns of the panel are the h rows, zero-padded up
/// to MR). `packed` holds kc * MR.
template <typename T>
void gemm_pack_a(const T* a, std::int64_t lda, T* packed, std::int64_t i0,
                 std::int64_t h, std::int64_t k0, std::int64_t kc) {
  for (std::int64_t p = 0; p < kc; ++p) {
    T* dst = packed + p * kGemmMR;
    for (std::int64_t r = 0; r < h; ++r) dst[r] = a[(i0 + r) * lda + k0 + p];
    for (std::int64_t r = h; r < kGemmMR; ++r) dst[r] = T(0);
  }
}

#ifdef SALIENT_GEMM_VECTOR_EXT
/// One machine vector of T.
template <typename T>
struct GemmVec;
template <>
struct GemmVec<float> {
  typedef float type __attribute__((vector_size(kGemmVecBytes)));
};
template <>
struct GemmVec<double> {
  typedef double type __attribute__((vector_size(kGemmVecBytes)));
};
#endif

/// C-tile (+)= packed-A-panel * packed-B-panel for one MR×NR tile.
/// `ap` is [k][MR], `bp` is [k][NR]; the tile is accumulated in registers
/// and written to C rows [i0, i0+h), columns [j0, j0+w) — added when
/// `accumulate` (later k blocks), stored when not (first k block, which
/// saves re-reading C).
template <typename T>
void gemm_microkernel(const T* ap, const T* bp, std::int64_t k, T* c,
                      std::int64_t ldc, std::int64_t i0, std::int64_t h,
                      std::int64_t j0, std::int64_t w, bool accumulate) {
  static_assert(kGemmMR == 6, "microkernel unrolls exactly six tile rows");
  constexpr std::int64_t NR = kGemmNR<T>;
  T tile[kGemmMR][NR];
#ifdef SALIENT_GEMM_VECTOR_EXT
  constexpr std::int64_t L = kGemmLanes<T>;
  using V = typename GemmVec<T>::type;
  V a00{}, a01{}, a10{}, a11{}, a20{}, a21{}, a30{}, a31{}, a40{}, a41{},
      a50{}, a51{};
  for (std::int64_t p = 0; p < k; ++p) {
    V b0, b1;
    std::memcpy(&b0, bp + p * NR, sizeof(V));  // unaligned vector loads
    std::memcpy(&b1, bp + p * NR + L, sizeof(V));
    const T* arow = ap + p * kGemmMR;
    a00 += arow[0] * b0;
    a01 += arow[0] * b1;
    a10 += arow[1] * b0;
    a11 += arow[1] * b1;
    a20 += arow[2] * b0;
    a21 += arow[2] * b1;
    a30 += arow[3] * b0;
    a31 += arow[3] * b1;
    a40 += arow[4] * b0;
    a41 += arow[4] * b1;
    a50 += arow[5] * b0;
    a51 += arow[5] * b1;
  }
  if (h == kGemmMR && w == NR) {
    // Full tile: write the accumulators straight to C, skipping the
    // stack-staging round trip below.
    V* const accs[kGemmMR][2] = {{&a00, &a01}, {&a10, &a11}, {&a20, &a21},
                                 {&a30, &a31}, {&a40, &a41}, {&a50, &a51}};
    for (std::int64_t r = 0; r < kGemmMR; ++r) {
      T* crow = c + (i0 + r) * ldc + j0;
      if (accumulate) {
        V c0, c1;
        std::memcpy(&c0, crow, sizeof(V));
        std::memcpy(&c1, crow + L, sizeof(V));
        c0 += *accs[r][0];
        c1 += *accs[r][1];
        std::memcpy(crow, &c0, sizeof(V));
        std::memcpy(crow + L, &c1, sizeof(V));
      } else {
        std::memcpy(crow, accs[r][0], sizeof(V));
        std::memcpy(crow + L, accs[r][1], sizeof(V));
      }
    }
    return;
  }
  std::memcpy(&tile[0][0], &a00, sizeof(V));
  std::memcpy(&tile[0][L], &a01, sizeof(V));
  std::memcpy(&tile[1][0], &a10, sizeof(V));
  std::memcpy(&tile[1][L], &a11, sizeof(V));
  std::memcpy(&tile[2][0], &a20, sizeof(V));
  std::memcpy(&tile[2][L], &a21, sizeof(V));
  std::memcpy(&tile[3][0], &a30, sizeof(V));
  std::memcpy(&tile[3][L], &a31, sizeof(V));
  std::memcpy(&tile[4][0], &a40, sizeof(V));
  std::memcpy(&tile[4][L], &a41, sizeof(V));
  std::memcpy(&tile[5][0], &a50, sizeof(V));
  std::memcpy(&tile[5][L], &a51, sizeof(V));
#else
  T acc[kGemmMR][NR] = {};
  for (std::int64_t p = 0; p < k; ++p) {
    const T* arow = ap + p * kGemmMR;
    const T* brow = bp + p * NR;
    for (std::int64_t r = 0; r < kGemmMR; ++r) {
      const T av = arow[r];
      for (std::int64_t cix = 0; cix < NR; ++cix) {
        acc[r][cix] += av * brow[cix];
      }
    }
  }
  std::memcpy(tile, acc, sizeof(tile));
#endif
  for (std::int64_t r = 0; r < h; ++r) {
    T* crow = c + (i0 + r) * ldc + j0;
    if (accumulate) {
      if (w == NR) {
        for (std::int64_t cix = 0; cix < NR; ++cix) crow[cix] += tile[r][cix];
      } else {
        for (std::int64_t cix = 0; cix < w; ++cix) crow[cix] += tile[r][cix];
      }
    } else {
      if (w == NR) {
        for (std::int64_t cix = 0; cix < NR; ++cix) crow[cix] = tile[r][cix];
      } else {
        for (std::int64_t cix = 0; cix < w; ++cix) crow[cix] = tile[r][cix];
      }
    }
  }
}

/// Runtime parameters for the fused store-phase epilogue
/// (tensor/epilogue.h). Bound once per GEMM call; the microkernel indexes
/// `bias` by absolute output column and `mask` by absolute flat element
/// index, so results do not depend on tile traversal order.
template <typename T>
struct GemmEpilogue {
  Epilogue kind = Epilogue::kNone;
  const T* bias = nullptr;  ///< [n] bias row; null = bias-free activation
  T* mask = nullptr;        ///< optional [m*n] d y/d pre (kBiasRelu and up)
  T keep_scale = T(1);      ///< 1/(1-p) inverted-dropout scale
  std::uint64_t seed = 0;   ///< dropout decision seed
  std::uint64_t drop_threshold = 0;  ///< dropout_drop_threshold(p)
  std::int64_t n = 0;       ///< output columns (flat-index stride)
};

/// Same accumulation as gemm_microkernel (identical ascending-k register
/// tiling, so fused and unfused outputs are bitwise equal given equal
/// inputs), but the store phase applies a fused epilogue: the finished tile
/// (plus prior-k-block partials from C when `accumulate`) gets bias, ReLU
/// and counter-based dropout applied in one pass while it is still on-core,
/// and the combined backward mask streams out alongside. Called only for a
/// GEMM's final k block; earlier blocks use the plain microkernel. A
/// separate function (not a flag on gemm_microkernel) so the plain kernel's
/// store phase stays branch-free.
template <typename T>
void gemm_microkernel_epi(const T* ap, const T* bp, std::int64_t k, T* c,
                          std::int64_t ldc, std::int64_t i0, std::int64_t h,
                          std::int64_t j0, std::int64_t w, bool accumulate,
                          const GemmEpilogue<T>& epi) {
  static_assert(kGemmMR == 6, "microkernel unrolls exactly six tile rows");
  constexpr std::int64_t NR = kGemmNR<T>;
  T tile[kGemmMR][NR];
#ifdef SALIENT_GEMM_VECTOR_EXT
  constexpr std::int64_t L = kGemmLanes<T>;
  using V = typename GemmVec<T>::type;
  V a00{}, a01{}, a10{}, a11{}, a20{}, a21{}, a30{}, a31{}, a40{}, a41{},
      a50{}, a51{};
  for (std::int64_t p = 0; p < k; ++p) {
    V b0, b1;
    std::memcpy(&b0, bp + p * NR, sizeof(V));  // unaligned vector loads
    std::memcpy(&b1, bp + p * NR + L, sizeof(V));
    const T* arow = ap + p * kGemmMR;
    a00 += arow[0] * b0;
    a01 += arow[0] * b1;
    a10 += arow[1] * b0;
    a11 += arow[1] * b1;
    a20 += arow[2] * b0;
    a21 += arow[2] * b1;
    a30 += arow[3] * b0;
    a31 += arow[3] * b1;
    a40 += arow[4] * b0;
    a41 += arow[4] * b1;
    a50 += arow[5] * b0;
    a51 += arow[5] * b1;
  }
  std::memcpy(&tile[0][0], &a00, sizeof(V));
  std::memcpy(&tile[0][L], &a01, sizeof(V));
  std::memcpy(&tile[1][0], &a10, sizeof(V));
  std::memcpy(&tile[1][L], &a11, sizeof(V));
  std::memcpy(&tile[2][0], &a20, sizeof(V));
  std::memcpy(&tile[2][L], &a21, sizeof(V));
  std::memcpy(&tile[3][0], &a30, sizeof(V));
  std::memcpy(&tile[3][L], &a31, sizeof(V));
  std::memcpy(&tile[4][0], &a40, sizeof(V));
  std::memcpy(&tile[4][L], &a41, sizeof(V));
  std::memcpy(&tile[5][0], &a50, sizeof(V));
  std::memcpy(&tile[5][L], &a51, sizeof(V));
#else
  T acc[kGemmMR][NR] = {};
  for (std::int64_t p = 0; p < k; ++p) {
    const T* arow = ap + p * kGemmMR;
    const T* brow = bp + p * NR;
    for (std::int64_t r = 0; r < kGemmMR; ++r) {
      const T av = arow[r];
      for (std::int64_t cix = 0; cix < NR; ++cix) {
        acc[r][cix] += av * brow[cix];
      }
    }
  }
  std::memcpy(tile, acc, sizeof(tile));
#endif
  for (std::int64_t r = 0; r < h; ++r) {
    T* crow = c + (i0 + r) * ldc + j0;
    T* mrow = epi.mask != nullptr ? epi.mask + (i0 + r) * epi.n + j0 : nullptr;
    const std::int64_t flat0 = (i0 + r) * epi.n + j0;
    // Fold prior-k-block partials and the bias into the tile first, then
    // apply each epilogue kind in its own tight loop. Keeping a per-element
    // switch (and a data-dependent ternary compiled as a branch) here costs
    // ~3x the whole GEMM in mispredicted branches on random-sign
    // activations; the split loops compile to compare+blend vector code.
    // The addition order (partials, then bias) matches the old fused loop
    // and the reference path, so outputs stay bitwise identical.
    if (accumulate) {
      for (std::int64_t cix = 0; cix < w; ++cix) tile[r][cix] += crow[cix];
    }
    if (epi.bias != nullptr) {
      for (std::int64_t cix = 0; cix < w; ++cix) {
        tile[r][cix] += epi.bias[j0 + cix];
      }
    }
    switch (epi.kind) {
      case Epilogue::kNone:
      case Epilogue::kBias:
        for (std::int64_t cix = 0; cix < w; ++cix) crow[cix] = tile[r][cix];
        break;
      case Epilogue::kBiasRelu:
        // Select (not pre * mask): -x * 0 would store -0.0 and break
        // bitwise parity with the unfused relu.
        if (mrow != nullptr) {
          for (std::int64_t cix = 0; cix < w; ++cix) {
            const T pre = tile[r][cix];
            const bool pos = pre > T(0);
            crow[cix] = pos ? pre : T(0);
            mrow[cix] = pos ? T(1) : T(0);
          }
        } else {
          for (std::int64_t cix = 0; cix < w; ++cix) {
            const T pre = tile[r][cix];
            crow[cix] = pre > T(0) ? pre : T(0);
          }
        }
        break;
      case Epilogue::kBiasReluDropout: {
        // The keep decisions go first, in a loop of their own, as the
        // dropout factor {0, 1/(1-p)} of each element: that loop and the
        // select below both vectorize. (A per-element `pre > 0 && keep`
        // compiled to branches and cost ~3x the GEMM.) pre * 0 = +0 when
        // pre > 0, so the output matches the select form bitwise.
        const T scale = epi.keep_scale;  // locals: no conditional loads
        const std::uint64_t seed = epi.seed, thr = epi.drop_threshold;
        T keep[NR];
        for (std::int64_t cix = 0; cix < w; ++cix) {
          keep[cix] = dropout_keep(seed, flat0 + cix, thr) ? scale : T(0);
        }
        for (std::int64_t cix = 0; cix < w; ++cix) {
          const T pre = tile[r][cix];
          crow[cix] = pre > T(0) ? pre * keep[cix] : T(0);
        }
        if (mrow != nullptr) {
          for (std::int64_t cix = 0; cix < w; ++cix) {
            mrow[cix] = tile[r][cix] > T(0) ? keep[cix] : T(0);
          }
        }
        break;
      }
    }
  }
}

}  // namespace salient::ops::detail
