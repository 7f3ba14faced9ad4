// Register-tiled, SIMD-vectorized small-GEMM engine (BLIS-style).
//
// The loop-based substrate in la/blas.hpp streams whole operands through the
// cache for every output column; at tile sizes the paper sweeps that leaves
// the compact-WY applies (UNMQR/TSMQR/TTMQR — the UT/UE steps that dominate
// the tiled-QR runtime) an order of magnitude below machine FLOP rates. This
// engine closes that gap the way every production BLAS does:
//
//   1. Cache blocking: C is computed in MC x NC panels over KC-deep slices of
//      the inner dimension, so the packed A panel (MC x KC) lives in L2 and
//      the packed B micro-panel (KC x NR) lives in L1 while they are reused.
//   2. Packing: op(A)/op(B) sub-panels are copied once into contiguous,
//      64-byte-aligned buffers laid out exactly in the order the inner kernel
//      reads them (MR-row / NR-column interleaved), turning every inner-loop
//      access into an aligned unit-stride load and absorbing both transpose
//      cases and the alpha scaling. Ragged fringes are zero-padded so the
//      micro-kernel never branches on shape.
//   3. Register tiling: an MR x NR block of C is held entirely in vector
//      registers across the KC loop — each A/B element loaded from L1/L2 is
//      used NR/MR times, which is what moves the kernel from memory-bound to
//      FLOP-bound.
//
// The micro-kernel itself is portable: with GCC/Clang vector extensions it
// compiles to whatever the target ISA offers (SSE2/AVX/AVX-512 chosen at
// compile time from the -m flags); defining TQR_MK_SCALAR — or building with
// a compiler without vector extensions — selects a plain scalar inner loop
// with identical semantics (the equivalence suite runs against both).
//
// Threading: the engine is single-threaded by design; parallelism in this
// codebase lives above the tile kernels (the DAG executor runs many tile
// kernels concurrently), so each worker thread packs into its own buffers,
// taken from its thread-local Workspace (la/workspace.hpp).
//
// The same loop nest also runs the triangular multiply (trmm_packed): the
// triangle is packed with explicit zeros and each micro-tile only runs over
// the band of the inner dimension where the triangle is nonzero.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "la/aligned.hpp"
#include "la/blas_types.hpp"
#include "la/matrix.hpp"
#include "la/workspace.hpp"

#if !defined(TQR_MK_SCALAR) && (defined(__GNUC__) || defined(__clang__))
#define TQR_MK_VECTORIZED 1
#else
#define TQR_MK_VECTORIZED 0
#endif

namespace tqr::la::mk {

namespace detail {
#if TQR_MK_VECTORIZED
#if defined(__AVX512F__)
inline constexpr int kVecBytes = 64;
#elif defined(__AVX__)
inline constexpr int kVecBytes = 32;
#else
inline constexpr int kVecBytes = 16;
#endif
#else
inline constexpr int kVecBytes = static_cast<int>(sizeof(double));
#endif
}  // namespace detail

/// Compile-time register-tile shape per scalar type. MR spans the vector
/// direction (rows, unit stride in column-major C) and covers two vector
/// registers so the kernel carries 2*NR independent FMA chains — enough to
/// hide FMA latency on two issue ports; with NR = 6 that is 12 accumulators
/// plus 2 A vectors and a B broadcast, fitting both the 16-register AVX2
/// file and the 32-register AVX-512 file.
template <typename T>
struct RegisterBlocking {
  static constexpr int mr = 4;
  static constexpr int nr = 4;
};
template <>
struct RegisterBlocking<double> {
  static constexpr int lanes =
      detail::kVecBytes / static_cast<int>(sizeof(double));
  static constexpr int mr = lanes > 1 ? 2 * lanes : 8;
  static constexpr int nr = 6;
};
template <>
struct RegisterBlocking<float> {
  static constexpr int lanes =
      detail::kVecBytes / static_cast<int>(sizeof(float));
  static constexpr int mr = lanes > 1 ? 2 * lanes : 8;
  static constexpr int nr = 6;
};

/// Cache-level blocking, runtime-adjustable (tests shrink kc to make
/// exhaustive fringe sweeps tractable; benches sweep it).
struct Blocking {
  index_t kc = 256;  // depth of one packed slice (B micro-panel height, L1)
  index_t mc = 128;  // rows of the packed A panel (L2 resident)
  index_t nc = 1024; // columns of the packed B panel (L3 resident)
};

template <typename T>
inline Blocking default_blocking() {
  // Sized for ~48 KiB L1d / 2 MiB L2: A panel mc*kc*sizeof(T) <= ~1/2 L2,
  // B micro-panel kc*nr*sizeof(T) <= ~1/4 L1d.
  if constexpr (sizeof(T) <= 4) return Blocking{384, 192, 2048};
  return Blocking{256, 128, 1024};
}

/// Dispatch threshold used by la::gemm: below this the packing overhead is
/// not worth it and the straightforward loops win.
inline bool use_packed(index_t m, index_t n, index_t k) {
  if (m < 8 || n < 4 || k < 8) return false;
  return static_cast<double>(m) * static_cast<double>(n) *
             static_cast<double>(k) >=
         4096.0;
}

/// True when this build's micro-kernel uses SIMD vector extensions (the
/// scalar fallback is selected by TQR_MK_SCALAR or a non-GNU compiler).
constexpr bool vectorized() { return TQR_MK_VECTORIZED != 0; }

/// Human-readable ISA the micro-kernel was compiled for (bench metadata).
const char* isa_name();

namespace detail {

#if TQR_MK_VECTORIZED
/// may_alias lets us load vectors straight from packed T buffers without
/// violating strict aliasing.
template <typename T>
struct VecOf {
  static constexpr int lanes = kVecBytes / static_cast<int>(sizeof(T));
  typedef T type __attribute__((vector_size(kVecBytes), may_alias));
};
#endif  // TQR_MK_VECTORIZED

/// Inner kernel: acc(MR x NR, column-major, leading dimension MR) =
/// Ap * Bp over a KC-deep packed slice. Ap is an MR-row interleaved panel
/// (element (i, p) at p*MR + i), Bp an NR-column interleaved panel
/// (element (p, j) at p*NR + j); both are zero-padded to full MR/NR, so the
/// kernel is branch-free. acc must be kMatrixAlignment-aligned.
template <typename T>
inline void micro_kernel(index_t kc, const T* __restrict ap,
                         const T* __restrict bp, T* __restrict acc) {
  constexpr int MR = RegisterBlocking<T>::mr;
  constexpr int NR = RegisterBlocking<T>::nr;
#if TQR_MK_VECTORIZED
  using V = typename VecOf<T>::type;
  constexpr int L = VecOf<T>::lanes;
  if constexpr (std::is_floating_point_v<T> && MR % L == 0 &&
                (MR * sizeof(T)) % kVecBytes == 0) {
    constexpr int MV = MR / L;
    V c[MV][NR]{};
#pragma GCC unroll 4
    for (index_t p = 0; p < kc; ++p) {
      V av[MV];
      for (int u = 0; u < MV; ++u)
        av[u] = *reinterpret_cast<const V*>(ap + p * MR + u * L);
      for (int j = 0; j < NR; ++j) {
        const T bs = bp[p * NR + j];
        for (int u = 0; u < MV; ++u) c[u][j] += av[u] * bs;
      }
    }
    for (int j = 0; j < NR; ++j)
      for (int u = 0; u < MV; ++u)
        *reinterpret_cast<V*>(acc + j * MR + u * L) = c[u][j];
    return;
  }
#endif  // TQR_MK_VECTORIZED
  T c[MR * NR]{};
  for (index_t p = 0; p < kc; ++p)
    for (int j = 0; j < NR; ++j) {
      const T bs = bp[p * NR + j];
      for (int i = 0; i < MR; ++i) c[j * MR + i] += ap[p * MR + i] * bs;
    }
  for (int x = 0; x < MR * NR; ++x) acc[x] = c[x];
}

/// Packs op(A)(ic:ic+mc, pc:pc+kc) into MR-row interleaved panels, folding in
/// alpha and zero-padding the last panel to a full MR rows.
template <typename T>
void pack_a(T* __restrict dst, ConstMatrixView<T> a, Trans ta, T alpha,
            index_t ic, index_t pc, index_t mc, index_t kc) {
  constexpr int MR = RegisterBlocking<T>::mr;
  const T* const base = a.data;
  const index_t ld = a.ld;
  for (index_t ir = 0; ir < mc; ir += MR) {
    const index_t mr_eff = mc - ir < MR ? mc - ir : MR;
    T* d = dst + static_cast<std::size_t>(ir) * kc;
    if (ta == Trans::kNoTrans) {
      for (index_t p = 0; p < kc; ++p) {
        const T* col = base + static_cast<std::size_t>(pc + p) * ld + ic + ir;
        index_t i = 0;
        for (; i < mr_eff; ++i) d[p * MR + i] = alpha * col[i];
        for (; i < MR; ++i) d[p * MR + i] = T(0);
      }
    } else {
      for (index_t p = 0; p < kc; ++p) {
        const T* row = base + static_cast<std::size_t>(ic + ir) * ld + pc + p;
        index_t i = 0;
        for (; i < mr_eff; ++i) d[p * MR + i] = alpha * row[i * ld];
        for (; i < MR; ++i) d[p * MR + i] = T(0);
      }
    }
  }
}

/// Packs op(B)(pc:pc+kc, jc:jc+nc) into NR-column interleaved panels,
/// zero-padding the last panel to a full NR columns.
template <typename T>
void pack_b(T* __restrict dst, ConstMatrixView<T> b, Trans tb, index_t pc,
            index_t jc, index_t kc, index_t nc) {
  constexpr int NR = RegisterBlocking<T>::nr;
  const T* const base = b.data;
  const index_t ld = b.ld;
  for (index_t jr = 0; jr < nc; jr += NR) {
    const index_t nr_eff = nc - jr < NR ? nc - jr : NR;
    T* d = dst + static_cast<std::size_t>(jr) * kc;
    if (tb == Trans::kNoTrans) {
      for (index_t p = 0; p < kc; ++p) {
        const T* row = base + static_cast<std::size_t>(jc + jr) * ld + pc + p;
        index_t j = 0;
        for (; j < nr_eff; ++j) d[p * NR + j] = row[j * ld];
        for (; j < NR; ++j) d[p * NR + j] = T(0);
      }
    } else {
      // op(B)(p, j) = B(jc + jr + j, pc + p): unit stride in j.
      for (index_t p = 0; p < kc; ++p) {
        const T* col = base + static_cast<std::size_t>(pc + p) * ld + jc + jr;
        index_t j = 0;
        for (; j < nr_eff; ++j) d[p * NR + j] = col[j];
        for (; j < NR; ++j) d[p * NR + j] = T(0);
      }
    }
  }
}

/// acc (MR-ld column-major) -> C block with the k-slice beta rule:
/// the first KC slice applies the caller's beta (never reading C when
/// beta == 0), later slices accumulate.
template <typename T>
inline void write_back(const T* __restrict acc, T* __restrict c, index_t ldc,
                       index_t mr_eff, index_t nr_eff, T beta) {
  constexpr int MR = RegisterBlocking<T>::mr;
  if (beta == T(0)) {
    for (index_t j = 0; j < nr_eff; ++j)
      for (index_t i = 0; i < mr_eff; ++i)
        c[j * static_cast<std::size_t>(ldc) + i] = acc[j * MR + i];
  } else if (beta == T(1)) {
    for (index_t j = 0; j < nr_eff; ++j)
      for (index_t i = 0; i < mr_eff; ++i)
        c[j * static_cast<std::size_t>(ldc) + i] += acc[j * MR + i];
  } else {
    for (index_t j = 0; j < nr_eff; ++j)
      for (index_t i = 0; i < mr_eff; ++i)
        c[j * static_cast<std::size_t>(ldc) + i] =
            beta * c[j * static_cast<std::size_t>(ldc) + i] + acc[j * MR + i];
  }
}

/// The part of the inner dimension a micro-tile's product can be nonzero
/// over when one operand is a triangle. The packed layout is p-major
/// (ap + p*MR, bp + p*NR), so a band is a pointer offset and a length.
enum class Band {
  kFull,        // gemm: every p
  kRowsPrefix,  // p < the tile's last row + 1      (left, op(A) lower)
  kRowsSuffix,  // p >= the tile's first row        (left, op(A) upper)
  kColsPrefix,  // p < the tile's last column + 1   (right, op(A) upper)
  kColsSuffix,  // p >= the tile's first column     (right, op(A) lower)
};

/// Global [lo, hi) of p that the C tile rows [i0, i1) x columns [j0, j1)
/// needs, intersected with the slice [pc, pc + kc) and made slice-local.
/// Empty bands come back as lo == hi.
inline void band_range(Band band, index_t i0, index_t i1, index_t j0,
                       index_t j1, index_t pc, index_t kc, index_t& lo,
                       index_t& hi) {
  lo = pc;
  hi = pc + kc;
  switch (band) {
    case Band::kFull: break;
    case Band::kRowsPrefix: hi = std::min(hi, i1); break;
    case Band::kRowsSuffix: lo = std::max(lo, i0); break;
    case Band::kColsPrefix: hi = std::min(hi, j1); break;
    case Band::kColsSuffix: lo = std::max(lo, j0); break;
  }
  lo -= pc;
  hi = std::max(hi - pc, lo);
}

/// op(A)(i, p) of a triangular A, read only from the stored triangle: zero
/// outside op(A)'s triangle (`lower`: op(A) is lower triangular) and 1 on a
/// unit diagonal, whose stored entries are never read.
template <typename T>
inline T op_tri(ConstMatrixView<T> a, Trans trans, bool lower, bool unit,
                index_t i, index_t p) {
  if (i == p)
    return unit ? T(1) : a.data[static_cast<std::size_t>(i) * a.ld + i];
  if (lower ? p > i : p < i) return T(0);
  return trans == Trans::kNoTrans
             ? a.data[static_cast<std::size_t>(p) * a.ld + i]
             : a.data[static_cast<std::size_t>(i) * a.ld + p];
}

/// Packs one register panel of a triangular operand L = op(A) (left: an
/// MR-row panel at rows [x0, x0+w)) or R = op(A) (right: an NR-column panel
/// at columns [x0, x0+w)) over the slice [pc, pc+kc), writing only the band
/// the micro-kernel reads: the part wholly inside the triangle through the
/// dense packer, the panel's diagonal block element by element.
template <typename T, int W>
void pack_tri_panel(T* __restrict d, ConstMatrixView<T> a, Trans trans,
                    bool lower, bool unit, bool left, index_t x0, index_t w,
                    index_t pc, index_t kc) {
  // The dense part precedes the diagonal block when the band is a prefix.
  const bool prefix = left == lower;
  const index_t f0 = prefix ? pc : std::max(pc, x0 + w);
  const index_t f1 = prefix ? std::min(pc + kc, x0) : pc + kc;
  if (f0 < f1) {
    T* df = d + static_cast<std::size_t>(f0 - pc) * W;
    if (left)
      pack_a<T>(df, a, trans, T(1), x0, f0, w, f1 - f0);
    else
      pack_b<T>(df, a, trans, f0, x0, f1 - f0, w);
  }
  const index_t d1 = std::min(pc + kc, x0 + w);
  for (index_t p = std::max(pc, x0); p < d1; ++p)
    for (index_t x = 0; x < W; ++x)
      d[(p - pc) * W + x] =
          x >= w ? T(0)
          : left ? op_tri<T>(a, trans, lower, unit, x0 + x, p)
                 : op_tri<T>(a, trans, lower, unit, p, x0 + x);
}

/// The BLIS loop nest shared by gemm_packed and trmm_packed: C (m x n) =
/// L (m x k) * R (k x n) + beta * C, where pack_l(dst, ic, pc, mc, kc) packs
/// L's MR-row panels and pack_r(dst, pc, jc, kc, nc) R's NR-column panels.
/// Each micro-tile runs only over its `band` of the slice, so a triangular
/// operand costs the flops of its nonzero half. Pack buffers come from the
/// thread's Workspace.
template <typename T, typename PackL, typename PackR>
void packed_loops(index_t m, index_t n, index_t k, const PackL& pack_l,
                  const PackR& pack_r, Band band, T beta, MatrixView<T> c,
                  const Blocking& bs) {
  constexpr int MR = RegisterBlocking<T>::mr;
  constexpr int NR = RegisterBlocking<T>::nr;
  auto round_up = [](index_t x, index_t q) { return (x + q - 1) / q * q; };
  const index_t kc_max = std::min(bs.kc, k);
  Workspace::Frame frame;
  T* const abuf = frame.array<T>(
      static_cast<std::size_t>(round_up(std::min(bs.mc, m), MR)) * kc_max);
  T* const bbuf = frame.array<T>(
      static_cast<std::size_t>(round_up(std::min(bs.nc, n), NR)) * kc_max);

  alignas(kMatrixAlignment) T acc[MR * NR];
  for (index_t jc = 0; jc < n; jc += bs.nc) {
    const index_t nc_eff = std::min(bs.nc, n - jc);
    for (index_t pc = 0; pc < k; pc += bs.kc) {
      const index_t kc_eff = std::min(bs.kc, k - pc);
      pack_r(bbuf, pc, jc, kc_eff, nc_eff);
      const T beta_eff = (pc == 0) ? beta : T(1);
      for (index_t ic = 0; ic < m; ic += bs.mc) {
        const index_t mc_eff = std::min(bs.mc, m - ic);
        pack_l(abuf, ic, pc, mc_eff, kc_eff);
        for (index_t jr = 0; jr < nc_eff; jr += NR) {
          const index_t nr_eff = std::min<index_t>(NR, nc_eff - jr);
          const T* bp = bbuf + static_cast<std::size_t>(jr) * kc_eff;
          for (index_t ir = 0; ir < mc_eff; ir += MR) {
            const index_t mr_eff = std::min<index_t>(MR, mc_eff - ir);
            index_t lo, hi;
            band_range(band, ic + ir, ic + ir + mr_eff, jc + jr,
                       jc + jr + nr_eff, pc, kc_eff, lo, hi);
            detail::micro_kernel<T>(
                hi - lo,
                abuf + static_cast<std::size_t>(ir) * kc_eff +
                    static_cast<std::size_t>(lo) * MR,
                bp + static_cast<std::size_t>(lo) * NR, acc);
            detail::write_back<T>(
                acc,
                c.data + static_cast<std::size_t>(jc + jr) * c.ld + (ic + ir),
                c.ld, mr_eff, nr_eff, beta_eff);
          }
        }
      }
    }
  }
}

}  // namespace detail

/// C = alpha * op(A) * op(B) + beta * C through the packed register-tiled
/// pipeline. Semantics match la::gemm exactly (including never reading C when
/// beta == 0); summation order differs, so results agree with the loop-based
/// path to O(k * eps), not bitwise.
template <typename T>
void gemm_packed(Trans ta, Trans tb, T alpha, ConstMatrixView<T> a,
                 ConstMatrixView<T> b, T beta, MatrixView<T> c,
                 const Blocking& bs = default_blocking<T>()) {
  static_assert(std::is_floating_point_v<T>,
                "gemm_packed supports float/double");
  const index_t m = c.rows, n = c.cols;
  const index_t k = (ta == Trans::kNoTrans) ? a.cols : a.rows;
  TQR_REQUIRE(((ta == Trans::kNoTrans) ? a.rows : a.cols) == m,
              "gemm_packed: A/C row mismatch");
  TQR_REQUIRE(((tb == Trans::kNoTrans) ? b.rows : b.cols) == k,
              "gemm_packed: inner dimension mismatch");
  TQR_REQUIRE(((tb == Trans::kNoTrans) ? b.cols : b.rows) == n,
              "gemm_packed: B/C column mismatch");
  TQR_REQUIRE(bs.kc > 0 && bs.mc > 0 && bs.nc > 0,
              "gemm_packed: blocking must be positive");

  if (alpha == T(0) || k == 0) {
    // Pure C scaling; keep the beta == 0 no-read contract.
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i)
        c(i, j) = (beta == T(0)) ? T(0) : beta * c(i, j);
    return;
  }
  detail::packed_loops<T>(
      m, n, k,
      [&](T* dst, index_t ic, index_t pc, index_t mc, index_t kc) {
        detail::pack_a<T>(dst, a, ta, alpha, ic, pc, mc, kc);
      },
      [&](T* dst, index_t pc, index_t jc, index_t kc, index_t nc) {
        detail::pack_b<T>(dst, b, tb, pc, jc, kc, nc);
      },
      detail::Band::kFull, beta, c, bs);
}

/// B = op(A) * B (side kLeft, A m x m) or B = B * op(A) (kRight, A n x n),
/// A triangular, through the packed engine. The triangle is packed with
/// explicit zeros outside it and 1 on a unit diagonal — the other triangle,
/// and the stored diagonal under Diag::kUnit, are never read — and each
/// micro-tile runs only over the band of the triangle it meets, so the
/// executed flops are ~m^2 n (left), not the 2 m^2 n of a dense product.
/// The product is computed out of place and written into B with beta = 0.
/// When one k slice of the engine covers the triangle, B's packed panels
/// are the out-of-place copy (each block of B is packed before the block of
/// C that reads it is written); otherwise B is first copied into the
/// thread's Workspace.
template <typename T>
void trmm_packed(Side side, UpLo uplo, Trans trans, Diag diag,
                 ConstMatrixView<T> a, MatrixView<T> b,
                 const Blocking& bs = default_blocking<T>()) {
  static_assert(std::is_floating_point_v<T>,
                "trmm_packed supports float/double");
  const bool left = side == Side::kLeft;
  const index_t m = b.rows, n = b.cols, k = left ? m : n;
  TQR_REQUIRE(a.rows == k && a.cols == k,
              "trmm_packed: A must be square and match B");
  TQR_REQUIRE(bs.kc > 0 && bs.mc > 0 && bs.nc > 0,
              "trmm_packed: blocking must be positive");
  if (m == 0 || n == 0) return;
  constexpr int MR = RegisterBlocking<T>::mr;
  constexpr int NR = RegisterBlocking<T>::nr;
  const bool lower = (uplo == UpLo::kLower) == (trans == Trans::kNoTrans);
  const bool unit = diag == Diag::kUnit;
  const detail::Band band =
      left ? (lower ? detail::Band::kRowsPrefix : detail::Band::kRowsSuffix)
           : (lower ? detail::Band::kColsSuffix : detail::Band::kColsPrefix);

  // In place is safe when one k slice covers the triangle: each block of
  // C is then written only after the panels of B it reads were packed. On
  // the right, a row block of B is read by every column block of C, so
  // those must be one block too.
  Workspace::Frame frame;
  ConstMatrixView<T> src = b;
  if (k > bs.kc || (!left && n > bs.nc)) {
    const MatrixView<T> copy_b = frame.matrix<T>(m, n);
    copy<T>(b, copy_b);
    src = copy_b;
  }

  if (left) {
    detail::packed_loops<T>(
        m, n, k,
        [&](T* dst, index_t ic, index_t pc, index_t mc, index_t kc) {
          for (index_t ir = 0; ir < mc; ir += MR)
            detail::pack_tri_panel<T, MR>(
                dst + static_cast<std::size_t>(ir) * kc, a, trans, lower, unit,
                true, ic + ir, std::min<index_t>(MR, mc - ir), pc, kc);
        },
        [&](T* dst, index_t pc, index_t jc, index_t kc, index_t nc) {
          detail::pack_b<T>(dst, src, Trans::kNoTrans, pc, jc, kc, nc);
        },
        band, T(0), b, bs);
  } else {
    detail::packed_loops<T>(
        m, n, k,
        [&](T* dst, index_t ic, index_t pc, index_t mc, index_t kc) {
          detail::pack_a<T>(dst, src, Trans::kNoTrans, T(1), ic, pc, mc, kc);
        },
        [&](T* dst, index_t pc, index_t jc, index_t kc, index_t nc) {
          for (index_t jr = 0; jr < nc; jr += NR)
            detail::pack_tri_panel<T, NR>(
                dst + static_cast<std::size_t>(jr) * kc, a, trans, lower, unit,
                false, jc + jr, std::min<index_t>(NR, nc - jr), pc, kc);
        },
        band, T(0), b, bs);
  }
}

// Compiled in microkernel.cpp for the supported scalar types; downstream
// translation units link instead of re-instantiating the whole engine.
extern template void gemm_packed<float>(Trans, Trans, float,
                                        ConstMatrixView<float>,
                                        ConstMatrixView<float>, float,
                                        MatrixView<float>, const Blocking&);
extern template void gemm_packed<double>(Trans, Trans, double,
                                         ConstMatrixView<double>,
                                         ConstMatrixView<double>, double,
                                         MatrixView<double>, const Blocking&);
extern template void trmm_packed<float>(Side, UpLo, Trans, Diag,
                                        ConstMatrixView<float>,
                                        MatrixView<float>, const Blocking&);
extern template void trmm_packed<double>(Side, UpLo, Trans, Diag,
                                         ConstMatrixView<double>,
                                         MatrixView<double>, const Blocking&);

#if TQR_MK_VECTORIZED
namespace detail {

/// Element-aligned variant of VecOf: loads through it compile to unaligned
/// vector moves, so it can read from any offset inside a column (matrix
/// columns are only guaranteed element-aligned once a view offsets into
/// them).
template <typename T>
struct UnalignedVecOf {
  static constexpr index_t lanes = kVecBytes / static_cast<index_t>(sizeof(T));
  typedef T type __attribute__((vector_size(kVecBytes), may_alias,
                                aligned(alignof(T))));
};

}  // namespace detail
#endif  // TQR_MK_VECTORIZED

/// SIMD dot product over contiguous arrays. The panel factor kernels and the
/// small-triangle BLAS base cases are built out of column dots that the
/// compiler cannot auto-vectorize (FP reduction reassociation is not allowed
/// without fast-math); this helper makes the reduction order explicitly
/// vectorized, matching the packed engine's unordered-accumulation
/// semantics. Scalar builds (TQR_MICROKERNEL_SCALAR) fall back to the plain
/// ordered loop.
template <typename T>
inline T dot(index_t n, const T* __restrict x, const T* __restrict y) {
#if TQR_MK_VECTORIZED
  if constexpr (std::is_floating_point_v<T>) {
    using V = typename detail::UnalignedVecOf<T>::type;
    constexpr index_t L = detail::UnalignedVecOf<T>::lanes;
    if (n >= 2 * L) {
      V a0{}, a1{}, a2{}, a3{};
      index_t i = 0;
      for (; i + 4 * L <= n; i += 4 * L) {
        a0 += *reinterpret_cast<const V*>(x + i) *
              *reinterpret_cast<const V*>(y + i);
        a1 += *reinterpret_cast<const V*>(x + i + L) *
              *reinterpret_cast<const V*>(y + i + L);
        a2 += *reinterpret_cast<const V*>(x + i + 2 * L) *
              *reinterpret_cast<const V*>(y + i + 2 * L);
        a3 += *reinterpret_cast<const V*>(x + i + 3 * L) *
              *reinterpret_cast<const V*>(y + i + 3 * L);
      }
      for (; i + 2 * L <= n; i += 2 * L) {
        a0 += *reinterpret_cast<const V*>(x + i) *
              *reinterpret_cast<const V*>(y + i);
        a1 += *reinterpret_cast<const V*>(x + i + L) *
              *reinterpret_cast<const V*>(y + i + L);
      }
      if (i + L <= n) {
        a0 += *reinterpret_cast<const V*>(x + i) *
              *reinterpret_cast<const V*>(y + i);
        i += L;
      }
      a0 += a1 + a2 + a3;
      T acc = T(0);
      for (index_t l = 0; l < L; ++l) acc += a0[l];
      for (; i < n; ++i) acc += x[i] * y[i];
      return acc;
    }
    if (n >= L) {  // one vector + scalar tail: still beats the scalar chain
      V a0 = *reinterpret_cast<const V*>(x) * *reinterpret_cast<const V*>(y);
      T acc = T(0);
      for (index_t l = 0; l < L; ++l) acc += a0[l];
      for (index_t i = L; i < n; ++i) acc += x[i] * y[i];
      return acc;
    }
  }
#endif  // TQR_MK_VECTORIZED
  T acc = T(0);
  for (index_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

/// y += alpha * x over contiguous arrays. Unlike dot this is not a
/// reduction, but making the vectorization explicit spares the compiler's
/// runtime alias versioning between two columns of the same matrix (the
/// dominant pattern in the panel kernels' rank-1 updates).
template <typename T>
inline void axpy(index_t n, T alpha, const T* __restrict x, T* __restrict y) {
#if TQR_MK_VECTORIZED
  if constexpr (std::is_floating_point_v<T>) {
    using V = typename detail::UnalignedVecOf<T>::type;
    constexpr index_t L = detail::UnalignedVecOf<T>::lanes;
    if (n >= L) {
      V va{};
      va += alpha;  // broadcast
      index_t i = 0;
      for (; i + 2 * L <= n; i += 2 * L) {
        *reinterpret_cast<V*>(y + i) +=
            va * *reinterpret_cast<const V*>(x + i);
        *reinterpret_cast<V*>(y + i + L) +=
            va * *reinterpret_cast<const V*>(x + i + L);
      }
      if (i + L <= n) {
        *reinterpret_cast<V*>(y + i) +=
            va * *reinterpret_cast<const V*>(x + i);
        i += L;
      }
      for (; i < n; ++i) y[i] += alpha * x[i];
      return;
    }
  }
#endif  // TQR_MK_VECTORIZED
  for (index_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace tqr::la::mk
