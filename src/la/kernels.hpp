// Cache-blocked BLAS3-style micro-kernels for the dense layer.
//
// These are the building blocks of the blocked right-looking LU and the
// blocked Cholesky panels: a rank-kb GEMM update and a unit-lower TRSM,
// written as portable auto-vectorizable loops (contiguous row-major inner
// j loop, no intrinsics, no FMA contraction dependence) rather than calls
// into an external BLAS.
//
// Determinism / bitwise contract. Every kernel applies its updates to each
// output element C(i, j) as a sequence of individual `c -= a * b`
// subtractions in ascending k (resp. ascending m) order. That is exactly the
// order in which the classic unblocked right-looking elimination touches the
// element, so a blocked factorisation built from these kernels is
// bitwise-identical to the unblocked loop — and, since parallel callers give
// each chunk a disjoint row/column range, bitwise-identical at any
// IND_THREADS. The k-unrolling below fuses 8 consecutive pivot updates of an
// element into one load/compute/store chain; each fused chain still applies
// the same rounded `c - a*b` subtractions in the same ascending-k order, so
// the values are unchanged. This relies on the build not enabling FMA
// contraction (see the top-level CMakeLists: -mno-fma on purpose).
//
// Structural zeros. An update whose multiplier a (resp. L(k, m)) is exactly
// zero is skipped. For finite b, `c - 0*b` is `c` for every nonzero c, so a
// skip changes no nonzero bit; only an exactly-zero c can differ, and only
// in sign (`-0 - (-0) = +0`), which needs a -0 already in the input (a
// chain of subtractions never turns +0 into -0). The skip is decided per
// (i, k) pair from the multiplier alone, so the unblocked loop, every block
// size and every thread count skip the same updates and stay bitwise
// identical to each other.
//
// Complex products. For std::complex<double> every `a * b` above is the
// written-out product of mul() below, on the parts of the interleaved
// doubles: (ar*br - ai*bi, ar*bi + ai*br), each term rounded, then one
// rounded subtraction per part from c. That is the value std::complex's
// operator* gives for every product that is not NaN in both parts, so the
// factor keeps the bits of a loop written with the operators. Division stays
// std::complex's own (the LU pivot quotient and the solves' diagonal), and
// the build does not use -fcx-limited-range, which would change division
// as well as drop the multiply's NaN guard.
//
// Shape note: the j loop is innermost and contiguous on B rows and the C row.
// That is deliberately NOT a fixed-size register tile — with leading
// dimensions only known at run time, GCC's SLP vectoriser abandons small
// fixed-extent accumulator arrays (everything spills to the stack, measured
// ~4x slower at n = 2048), while a contiguous innermost j loop vectorises
// cleanly regardless of stride. Unrolling k by 8 then cuts the C-row
// load/store traffic 8x, which is what makes the update compute-bound: the
// unrolled body saturates both FP ports of a non-FMA AVX2 core (~4 flops per
// cycle). Unrolling further (12/16) spills the broadcast registers and is
// measurably slower.
#pragma once

#include <algorithm>
#include <complex>
#include <cstddef>
#include <type_traits>

namespace ind::la::kernels {

/// x * b, with a complex product written out on its parts (see "Complex
/// products" above). GCC wraps std::complex's operator* in a NaN test and a
/// __muldc3 call under the default (C99 Annex G) rules; that branch per
/// product keeps the complex loops from vectorising.
template <typename T>
inline T mul(const T& x, const T& b) {
  if constexpr (std::is_same_v<T, std::complex<double>>)
    return {x.real() * b.real() - x.imag() * b.imag(),
            x.real() * b.imag() + x.imag() * b.real()};
  else
    return x * b;
}

/// Column-strip width for the GEMM update: the 8 active B row strips
/// (kGemmUnrollK x kGemmStrip x 8 bytes = 16 KiB for doubles) plus the C row
/// strip stay L1-resident across the i loop.
inline constexpr std::size_t kGemmStrip = 256;

/// Per-type k-direction unroll: each pass over a C row strip applies this
/// many consecutive pivots, so C is loaded and stored once per that many
/// rank-1 updates. 8 saturates both FP ports for double; a complex pass
/// holds two broadcast registers per pivot, and 2, 4, 6 and 8 measure the
/// same, so it stays at 4.
template <typename T>
inline constexpr std::size_t kGemmUnrollK = 4;
template <>
inline constexpr std::size_t kGemmUnrollK<double> = 8;

/// C -= A * B for row-major operands with independent leading dimensions:
/// C is mr x nc (ldc), A is mr x kb (lda), B is kb x nc (ldb).
/// Per-element accumulation order: for each (i, j), k ascends 0..kb-1,
/// skipping every k with A(i, k) == 0.
template <typename T>
void gemm_minus(std::size_t mr, std::size_t nc, std::size_t kb, const T* a,
                std::size_t lda, const T* b, std::size_t ldb, T* c,
                std::size_t ldc) {
  constexpr std::size_t KU = kGemmUnrollK<T>;
  // One fused pass: C row strip -= sum of KU rank-1 updates, applied in
  // order u = 0..KU-1 (ascending k) with one load/store of C per element.
  auto fused = [](const T (&x)[KU], const T* const (&bp)[KU], T* ci,
                  std::size_t j0, std::size_t j1) {
    for (std::size_t j = j0; j < j1; ++j) {
      T s = ci[j];
      for (std::size_t u = 0; u < KU; ++u) s -= mul(x[u], bp[u][j]);
      ci[j] = s;
    }
  };
  for (std::size_t j0 = 0; j0 < nc; j0 += kGemmStrip) {
    const std::size_t j1 = std::min(j0 + kGemmStrip, nc);
    for (std::size_t i = 0; i < mr; ++i) {
      const T* ai = a + i * lda;
      T* ci = c + i * ldc;
      // Pending nonzero multipliers of row i (ascending k), flushed through
      // the fused pass KU at a time; a zero multiplier is a no-op update.
      T x[KU];
      const T* bp[KU];
      std::size_t m = 0;
      auto push = [&](std::size_t k) {
        if (ai[k] == T{}) return;
        x[m] = ai[k];
        bp[m] = b + k * ldb;
        if (++m == KU) {
          fused(x, bp, ci, j0, j1);
          m = 0;
        }
      };
      std::size_t k = 0;
      for (; k + KU <= kb; k += KU) {
        // A zero-free group with nothing pending takes the plain fused pass.
        bool dense = m == 0;
        for (std::size_t u = 0; u < KU; ++u) dense &= ai[k + u] != T{};
        if (!dense) {
          for (std::size_t u = 0; u < KU; ++u) push(k + u);
          continue;
        }
        T xd[KU];
        const T* bd[KU];
        for (std::size_t u = 0; u < KU; ++u) {
          xd[u] = ai[k + u];
          bd[u] = b + (k + u) * ldb;
        }
        fused(xd, bd, ci, j0, j1);
      }
      for (; k < kb; ++k) push(k);
      for (std::size_t u = 0; u < m; ++u) {
        const T xu = x[u];
        const T* bu = bp[u];
        for (std::size_t j = j0; j < j1; ++j) ci[j] -= mul(xu, bu[j]);
      }
    }
  }
}

/// In-place forward substitution with a unit-lower triangular block:
/// C <- L^-1 C where L is the kb x kb unit-lower block at `l` (ldl) and C is
/// kb x nc (ldc). Row k of the result accumulates -= L(k, m) * C(m, :) in
/// ascending m < k — the same per-element order as unblocked elimination
/// applying pivot steps m = 0..k-1 to a row of the trailing matrix, with
/// the same skip of every update whose L(k, m) is exactly zero.
template <typename T>
void trsm_lower_unit_minus(std::size_t kb, std::size_t nc, const T* l,
                           std::size_t ldl, T* c, std::size_t ldc) {
  for (std::size_t k = 1; k < kb; ++k) {
    const T* lk = l + k * ldl;
    T* ck = c + k * ldc;
    for (std::size_t m = 0; m < k; ++m) {
      const T lkm = lk[m];
      if (lkm == T{}) continue;
      const T* cm = c + m * ldc;
      for (std::size_t j = 0; j < nc; ++j) ck[j] -= mul(lkm, cm[j]);
    }
  }
}

}  // namespace ind::la::kernels
