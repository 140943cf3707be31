// Unit tests for the linear-algebra substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "../bench/bench_common.hpp"
#include "circuit/mna.hpp"
#include "govern/budget.hpp"
#include "govern/memory.hpp"
#include "la/amd.hpp"
#include "la/cholesky.hpp"
#include "la/dense_matrix.hpp"
#include "la/eig.hpp"
#include "la/lu.hpp"
#include "la/qr.hpp"
#include "la/sparse.hpp"
#include "la/sparse_lu.hpp"
#include "loop/mqs_solver.hpp"
#include "peec/model_builder.hpp"
#include "robust/recovery.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace ind::la;

TEST(DenseMatrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

TEST(DenseMatrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(DenseMatrix, Identity) {
  const Matrix i = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(DenseMatrix, Multiply) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(DenseMatrix, Transpose) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(DenseMatrix, ApplyAndApplyTransposed) {
  Matrix a{{1, 2}, {3, 4}, {5, 6}};
  const Vector y = a.apply({1.0, -1.0});
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
  const Vector z = a.apply_transposed({1.0, 0.0, 1.0});
  ASSERT_EQ(z.size(), 2u);
  EXPECT_DOUBLE_EQ(z[0], 6.0);
  EXPECT_DOUBLE_EQ(z[1], 8.0);
}

TEST(DenseMatrix, SymmetryCheck) {
  Matrix s{{2, 1}, {1, 2}};
  EXPECT_TRUE(is_symmetric(s));
  s(0, 1) = 1.5;
  EXPECT_FALSE(is_symmetric(s));
}

TEST(DenseMatrix, Norms) {
  Matrix m{{3, 4}, {0, 0}};
  EXPECT_DOUBLE_EQ(frobenius_norm(m), 5.0);
  EXPECT_DOUBLE_EQ(max_abs(m), 4.0);
  EXPECT_DOUBLE_EQ(inf_norm(Vector{1.0, -7.0, 3.0}), 7.0);
}

TEST(Lu, SolvesRandomSystem) {
  Matrix a{{4, -2, 1}, {-2, 4, -2}, {1, -2, 4}};
  const Vector x_ref{1.0, 2.0, 3.0};
  const Vector b = a.apply(x_ref);
  const Vector x = solve(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-12);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  Matrix a{{0, 1}, {1, 0}};
  const Vector x = solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-14);
  EXPECT_NEAR(x[1], 2.0, 1e-14);
}

TEST(Lu, ThrowsOnSingular) {
  Matrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(LU lu(a), SingularMatrixError);
}

TEST(Lu, Determinant) {
  Matrix a{{2, 0}, {0, 3}};
  EXPECT_NEAR(LU(a).determinant(), 6.0, 1e-14);
  Matrix b{{0, 1}, {1, 0}};  // permutation, det = -1
  EXPECT_NEAR(LU(b).determinant(), -1.0, 1e-14);
}

TEST(Lu, ComplexSolve) {
  CMatrix a(2, 2);
  a(0, 0) = {1, 1};
  a(0, 1) = {0, 1};
  a(1, 0) = {0, -1};
  a(1, 1) = {2, 0};
  const CVector x_ref{{1, 2}, {3, -1}};
  const CVector b = a.apply(x_ref);
  const CVector x = solve(a, b);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(x[i].real(), x_ref[i].real(), 1e-12);
    EXPECT_NEAR(x[i].imag(), x_ref[i].imag(), 1e-12);
  }
}

TEST(Lu, Inverse) {
  Matrix a{{4, 7}, {2, 6}};
  const Matrix inv = inverse(a);
  const Matrix prod = a * inv;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

TEST(Cholesky, FactorsSpdMatrix) {
  Matrix a{{4, 2}, {2, 3}};
  const auto f = Cholesky::factor(a);
  ASSERT_TRUE(f.has_value());
  const Vector x = f->solve({8.0, 7.0});
  const Vector b = a.apply(x);
  EXPECT_NEAR(b[0], 8.0, 1e-12);
  EXPECT_NEAR(b[1], 7.0, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::factor(a).has_value());
  EXPECT_FALSE(is_positive_definite(a));
  EXPECT_TRUE(is_positive_definite(Matrix{{2, 1}, {1, 2}}));
}

TEST(Cholesky, MinEigenvalueBisect) {
  Matrix a{{1, 2}, {2, 1}};
  EXPECT_NEAR(min_eigenvalue_bisect(a, 1.0), -1.0, 1e-9);
  Matrix b{{3, 0}, {0, 5}};
  EXPECT_NEAR(min_eigenvalue_bisect(b, 5.0), 3.0, 1e-9);
}

TEST(Qr, OrthonormalizesColumns) {
  Matrix a{{1, 1}, {1, 0}, {0, 1}};
  const QrResult r = orthonormalize(a);
  EXPECT_EQ(r.rank, 2u);
  // Q^T Q = I
  for (std::size_t i = 0; i < r.rank; ++i) {
    for (std::size_t j = 0; j < r.rank; ++j) {
      double dot = 0.0;
      for (std::size_t k = 0; k < 3; ++k) dot += r.q(k, i) * r.q(k, j);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(Qr, DeflatesDependentColumns) {
  Matrix a{{1, 2}, {1, 2}, {1, 2}};  // second column is 2x the first
  const QrResult r = orthonormalize(a);
  EXPECT_EQ(r.rank, 1u);
}

TEST(Qr, OrthonormalizeAgainstExistingBasis) {
  Matrix q{{1}, {0}, {0}};
  Matrix a{{1}, {1}, {0}};
  const QrResult r = orthonormalize_against(a, q);
  ASSERT_EQ(r.rank, 1u);
  EXPECT_NEAR(r.q(0, 0), 0.0, 1e-12);  // component along q removed
  EXPECT_NEAR(std::abs(r.q(1, 0)), 1.0, 1e-12);
}

TEST(Qr, Hcat) {
  Matrix a{{1}, {2}};
  Matrix b{{3}, {4}};
  const Matrix c = hcat(a, b);
  EXPECT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(1, 1), 4.0);
}

TEST(Sparse, TripletToCscMergesDuplicates) {
  TripletMatrix t(3, 3);
  t.add(0, 0, 1.0);
  t.add(0, 0, 2.0);  // duplicate stamp
  t.add(2, 1, 5.0);
  const CscMatrix a(t);
  EXPECT_EQ(a.nnz(), 2u);
  const Matrix d = a.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(d(2, 1), 5.0);
}

TEST(Sparse, Apply) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 2.0);
  t.add(1, 0, 1.0);
  t.add(1, 1, 3.0);
  const CscMatrix a(t);
  const Vector y = a.apply({1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(SparseLu, MatchesDenseSolve) {
  TripletMatrix t(4, 4);
  const double vals[4][4] = {
      {4, -1, 0, -1}, {-1, 4, -1, 0}, {0, -1, 4, -1}, {-1, 0, -1, 4}};
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      if (vals[i][j] != 0) t.add(i, j, vals[i][j]);
  const CscMatrix a(t);
  SparseLu lu(a);
  const Vector b{1.0, 2.0, 3.0, 4.0};
  const Vector x = lu.solve(b);
  const Vector x_ref = solve(t.to_dense(), b);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-12);
}

TEST(SparseLu, PivotsOnZeroDiagonal) {
  TripletMatrix t(2, 2);
  t.add(0, 1, 1.0);
  t.add(1, 0, 1.0);
  SparseLu lu(CscMatrix{t});
  const Vector x = lu.solve({5.0, 6.0});
  EXPECT_NEAR(x[0], 6.0, 1e-14);
  EXPECT_NEAR(x[1], 5.0, 1e-14);
}

TEST(SparseLu, ThrowsOnSingular) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 0, 1.0);  // column 1 empty -> singular
  EXPECT_THROW(SparseLu lu{CscMatrix{t}}, SingularMatrixError);
}

TEST(SparseLu, LargeRandomGrid) {
  // 2-D Laplacian on a 20x20 grid: well-conditioned, sparse, SPD.
  const int n = 20;
  TripletMatrix t(n * n, n * n);
  auto id = [&](int i, int j) { return static_cast<std::size_t>(i * n + j); };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      t.add(id(i, j), id(i, j), 4.0 + 0.01 * (i + j));
      if (i > 0) t.add(id(i, j), id(i - 1, j), -1.0);
      if (i < n - 1) t.add(id(i, j), id(i + 1, j), -1.0);
      if (j > 0) t.add(id(i, j), id(i, j - 1), -1.0);
      if (j < n - 1) t.add(id(i, j), id(i, j + 1), -1.0);
    }
  }
  const CscMatrix a(t);
  SparseLu lu(a);
  Vector x_ref(static_cast<std::size_t>(n * n));
  for (std::size_t i = 0; i < x_ref.size(); ++i)
    x_ref[i] = std::sin(0.1 * static_cast<double>(i));
  const Vector b = a.apply(x_ref);
  const Vector x = lu.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-9);
}

TEST(Eig, DominantEigenvalue) {
  Matrix a{{2, 0}, {0, 5}};
  EXPECT_NEAR(dominant_eigenvalue(a), 5.0, 1e-7);
}

TEST(Eig, SmallestEigenvalue) {
  Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3 and -1
  EXPECT_NEAR(smallest_eigenvalue(a), -1.0, 1e-6);
  Matrix b{{4, 1}, {1, 4}};  // eigenvalues 5 and 3
  EXPECT_NEAR(smallest_eigenvalue(b), 3.0, 1e-6);
}

}  // namespace

// ---------------------------------------------------------------------------
// Additional linear-algebra coverage.
// ---------------------------------------------------------------------------

namespace {

using namespace ind::la;

TEST(Lu, SolvesMatrixRhs) {
  Matrix a{{4, 1}, {1, 3}};
  Matrix b{{1, 0, 2}, {0, 1, 4}};
  const Matrix x = LU(a).solve(b);
  const Matrix check = a * x;
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(check(i, j), b(i, j), 1e-12);
}

TEST(Lu, ComplexDeterminant) {
  CMatrix a(2, 2);
  a(0, 0) = {0, 1};   // j
  a(1, 1) = {0, 1};   // j  -> det = j*j = -1
  const Complex det = CLU(a).determinant();
  EXPECT_NEAR(det.real(), -1.0, 1e-14);
  EXPECT_NEAR(det.imag(), 0.0, 1e-14);
}

TEST(Cholesky, LowerTriangularStructure) {
  Matrix a{{4, 2, 0}, {2, 5, 1}, {0, 1, 3}};
  const auto f = Cholesky::factor(a);
  ASSERT_TRUE(f.has_value());
  const Matrix& l = f->lower();
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = i + 1; j < 3; ++j)
      EXPECT_DOUBLE_EQ(l(i, j), 0.0);
  // L L^T == A.
  const Matrix rebuilt = l * l.transposed();
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_NEAR(rebuilt(i, j), a(i, j), 1e-12);
}

TEST(Sparse, FillCountAndOutOfRange) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  EXPECT_EQ(t.entry_count(), 2u);
  SparseLu lu{CscMatrix{t}};
  EXPECT_GE(lu.fill_nnz(), 2u);
  TripletMatrix bad(2, 2);
  bad.add(5, 0, 1.0);
  EXPECT_THROW(CscMatrix{bad}, std::out_of_range);
}

TEST(Sparse, ApplySizeMismatchThrows) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  const CscMatrix a(t);
  EXPECT_THROW(a.apply({1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(DenseMatrix, ComplexInfNorm) {
  const CVector v{{3, 4}, {0, 1}};
  EXPECT_DOUBLE_EQ(inf_norm(v), 5.0);
}

TEST(Qr, EmptyInputYieldsEmptyBasis) {
  const QrResult r = orthonormalize(Matrix(4, 0));
  EXPECT_EQ(r.rank, 0u);
}

}  // namespace

// ---------------------------------------------------------------------------
// AMD ordering and symbolic-reuse refactorisation.
// ---------------------------------------------------------------------------

namespace {

using namespace ind::la;

CscMatrix grid_laplacian(int n, double shift = 0.0) {
  TripletMatrix t(static_cast<std::size_t>(n * n),
                  static_cast<std::size_t>(n * n));
  auto id = [&](int i, int j) { return static_cast<std::size_t>(i * n + j); };
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      t.add(id(i, j), id(i, j), 4.0 + 0.01 * (i + j) + shift);
      if (i > 0) t.add(id(i, j), id(i - 1, j), -1.0 - shift * 0.1);
      if (i < n - 1) t.add(id(i, j), id(i + 1, j), -1.0);
      if (j > 0) t.add(id(i, j), id(i, j - 1), -1.0 + shift * 0.05);
      if (j < n - 1) t.add(id(i, j), id(i, j + 1), -1.0);
    }
  }
  return CscMatrix(t);
}

bool is_permutation(const std::vector<std::size_t>& p, std::size_t n) {
  if (p.size() != n) return false;
  std::vector<bool> seen(n, false);
  for (std::size_t v : p) {
    if (v >= n || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

TEST(Amd, ValidAndDeterministicPermutation) {
  const CscMatrix a = grid_laplacian(12);
  const std::vector<std::size_t> p1 = amd_order(a);
  EXPECT_TRUE(is_permutation(p1, a.rows()));
  // Pure function of the pattern: same pattern (different values) -> the
  // exact same order, run after run.
  const std::vector<std::size_t> p2 = amd_order(grid_laplacian(12, 0.5));
  EXPECT_EQ(p1, p2);
}

TEST(Amd, ArrowMatrixEliminatesHubLast) {
  // Arrow matrix: dense first row/column + diagonal. Natural order
  // eliminates the hub first and fills the whole matrix; minimum degree
  // must postpone the hub to the end, giving zero fill.
  const std::size_t n = 16;
  TripletMatrix t(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 10.0);
    if (i > 0) {
      t.add(0, i, 0.1);
      t.add(i, 0, 0.1);
    }
  }
  const CscMatrix a(t);
  const std::vector<std::size_t> p = amd_order(a);
  ASSERT_TRUE(is_permutation(p, n));
  // The hub keeps maximum degree until only one leaf is left, so it lands
  // in one of the last two elimination slots (smallest-index tie-break can
  // put the final leaf after it).
  std::size_t hub_pos = n;
  for (std::size_t k = 0; k < n; ++k)
    if (p[k] == 0) hub_pos = k;
  EXPECT_GE(hub_pos, n - 2);
  // Diagonally-dominant, so pivots stay on the diagonal: the factor's
  // stored pattern equals A's pattern exactly when the hub goes last.
  SparseLu lu(a);
  EXPECT_EQ(lu.fill_nnz(), a.nnz());
}

TEST(SparseLu, AmdReducesGridFill) {
  const CscMatrix a = grid_laplacian(20);
  SparseLu lu(a);
  // Natural-order factorisation of a 20x20 grid Laplacian carries a full
  // bandwidth-20 profile (> 15k stored entries). AMD must do much better.
  EXPECT_LT(lu.fill_nnz(), 12000u);
  EXPECT_GE(lu.fill_nnz(), a.nnz());
}

TEST(SparseLu, RefactorMatchesFromScratchBitwise) {
  const CscMatrix a0 = grid_laplacian(15);
  const CscMatrix a1 = grid_laplacian(15, 0.25);  // same pattern, new values

  SparseLu reused(a0);
  EXPECT_TRUE(reused.symbolic().factored());
  reused.refactor(a1);

  const SparseLu scratch(a1);
  Vector b(a1.rows());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = std::cos(0.3 * static_cast<double>(i));
  const Vector x_reused = reused.solve(b);
  const Vector x_scratch = scratch.solve(b);
  ASSERT_EQ(x_reused.size(), x_scratch.size());
  for (std::size_t i = 0; i < x_reused.size(); ++i)
    EXPECT_EQ(x_reused[i], x_scratch[i]);  // bitwise, not approximate
}

TEST(SparseLu, SharedSymbolicAcrossInstances) {
  const CscMatrix a0 = grid_laplacian(10);
  const CscMatrix a1 = grid_laplacian(10, 0.5);
  SparseLu first(a0);
  // A second factorisation constructed from the first one's symbolic state
  // skips straight to the numeric-only pass and stays bitwise identical.
  SparseLu second(a1, first.symbolic());
  const SparseLu scratch(a1);
  Vector b(a1.rows(), 1.0);
  const Vector x = second.solve(b);
  const Vector x_ref = scratch.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_ref[i]);
}

TEST(SparseLu, PivotDriftFallsBackToFullFactorisation) {
  // A1 pivots on the diagonal of column 0 (diagonal preference); A2 keeps
  // the same pattern but zeroes the diagonal, forcing the off-diagonal
  // pivot. Refactoring A1's factor with A2's values must detect the drift
  // and rerun the full factorisation, still matching from-scratch.
  TripletMatrix t1(2, 2), t2(2, 2);
  t1.add(0, 0, 1.0); t1.add(1, 0, 2.0); t1.add(0, 1, 4.0); t1.add(1, 1, 1.0);
  t2.add(0, 0, 0.0); t2.add(1, 0, 2.0); t2.add(0, 1, 4.0); t2.add(1, 1, 0.0);
  const CscMatrix a1(t1), a2(t2);

  SparseLu lu(a1);
  auto& drift =
      ind::runtime::MetricsRegistry::instance().counter(
          "factor.sparse_lu.pivot_drift");
  const auto drift_before = drift.value.load();
  lu.refactor(a2);
  EXPECT_EQ(drift.value.load(), drift_before + 1);
  const SparseLu scratch(a2);
  const Vector b{1.0, 2.0};
  const Vector x = lu.solve(b);
  const Vector x_ref = scratch.solve(b);
  EXPECT_EQ(x[0], x_ref[0]);
  EXPECT_EQ(x[1], x_ref[1]);
}

TEST(SparseLu, RefactorWithNewPatternReanalyses) {
  const CscMatrix a = grid_laplacian(8);
  SparseLu lu(a);

  TripletMatrix t(4, 4);  // entirely different matrix, different size
  t.add(0, 0, 2.0); t.add(1, 1, 3.0); t.add(2, 2, 4.0); t.add(3, 3, 5.0);
  t.add(0, 3, 1.0); t.add(3, 0, 1.0);
  const CscMatrix d(t);
  lu.refactor(d);
  EXPECT_EQ(lu.size(), 4u);
  EXPECT_TRUE(lu.symbolic().matches_pattern(d));

  const Vector b{1.0, 3.0, 4.0, 5.0};
  const Vector x = lu.solve(b);
  const Vector x_ref = SparseLu(d).solve(b);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(x[i], x_ref[i]);
}

TEST(SparseLu, RefactorThrowsOnSingularAndRecovers) {
  const CscMatrix a = grid_laplacian(6);
  SparseLu lu(a);
  TripletMatrix t(a.rows(), a.cols());
  // Same pattern, but all values zero: singular.
  for (std::size_t j = 0; j < a.cols(); ++j)
    for (std::size_t k = a.col_ptr()[j]; k < a.col_ptr()[j + 1]; ++k)
      t.add(a.row_idx()[k], j, 0.0);
  const CscMatrix zeros(t);
  EXPECT_THROW(lu.refactor(zeros), SingularMatrixError);
  // The object is reusable after a successful refactorisation.
  lu.refactor(a);
  Vector b(a.rows(), 1.0);
  const Vector x = lu.solve(b);
  const Vector x_ref = SparseLu(a).solve(b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_ref[i]);
}

// Deterministic diagonally-dominant (hence well-conditioned) test matrix.
Matrix dominant_random(std::size_t n, std::uint64_t seed) {
  Matrix a(n, n);
  std::uint64_t s = seed;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      a(i, j) = static_cast<double>(s >> 11) /
                    static_cast<double>(1ULL << 53) -
                0.5;
      if (i == j) a(i, j) += static_cast<double>(n);
    }
  return a;
}

struct ThreadsGuard {
  ~ThreadsGuard() { ind::runtime::set_global_threads(0); }
};

TEST(LuBlocked, BlockedMatchesUnblockedBitwiseAtAnyThreads) {
  const std::size_t n = 96;
  const Matrix a = dominant_random(n, 7);
  // block = 1 is the classic unblocked elimination; every blocking and
  // thread-count configuration must reproduce its factor bit for bit.
  const LuFactor<double> ref(a, LuOptions{.block = 1});
  ThreadsGuard guard;
  for (const unsigned threads : {1u, 4u}) {
    ind::runtime::set_global_threads(threads);
    for (const std::size_t blk : {std::size_t{8}, std::size_t{48},
                                  std::size_t{0} /* env default */}) {
      const LuFactor<double> f(a, LuOptions{.block = blk});
      EXPECT_EQ(f.perm(), ref.perm());
      EXPECT_TRUE(f.packed() == ref.packed());
    }
  }
}

// --- structural zero-skipping -------------------------------------------

// True when the two matrices hold the same bytes (unlike operator==, this
// tells +0 from -0).
template <typename T>
bool bitwise_equal(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(T)) ==
             0;
}

// Component by component (real and imaginary parts for complex T): the same
// bits, or both an exactly-zero value of either sign.
template <typename T>
bool equal_up_to_zero_sign(const DenseMatrix<T>& a, const DenseMatrix<T>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const std::size_t count = a.rows() * a.cols() * sizeof(T) / sizeof(double);
  const auto* x = reinterpret_cast<const double*>(a.data());
  const auto* y = reinterpret_cast<const double*>(b.data());
  for (std::size_t i = 0; i < count; ++i) {
    if (std::memcmp(&x[i], &y[i], sizeof(double)) == 0) continue;
    if (x[i] != 0.0 || y[i] != 0.0) return false;
  }
  return true;
}

template <typename T>
std::size_t zero_count(const DenseMatrix<T>& a) {
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) zeros += a(i, j) == T{};
  return zeros;
}

// Dense MQS saddle system in the loop solver's layout: KCL rows first
// (+-1 incidence of the filaments at each node, a unit pin on each wire's
// first node), then one branch row per filament holding its incidence and
// -(R + jwL). Wires are chains of filaments, so an inner node's KCL row has
// exactly two entries; alternate wires run in x and y, and orthogonal
// filaments have an exactly-zero mutual term. For real T the reactive
// parts join Z as real numbers (a real system of the same shape).
template <typename T>
DenseMatrix<T> mqs_saddle(std::size_t wires, std::size_t segments) {
  const std::size_t per_wire = segments + 1;
  const std::size_t nodes = wires * per_wire;
  const std::size_t nf = wires * segments;
  DenseMatrix<T> a(nodes + nf, nodes + nf);
  T jw(1.0);
  if constexpr (std::is_same_v<T, Complex>) jw = Complex{0.0, 1.0};
  for (std::size_t w = 0; w < wires; ++w) {
    a(w * per_wire, w * per_wire) += T(1.0);
    for (std::size_t s = 0; s < segments; ++s) {
      const std::size_t k = w * segments + s;
      const std::size_t na = w * per_wire + s;
      const std::size_t nb = na + 1;
      const std::size_t br = nodes + k;
      a(na, br) += T(1.0);
      a(nb, br) -= T(1.0);
      a(br, na) += T(1.0);
      a(br, nb) -= T(1.0);
      a(br, br) -= T(0.1 + 0.01 * static_cast<double>(k % 5)) +
                   jw * T(2.0 + 0.1 * static_cast<double>(k % 3));
      for (std::size_t w2 = w % 2; w2 < wires; w2 += 2) {  // parallel wires
        for (std::size_t s2 = 0; s2 < segments; ++s2) {
          const std::size_t m = w2 * segments + s2;
          if (m == k) continue;
          const double dist = static_cast<double>(
              (w > w2 ? w - w2 : w2 - w) + (s > s2 ? s - s2 : s2 - s));
          a(br, nodes + m) -= jw * T(0.8 / (1.0 + dist));
        }
      }
    }
  }
  return a;
}

// Sparse random matrix (about 3/4 exact zeros) with no diagonal
// preference, so partial pivoting swaps rows throughout. Complex entries
// have both parts nonzero, unlike the saddle systems' purely real or purely
// imaginary ones, so every term of a written-out product is rounded.
template <typename T = double>
DenseMatrix<T> zero_rich_random(std::size_t n, std::uint64_t seed) {
  DenseMatrix<T> a(n, n);
  std::uint64_t s = seed;
  const auto next = [&s] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(s >> 11) / static_cast<double>(1ULL << 53) -
           0.5;
  };
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const double re = next();
      if ((s >> 60) >= 4) continue;  // 12 of 16 entries stay zero
      if constexpr (std::is_same_v<T, Complex>)
        a(i, j) = Complex{re, next()};
      else
        a(i, j) = re;
    }
  for (std::size_t i = 0; i < n; ++i) a(i, (i * 7 + 3) % n) += T(1.0);
  return a;
}

// The classic unblocked right-looking elimination with no zero-skip: every
// rank-1 update is applied, zero multipliers included. The reference the
// skipping factor must reproduce.
template <typename T>
std::pair<DenseMatrix<T>, std::vector<std::size_t>> classic_lu(
    DenseMatrix<T> a) {
  const std::size_t n = a.rows();
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::abs(a(i, k)) > best) {
        best = std::abs(a(i, k));
        pivot = i;
      }
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(pivot, j));
      std::swap(perm[k], perm[pivot]);
    }
    const T diag = a(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const T factor = a(i, k) / diag;
      a(i, k) = factor;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= factor * a(k, j);
    }
  }
  return {std::move(a), std::move(perm)};
}

// Rewrites every third exactly-zero entry as -0 (for complex, alternately
// (-0, -0) and (-0, +0)).
template <typename T>
DenseMatrix<T> with_negative_zeros(DenseMatrix<T> a) {
  std::size_t seen = 0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!(a(i, j) == T{}) || seen++ % 3 != 0) continue;
      if constexpr (std::is_same_v<T, Complex>)
        a(i, j) = seen % 2 ? Complex{-0.0, -0.0} : Complex{-0.0, 0.0};
      else
        a(i, j) = -0.0;
    }
  return a;
}

TEST(LuZeroSkip, MqsSaddleBlockedMatchesUnblockedBitwiseAtAnyThreads) {
  const CMatrix a = mqs_saddle<Complex>(8, 8);  // 136 unknowns
  ASSERT_GT(zero_count(a) * 4, a.rows() * a.cols() * 3);  // > 75% zeros
  const CLU ref(a, LuOptions{.block = 1});
  ThreadsGuard guard;
  for (const unsigned threads : {1u, 4u}) {
    ind::runtime::set_global_threads(threads);
    for (const std::size_t blk : {std::size_t{8}, std::size_t{48},
                                  std::size_t{0} /* env default */}) {
      const CLU f(a, LuOptions{.block = blk});
      EXPECT_EQ(f.perm(), ref.perm());
      EXPECT_TRUE(bitwise_equal(f.packed(), ref.packed()))
          << "threads=" << threads << " block=" << blk;
    }
  }
}

TEST(LuZeroSkip, MatchesNonSkippingEliminationBitwise) {
  const Matrix real_saddle = mqs_saddle<double>(6, 8);
  const Matrix real_random = zero_rich_random(120, 3);
  const CMatrix complex_saddle = mqs_saddle<Complex>(8, 8);
  for (const Matrix* a : {&real_saddle, &real_random}) {
    const auto [lu, perm] = classic_lu(*a);
    const LU f(*a);
    EXPECT_EQ(f.perm(), perm);
    EXPECT_TRUE(bitwise_equal(f.packed(), lu));
  }
  const auto [lu, perm] = classic_lu(complex_saddle);
  const CLU f(complex_saddle);
  EXPECT_EQ(f.perm(), perm);
  EXPECT_TRUE(bitwise_equal(f.packed(), lu));
}

TEST(LuZeroSkip, NegativeZeroInputsDifferOnlyInZeroSign) {
  const Matrix real = with_negative_zeros(zero_rich_random(120, 3));
  const CMatrix cplx = with_negative_zeros(mqs_saddle<Complex>(8, 8));
  {
    const auto [lu, perm] = classic_lu(real);
    const LU f(real);
    EXPECT_EQ(f.perm(), perm);
    EXPECT_TRUE(equal_up_to_zero_sign(f.packed(), lu));
    // Skipping is still decided per (i, k): blocked == unblocked, bitwise.
    EXPECT_TRUE(
        bitwise_equal(f.packed(), LU(real, LuOptions{.block = 1}).packed()));
  }
  const auto [lu, perm] = classic_lu(cplx);
  const CLU f(cplx);
  EXPECT_EQ(f.perm(), perm);
  EXPECT_TRUE(equal_up_to_zero_sign(f.packed(), lu));
  EXPECT_TRUE(
      bitwise_equal(f.packed(), CLU(cplx, LuOptions{.block = 1}).packed()));
}

// --- zero-skipping solves -------------------------------------------------

// The triangular solves without the zero skip: every update applied, with
// std::complex's own operators, on the factor's packed L\U and permutation.
// The references the skipping solves must reproduce bit for bit.
template <typename T>
std::vector<T> reference_solve(const LuFactor<T>& f, const std::vector<T>& b) {
  const DenseMatrix<T>& lu = f.packed();
  const std::size_t n = f.size();
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[f.perm()[i]];
  for (std::size_t i = 1; i < n; ++i) {
    T acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * x[j];
    x[i] = acc;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * x[j];
    x[ii] = acc / lu(ii, ii);
  }
  return x;
}

template <typename T>
std::vector<T> reference_solve_transposed(const LuFactor<T>& f,
                                          const std::vector<T>& b) {
  const DenseMatrix<T>& lu = f.packed();
  const std::size_t n = f.size();
  std::vector<T> z(n);
  for (std::size_t i = 0; i < n; ++i) {
    T acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu(j, i) * z[j];
    z[i] = acc / lu(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    T acc = z[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(j, ii) * z[j];
    z[ii] = acc;
  }
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[f.perm()[i]] = z[i];
  return x;
}

// Hager's estimator exactly as LuFactor::condition_estimate runs it, on the
// reference solves.
template <typename T>
double reference_condition_estimate(const LuFactor<T>& f) {
  const std::size_t n = f.size();
  const auto sign_of = [](const T& v) -> T {
    if constexpr (std::is_same_v<T, Complex>) {
      const double m = std::abs(v);
      return m == 0.0 ? Complex{1.0, 0.0} : v / m;
    } else {
      return v >= 0.0 ? 1.0 : -1.0;
    }
  };
  std::vector<T> x(n, T(1.0 / static_cast<double>(n)));
  double est = 0.0;
  std::size_t last_j = n;
  for (int iter = 0; iter < 5; ++iter) {
    const std::vector<T> y = reference_solve(f, x);
    double y1 = 0.0;
    for (const T& v : y) y1 += std::abs(v);
    est = std::max(est, y1);
    std::vector<T> xi(n);
    for (std::size_t i = 0; i < n; ++i) xi[i] = sign_of(y[i]);
    const std::vector<T> z = reference_solve_transposed(f, xi);
    std::size_t j = 0;
    double zmax = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      if (std::abs(z[i]) > zmax) {
        zmax = std::abs(z[i]);
        j = i;
      }
    if (j == last_j || zmax <= y1) break;
    last_j = j;
    std::fill(x.begin(), x.end(), T{});
    x[j] = T{1.0};
  }
  return f.norm1() * est;
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// Deterministic right-hand sides in [-1, 1] (both parts for complex T).
template <typename T>
DenseMatrix<T> random_rhs(std::size_t rows, std::size_t cols,
                          std::uint64_t seed) {
  DenseMatrix<T> b(rows, cols);
  std::uint64_t s = seed;
  const auto next = [&s] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return 2.0 * static_cast<double>(s >> 11) /
               static_cast<double>(1ULL << 53) -
           1.0;
  };
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) {
      if constexpr (std::is_same_v<T, Complex>)
        b(i, j) = Complex{next(), next()};
      else
        b(i, j) = next();
    }
  return b;
}

template <typename T>
std::vector<T> column(const DenseMatrix<T>& b, std::size_t j) {
  std::vector<T> c(b.rows());
  for (std::size_t i = 0; i < b.rows(); ++i) c[i] = b(i, j);
  return c;
}

// PRIMA-shaped MNA pencil G + s0*C of an RLC mesh on a side x side node
// grid: row resistors, a capacitor at every node, a driven node 0, and one
// inductor branch per vertical node pair whose currents are extra unknowns,
// coupled by mutual inductance to the parallel branches of the same row
// band. Most entries are exact zeros, as in the reduced clock nets.
Matrix prima_mna(std::size_t side, double s0) {
  const std::size_t nodes = side * side;
  const std::size_t branches = (side - 1) * side;
  Matrix a(nodes + branches, nodes + branches);
  const auto node = [side](std::size_t r, std::size_t c) {
    return r * side + c;
  };
  a(0, 0) += 1.0;
  for (std::size_t r = 0; r < side; ++r)
    for (std::size_t c = 0; c < side; ++c) {
      const std::size_t i = node(r, c);
      a(i, i) += s0 * (0.5 + 0.05 * static_cast<double>(i % 5));
      if (c + 1 < side) {
        const double g = 1.0 / (1.0 + 0.1 * static_cast<double>(i % 7));
        const std::size_t k = node(r, c + 1);
        a(i, i) += g;
        a(k, k) += g;
        a(i, k) -= g;
        a(k, i) -= g;
      }
    }
  for (std::size_t r = 0; r + 1 < side; ++r)
    for (std::size_t c = 0; c < side; ++c) {
      const std::size_t br = nodes + r * side + c;
      const std::size_t top = node(r, c), bottom = node(r + 1, c);
      a(top, br) += 1.0;
      a(bottom, br) -= 1.0;
      a(br, top) -= 1.0;
      a(br, bottom) += 1.0;
      for (std::size_t c2 = 0; c2 < side; ++c2) {
        const double dist =
            static_cast<double>(c > c2 ? c - c2 : c2 - c);
        a(br, nodes + r * side + c2) +=
            s0 * (c2 == c ? 2.0 : 0.5 / (1.0 + dist));
      }
    }
  return a;
}

// Vector, multi-RHS and transposed solves and the condition estimate of one
// factor against the non-skipping references, bitwise.
template <typename T>
void expect_solves_match_reference(const LuFactor<T>& f,
                                   std::uint64_t seed) {
  const std::size_t n = f.size();
  // 40 columns: a full 32-wide strip of the multi-RHS solve plus a tail.
  const DenseMatrix<T> b = random_rhs<T>(n, 40, seed);
  const DenseMatrix<T> x = f.solve(b);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const std::vector<T> bj = column(b, j);
    const std::vector<T> ref = reference_solve(f, bj);
    ASSERT_TRUE(bitwise_equal(f.solve(bj), ref)) << "vector solve, rhs " << j;
    ASSERT_TRUE(bitwise_equal(column(x, j), ref)) << "strip solve, rhs " << j;
    ASSERT_TRUE(bitwise_equal(f.solve_transposed(bj),
                              reference_solve_transposed(f, bj)))
        << "transposed solve, rhs " << j;
  }
  const double est = f.condition_estimate();
  const double ref_est = reference_condition_estimate(f);
  EXPECT_EQ(std::memcmp(&est, &ref_est, sizeof(double)), 0)
      << est << " vs " << ref_est;
}

TEST(LuZeroSkip, SolvesMatchNonSkippingReferenceBitwise) {
  const Matrix real_saddle = mqs_saddle<double>(6, 8);
  const Matrix mna = prima_mna(8, 0.7);
  const CMatrix complex_saddle = mqs_saddle<Complex>(8, 8);
  ASSERT_GT(zero_count(mna) * 4, mna.rows() * mna.cols() * 3);
  ThreadsGuard guard;
  for (const unsigned threads : {1u, 4u}) {
    ind::runtime::set_global_threads(threads);
    SCOPED_TRACE(threads);
    {
      SCOPED_TRACE("real saddle");
      expect_solves_match_reference(LU(real_saddle), 5);
    }
    {
      SCOPED_TRACE("PRIMA-shaped MNA");
      const LU f(mna);
      ASSERT_GT(zero_count(f.packed()) * 2, mna.rows() * mna.cols());
      expect_solves_match_reference(f, 6);
    }
    {
      SCOPED_TRACE("complex saddle");
      expect_solves_match_reference(CLU(complex_saddle), 7);
    }
  }
}

// Seven 48-wide panels, so every kernel (panel rank-1, TRSM, the fused
// GEMM pass and its tail) runs on several blocks, at one and at four
// threads: the 328-unknown complex saddle, and a general complex matrix
// whose products round in both terms.
TEST(LuZeroSkip, MultiPanelComplexMatchesReferenceBitwise) {
  const CMatrix saddle = mqs_saddle<Complex>(8, 20);
  const CMatrix random = zero_rich_random<Complex>(320, 9);
  ASSERT_GE(saddle.rows(), 300u);
  ThreadsGuard guard;
  for (const CMatrix* a : {&saddle, &random}) {
    const auto [lu, perm] = classic_lu(*a);
    for (const unsigned threads : {1u, 4u}) {
      ind::runtime::set_global_threads(threads);
      SCOPED_TRACE(threads);
      const CLU f(*a);
      EXPECT_EQ(f.perm(), perm);
      ASSERT_TRUE(bitwise_equal(f.packed(), lu));
      expect_solves_match_reference(f, 11);
    }
  }
}

TEST(Lu, MatrixRhsValidatesShapeUpFront) {
  const Matrix a{{4, -2}, {-2, 4}};
  const LU lu(a);
  const Matrix bad(3, 2);  // wrong row count
  EXPECT_THROW(lu.solve(bad), std::invalid_argument);
  const Matrix none(2, 0);  // zero columns: early-out, no pool dispatch
  const Matrix x = lu.solve(none);
  EXPECT_EQ(x.rows(), 2u);
  EXPECT_EQ(x.cols(), 0u);
}

TEST(Lu, MultiRhsMatchesVectorSolveBitwise) {
  const std::size_t n = 40, nrhs = 5;
  const Matrix a = dominant_random(n, 11);
  const LU lu(a);
  Matrix b(n, nrhs);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < nrhs; ++j)
      b(i, j) = std::sin(static_cast<double>(i * nrhs + j));
  const Matrix x = lu.solve(b);
  for (std::size_t j = 0; j < nrhs; ++j) {
    Vector bj(n);
    for (std::size_t i = 0; i < n; ++i) bj[i] = b(i, j);
    const Vector xj = lu.solve(bj);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x(i, j), xj[i]);
  }
}

TEST(LuBlocked, WorkBudgetCancelsMidFactor) {
  auto& gov = ind::govern::Governor::instance();
  const Matrix a = dominant_random(128, 31);
  ind::govern::RunBudget budget;
  budget.work_units = 100;  // far below the factor's ~n^2/2 panel charges
  gov.configure(budget);
  gov.begin_run();
  EXPECT_THROW(LuFactor<double>{a}, ind::govern::CancelledError);
  gov.configure({});
  gov.begin_run();
}

}  // namespace

// ---------------------------------------------------------------------------
// AMD oracle and flat sparse-LU storage.
// ---------------------------------------------------------------------------

namespace {

using ind::geom::um;

// The quotient-graph minimum degree on an ordered (degree, node) set and
// per-node vectors, kept as the oracle: la::amd_order must return exactly
// this order on every pattern.
std::vector<std::size_t> reference_amd_order(const CscMatrix& a) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t n = a.rows();
  std::vector<std::size_t> order;
  order.reserve(n);
  if (n == 0) return order;

  // Symmetric adjacency of A + Aᵀ, no self-loops, sorted and deduplicated.
  std::vector<std::vector<std::size_t>> var_adj(n);
  {
    const auto& cp = a.col_ptr();
    const auto& ri = a.row_idx();
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t p = cp[j]; p < cp[j + 1]; ++p) {
        const std::size_t i = ri[p];
        if (i == j) continue;
        var_adj[i].push_back(j);
        var_adj[j].push_back(i);
      }
    }
    for (auto& nb : var_adj) {
      std::sort(nb.begin(), nb.end());
      nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    }
  }

  // Quotient graph: an eliminated pivot p becomes element p whose variable
  // list elem_vars[p] is the clique its elimination would fill in. Variables
  // track plain-edge neighbours (var_adj, shrinking as edges get covered by
  // elements) plus adjacent elements (var_elem).
  std::vector<std::vector<std::size_t>> elem_vars(n);
  std::vector<std::vector<std::size_t>> var_elem(n);
  std::vector<char> alive(n, 1);
  std::vector<char> absorbed(n, 0);
  std::vector<std::size_t> degree(n), mark(n, kNone);

  // (degree, node) priority set: deterministic min-degree with
  // smallest-index tie-break.
  std::set<std::pair<std::size_t, std::size_t>> queue;
  for (std::size_t i = 0; i < n; ++i) {
    degree[i] = var_adj[i].size();
    queue.emplace(degree[i], i);
  }

  std::vector<std::size_t> lp;  // variables of the new element
  for (std::size_t k = 0; k < n; ++k) {
    const auto [d, p] = *queue.begin();
    queue.erase(queue.begin());
    (void)d;

    // L_p = (adjacent variables ∪ variables of adjacent elements) \ {p}.
    lp.clear();
    mark[p] = k;
    for (const std::size_t v : var_adj[p]) {
      if (!alive[v] || mark[v] == k) continue;
      mark[v] = k;
      lp.push_back(v);
    }
    for (const std::size_t e : var_elem[p]) {
      for (const std::size_t v : elem_vars[e]) {
        if (!alive[v] || mark[v] == k) continue;
        mark[v] = k;
        lp.push_back(v);
      }
    }
    std::sort(lp.begin(), lp.end());

    // Old elements reachable from p are absorbed into the new element p.
    for (const std::size_t e : var_elem[p]) {
      absorbed[e] = 1;
      elem_vars[e].clear();
      elem_vars[e].shrink_to_fit();
    }
    var_elem[p].clear();
    elem_vars[p] = lp;

    for (const std::size_t i : lp) {
      // Edges into L_p ∪ {p} are now covered by element p; dead variables
      // are dropped on the same pass.
      auto& nb = var_adj[i];
      nb.erase(std::remove_if(nb.begin(), nb.end(),
                              [&](std::size_t v) {
                                return !alive[v] || v == p || mark[v] == k;
                              }),
               nb.end());
      auto& el = var_elem[i];
      el.erase(std::remove_if(el.begin(), el.end(),
                              [&](std::size_t e) { return absorbed[e] != 0; }),
               el.end());
      el.push_back(p);

      // Approximate external degree: plain edges plus element sizes (shared
      // members may be double-counted — the "approximate" in AMD).
      std::size_t d2 = nb.size();
      for (const std::size_t e : el) d2 += elem_vars[e].size() - 1;
      queue.erase({degree[i], i});
      degree[i] = d2;
      queue.emplace(d2, i);
    }

    alive[p] = 0;
    var_adj[p].clear();
    var_adj[p].shrink_to_fit();
    order.push_back(p);
  }
  return order;
}

// The Table-1 clock net's full PEEC-RLC companion matrix G + (2/h) C with
// the drivers stamped — the pattern the transient's sparse LU orders.
CscMatrix table1_peec_rlc_matrix() {
  ind::geom::Layout layout(ind::geom::default_tech());
  ind::bench::ClockGridSpec spec;
  spec.pads_per_side = 2;
  spec.levels = 3;
  ind::bench::add_clock_over_grid(layout, spec);
  ind::peec::PeecOptions popts;
  popts.max_segment_length = um(160);
  popts.decap.sites = 24;
  popts.background.enable = true;
  popts.background.sources = 8;
  popts.mutual_window = um(200);
  const ind::peec::PeecModel model = ind::peec::build_peec_model(layout, popts);
  const ind::circuit::Mna mna(model.netlist);
  TripletMatrix g, c;
  mna.stamp_static(g, c);
  mna.stamp_drivers(g, 0.0);
  for (const auto& e : c.entries()) g.add(e.row, e.col, 1e12 * e.value);
  return CscMatrix(g);
}

struct NodalSystem {
  CscMatrix a;
  std::size_t cells = 0;
};

// The crossover bus's FFT-GMRES preconditioner matrix: the real-equivalent
// [[Re, -Im], [Im, Re]] of S = P + A diag(y) Aᵀ on the port's lattice
// incidence, stamped as fast/precond.cpp does, with one cell admittance.
NodalSystem crossover_nodal_system(int wires, int cols) {
  constexpr double kPitch = 4e-6;
  ind::geom::Layout bus(ind::geom::default_tech());
  const int sig = bus.add_net("sig", ind::geom::NetKind::Signal);
  const int gnd = bus.add_net("gnd", ind::geom::NetKind::Ground);
  const double len = cols * kPitch;
  for (int w = 0; w < wires; ++w)
    bus.add_wire(w == 0 ? sig : gnd, 6, {0, w * kPitch}, {len, w * kPitch},
                 um(2));
  const ind::geom::Layout l = ind::geom::refine(bus, kPitch);
  ind::loop::MqsOptions opts;
  opts.method = ind::loop::ExtractionMethod::FftGmres;
  opts.fast.voxel.pitch = kPitch;
  ind::loop::MqsSolver solver(l.segments(), l.vias(), l.tech(), opts);
  solver.short_nodes(*solver.node_at({len, 0}, 6),
                     *solver.node_at({len, kPitch}, 6));
  const ind::fast::LatticeIncidence inc = solver.lattice_incidence(
      *solver.node_at({0, 0}, 6), *solver.node_at({0, kPitch}, 6));

  const std::size_t m = inc.nodes;
  TripletMatrix t(2 * m, 2 * m);
  const auto stamp = [&](std::size_t i, std::size_t j, Complex v) {
    if (v.real() != 0.0) {
      t.add(i, j, v.real());
      t.add(i + m, j + m, v.real());
    }
    if (v.imag() != 0.0) {
      t.add(i, j + m, -v.imag());
      t.add(i + m, j, v.imag());
    }
  };
  const Complex y = 1.0 / Complex(1.0, 2.0);
  for (std::size_t c = 0; c < inc.node_a.size(); ++c) {
    const std::ptrdiff_t na = inc.node_a[c], nb = inc.node_b[c];
    if (na == nb) continue;
    const auto a = static_cast<std::size_t>(na);
    const auto b = static_cast<std::size_t>(nb);
    if (na >= 0) stamp(a, a, y);
    if (nb >= 0) stamp(b, b, y);
    if (na >= 0 && nb >= 0) {
      stamp(a, b, -y);
      stamp(b, a, -y);
    }
  }
  for (const std::size_t p : inc.pins) stamp(p, p, 1.0);
  return {CscMatrix(t), solver.voxel_grid()->cells.size()};
}

TEST(Amd, MatchesReferenceOnGridLaplacians) {
  for (const int n : {1, 2, 3, 5, 8, 13, 21, 34})
    EXPECT_EQ(amd_order(grid_laplacian(n)),
              reference_amd_order(grid_laplacian(n)))
        << n << "x" << n;
}

TEST(Amd, MatchesReferenceOnRandomUnsymmetricPatterns) {
  std::uint64_t s = 12345;
  const auto next = [&] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  };
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + next() % 400;
    const std::size_t per_col = 1 + next() % 6;
    TripletMatrix t(n, n);
    for (std::size_t j = 0; j < n; ++j) {
      if (next() % 8 != 0) t.add(j, j, 1.0);  // some structural zeros
      for (std::size_t q = 0; q < per_col; ++q)
        if (next() % 3 != 0) t.add(next() % n, j, 1.0);
    }
    const CscMatrix a(t);
    EXPECT_EQ(amd_order(a), reference_amd_order(a)) << "trial " << trial;
  }
}

TEST(Amd, MatchesReferenceOnArrowMatrix) {
  for (const std::size_t n : {2u, 16u, 257u}) {
    TripletMatrix t(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      t.add(i, i, 10.0);
      if (i > 0) {
        t.add(0, i, 0.1);
        t.add(i, 0, 0.1);
      }
    }
    const CscMatrix a(t);
    EXPECT_EQ(amd_order(a), reference_amd_order(a)) << n;
  }
}

TEST(Amd, MatchesReferenceOnTable1PeecRlcPattern) {
  const CscMatrix a = table1_peec_rlc_matrix();
  ASSERT_EQ(a.rows(), 871u);
  EXPECT_EQ(amd_order(a), reference_amd_order(a));
}

TEST(Amd, MatchesReferenceOnCrossoverNodalPattern) {
  const NodalSystem sys = crossover_nodal_system(4, 256);
  EXPECT_EQ(amd_order(sys.a), reference_amd_order(sys.a));
}

TEST(SparseLu, PivotDriftMidFactorThenRefactorStayBitwise) {
  // Same pattern, one value changed: a huge sub-diagonal entry in the
  // column eliminated half-way forces an off-diagonal pivot there, so the
  // numeric-only replay abandons a half-built factor and reruns in full.
  const CscMatrix a0 = grid_laplacian(16);
  const std::vector<std::size_t> order = amd_order(a0);
  std::vector<std::size_t> pos(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) pos[order[k]] = k;
  std::size_t col = 0, row = 0;
  for (std::size_t k = order.size() / 2; k < order.size() && row == col;
       ++k) {
    const std::size_t j = order[k];
    for (std::size_t p = a0.col_ptr()[j]; p < a0.col_ptr()[j + 1]; ++p)
      if (pos[a0.row_idx()[p]] > k) {
        col = j;
        row = a0.row_idx()[p];
      }
  }
  ASSERT_NE(row, col);
  TripletMatrix t(a0.rows(), a0.cols());
  for (std::size_t j = 0; j < a0.cols(); ++j)
    for (std::size_t p = a0.col_ptr()[j]; p < a0.col_ptr()[j + 1]; ++p)
      t.add(a0.row_idx()[p], j,
            a0.row_idx()[p] == row && j == col ? 1e6 : a0.values()[p]);
  const CscMatrix a1(t);

  auto& drift = ind::runtime::MetricsRegistry::instance().counter(
      "factor.sparse_lu.pivot_drift");
  SparseLu lu(a0);
  const auto drift_before = drift.value.load();
  lu.refactor(a1);
  EXPECT_EQ(drift.value.load(), drift_before + 1);

  Vector b(a0.rows());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = std::sin(0.7 * static_cast<double>(i));
  const auto expect_bitwise = [&](const CscMatrix& a) {
    const SparseLu fresh(a);
    EXPECT_EQ(lu.fill_nnz(), fresh.fill_nnz());
    const Vector x = lu.solve(b);
    const Vector x_ref = fresh.solve(b);
    for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_ref[i]);
  };
  expect_bitwise(a1);
  lu.refactor(a1);  // replays the new schedule: numeric-only, no drift
  EXPECT_EQ(drift.value.load(), drift_before + 1);
  expect_bitwise(a1);
  lu.refactor(a0);  // drifts back
  EXPECT_EQ(drift.value.load(), drift_before + 2);
  expect_bitwise(a0);
}

TEST(SparseLu, FillCountAndMemChargeMatchFlatArrays) {
  for (const CscMatrix& a :
       {grid_laplacian(1), grid_laplacian(12), table1_peec_rlc_matrix()}) {
    const std::int64_t before = ind::govern::tracked_bytes();
    {
      SparseLu lu(a);
      const std::size_t n = a.rows(), fill = lu.fill_nnz();
      EXPECT_GE(fill, a.nnz());
      // Per triangle: n+1 column pointers; fill - n off-diagonal entries
      // (row + value) across L and U; n diagonal values.
      const std::size_t bytes =
          (2 * (n + 1) + (fill - n)) * sizeof(std::size_t) +
          fill * sizeof(double);
      EXPECT_EQ(ind::govern::tracked_bytes() - before,
                static_cast<std::int64_t>(bytes));
      lu.refactor(a);
      EXPECT_EQ(ind::govern::tracked_bytes() - before,
                static_cast<std::int64_t>(bytes));
    }
    EXPECT_EQ(ind::govern::tracked_bytes(), before);
  }
}

TEST(SparseLu, TwelveThousandUnknownLatticeStaysWithinFillBound) {
  // The 6144-cell crossover preconditioner: ~12.3k real unknowns. The
  // fft-crossover CI gate asserts fill <= 16x the voxel cells.
  const NodalSystem sys = crossover_nodal_system(8, 768);
  ASSERT_GT(sys.a.rows(), 12000u);
  const SparseLu lu(sys.a);
  EXPECT_LE(lu.fill_nnz(), 16 * sys.cells);
  Vector b(sys.a.rows());
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = std::cos(0.1 * static_cast<double>(i));
  const Vector x = lu.solve(b);
  const Vector ax = sys.a.apply(x);
  double err = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    err = std::max(err, std::abs(ax[i] - b[i]));
    norm = std::max(norm, std::abs(b[i]));
  }
  EXPECT_LE(err, 1e-9 * norm);
}

}  // namespace
