// Preconditioner for the FFT-GMRES loop extractor.
//
// GMRES runs on the lattice MQS saddle system
//
//   [[P, A], [Aᵀ, −Z]] [v; i] = [r_v; r_i],   Z = R + jωL,
//
// where v holds the active node potentials, i the cell currents, A the
// node/cell incidence and P the unit conductances that pin floating
// conductor groups. The preconditioner keeps the diagonal of Z, the cell
// self terms R_c + jωL_self, so the cell currents can be eliminated
// exactly: it factors the node matrix S = P + A Z⁻¹ Aᵀ, a grounded
// complex-symmetric lattice Laplacian with cell admittances
// y_c = 1 / (R_c + jωL_self). Re y_c > 0 and every conductor group is
// grounded or pinned, so the real part of S is symmetric positive definite:
// no diagonal pivot is ever zero, and the sparse LU's diagonal preference
// can follow the order AMD planned (fill ~12x the cell count on the
// crossover buses). The saddle matrix has zeros on its KCL diagonal, so
// pivoting there left the planned order and the factor filled (70.9M
// entries at 24k cells, against 295k for S).
//
// ComplexSparseFactor factors a complex sparse matrix through the recovery
// ladder in its real-equivalent 2m × 2m form [[Re, -Im], [Im, Re]], which
// lets the real la::SparseLu (AMD ordering, symbolic/numeric split, bitwise
// contract) serve complex systems unchanged.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "la/dense_matrix.hpp"
#include "robust/recovery.hpp"

namespace ind::fast {

enum class PrecondKind {
  None,  ///< unpreconditioned GMRES (diagnostics only)
  Diag,  ///< cell self terms, factored as the nodal Schur complement
};

struct PrecondOptions {
  PrecondKind kind = PrecondKind::Diag;
};

struct ComplexTriplet {
  std::size_t i = 0, j = 0;
  la::Complex v;
};

/// A complex sparse factorisation backed by the real SparseLu on the
/// real-equivalent doubled system.
class ComplexSparseFactor {
 public:
  ComplexSparseFactor() = default;
  /// Factors the m x m complex system given by `entries` (duplicates sum,
  /// stamp idiom) through robust::factor_sparse_with_recovery; ladder
  /// actions land in `report`. Timed under "fast.precond_factor".
  ComplexSparseFactor(std::size_t m, const std::vector<ComplexTriplet>& entries,
                      robust::SolveReport& report, std::string_view where,
                      std::size_t dense_fallback_limit = 8192);

  bool usable() const { return factor_.usable(); }
  std::size_t size() const { return m_; }

  /// x = A^-1 b.
  la::CVector solve(const la::CVector& b) const;

 private:
  std::size_t m_ = 0;
  robust::GuardedSparseFactor factor_;
};

/// Topology of one port problem on the lattice: the incidence A and pins P
/// of the saddle system above. Cell c's current leaves node_a[c] and enters
/// node_b[c]; -1 marks the reference node, which has no row.
struct LatticeIncidence {
  std::size_t nodes = 0;                       ///< active (non-reference) nodes
  std::vector<std::ptrdiff_t> node_a, node_b;  ///< per cell
  std::vector<std::size_t> pins;  ///< nodes tied to the reference by 1 S
  std::size_t port = 0;           ///< active index of the excited node
};

/// M⁻¹ for the saddle system with a diagonal Z = diag(z): v = S⁻¹(r_v +
/// A Z⁻¹ r_i), then i = Z⁻¹(Aᵀ v − r_i). Exact for that system; only the
/// nodes × nodes matrix S is factored.
class NodalPreconditioner {
 public:
  /// Factors S through ComplexSparseFactor. `inc` must outlive this object.
  NodalPreconditioner(const LatticeIncidence& inc,
                      const std::vector<la::Complex>& z,
                      robust::SolveReport& report, std::string_view where,
                      std::size_t dense_fallback_limit);

  bool usable() const { return s_.usable(); }

  /// out = M⁻¹ r over the stacked [v; i] vector (nodes + cells entries).
  void apply(const la::CVector& r, la::CVector& out) const;

 private:
  const LatticeIncidence& inc_;
  std::vector<la::Complex> y_;  // cell admittances 1 / z_c
  ComplexSparseFactor s_;
};

}  // namespace ind::fast
