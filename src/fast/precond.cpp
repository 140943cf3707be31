#include "fast/precond.hpp"

#include <algorithm>

#include "la/sparse.hpp"
#include "runtime/metrics.hpp"

namespace ind::fast {
namespace {

std::vector<la::Complex> admittances(const std::vector<la::Complex>& z) {
  std::vector<la::Complex> y(z.size());
  for (std::size_t c = 0; c < z.size(); ++c) y[c] = 1.0 / z[c];
  return y;
}

/// S = P + A diag(y) Aᵀ, stamped cell by cell.
std::vector<ComplexTriplet> node_matrix(const LatticeIncidence& inc,
                                        const std::vector<la::Complex>& y) {
  std::vector<ComplexTriplet> entries;
  entries.reserve(4 * y.size() + inc.pins.size());
  for (std::size_t c = 0; c < y.size(); ++c) {
    const std::ptrdiff_t na = inc.node_a[c], nb = inc.node_b[c];
    if (na == nb) continue;  // a shorted cell has a zero incidence column
    if (na >= 0) {
      const auto a = static_cast<std::size_t>(na);
      entries.push_back({a, a, y[c]});
    }
    if (nb >= 0) {
      const auto b = static_cast<std::size_t>(nb);
      entries.push_back({b, b, y[c]});
    }
    if (na >= 0 && nb >= 0) {
      const auto a = static_cast<std::size_t>(na);
      const auto b = static_cast<std::size_t>(nb);
      entries.push_back({a, b, -y[c]});
      entries.push_back({b, a, -y[c]});
    }
  }
  for (const std::size_t p : inc.pins) entries.push_back({p, p, 1.0});
  return entries;
}

}  // namespace

ComplexSparseFactor::ComplexSparseFactor(
    std::size_t m, const std::vector<ComplexTriplet>& entries,
    robust::SolveReport& report, std::string_view where,
    std::size_t dense_fallback_limit)
    : m_(m) {
  runtime::ScopedTimer timer("fast.precond_factor");
  // Real-equivalent doubled system [[Re, -Im], [Im, Re]]: the real SparseLu
  // (AMD + symbolic/numeric split, bitwise contract) factors complex
  // operators without a complex code path.
  la::TripletMatrix t(2 * m, 2 * m);
  for (const ComplexTriplet& e : entries) {
    const double re = e.v.real(), im = e.v.imag();
    if (re != 0.0) {
      t.add(e.i, e.j, re);
      t.add(e.i + m, e.j + m, re);
    }
    if (im != 0.0) {
      t.add(e.i, e.j + m, -im);
      t.add(e.i + m, e.j, im);
    }
  }
  const la::CscMatrix a(t);
  factor_ = robust::factor_sparse_with_recovery(a, report, where,
                                                dense_fallback_limit);
}

la::CVector ComplexSparseFactor::solve(const la::CVector& b) const {
  la::Vector rb(2 * m_);
  for (std::size_t i = 0; i < m_; ++i) {
    rb[i] = b[i].real();
    rb[i + m_] = b[i].imag();
  }
  const la::Vector rx = factor_.solve(rb);
  la::CVector x(m_);
  for (std::size_t i = 0; i < m_; ++i) x[i] = {rx[i], rx[i + m_]};
  return x;
}

NodalPreconditioner::NodalPreconditioner(const LatticeIncidence& inc,
                                         const std::vector<la::Complex>& z,
                                         robust::SolveReport& report,
                                         std::string_view where,
                                         std::size_t dense_fallback_limit)
    : inc_(inc),
      y_(admittances(z)),
      s_(inc.nodes, node_matrix(inc, y_), report, where,
         dense_fallback_limit) {}

void NodalPreconditioner::apply(const la::CVector& r, la::CVector& out) const {
  const std::size_t n = inc_.nodes, nc = y_.size();
  // Node right-hand side r_v + A Z⁻¹ r_i.
  la::CVector rhs(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(n));
  for (std::size_t c = 0; c < nc; ++c) {
    const la::Complex w = y_[c] * r[n + c];
    if (inc_.node_a[c] >= 0) rhs[static_cast<std::size_t>(inc_.node_a[c])] += w;
    if (inc_.node_b[c] >= 0) rhs[static_cast<std::size_t>(inc_.node_b[c])] -= w;
  }
  const la::CVector v = s_.solve(rhs);
  // Cell currents i = Z⁻¹ (Aᵀ v − r_i).
  out.assign(n + nc, la::Complex{});
  std::copy(v.begin(), v.end(), out.begin());
  for (std::size_t c = 0; c < nc; ++c) {
    la::Complex drop = -r[n + c];
    if (inc_.node_a[c] >= 0) drop += v[static_cast<std::size_t>(inc_.node_a[c])];
    if (inc_.node_b[c] >= 0) drop -= v[static_cast<std::size_t>(inc_.node_b[c])];
    out[n + c] = y_[c] * drop;
  }
}

}  // namespace ind::fast
