#include "loop/mqs_solver.hpp"

#include "runtime/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "extract/partial_inductance.hpp"
#include "la/lu.hpp"
#include "robust/diagnostics.hpp"
#include "robust/recovery.hpp"

namespace ind::loop {
namespace {

std::uint64_t key_of(const geom::Point& p, int layer, double snap) {
  const auto qx = static_cast<std::int64_t>(std::llround(p.x / snap));
  const auto qy = static_cast<std::int64_t>(std::llround(p.y / snap));
  const std::uint64_t ux = static_cast<std::uint64_t>(qx + (1LL << 27));
  const std::uint64_t uy = static_cast<std::uint64_t>(qy + (1LL << 27));
  return (static_cast<std::uint64_t>(layer) << 56) | (ux << 28) | uy;
}

/// Conductor groups not connected to the reference have no defined
/// potential (singular KCL block). The port problems tie one node of each
/// such group to the reference with a unit conductance: since that is the
/// group's only connection, zero net current flows through it — the fix is
/// exact, it merely pins the floating potential. Branch k joins nodes a[k]
/// and b[k]; returns the lowest active node (compact >= 0) of every group
/// without `ref`, in ascending order.
std::vector<std::size_t> floating_group_pins(
    const std::vector<std::size_t>& a, const std::vector<std::size_t>& b,
    const std::vector<std::ptrdiff_t>& compact, std::size_t ref) {
  std::vector<std::size_t> comp(compact.size());
  for (std::size_t i = 0; i < comp.size(); ++i) comp[i] = i;
  const auto find = [&](std::size_t x) {
    while (comp[x] != x) x = comp[x] = comp[comp[x]];
    return x;
  };
  for (std::size_t k = 0; k < a.size(); ++k) {
    const std::size_t ra = find(a[k]);
    const std::size_t rb = find(b[k]);
    if (ra != rb) comp[ra] = rb;
  }
  std::vector<std::size_t> pins;
  std::vector<char> seen(comp.size(), 0);
  const std::size_t ref_comp = find(ref);
  for (std::size_t i = 0; i < comp.size(); ++i) {
    if (compact[i] < 0) continue;
    const std::size_t c = find(i);
    if (c == ref_comp || seen[c]) continue;
    seen[c] = 1;
    pins.push_back(i);
  }
  return pins;
}

}  // namespace

const char* to_string(ExtractionMethod method) {
  switch (method) {
    case ExtractionMethod::Dense: return "dense";
    case ExtractionMethod::FftGmres: return "fft_gmres";
    case ExtractionMethod::Auto: return "auto";
  }
  return "unknown";
}

MqsSolver::MqsSolver(const std::vector<geom::Segment>& segments,
                     const std::vector<geom::Via>& vias,
                     const geom::Technology& tech, const MqsOptions& opts)
    : snap_(opts.snap), opts_(opts) {
  std::vector<std::size_t> parent_of;
  filaments_ = extract::split_all(segments, parent_of, opts.skin);

  // Parent-endpoint nodes: filaments of one parent share its two nodes, so
  // current can redistribute laterally only at segment boundaries (volume
  // filament discretisation). Ids follow first appearance; the sorted
  // lookup table node_at() searches is built once below.
  std::unordered_map<std::uint64_t, std::size_t> ids;
  ids.reserve(2 * segments.size());
  auto get_node = [&](const geom::Point& p, int layer, geom::NetKind kind) {
    const auto [it, inserted] =
        ids.try_emplace(key_of(p, layer, snap_), node_count_);
    if (inserted) {
      node_keys_.emplace_back(it->first, node_count_);
      node_info_.push_back({p, layer, kind});
      alias_.push_back(node_count_++);
    }
    return it->second;
  };

  fil_a_.reserve(filaments_.size());
  fil_b_.reserve(filaments_.size());
  fil_resistance_.reserve(filaments_.size());
  for (std::size_t k = 0; k < filaments_.size(); ++k) {
    const geom::Segment& parent = segments[parent_of[k]];
    fil_a_.push_back(get_node(parent.a, parent.layer, parent.kind));
    fil_b_.push_back(get_node(parent.b, parent.layer, parent.kind));
    const geom::Segment& f = filaments_[k];
    const geom::Layer& layer = tech.layer(f.layer);
    // Volumetric resistivity recovered from the sheet model: rho = Rs * t.
    const double rho = layer.sheet_resistance * layer.thickness;
    fil_resistance_.push_back(
        std::max(rho * f.length() / (f.width * f.thickness), 1e-9));
  }
  std::sort(node_keys_.begin(), node_keys_.end());

  method_ = opts.method;
  if (method_ == ExtractionMethod::Auto)
    method_ = filaments_.size() >= opts.fast.auto_threshold
                  ? ExtractionMethod::FftGmres
                  : ExtractionMethod::Dense;

  if (method_ == ExtractionMethod::FftGmres && !filaments_.empty()) {
    fast::VoxelGrid grid = fast::voxelize(filaments_, tech, opts.fast.voxel);
    if (grid.cells.empty()) {
      // Every filament is shorter than half a pitch: nothing to model on
      // the lattice — fall back to the dense path rather than fail.
      method_ = ExtractionMethod::Dense;
    } else {
      runtime::MetricsRegistry::instance().max_count(
          "fast.snap_error_ppm",
          static_cast<std::int64_t>(
              grid.stats.relative_error(grid.pitch) * 1e6));
      toeplitz_ = std::make_shared<const fast::ToeplitzLOperator>(std::move(grid));
    }
  }
  if (method_ != ExtractionMethod::FftGmres) {
    method_ = ExtractionMethod::Dense;
    fil_l_ = extract::build_partial_inductance_matrix(
        filaments_, {.window = opts.mutual_window});
  }

  for (const geom::Via& v : vias) {
    const auto lo = node_at(v.at, v.lower_layer);
    const auto hi = node_at(v.at, v.upper_layer);
    if (lo && hi) short_nodes(*lo, *hi);
  }
}

const fast::VoxelGrid* MqsSolver::voxel_grid() const {
  return toeplitz_ ? &toeplitz_->grid() : nullptr;
}

std::size_t MqsSolver::canonical(std::size_t node) const {
  while (alias_[node] != node) node = alias_[node];
  return node;
}

void MqsSolver::short_nodes(std::size_t a, std::size_t b) {
  const std::size_t ra = canonical(a), rb = canonical(b);
  if (ra != rb) alias_[std::max(ra, rb)] = std::min(ra, rb);
}

std::optional<std::size_t> MqsSolver::node_at(geom::Point p, int layer) const {
  const std::uint64_t key = key_of(p, layer, snap_);
  const auto it = std::lower_bound(
      node_keys_.begin(), node_keys_.end(), key,
      [](const auto& e, std::uint64_t k) { return e.first < k; });
  if (it == node_keys_.end() || it->first != key) return std::nullopt;
  return it->second;
}

std::optional<std::size_t> MqsSolver::nearest_node(geom::Point p,
                                                   geom::NetKind kind) const {
  std::optional<std::size_t> best;
  double best_d = 1e300;
  for (std::size_t i = 0; i < node_info_.size(); ++i) {
    if (node_info_[i].kind != kind) continue;
    const double d = geom::distance(node_info_[i].at, p);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

LoopImpedance MqsSolver::port_impedance(std::size_t plus, std::size_t minus,
                                        double frequency) const {
  if (frequency <= 0.0)
    throw std::invalid_argument("port_impedance: frequency must be positive");
  runtime::ScopedTimer timer("solve.mqs_port");
  runtime::MetricsRegistry::instance().max_count(
      "solve.mqs_port.max_filaments",
      static_cast<std::int64_t>(filaments_.size()));
  if (method_ == ExtractionMethod::FftGmres)
    return port_impedance_fft(plus, minus, frequency);
  return port_impedance_dense(plus, minus, frequency);
}

LoopImpedance MqsSolver::port_impedance_dense(std::size_t plus,
                                              std::size_t minus,
                                              double frequency) const {
  const std::size_t p = canonical(plus);
  const std::size_t ref = canonical(minus);
  if (p == ref)
    throw std::invalid_argument("port_impedance: port nodes are shorted");

  const std::size_t nf = filaments_.size();
  std::vector<std::size_t> fa(nf), fb(nf);
  for (std::size_t k = 0; k < nf; ++k) {
    fa[k] = canonical(fil_a_[k]);
    fb[k] = canonical(fil_b_[k]);
  }

  // Compact indices for canonical nodes, with the reference node removed.
  std::vector<std::ptrdiff_t> compact(node_count_, -1);
  std::size_t n_active = 0;
  for (std::size_t k = 0; k < nf; ++k) {
    for (std::size_t node : {fa[k], fb[k]}) {
      if (node == ref || compact[node] >= 0) continue;
      compact[node] = static_cast<std::ptrdiff_t>(n_active++);
    }
  }
  if (compact[p] < 0)
    throw std::invalid_argument("port_impedance: plus node is floating");
  const std::vector<std::size_t> pin_nodes =
      floating_group_pins(fa, fb, compact, ref);

  const std::size_t size = n_active + nf;
  la::CMatrix a(size, size);
  const double omega = 2.0 * M_PI * frequency;
  const la::Complex jw{0.0, omega};

  for (std::size_t k = 0; k < nf; ++k) {
    const std::ptrdiff_t na = compact[fa[k]];
    const std::ptrdiff_t nb = compact[fb[k]];
    const std::size_t br = n_active + k;
    // KCL: branch current leaves a, enters b.
    if (na >= 0) a(static_cast<std::size_t>(na), br) += 1.0;
    if (nb >= 0) a(static_cast<std::size_t>(nb), br) -= 1.0;
    // Branch: v_a - v_b - (R + jwL_kk) i_k - sum_m jwL_km i_m = 0.
    if (na >= 0) a(br, static_cast<std::size_t>(na)) += 1.0;
    if (nb >= 0) a(br, static_cast<std::size_t>(nb)) -= 1.0;
    a(br, br) -= la::Complex{fil_resistance_[k], 0.0} + jw * fil_l_(k, k);
    for (std::size_t m = 0; m < nf; ++m) {
      if (m == k || fil_l_(k, m) == 0.0) continue;
      a(br, n_active + m) -= jw * fil_l_(k, m);
    }
  }

  for (std::size_t node : pin_nodes)
    a(static_cast<std::size_t>(compact[node]),
      static_cast<std::size_t>(compact[node])) += 1.0;

  la::CVector b(size, la::Complex{});
  b[static_cast<std::size_t>(compact[p])] = 1.0;  // 1 A into the plus node

  const la::CVector x = la::CLU(std::move(a)).solve(b);
  const la::Complex z = x[static_cast<std::size_t>(compact[p])];
  return {frequency, z.real(), z.imag() / omega};
}

fast::LatticeIncidence MqsSolver::lattice_incidence(std::size_t plus,
                                                    std::size_t minus) const {
  if (!toeplitz_)
    throw std::logic_error("lattice_incidence: solver is not on the fft path");
  const fast::VoxelGrid& grid = toeplitz_->grid();
  const std::size_t p_solver = canonical(plus);
  const std::size_t ref_solver = canonical(minus);
  if (p_solver == ref_solver)
    throw std::invalid_argument("port_impedance: port nodes are shorted");

  // Combined node space: union-find over the lattice nodes, seeded with the
  // solver-level topology — filaments of one parent tie their row ends
  // together, and shorts/vias recorded at the solver level merge through
  // the shared solver-canonical node. This reproduces the dense path's node
  // sharing exactly on aligned layouts.
  std::vector<std::size_t> lat(grid.node_count);
  for (std::size_t i = 0; i < grid.node_count; ++i) lat[i] = i;
  const auto lfind = [&](std::size_t x) {
    while (lat[x] != x) x = lat[x] = lat[lat[x]];
    return x;
  };
  auto lunion = [&](std::size_t a, std::size_t b) {
    const std::size_t ra = lfind(a), rb = lfind(b);
    if (ra != rb) lat[std::max(ra, rb)] = std::min(ra, rb);
  };
  // Representative lattice node per solver-canonical node.
  std::vector<std::ptrdiff_t> solver_rep(node_count_, -1);
  for (std::size_t k = 0; k < filaments_.size(); ++k) {
    for (const auto& [solver_node, lat_node] :
         {std::pair{canonical(fil_a_[k]), grid.fil_node_a[k]},
          std::pair{canonical(fil_b_[k]), grid.fil_node_b[k]}}) {
      if (solver_rep[solver_node] < 0) {
        solver_rep[solver_node] = static_cast<std::ptrdiff_t>(lat_node);
      } else {
        lunion(static_cast<std::size_t>(solver_rep[solver_node]), lat_node);
      }
    }
  }
  if (solver_rep[p_solver] < 0)
    throw std::invalid_argument("port_impedance: plus node is floating");
  if (solver_rep[ref_solver] < 0)
    throw std::invalid_argument("port_impedance: minus node is floating");
  const std::size_t ref =
      lfind(static_cast<std::size_t>(solver_rep[ref_solver]));

  const std::size_t nc = grid.cells.size();
  std::vector<std::size_t> cell_a(nc), cell_b(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    cell_a[c] = lfind(grid.node_a[c]);
    cell_b[c] = lfind(grid.node_b[c]);
  }

  // Compact indices for canonical lattice nodes, reference removed.
  std::vector<std::ptrdiff_t> compact(grid.node_count, -1);
  fast::LatticeIncidence inc;
  for (std::size_t c = 0; c < nc; ++c) {
    for (std::size_t node : {cell_a[c], cell_b[c]}) {
      if (node == ref || compact[node] >= 0) continue;
      compact[node] = static_cast<std::ptrdiff_t>(inc.nodes++);
    }
  }
  const std::size_t p_lat =
      lfind(static_cast<std::size_t>(solver_rep[p_solver]));
  if (compact[p_lat] < 0)
    throw std::invalid_argument("port_impedance: plus node is floating");
  inc.port = static_cast<std::size_t>(compact[p_lat]);
  inc.node_a.resize(nc);
  inc.node_b.resize(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    inc.node_a[c] = compact[cell_a[c]];
    inc.node_b[c] = compact[cell_b[c]];
  }

  for (const std::size_t node :
       floating_group_pins(cell_a, cell_b, compact, ref))
    inc.pins.push_back(static_cast<std::size_t>(compact[node]));
  return inc;
}

LoopImpedance MqsSolver::port_impedance_fft(std::size_t plus,
                                            std::size_t minus,
                                            double frequency) const {
  const fast::VoxelGrid& grid = toeplitz_->grid();
  const fast::LatticeIncidence inc = lattice_incidence(plus, minus);
  const std::size_t n_active = inc.nodes;
  const std::size_t nc = grid.cells.size();
  const std::size_t size = n_active + nc;
  const double omega = 2.0 * M_PI * frequency;
  const la::Complex jw{0.0, omega};
  const bool use_fft = opts_.fast.use_fft;
  const fast::ToeplitzLOperator& op = *toeplitz_;

  // Matrix-free MQS operator: [KCL; branch] x [v; i].
  la::CApplyFn apply = [&](const la::CVector& x, la::CVector& y) {
    la::CVector xi(nc), li(nc);
    for (std::size_t c = 0; c < nc; ++c) xi[c] = x[n_active + c];
    if (use_fft)
      op.apply(xi, li);
    else
      op.apply_dense(xi, li);
    y.assign(size, la::Complex{});
    for (std::size_t c = 0; c < nc; ++c) {
      const std::ptrdiff_t na = inc.node_a[c];
      const std::ptrdiff_t nb = inc.node_b[c];
      const la::Complex ic = x[n_active + c];
      la::Complex vdrop{};
      if (na >= 0) {
        y[static_cast<std::size_t>(na)] += ic;
        vdrop += x[static_cast<std::size_t>(na)];
      }
      if (nb >= 0) {
        y[static_cast<std::size_t>(nb)] -= ic;
        vdrop -= x[static_cast<std::size_t>(nb)];
      }
      y[n_active + c] =
          vdrop - la::Complex{grid.resistance[c], 0.0} * ic - jw * li[c];
    }
    for (const std::size_t idx : inc.pins) y[idx] += x[idx];
  };

  la::CVector b(size, la::Complex{});
  b[inc.port] = 1.0;

  // Preconditioner: the same system with Z cut to its diagonal, the cell
  // self impedances, solved through the nodal Schur complement.
  robust::SolveReport report;
  std::unique_ptr<fast::NodalPreconditioner> pre;
  la::CApplyFn pre_apply;
  if (opts_.fast.precond.kind == fast::PrecondKind::Diag) {
    const double l_self = op.kernel(geom::Axis::X, 0, 0, 0);
    std::vector<la::Complex> z(nc);
    for (std::size_t c = 0; c < nc; ++c)
      z[c] = la::Complex{grid.resistance[c], 0.0} + jw * l_self;
    pre = std::make_unique<fast::NodalPreconditioner>(
        inc, z, report, "mqs_precond", opts_.fast.dense_fallback_limit);
    if (pre->usable()) {
      pre_apply = [&pre](const la::CVector& r, la::CVector& out) {
        pre->apply(r, out);
      };
    } else {
      pre.reset();  // unpreconditioned GMRES is still well-defined
    }
  }

  auto& metrics = runtime::MetricsRegistry::instance();
  la::CVector x(size, la::Complex{});
  const la::CApplyFn* pre_ptr = pre_apply ? &pre_apply : nullptr;

  // Ladder: GMRES → retry → larger restart → dense fallback.
  la::GmresResult gr = la::gmres(apply, b, x, pre_ptr, opts_.fast.gmres);
  if (!gr.converged) {
    report.add_action(robust::RecoveryKind::Retry, 0, 0.0, "mqs_gmres");
    x.assign(size, la::Complex{});
    gr = la::gmres(apply, b, x, pre_ptr, opts_.fast.gmres);
  }
  if (!gr.converged) {
    la::GmresOptions boosted = opts_.fast.gmres;
    boosted.restart *= 2;
    boosted.max_restarts *= 2;
    report.add_action(robust::RecoveryKind::GmresRestart, 1,
                      static_cast<double>(boosted.restart), "mqs_gmres");
    x.assign(size, la::Complex{});
    gr = la::gmres(apply, b, x, pre_ptr, boosted);
  }
  metrics.add_count("fast.gmres_restarts",
                    static_cast<std::int64_t>(gr.restarts));
  if (!gr.converged && nc <= opts_.fast.dense_fallback_limit) {
    // Dense fallback: materialise the full MQS system from the bitwise
    // kernel table and solve it directly.
    report.add_action(robust::RecoveryKind::DenseFallback, 2,
                      static_cast<double>(nc), "mqs_gmres");
    metrics.add_count("fast.dense_fallbacks", 1);
    const la::Matrix lcells = op.to_dense();
    la::CMatrix a(size, size);
    for (std::size_t c = 0; c < nc; ++c) {
      const std::ptrdiff_t na = inc.node_a[c];
      const std::ptrdiff_t nb = inc.node_b[c];
      const std::size_t br = n_active + c;
      if (na >= 0) {
        a(static_cast<std::size_t>(na), br) += 1.0;
        a(br, static_cast<std::size_t>(na)) += 1.0;
      }
      if (nb >= 0) {
        a(static_cast<std::size_t>(nb), br) -= 1.0;
        a(br, static_cast<std::size_t>(nb)) -= 1.0;
      }
      a(br, br) -= la::Complex{grid.resistance[c], 0.0};
      for (std::size_t m = 0; m < nc; ++m)
        if (lcells(c, m) != 0.0) a(br, n_active + m) -= jw * lcells(c, m);
    }
    for (const std::size_t idx : inc.pins) a(idx, idx) += 1.0;
    la::CLU lu = robust::factor_dense_with_recovery(a, report, "mqs_gmres");
    if (lu.size() > 0) {
      x = lu.solve(b);
      gr.converged = true;
    }
  }
  if (!gr.converged) report.raise_status(robust::SolveStatus::NonConverged);
  report.residual_norm = gr.relative_residual;
  report.record("mqs_gmres");
  // An unconverged iterate is not an impedance: past the dense-fallback
  // limit (or when that fallback's factorisation failed) nothing is left on
  // the ladder, so fail loudly instead of returning it.
  if (!gr.converged)
    throw std::runtime_error(
        "port_impedance: FFT-GMRES did not converge on " +
        std::to_string(nc) + " cells after " +
        std::to_string(gr.iterations) + " iterations (relative residual " +
        std::to_string(gr.relative_residual) + ")");

  const la::Complex z = x[inc.port];
  return {frequency, z.real(), z.imag() / omega};
}

}  // namespace ind::loop
