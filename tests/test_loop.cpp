// Unit tests for the Section-5 loop-inductance flow: MQS solver,
// frequency-dependent extraction, ladder fit, loop netlist.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>

#include "circuit/transient.hpp"
#include "circuit/waveform.hpp"
#include "extract/skin.hpp"
#include "geom/topologies.hpp"
#include "loop/ladder_fit.hpp"
#include "loop/loop_model.hpp"
#include "loop/mqs_solver.hpp"
#include "loop/port_extractor.hpp"

namespace {

using namespace ind;
using geom::um;

// Signal wire with a single ground return at distance d: the classic
// two-wire loop whose inductance grows with log(d).
geom::Layout two_wire_loop(double spacing, double len = um(1000)) {
  geom::Layout l(geom::default_tech());
  const int sig = l.add_net("sig", geom::NetKind::Signal);
  const int gnd = l.add_net("gnd", geom::NetKind::Ground);
  l.add_wire(sig, 6, {0, 0}, {len, 0}, um(2));
  l.add_wire(gnd, 6, {0, spacing}, {len, spacing}, um(2));
  geom::Driver d;
  d.at = {0, 0};
  d.layer = 6;
  d.signal_net = sig;
  l.add_driver(d);
  geom::Receiver r;
  r.at = {len, 0};
  r.layer = 6;
  r.signal_net = sig;
  r.name = "rcv";
  l.add_receiver(r);
  return l;
}

TEST(MqsSolver, BuildsFilamentSystem) {
  const geom::Layout l = geom::refine(two_wire_loop(um(10)), um(250));
  loop::MqsOptions opts;
  loop::MqsSolver solver(l.segments(), l.vias(), l.tech(), opts);
  EXPECT_GE(solver.num_filaments(), l.segments().size());
  EXPECT_GT(solver.num_nodes(), 0u);
  EXPECT_TRUE(solver.node_at({0, 0}, 6).has_value());
  EXPECT_FALSE(solver.node_at({um(5000), 0}, 6).has_value());
}

TEST(MqsSolver, TwoWireLoopImpedanceMagnitude) {
  // Loop inductance of two parallel wires: L = (mu0 l / pi) ln(d/r) + ...
  // For l=1mm, d=10um, r~1um: about 1 nH. Check the right ballpark.
  const geom::Layout l = geom::refine(two_wire_loop(um(10)), um(250));
  loop::MqsSolver solver(l.segments(), l.vias(), l.tech(), {});
  const auto plus = solver.node_at({0, 0}, 6);
  const auto minus = solver.node_at({0, um(10)}, 6);
  ASSERT_TRUE(plus && minus);
  // Short the far end to close the loop.
  const auto p_far = solver.node_at({um(1000), 0}, 6);
  const auto m_far = solver.node_at({um(1000), um(10)}, 6);
  ASSERT_TRUE(p_far && m_far);
  loop::MqsSolver s2 = solver;
  s2.short_nodes(*p_far, *m_far);
  const auto z = s2.port_impedance(*plus, *minus, 1e9);
  EXPECT_GT(z.inductance, 0.3e-9);
  EXPECT_LT(z.inductance, 3e-9);
  EXPECT_GT(z.resistance, 0.0);
}

TEST(MqsSolver, WiderLoopHasHigherInductance) {
  auto measure = [&](double spacing) {
    const geom::Layout l = geom::refine(two_wire_loop(spacing), um(250));
    loop::MqsSolver solver(l.segments(), l.vias(), l.tech(), {});
    const auto plus = solver.node_at({0, 0}, 6);
    const auto minus = solver.node_at({0, spacing}, 6);
    const auto p_far = solver.node_at({um(1000), 0}, 6);
    const auto m_far = solver.node_at({um(1000), spacing}, 6);
    solver.short_nodes(*p_far, *m_far);
    return solver.port_impedance(*plus, *minus, 1e9).inductance;
  };
  EXPECT_LT(measure(um(4)), measure(um(40)));
}

TEST(MqsSolver, PortOnShortedNodesThrows) {
  const geom::Layout l = geom::refine(two_wire_loop(um(10)), um(500));
  loop::MqsSolver solver(l.segments(), l.vias(), l.tech(), {});
  const auto a = solver.node_at({0, 0}, 6);
  const auto b = solver.node_at({0, um(10)}, 6);
  solver.short_nodes(*a, *b);
  EXPECT_THROW(solver.port_impedance(*a, *b, 1e9), std::invalid_argument);
}

TEST(MqsSolver, NodeIdsFollowFirstAppearanceOnLargeBus) {
  // 16 wires x 768 pitch-long segments: 12288 filaments, 12304 nodes.
  constexpr double kPitch = 4e-6;
  geom::Layout bus(geom::default_tech());
  const int sig = bus.add_net("sig", geom::NetKind::Signal);
  const int gnd = bus.add_net("gnd", geom::NetKind::Ground);
  for (int w = 0; w < 16; ++w)
    bus.add_wire(w == 0 ? sig : gnd, 6, {0, w * kPitch},
                 {768 * kPitch, w * kPitch}, um(2));
  const geom::Layout l = geom::refine(bus, kPitch);
  loop::MqsOptions opts;
  opts.method = loop::ExtractionMethod::FftGmres;
  opts.fast.voxel.pitch = kPitch;
  const loop::MqsSolver solver(l.segments(), l.vias(), l.tech(), opts);
  ASSERT_GE(solver.num_filaments(), 12000u);

  // Naive reference: walk the filaments' parent endpoints in order and
  // number each new snapped (x, y, layer) point as it first appears.
  std::vector<std::size_t> parent_of;
  const auto filaments = extract::split_all(l.segments(), parent_of, opts.skin);
  ASSERT_EQ(filaments.size(), solver.num_filaments());
  std::map<std::tuple<long long, long long, int>, std::size_t> ids;
  for (std::size_t k = 0; k < filaments.size(); ++k) {
    const geom::Segment& parent = l.segments()[parent_of[k]];
    for (const geom::Point& p : {parent.a, parent.b}) {
      const auto key = std::make_tuple(std::llround(p.x / opts.snap),
                                       std::llround(p.y / opts.snap),
                                       parent.layer);
      const std::size_t id = ids.try_emplace(key, ids.size()).first->second;
      const auto got = solver.node_at(p, parent.layer);
      ASSERT_TRUE(got.has_value()) << "filament " << k;
      ASSERT_EQ(*got, id) << "filament " << k;
    }
  }
  EXPECT_EQ(solver.num_nodes(), ids.size());
  EXPECT_EQ(ids.size(), 16u * 769u);
  EXPECT_FALSE(solver.node_at({0, 0.5 * kPitch}, 6).has_value());
  EXPECT_FALSE(solver.node_at({0, 0}, 5).has_value());
}

TEST(LoopExtraction, SkinEffectSignature) {
  // R(f) must rise and L(f) must fall with frequency (Fig. 3b).
  const geom::Layout l = two_wire_loop(um(6));
  loop::LoopExtractionOptions opts;
  opts.max_segment_length = um(250);
  // Fine filament splitting so in-conductor current crowding (skin /
  // proximity) is representable.
  opts.mqs.skin.max_width = um(0.4);
  opts.mqs.skin.max_thickness = um(0.4);
  const auto sweep = loop::extract_loop_rl(
      l, l.find_net("sig"), {1e8, 1e9, 1e10, 1e11}, opts);
  ASSERT_EQ(sweep.size(), 4u);
  for (std::size_t k = 1; k < sweep.size(); ++k) {
    EXPECT_GE(sweep[k].resistance, sweep[k - 1].resistance * 0.999)
        << "R must not fall with frequency";
    EXPECT_LE(sweep[k].inductance, sweep[k - 1].inductance * 1.001)
        << "L must not rise with frequency";
  }
  // And the change must be visible overall.
  EXPECT_GT(sweep.back().resistance, sweep.front().resistance);
  EXPECT_LT(sweep.back().inductance, sweep.front().inductance);
}

TEST(LoopExtraction, GridReturnLowersInductance) {
  // A dense ground grid gives closer return paths than a single far wire.
  geom::Layout single = two_wire_loop(um(50));

  geom::Layout gridded(geom::default_tech());
  const int sig = gridded.add_net("sig", geom::NetKind::Signal);
  const int gnd = gridded.add_net("gnd", geom::NetKind::Ground);
  gridded.add_wire(sig, 6, {0, 0}, {um(1000), 0}, um(2));
  for (int i = 1; i <= 4; ++i) {
    gridded.add_wire(gnd, 6, {0, i * um(6)}, {um(1000), i * um(6)}, um(2));
    gridded.add_wire(gnd, 6, {0, -i * um(6)}, {um(1000), -i * um(6)}, um(2));
  }
  geom::Driver d;
  d.at = {0, 0};
  d.layer = 6;
  d.signal_net = sig;
  gridded.add_driver(d);
  geom::Receiver r;
  r.at = {um(1000), 0};
  r.layer = 6;
  r.signal_net = sig;
  r.name = "rcv";
  gridded.add_receiver(r);

  loop::LoopExtractionOptions opts;
  opts.max_segment_length = um(250);
  const double l_single =
      loop::extract_loop_rl(single, single.find_net("sig"), {1e9}, opts)[0]
          .inductance;
  const double l_grid =
      loop::extract_loop_rl(gridded, sig, {1e9}, opts)[0].inductance;
  EXPECT_LT(l_grid, l_single);
}

TEST(LoopExtraction, FrequencySweepHelper) {
  const auto f = loop::log_frequency_sweep(1e8, 1e10, 5);
  ASSERT_EQ(f.size(), 5u);
  EXPECT_NEAR(f.front(), 1e8, 1);
  EXPECT_NEAR(f.back(), 1e10, 100);
  EXPECT_NEAR(f[1] / f[0], f[2] / f[1], 1e-9);  // log spacing
  EXPECT_THROW(loop::log_frequency_sweep(1e9, 1e8, 3), std::invalid_argument);
}

TEST(LadderFit, ReproducesAnchorPoints) {
  const loop::LoopImpedance low{1e8, 2.0, 1.2e-9};
  const loop::LoopImpedance high{1e10, 5.0, 0.8e-9};
  const loop::LadderModel m = loop::fit_ladder(low, high);
  ASSERT_TRUE(m.has_parallel_branch());
  const double w1 = 2 * M_PI * low.frequency, w2 = 2 * M_PI * high.frequency;
  EXPECT_NEAR(m.resistance(w1), low.resistance, 0.05 * low.resistance);
  EXPECT_NEAR(m.inductance(w1), low.inductance, 0.05 * low.inductance);
  EXPECT_NEAR(m.resistance(w2), high.resistance, 0.05 * high.resistance);
  EXPECT_NEAR(m.inductance(w2), high.inductance, 0.05 * high.inductance);
}

TEST(LadderFit, MonotoneBetweenAnchors) {
  const loop::LoopImpedance low{1e8, 2.0, 1.2e-9};
  const loop::LoopImpedance high{1e10, 5.0, 0.8e-9};
  const loop::LadderModel m = loop::fit_ladder(low, high);
  double r_prev = 0.0, l_prev = 1e9;
  for (double f : loop::log_frequency_sweep(1e7, 1e11, 20)) {
    const double w = 2 * M_PI * f;
    EXPECT_GE(m.resistance(w), r_prev - 1e-12);
    EXPECT_LE(m.inductance(w), l_prev + 1e-21);
    r_prev = m.resistance(w);
    l_prev = m.inductance(w);
  }
}

TEST(LadderFit, DegeneratesToSeriesRl) {
  const loop::LoopImpedance low{1e8, 2.0, 1e-9};
  const loop::LoopImpedance high{1e10, 2.0, 1e-9};  // no dispersion
  const loop::LadderModel m = loop::fit_ladder(low, high);
  EXPECT_FALSE(m.has_parallel_branch());
  EXPECT_DOUBLE_EQ(m.r0, 2.0);
  EXPECT_DOUBLE_EQ(m.l0, 1e-9);
}

TEST(LoopModel, BuildsAndSimulates) {
  const geom::Layout l = two_wire_loop(um(6));
  loop::LoopModelOptions opts;
  opts.extraction.max_segment_length = um(250);
  opts.max_segment_length = um(250);
  const loop::LoopModel m = loop::build_loop_model(l, l.find_net("sig"), opts);
  EXPECT_GT(m.extracted.inductance, 0.0);
  EXPECT_GT(m.total_cap, 0.0);
  ASSERT_EQ(m.receiver_probes.size(), 1u);

  circuit::TransientOptions topts;
  topts.t_stop = 1e-9;
  topts.dt = 1e-12;
  const auto res = circuit::transient(m.netlist, m.receiver_probes, topts);
  EXPECT_NEAR(res.samples[0].back(), opts.vdd, 0.05);
  const auto d = circuit::delay_50(res.time, res.samples[0], 0.0, opts.vdd);
  EXPECT_TRUE(d.has_value());
}

TEST(LoopModel, LadderVariantBuilds) {
  const geom::Layout l = two_wire_loop(um(6));
  loop::LoopModelOptions opts;
  opts.use_ladder = true;
  opts.extraction.max_segment_length = um(250);
  opts.max_segment_length = um(250);
  const loop::LoopModel m = loop::build_loop_model(l, l.find_net("sig"), opts);
  ASSERT_TRUE(m.ladder.has_value());
  // Ladder netlist has more elements per segment.
  EXPECT_GT(m.netlist.counts().inductors, 0u);
  circuit::TransientOptions topts;
  topts.t_stop = 1e-9;
  topts.dt = 1e-12;
  const auto res = circuit::transient(m.netlist, m.receiver_probes, topts);
  EXPECT_NEAR(res.samples[0].back(), opts.vdd, 0.05);
}

TEST(LoopModel, MuchSmallerThanItLooks) {
  // Loop model drops the grid: its element count must not include any of
  // the ground-net geometry.
  const geom::Layout l = two_wire_loop(um(6));
  loop::LoopModelOptions opts;
  opts.extraction.max_segment_length = um(250);
  opts.max_segment_length = um(100);
  const loop::LoopModel m = loop::build_loop_model(l, l.find_net("sig"), opts);
  // 10 segments of signal only: counts stay small and mutual-free.
  EXPECT_EQ(m.netlist.counts().mutuals, 0u);
  EXPECT_LE(m.netlist.counts().inductors, 11u);
}

}  // namespace

// ---------------------------------------------------------------------------
// Multi-section ladder fit (broadband extension of the [5] construction).
// ---------------------------------------------------------------------------

namespace {

using namespace ind;
using geom::um;

// Synthetic sweep generated from a known 2-branch ladder.
std::vector<loop::LoopImpedance> synthetic_sweep() {
  loop::MultiLadderModel truth;
  truth.r0 = 3.0;
  truth.l0 = 0.6e-9;
  truth.branches = {{2.0, 0.4e-9}, {6.0, 0.1e-9}};
  std::vector<loop::LoopImpedance> sweep;
  for (double f : loop::log_frequency_sweep(1e7, 1e11, 15)) {
    const double w = 2 * M_PI * f;
    sweep.push_back({f, truth.resistance(w), truth.inductance(w)});
  }
  return sweep;
}

TEST(MultiLadder, RecoversSyntheticModel) {
  const auto sweep = synthetic_sweep();
  const auto fit = loop::fit_ladder_multi(sweep, 2);
  EXPECT_LT(loop::ladder_fit_error(fit, sweep), 1e-3);
}

TEST(MultiLadder, MoreBranchesFitBetter) {
  // Fit a real MQS sweep: two branches must beat one.
  geom::Layout l = two_wire_loop(um(6));
  loop::LoopExtractionOptions opts;
  opts.max_segment_length = um(250);
  opts.mqs.skin.max_width = um(0.4);
  opts.mqs.skin.max_thickness = um(0.4);
  const auto sweep = loop::extract_loop_rl(
      l, l.find_net("sig"), loop::log_frequency_sweep(1e8, 1e11, 9), opts);
  const auto one = loop::fit_ladder_multi(sweep, 1);
  const auto three = loop::fit_ladder_multi(sweep, 3);
  EXPECT_LE(loop::ladder_fit_error(three, sweep),
            loop::ladder_fit_error(one, sweep) * 1.01);
  EXPECT_LT(loop::ladder_fit_error(three, sweep), 0.05);
}

TEST(MultiLadder, ZeroBranchesIsSeriesRl) {
  const auto sweep = synthetic_sweep();
  const auto fit = loop::fit_ladder_multi(sweep, 0);
  EXPECT_TRUE(fit.branches.empty());
  EXPECT_GT(fit.r0, 0.0);
  EXPECT_GT(fit.l0, 0.0);
}

TEST(MultiLadder, MonotoneRAndL) {
  const auto sweep = synthetic_sweep();
  const auto fit = loop::fit_ladder_multi(sweep, 2);
  double r_prev = 0.0, l_prev = 1e9;
  for (double f : loop::log_frequency_sweep(1e7, 1e11, 30)) {
    const double w = 2 * M_PI * f;
    EXPECT_GE(fit.resistance(w), r_prev - 1e-9);
    EXPECT_LE(fit.inductance(w), l_prev + 1e-18);
    r_prev = fit.resistance(w);
    l_prev = fit.inductance(w);
  }
}

TEST(MultiLadder, RejectsBadInputs) {
  EXPECT_THROW(loop::fit_ladder_multi({}, 1), std::invalid_argument);
  EXPECT_THROW(loop::fit_ladder_multi(synthetic_sweep(), -1),
               std::invalid_argument);
}

}  // namespace
