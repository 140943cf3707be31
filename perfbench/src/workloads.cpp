#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "circuit/waveform.hpp"
#include "extract/extractor.hpp"
#include "inputs.hpp"
#include "loop/mqs_solver.hpp"
#include "open_loop.hpp"
#include "runtime/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sparsify/block_diagonal.hpp"
#include "sparsify/mutual_spec.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

/// Set-ups per process; setup_s is the median of all of them.
constexpr int kSetupReps = 5;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

runtime::MetricsRegistry& registry() {
  return runtime::MetricsRegistry::instance();
}
std::int64_t counter(const char* name) {
  return registry().counter(name).value.load();
}
std::int64_t timer_count(const char* name) {
  return registry().timer(name).count.load();
}

/// Every per-layer metric with its unit, in output order. A traced run
/// reports all of them; the ones that do not apply to its workload read 0.
const std::pair<const char*, const char*> kPerLayerMetrics[] = {
    {"core.peec_rc_ms", "ms"},
    {"core.peec_rlc_ms", "ms"},
    {"core.peec_rlc_blockdiag_ms", "ms"},
    {"core.peec_rlc_prima_ms", "ms"},
    {"core.loop_rlc_ms", "ms"},
    {"geom.build_ms", "ms"},
    {"extract.ms", "ms"},
    {"extract.mutual_terms", "count"},
    {"peec.build_ms", "ms"},
    {"peec.unknowns", "count"},
    {"sparsify.ms", "ms"},
    {"sparsify.kept_mutuals", "count"},
    {"mor.reduce_ms", "ms"},
    {"mor.cosim_ms", "ms"},
    {"mor.order", "count"},
    {"circuit.transient_ms", "ms"},
    {"circuit.steps", "count"},
    {"circuit.refactors", "count"},
    {"loop.build_model_ms", "ms"},
    {"loop.dense_extract_ms", "ms"},
    {"loop.filaments", "count"},
    {"la.dense_lu_dim", "count"},
    {"la.dense_lu_gflop", "GFLOP"},
    {"la.sparse_fill_nnz", "count"},
    {"fast.extract_ms", "ms"},
    {"fast.gmres_iterations", "count"},
    {"fast.voxel_cells", "count"},
    {"fast.precond_fill_nnz", "count"},
    {"serve.queue_ms", "ms"},
    {"serve.compute_ms", "ms"},
    {"serve.io_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.busy_ratio", "ratio"},
    {"store.result_bytes", "bytes"},
    {"robust.recovery_actions", "count"},
    {"govern.degradations", "count"},
    {"bench.generator_lag_ms", "ms"},
    {"bench.tracing_overhead", "ratio"},
    {"bench.failed_ratio", "ratio"},
};

/// Per-layer metrics collected by a traced run; absent names read 0.
using LayerValues = std::map<std::string, double>;

void emit_per_layer(const LayerValues& v, RunResult& out) {
  for (const auto& [name, unit] : kPerLayerMetrics) {
    const auto it = v.find(name);
    out.metrics.push_back({name, it == v.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, value] : v) {
    const bool known =
        std::any_of(std::begin(kPerLayerMetrics), std::end(kPerLayerMetrics),
                    [&](const auto& m) { return name == m.first; });
    if (!known) throw std::logic_error("unlisted per-layer metric " + name);
  }
}

void note_pinned_cpu(RunResult& out, int k) {
  const int cpu = pin_to_cpu(static_cast<std::uint64_t>(k));
  out.notes.push_back(cpu >= 0 ? "pinned to cpu " + std::to_string(cpu)
                               : std::string("not pinned"));
}

/// Closed loops bind op `op` to the op-th CPU, so the ops of every pass
/// spread over all CPUs the run may use. On a shared virtual machine each
/// vCPU's speed drifts on its own, with the load that other tenants put on
/// the physical core behind it: four 150 s matrix-multiply probes, one per
/// vCPU at once, saw per-vCPU spreads (interquartile range over median of
/// 15 s medians) of 4, 6, 8 and 17%. Rotating averages that drift instead
/// of staking a whole run on one CPU.
void pin_op(std::uint64_t op) { pin_to_cpu(op); }

double median_of(const std::map<std::uint64_t, double>& by_op) {
  return median(values(by_op));
}

void finish_trace(const RunConfig& cfg, RunResult& out) {
  if (!cfg.trace) return;
  if (!Trace::instance().write_chrome(cfg.trace_path()))
    throw std::runtime_error("cannot write trace " + cfg.trace_path());
  out.notes.push_back("trace: " + cfg.trace_path());
}

/// Result digests the analyzer publishes as result.<flow>.* counters
/// (core/analyzer.cpp publish_results), recomputed from a report.
struct FlowDigest {
  std::int64_t worst_delay_fs = 0;
  std::int64_t skew_fs = 0;
  std::int64_t waveform_hash = 0;
  bool operator==(const FlowDigest&) const = default;
};

FlowDigest digest_of(const core::AnalysisReport& r) {
  auto as_fs = [](double s) {
    return static_cast<std::int64_t>(std::llround(s * 1e15));
  };
  store::Hasher h;
  h.f64s(r.time);
  h.u64(r.sink_waveforms.size());
  for (const la::Vector& wf : r.sink_waveforms) h.f64s(wf);
  return {as_fs(r.worst_delay), as_fs(r.skew),
          static_cast<std::int64_t>(h.digest().lo >> 1)};
}

void measure_sinks(core::AnalysisReport& report, double vdd) {
  if (report.sink_waveforms.empty()) return;
  const circuit::SkewReport skew = circuit::measure_skew(
      report.time, report.sink_waveforms, report.sink_names, 0.0, vdd);
  report.worst_delay = skew.worst_delay;
  report.best_delay = skew.best_delay;
  report.skew = skew.skew;
  report.worst_sink = skew.worst_sink;
  for (const la::Vector& w : report.sink_waveforms)
    report.overshoot =
        std::max(report.overshoot, circuit::overshoot_fraction(w, 0.0, vdd));
}

void take_transient(core::AnalysisReport& report,
                    const circuit::TransientResult& res) {
  report.unknowns = res.unknowns;
  report.time = res.time;
  report.sink_waveforms = res.samples;
  report.waveform_truncated = res.truncated;
  report.solve_report = res.report;
}

/// The analyzer's PEEC and loop flows as the plain call sequences they are,
/// with a span around each module call. Produces the same AnalysisReport
/// (and so the same result digests) as core::analyze.
core::AnalysisReport traced_flow(const geom::Layout& layout,
                                 const core::AnalysisOptions& opts) {
  core::AnalysisReport report;
  report.flow = report.requested_flow = opts.flow;
  if (opts.flow == core::Flow::LoopRlc) {
    std::optional<loop::LoopModel> model;
    {
      Span s("loop.build_model");
      model = loop::build_loop_model(layout, opts.signal_net, opts.loop);
    }
    report.counts = model->netlist.counts();
    Span s("circuit.transient");
    take_transient(report, circuit::transient(model->netlist,
                                              model->receiver_probes,
                                              opts.transient));
    report.sink_names = model->receiver_names;
    measure_sinks(report, model->vdd_volts);
    return report;
  }
  peec::PeecOptions popts = opts.peec;
  popts.rc_only = opts.flow == core::Flow::PeecRc;
  popts.mutual_policy = opts.flow == core::Flow::PeecRlcFull
                            ? peec::PeecOptions::MutualPolicy::Full
                            : peec::PeecOptions::MutualPolicy::None;
  std::optional<peec::PeecModel> model;
  {
    Span s("peec.build");
    model = peec::build_peec_model(layout, popts);
  }
  if (opts.flow == core::Flow::PeecRlcBlockDiag) {
    Span s("sparsify.block_diagonal");
    const sparsify::SparsifiedL spec = sparsify::block_diagonal(
        model->extraction.partial_l,
        sparsify::sections_by_strip(model->layout.segments(),
                                    opts.params.block_axis,
                                    opts.params.block_strip_width));
    sparsify::apply_to_netlist(spec, model->netlist, model->seg_inductor);
  } else if (opts.flow != core::Flow::PeecRc &&
             opts.flow != core::Flow::PeecRlcFull) {
    throw std::logic_error("traced_flow: flow is not a plain call sequence");
  }
  report.counts = model->counts();
  Span s("circuit.transient");
  take_transient(report, circuit::transient(model->netlist,
                                            model->receiver_probes,
                                            opts.transient));
  report.sink_names = model->receiver_names;
  measure_sinks(report, model->vdd_volts);
  return report;
}

/// extract::extract on the layout as the PEEC builder refines it, with the
/// builder's extraction options, in an "extract.extract" span. Returns the
/// mutual-inductance terms it assembled.
std::int64_t traced_extract(const geom::Layout& layout,
                            const peec::PeecOptions& popts) {
  const geom::Layout refined =
      peec::refine_layout(layout, popts.max_segment_length);
  extract::ExtractionOptions xopts;
  xopts.mutual_window = popts.mutual_window;
  xopts.coupling_window = popts.coupling_window;
  registry().reset();
  {
    Span s("extract.extract");
    extract::extract(refined, xopts);
  }
  return counter("assemble.partial_l.mutual_terms");
}

const char* flow_key(core::Flow f) {
  switch (f) {
    case core::Flow::PeecRc: return "peec_rc";
    case core::Flow::PeecRlcFull: return "peec_rlc";
    case core::Flow::PeecRlcBlockDiag: return "peec_rlc_blockdiag";
    case core::Flow::PeecRlcPrima: return "peec_rlc_prima";
    case core::Flow::LoopRlc: return "loop_rlc";
    default: return "other";
  }
}

/// Fingerprint of a set of result digests, for comparing two runs.
std::string results_fingerprint(const std::map<std::string, FlowDigest>& by_key) {
  store::Hasher h;
  for (const auto& [key, d] : by_key) {
    h.str(key);
    h.i64(d.worst_delay_fs);
    h.i64(d.skew_fs);
    h.i64(d.waveform_hash);
  }
  return h.digest().hex();
}

// ===========================================================================
// clocknet
// ===========================================================================

struct Reference {
  core::Flow flow;
  FlowDigest digest;
};

// Canonical Table-1 layout. Delays and skews of RC, RLC and LOOP are the
// committed BENCH_baseline.json values. Waveform hashes are recorded from
// the library at the commit that introduced this benchmark: the RLC and
// LOOP hashes in BENCH_baseline.json are stale (3417407457211729278 and
// 3767898728929225876) while their delays and skews still match.
constexpr Reference kCanonical[] = {
    {core::Flow::PeecRc, {51210, 863, 8337946461074100560LL}},
    {core::Flow::PeecRlcFull, {66572, 7090, 467385524196584789LL}},
    {core::Flow::PeecRlcBlockDiag, {66710, 6426, 8092523407951123868LL}},
    {core::Flow::PeecRlcPrima, {46284, 12188, 1161912189851657601LL}},
    {core::Flow::LoopRlc, {50034, 833, 2126396897899130745LL}},
};

/// Per-flow registry readings of a traced op (the registry is reset before
/// each flow, so max-style counters are per flow).
struct FlowCounters {
  std::int64_t lu_dim = 0, lu_count = 0, sparse_fill = 0, steps = 0,
               refactors = 0, filaments = 0;
};

FlowCounters read_flow_counters() {
  FlowCounters c;
  c.lu_dim = counter("factor.lu.max_dim");
  c.lu_count = timer_count("factor.lu");
  c.sparse_fill = counter("factor.sparse_lu.fill_nnz");
  c.steps = counter("solve.transient.steps");
  c.refactors = counter("solve.transient.refactors");
  c.filaments = counter("solve.mqs_port.max_filaments");
  return c;
}

}  // namespace

RunResult run_clocknet(const RunConfig& cfg) {
  RunResult out;
  Trace& trace = Trace::instance();
  note_pinned_cpu(out, cfg.segment);

  // --- set-up, kSetupReps times; the median is setup_s ----------------------
  std::vector<ClocknetCase> cases;
  std::vector<double> setup_s, build_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    cases = clocknet_cases(cfg.seed);
    build_ms.push_back(ms_between(t0, Clock::now()));
    core::AnalysisOptions warm = cases.front().options;
    warm.flow = core::Flow::PeecRlcFull;
    core::analyze(cases.front().layout, warm);
    setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }

  // --- timed phase: whole passes over the case pool -------------------------
  std::vector<double> op_ms, pass_ms, traced_op_ms, untraced_op_ms;
  std::map<std::string, FlowDigest> pinned;  // first digest per case/flow
  std::map<std::uint64_t, double> gflop_by_op, lu_dim_by_op, fill_by_op,
      steps_by_op, refactors_by_op, filaments_by_op, kept_by_op,
      unknowns_by_op, prima_build_by_op, prima_cosim_by_op, order_by_op,
      mutual_terms_by_op;
  double recovery_actions = 0.0, degradations = 0.0;
  std::uint64_t op = 0;
  const auto deadline = due_time(Clock::now(), cfg.seconds);
  for (int pass = 0; pass == 0 || Clock::now() < deadline; ++pass) {
    // The traced run alternates traced and untraced passes; the difference
    // of their op medians is the tracing overhead.
    const bool traced = cfg.trace && pass % 2 == 0;
    if (cfg.trace) traced ? trace.enable() : trace.disable();
    const auto pass_t0 = Clock::now();
    for (const ClocknetCase& c : cases) {
      ++op;
      ++out.attempted;
      pin_op(op);
      Trace::set_op(op);
      bool ok = true;
      std::vector<core::AnalysisReport> reports;
      const auto t0 = Clock::now();
      try {
        Span op_span("bench.op");
        for (core::Flow flow : kClocknetFlows) {
          core::AnalysisOptions opts = c.options;
          opts.flow = flow;
          if (traced) registry().reset();
          std::string span_name = std::string("core.") + flow_key(flow);
          Span flow_span(span_name.c_str());
          if (traced && flow != core::Flow::PeecRlcPrima)
            reports.push_back(traced_flow(c.layout, opts));
          else
            reports.push_back(core::analyze(c.layout, opts));
          if (traced) {
            const FlowCounters fc = read_flow_counters();
            const bool complex_lu = flow == core::Flow::LoopRlc;
            gflop_by_op[op] += static_cast<double>(fc.lu_count) *
                               std::pow(static_cast<double>(fc.lu_dim), 3) *
                               (2.0 / 3.0) * (complex_lu ? 4.0 : 1.0) * 1e-9;
            lu_dim_by_op[op] = std::max(lu_dim_by_op[op],
                                        static_cast<double>(fc.lu_dim));
            fill_by_op[op] = std::max(fill_by_op[op],
                                      static_cast<double>(fc.sparse_fill));
            steps_by_op[op] += static_cast<double>(fc.steps);
            refactors_by_op[op] += static_cast<double>(fc.refactors);
            if (flow == core::Flow::LoopRlc)
              filaments_by_op[op] = static_cast<double>(fc.filaments);
            if (flow == core::Flow::PeecRlcBlockDiag)
              kept_by_op[op] = static_cast<double>(reports.back().counts.mutuals);
            if (flow == core::Flow::PeecRlcFull)
              unknowns_by_op[op] = static_cast<double>(reports.back().unknowns);
            if (flow == core::Flow::PeecRlcPrima) {
              prima_build_by_op[op] = reports.back().build_seconds * 1e3;
              prima_cosim_by_op[op] = reports.back().solve_seconds * 1e3;
              order_by_op[op] = static_cast<double>(reports.back().reduced_order);
            }
          }
        }
      } catch (const std::exception& e) {
        ok = false;
        out.notes.push_back(std::string("clocknet op failed: ") + e.what());
      }
      const double ms = ms_between(t0, Clock::now());
      op_ms.push_back(ms);
      if (cfg.trace) (traced ? traced_op_ms : untraced_op_ms).push_back(ms);

      // extract::extract on the refined layout, outside the op span so the
      // traced op time stays comparable with the untraced one.
      if (traced && ok)
        mutual_terms_by_op[op] =
            static_cast<double>(traced_extract(c.layout, c.options.peec));

      // --- output checks --------------------------------------------------
      if (ok && reports.size() == std::size(kClocknetFlows)) {
        std::map<core::Flow, FlowDigest> d;
        for (const core::AnalysisReport& r : reports) {
          d[r.flow] = digest_of(r);
          if (!r.degradations.empty()) {
            degradations += static_cast<double>(r.degradations.size());
            ok = false;
          }
          if (r.waveform_truncated) ok = false;
          recovery_actions += static_cast<double>(r.solve_report.actions.size());
        }
        for (std::size_t k = 0; k < reports.size(); ++k) {
          const std::string key = c.name + "." + flow_key(kClocknetFlows[k]);
          const FlowDigest& got = d[kClocknetFlows[k]];
          const auto [it, fresh] = pinned.emplace(key, got);
          if (!fresh && !(it->second == got)) {
            ok = false;
            out.notes.push_back("nondeterministic result: " + key);
          }
        }
        if (c.canonical) {
          for (const Reference& ref : kCanonical) {
            if (!(d[ref.flow] == ref.digest)) {
              ok = false;
              out.notes.push_back(std::string("canonical mismatch: ") +
                                  flow_key(ref.flow));
            }
          }
        }
        // Table-1 shape at bench scale (EXPERIMENTS.md): inductance makes
        // PEEC(RLC) the slowest; RC and LOOP both stay below it.
        const std::int64_t rc = d[core::Flow::PeecRc].worst_delay_fs;
        const std::int64_t rlc = d[core::Flow::PeecRlcFull].worst_delay_fs;
        const std::int64_t lp = d[core::Flow::LoopRlc].worst_delay_fs;
        if (!(rc < rlc && lp <= rlc)) {
          ok = false;
          out.notes.push_back("Table-1 delay ordering violated on " + c.name);
        }
      } else {
        ok = false;
      }
      if (!ok) ++out.failed;
    }
    pass_ms.push_back(ms_between(pass_t0, Clock::now()));
  }

  out.results_digest = results_fingerprint(pinned);
  for (const auto& [key, d] : pinned)
    if (key.rfind("canonical.", 0) == 0)
      out.notes.push_back("result." + key.substr(10) +
                          ".worst_delay_fs=" + std::to_string(d.worst_delay_fs) +
                          " skew_fs=" + std::to_string(d.skew_fs) +
                          " waveform_hash=" + std::to_string(d.waveform_hash));

  out.samples.setup_s = setup_s;
  out.samples.op_ms = op_ms;
  out.samples.pass_ms = pass_ms;
  out.samples.ops_per_pass = cases.size();
  out.samples.peak_rss_mb = {peak_rss_mb()};
  if (!cfg.trace) return out;

  trace.disable();
  LayerValues v;
  for (core::Flow flow : kClocknetFlows) {
    const std::string key = flow_key(flow);
    v["core." + key + "_ms"] = median_of(trace.total_ms_by_op("core." + key));
  }
  v["geom.build_ms"] = median(build_ms);
  v["extract.ms"] = median_of(trace.self_ms_by_op("extract.extract"));
  v["extract.mutual_terms"] = median_of(mutual_terms_by_op);
  v["peec.build_ms"] = median_of(trace.self_ms_by_op("peec.build"));
  v["peec.unknowns"] = median_of(unknowns_by_op);
  v["sparsify.ms"] = median_of(trace.self_ms_by_op("sparsify.block_diagonal"));
  v["sparsify.kept_mutuals"] = median_of(kept_by_op);
  v["mor.reduce_ms"] = median_of(prima_build_by_op);
  v["mor.cosim_ms"] = median_of(prima_cosim_by_op);
  v["mor.order"] = median_of(order_by_op);
  v["circuit.transient_ms"] = median_of(trace.self_ms_by_op("circuit.transient"));
  v["circuit.steps"] = median_of(steps_by_op);
  v["circuit.refactors"] = median_of(refactors_by_op);
  v["loop.build_model_ms"] = median_of(trace.self_ms_by_op("loop.build_model"));
  v["loop.filaments"] = median_of(filaments_by_op);
  v["la.dense_lu_dim"] = median_of(lu_dim_by_op);
  v["la.dense_lu_gflop"] = median_of(gflop_by_op);
  v["la.sparse_fill_nnz"] = median_of(fill_by_op);
  v["robust.recovery_actions"] = recovery_actions;
  v["govern.degradations"] = degradations;
  v["bench.tracing_overhead"] =
      median(traced_op_ms) / median(untraced_op_ms) - 1.0;
  v["bench.failed_ratio"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  emit_per_layer(v, out);
  finish_trace(cfg, out);
  return out;
}

// ===========================================================================
// crossover
// ===========================================================================

namespace {

/// bench_fft_crossover's measurement: the far ends of the signal wire and
/// its return neighbour shorted, loop inductance seen at the near end.
double port_inductance(const CrossoverCase& c, const geom::Layout& l,
                       loop::ExtractionMethod method) {
  loop::MqsOptions o;
  o.method = method;
  o.fast.voxel.pitch = geom::um(kCrossoverPitchUm);
  std::optional<loop::MqsSolver> solver;
  {
    Span s("loop.mqs_solver");
    solver.emplace(l.segments(), l.vias(), l.tech(), o);
  }
  const double len = c.cols * geom::um(kCrossoverPitchUm);
  const double y0 = crossover_wire_y(c, c.signal);
  const double y1 = crossover_wire_y(c, c.signal + 1);
  const auto pf = solver->node_at({len, y0}, 6);
  const auto mf = solver->node_at({len, y1}, 6);
  const auto pn = solver->node_at({0, y0}, 6);
  const auto mn = solver->node_at({0, y1}, 6);
  if (!pf || !mf || !pn || !mn)
    throw std::runtime_error("crossover: port node missing");
  solver->short_nodes(*pf, *mf);
  Span s("loop.port_impedance");
  return solver->port_impedance(*pn, *mn, kCrossoverFreq).inductance;
}

}  // namespace

RunResult run_crossover(const RunConfig& cfg) {
  RunResult out;
  Trace& trace = Trace::instance();
  note_pinned_cpu(out, cfg.segment);

  // Passes are generated ahead of the timed phase (geometry is set-up work);
  // the timed phase cycles through them.
  constexpr int kPasses = 4;
  std::vector<double> setup_s, build_ms;
  std::vector<std::vector<CrossoverCase>> passes;
  std::vector<std::vector<geom::Layout>> layouts;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    passes.clear();
    layouts.clear();
    for (int p = 0; p < kPasses; ++p) {
      passes.push_back(crossover_pass(cfg.seed, p));
      layouts.emplace_back();
      for (const CrossoverCase& c : passes.back())
        layouts.back().push_back(crossover_layout(c));
    }
    build_ms.push_back(ms_between(t0, Clock::now()));
    // Warm-up: a 256-filament bus, by both methods.
    const CrossoverCase small{"dense", 4, 64};
    const geom::Layout l = crossover_layout(small);
    port_inductance(small, l, loop::ExtractionMethod::Dense);
    port_inductance(small, l, loop::ExtractionMethod::FftGmres);
    setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }

  std::vector<double> op_ms, traced_op_ms, untraced_op_ms;
  std::map<std::uint64_t, double> lu_dim_by_op, gflop_by_op, fill_by_op,
      filaments_by_op, gmres_by_op, cells_by_op;
  // Dense-band results of the first pass through each generated pass; the
  // FFT path must reproduce them (checked after the timed phase).
  std::map<std::pair<int, std::size_t>, double> dense_l;
  std::map<std::pair<std::string, int>, std::vector<double>> by_size;
  std::vector<double> pass_ms;
  std::uint64_t op = 0;
  int pass = 0;
  const auto deadline = due_time(Clock::now(), cfg.seconds);
  for (; pass == 0 || Clock::now() < deadline; ++pass) {
    const bool traced = cfg.trace && pass % 2 == 0;
    if (cfg.trace) traced ? trace.enable() : trace.disable();
    const auto pass_t0 = Clock::now();
    const int slot = pass % kPasses;
    const auto& cases = passes[static_cast<std::size_t>(slot)];
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const CrossoverCase& c = cases[k];
      const geom::Layout& l = layouts[static_cast<std::size_t>(slot)][k];
      ++op;
      ++out.attempted;
      pin_op(op);
      Trace::set_op(op);
      if (traced) registry().reset();
      bool ok = true;
      double l_henries = 0.0;
      const auto t0 = Clock::now();
      try {
        Span op_span(c.dense() ? "loop.dense_extract" : "fast.extract");
        l_henries = port_inductance(c, l, c.dense() ? loop::ExtractionMethod::Dense
                                                    : loop::ExtractionMethod::FftGmres);
      } catch (const std::exception& e) {
        ok = false;
        out.notes.push_back(std::string("crossover op failed: ") + e.what());
      }
      const double ms = ms_between(t0, Clock::now());
      op_ms.push_back(ms);
      by_size[{c.band, c.filaments()}].push_back(ms);
      if (cfg.trace) (traced ? traced_op_ms : untraced_op_ms).push_back(ms);
      if (traced) {
        filaments_by_op[op] =
            static_cast<double>(counter("solve.mqs_port.max_filaments"));
        if (c.dense()) {
          // Complex LU: (8/3) n^3 real flops per factorisation.
          const double n = static_cast<double>(counter("factor.lu.max_dim"));
          lu_dim_by_op[op] = n;
          gflop_by_op[op] = static_cast<double>(timer_count("factor.lu")) *
                            (8.0 / 3.0) * n * n * n * 1e-9;
        } else {
          gmres_by_op[op] = static_cast<double>(counter("solve.gmres.iterations"));
          cells_by_op[op] = static_cast<double>(counter("fast.voxel_cells"));
          fill_by_op[op] =
              static_cast<double>(counter("factor.sparse_lu.fill_nnz"));
        }
      }
      if (ok && !(std::isfinite(l_henries) && l_henries > 0.0)) ok = false;
      if (ok && c.dense()) dense_l.emplace(std::make_pair(slot, k), l_henries);
      if (!ok) ++out.failed;
    }
    pass_ms.push_back(ms_between(pass_t0, Clock::now()));
  }
  trace.disable();

  // On every dense-band geometry that ran, the FFT path must agree with the
  // dense solve within 1e-6 (a dense/FFT mismatch fails that op).
  double worst_rel = 0.0;
  for (const auto& [where, l_dense] : dense_l) {
    const CrossoverCase& c = passes[static_cast<std::size_t>(where.first)][where.second];
    const geom::Layout& l = layouts[static_cast<std::size_t>(where.first)][where.second];
    const double l_fft = port_inductance(c, l, loop::ExtractionMethod::FftGmres);
    const double rel = std::abs(l_fft - l_dense) / std::abs(l_dense);
    worst_rel = std::max(worst_rel, rel);
    if (!(rel <= 1e-6)) {
      ++out.failed;
      out.notes.push_back(fmt("dense/fft disagree by %.3g at %.0f filaments",
                              rel, c.filaments()));
    }
  }
  for (const auto& [size, ms] : by_size)
    out.notes.push_back(size.first + fmt(" %.0f filaments: median %.1f ms over %.0f ops",
                                         size.second, median(ms),
                                         static_cast<double>(ms.size())));
  out.notes.push_back(fmt("crossover: %.0f passes, worst dense/fft rel diff %.3g",
                          static_cast<double>(pass), worst_rel));

  out.samples.setup_s = setup_s;
  out.samples.op_ms = op_ms;
  out.samples.pass_ms = pass_ms;
  out.samples.ops_per_pass = passes.front().size();
  out.samples.peak_rss_mb = {peak_rss_mb()};
  if (!cfg.trace) return out;
  LayerValues v;
  v["geom.build_ms"] = median(build_ms);
  v["loop.dense_extract_ms"] = median_of(trace.total_ms_by_op("loop.dense_extract"));
  v["loop.filaments"] = median_of(filaments_by_op);
  // A pass holds two dense sizes, so a median over dense ops would fall
  // between them: the largest system factored, and the GFLOP of a pass.
  double lu_dim = 0.0, gflop = 0.0;
  for (const auto& [op_id, n] : lu_dim_by_op) lu_dim = std::max(lu_dim, n);
  for (const auto& [op_id, g] : gflop_by_op) gflop += g;
  const int traced_passes = (pass + 1) / 2;  // the even ones
  v["la.dense_lu_dim"] = lu_dim;
  v["la.dense_lu_gflop"] = gflop / traced_passes;
  v["la.sparse_fill_nnz"] = median_of(fill_by_op);
  v["fast.extract_ms"] = median_of(trace.total_ms_by_op("fast.extract"));
  v["fast.gmres_iterations"] = median_of(gmres_by_op);
  v["fast.voxel_cells"] = median_of(cells_by_op);
  // The only sparse LU a crossover op runs is the FFT path's preconditioner.
  v["fast.precond_fill_nnz"] = median_of(fill_by_op);
  v["bench.tracing_overhead"] =
      median(traced_op_ms) / median(untraced_op_ms) - 1.0;
  v["bench.failed_ratio"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  emit_per_layer(v, out);
  finish_trace(cfg, out);
  return out;
}

// ===========================================================================
// serve
// ===========================================================================

namespace {

// Fixed arrival rates (requests/s), lowest first. The two lower rates send
// for a share of the run length each: at 24 s and two processes, 18 and 27
// requests per process, so the 5/s window's tail (rank n - 10) is above
// its median. The lowest rate's latencies are op_p50_ms and op_tail_ms.
// The top rate sends a fixed
// burst of 48 requests in 0.8 s. On the reference host one in-process lane
// serves 6-14 requests/s (20% of them cache hits, and the host's speed
// drifts by up to 2x), so the burst's tail latency (its 38th reply) ends
// 1.9-5 s after it was due, two to five times the limit: the top rate
// fails with a clear margin and passes only once the lane serves about
// 25/s. max_rate_rps thus has room to move both ways without flipping on
// host noise.
constexpr double kRates[] = {3.0, 5.0, 60.0};
constexpr double kWindowShare[] = {0.5, 0.45};
constexpr std::size_t kOverloadRequests = 48;
/// Every kRepeatEvery-th request repeats an earlier body (20% repeats).
constexpr std::uint64_t kRepeatEvery = 5;
/// The latency limit a rate must meet at its tail percentile.
constexpr double kLatencyLimitMs = 1000.0;
constexpr std::size_t kMaxConnections = 4;

struct Planned {
  int window = 0;
  double due_s = 0.0;  ///< offset inside its window
  int body = 0;        ///< index into the distinct bodies
};

struct Outcome {
  bool done = false;
  Clock::time_point answered{};
  bool ok = false;
  bool busy = false;
  serve::Response::ServedBy served_by = serve::Response::ServedBy::Computed;
  double latency_ms = 0.0;
  double queue_ms = 0.0, compute_ms = 0.0;
  std::size_t result_bytes = 0;
  bool digest_ok = false;
  bool degraded = false;
};

/// An in-process server (one in-process lane unless IND_SERVE_WORKERS says
/// otherwise) on a Unix-domain socket, plus the client connections of the
/// generator. Unix-domain rather than loopback TCP: the protocol writes a
/// frame's header and payload separately without TCP_NODELAY, so over TCP a
/// frame can wait ~40 ms for a delayed ACK, which would bury the compute
/// time this workload measures under a bimodal transport artefact.
struct ServeSession {
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> clients;

  void open(std::size_t connections, const std::string& socket_path) {
    serve::ServerConfig sc = serve::ServerConfig::from_env();
    sc.uds_path = socket_path;
    server = std::make_unique<serve::Server>(sc);
    server->start();
    for (std::size_t c = 0; c < connections; ++c) {
      clients.push_back(std::make_unique<serve::Client>());
      clients.back()->connect_uds(socket_path);
      clients.back()->set_recv_timeout_ms(60'000);
    }
  }
  void close() {
    clients.clear();
    if (server) server->shutdown();
    server.reset();
  }
  ~ServeSession() { close(); }
};

store::Digest result_digest(const core::AnalysisReport& report,
                            bool include_waveforms) {
  const std::vector<std::uint8_t> bytes =
      serve::encode_result(report, include_waveforms);
  return store::hash_bytes(bytes.data(), bytes.size());
}

/// RESULT digests of core::analyze on every body, computed by `workers`
/// forked processes (body b in process b % workers), each reporting
/// (index, digest) records over a pipe. Call before any thread exists. A
/// body whose analysis threw, or whose process died, keeps a zero digest,
/// which no response matches.
std::vector<store::Digest> forked_oracle(const std::vector<serve::Request>& bodies,
                                         std::size_t workers) {
  struct Record {
    std::uint64_t index;
    store::Digest digest;
  };
  std::vector<store::Digest> out(bodies.size());
  std::vector<std::pair<pid_t, int>> children;
  for (std::size_t w = 0; w < workers; ++w) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("oracle: pipe failed");
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("oracle: fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      for (std::size_t b = w; b < bodies.size(); b += workers) {
        try {
          const serve::Request& req = bodies[b];
          const Record r{b, result_digest(core::analyze(req.layout, req.options),
                                          req.include_waveforms)};
          if (::write(fds[1], &r, sizeof r) != static_cast<ssize_t>(sizeof r))
            break;
        } catch (...) {
          // Leave the digest unset: the body's responses fail their check.
        }
      }
      ::_exit(0);
    }
    ::close(fds[1]);
    children.emplace_back(pid, fds[0]);
  }
  for (const auto& [pid, fd] : children) {
    Record r{};
    while (::read(fd, &r, sizeof r) == static_cast<ssize_t>(sizeof r))
      if (r.index < out.size()) out[r.index] = r.digest;
    ::close(fd);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  return out;
}

}  // namespace

RunResult run_serve(const RunConfig& cfg) {
  RunResult out;
  Trace& trace = Trace::instance();
  const std::size_t connections = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, kMaxConnections);

  // --- plan: windows, due times, bodies -------------------------------------
  std::vector<Planned> plan;
  int distinct = 0;
  {
    Rng rng(cfg.seed ^ 0x5E4FEULL);
    std::uint64_t k = 0;
    for (int w = 0; w < static_cast<int>(std::size(kRates)); ++w) {
      const std::size_t n =
          w < static_cast<int>(std::size(kWindowShare))
              ? static_cast<std::size_t>(
                    std::floor(cfg.seconds * kWindowShare[w] * kRates[w]))
              : kOverloadRequests;
      // Repeats pick a body that has certainly completed, so each is a
      // response-cache hit: one of the first two windows' bodies at least 8
      // bodies back (over a second ago at their rates); in the overloaded
      // top window, one from an earlier, drained window.
      const int settled = distinct;
      for (double due : constant_rate_schedule(kRates[w], n)) {
        Planned p;
        p.window = w;
        p.due_s = due;
        const int pool = w + 1 < static_cast<int>(std::size(kRates))
                             ? distinct - 8
                             : settled;
        p.body = ++k % kRepeatEvery == 0 && pool > 0 ? rng.below(pool)
                                                      : distinct++;
        plan.push_back(p);
      }
    }
  }

  // --- oracle: the expected RESULT digest of every body ---------------------
  // Runs before the server starts any thread. The untraced run spreads it
  // over forked processes; the traced run computes it in-process through
  // the traced call sequence, which gives the per-layer numbers.
  std::vector<serve::Request> bodies;
  for (int b = 0; b < distinct; ++b) bodies.push_back(serve_request(cfg.seed, b));
  std::vector<store::Digest> expected;
  std::map<std::uint64_t, double> unknowns_by_op, steps_by_op, refactors_by_op,
      mutual_terms_by_op;
  double recovery_actions = 0.0;
  const auto oracle_t0 = Clock::now();
  if (!cfg.trace) {
    expected = forked_oracle(bodies, connections);
  } else {
    trace.enable();
    for (int b = 0; b < distinct; ++b) {
      const serve::Request& req = bodies[static_cast<std::size_t>(b)];
      const auto op = static_cast<std::uint64_t>(b + 1);
      Trace::set_op(op);
      registry().reset();
      core::AnalysisReport report;
      {
        Span s("core.peec_rlc");
        report = traced_flow(req.layout, req.options);
      }
      unknowns_by_op[op] = static_cast<double>(report.unknowns);
      steps_by_op[op] = static_cast<double>(counter("solve.transient.steps"));
      refactors_by_op[op] =
          static_cast<double>(counter("solve.transient.refactors"));
      recovery_actions += static_cast<double>(report.solve_report.actions.size());
      expected.push_back(result_digest(report, req.include_waveforms));
      mutual_terms_by_op[op] = static_cast<double>(traced_extract(req.layout, req.options.peec));
    }
  }
  out.notes.push_back(fmt("serve: %.0f distinct bodies, oracle %.2f s", distinct,
                          ms_between(oracle_t0, Clock::now()) * 1e-3));

  // The oracle's processes are done; everything from here on, the server
  // and the generator included, shares one CPU, another one in each of the
  // run's processes.
  note_pinned_cpu(out, cfg.segment);

  // --- set-up, kSetupReps times (the median is setup_s): bodies, server start,
  // connections, one warm-up request. The last one stays up for the timed
  // phase.
  std::vector<double> setup_s, build_ms;
  const std::string socket_path =
      cfg.run_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";
  ServeSession session;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.close();
    const auto t0 = Clock::now();
    bodies.clear();
    for (int b = 0; b < distinct; ++b) bodies.push_back(serve_request(cfg.seed, b));
    build_ms.push_back(ms_between(t0, Clock::now()));
    session.open(connections, socket_path);
    // Warm-up: one computed request of a body the timed phase never sends.
    const serve::Reply warm = session.clients.front()->analyze(
        1'000'000'000ULL + static_cast<std::uint64_t>(rep),
        serve_request(cfg.seed, -1 - rep));
    if (!warm.ok) throw std::runtime_error("serve warm-up request failed");
    setup_s.push_back(ms_between(t0, Clock::now()) * 1e-3);
  }
  auto& clients = session.clients;

  // --- timed phase: one open-loop window per rate ---------------------------
  std::vector<Outcome> outcomes(plan.size());
  std::vector<Clock::time_point> due_at(plan.size());
  std::mutex mu;
  std::condition_variable cv;
  std::size_t replies = 0;  // guarded by mu
  // Even request ids are traced in the traced run, odd ones are not; the
  // difference of their medians is the tracing overhead.
  auto traced_request = [&](std::size_t id) { return cfg.trace && id % 2 == 0; };

  std::vector<std::vector<std::size_t>> conn_ids(connections);
  for (std::size_t i = 0; i < plan.size(); ++i)
    conn_ids[i % connections].push_back(i);
  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < connections; ++c) {
    readers.emplace_back([&, c] {
      for (std::size_t got = 0; got < conn_ids[c].size(); ++got) {
        const serve::Reply reply = clients[c]->read_reply();
        const auto now = Clock::now();
        if (!reply.ok && !reply.busy &&
            reply.error.code == serve::ErrorCode::ConnectionLost)
          break;  // the rest of this connection's requests stay undone
        const std::size_t id = reply.ok ? reply.request_id : reply.error.request_id;
        if (id >= plan.size()) continue;
        Outcome& o = outcomes[id];
        o.ok = reply.ok;
        o.busy = reply.busy;
        if (reply.ok) {
          const serve::Response& r = reply.response;
          o.served_by = r.served_by;
          o.queue_ms = r.queue_seconds * 1e3;
          o.compute_ms = (r.build_seconds + r.solve_seconds) * 1e3;
          o.result_bytes = r.result_bytes.size();
          o.degraded = !r.report.degradations.empty();
          o.digest_ok = store::hash_bytes(r.result_bytes.data(),
                                          r.result_bytes.size()) ==
                        expected[static_cast<std::size_t>(plan[id].body)];
        }
        std::lock_guard lock(mu);
        o.answered = now;
        o.latency_ms = ms_between(due_at[id], now);
        o.done = true;
        ++replies;
        cv.notify_all();
      }
    });
  }

  struct WindowStats {
    std::vector<double> latency_ms;
    double achieved_rps = 0.0;
    std::size_t sent = 0;
    bool passed = false;
  };
  std::vector<WindowStats> windows(std::size(kRates));
  std::vector<double> lag_ms;
  std::size_t sent_total = 0;
  for (std::size_t w = 0; w < std::size(kRates); ++w) {
    std::vector<std::size_t> ids;
    std::vector<double> due;
    for (std::size_t i = 0; i < plan.size(); ++i)
      if (plan[i].window == static_cast<int>(w)) {
        ids.push_back(i);
        due.push_back(plan[i].due_s);
      }
    WindowStats& ws = windows[w];
    // More requests outstanding than arrive within one latency limit means
    // the backlog is growing past what the limit allows.
    const auto backlog_limit = static_cast<std::size_t>(
        kRates[w] * kLatencyLimitMs * 1e-3 + 1.0);
    std::size_t max_backlog = 0;
    const auto start = Clock::now();
    const std::vector<double> lags = run_open_loop(start, due, [&](std::size_t k) {
      const std::size_t id = ids[k];
      {
        // Counted as sent before the bytes leave, so a fast reply can never
        // be seen before its request.
        std::lock_guard lock(mu);
        max_backlog = std::max(max_backlog, sent_total - replies);
        due_at[id] = due_time(start, plan[id].due_s);
        ++sent_total;
        ++ws.sent;
      }
      Span s("serve.client_send", traced_request(id));
      return clients[id % connections]->send_request(
          id, bodies[static_cast<std::size_t>(plan[id].body)]);
    });
    lag_ms.insert(lag_ms.end(), lags.begin(), lags.end());
    // Drain: every sent request of this window answered (or 30 s).
    {
      std::unique_lock lock(mu);
      cv.wait_for(lock, std::chrono::seconds(30),
                  [&] { return replies >= sent_total; });
    }
    Clock::time_point last = start;
    std::size_t ok = 0;
    for (std::size_t i : ids) {
      const Outcome& o = outcomes[i];
      if (!o.done) continue;
      ws.latency_ms.push_back(o.ok ? o.latency_ms : 1e9);  // a failure misses
      if (o.ok) ++ok;
      last = std::max(last, o.answered);
    }
    ws.achieved_rps = ok / std::max(1e-9, ms_between(start, last) * 1e-3);
    const Tail t = tail(ws.latency_ms);
    ws.passed = ok == ids.size() && t.value <= kLatencyLimitMs &&
                max_backlog <= backlog_limit;
    out.notes.push_back(fmt("serve rate %.0f/s: p50 %.1f ms, tail %.1f ms",
                            kRates[w], median(ws.latency_ms), t.value) +
                        fmt(", %.0f sent, achieved %.2f/s, ", ws.sent,
                            ws.achieved_rps) +
                        (ws.passed ? "meets the limit" : "misses the limit"));
  }

  // Unblock readers still waiting for replies that will never come, then
  // stop the server (it joins its own threads).
  for (auto& c : clients) ::shutdown(c->fd(), SHUT_RDWR);
  for (std::thread& t : readers) t.join();
  session.close();

  // --- outcome accounting ---------------------------------------------------
  std::size_t ok_total = 0, cache = 0, busy = 0, degraded = 0;
  std::vector<double> result_bytes, queue_ms, compute_ms, io_ms;
  std::vector<double> traced_ms, untraced_ms;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    // A request never sent (the connection died) or never answered fails.
    const Outcome& o = outcomes[i];
    ++out.attempted;
    if (o.busy) ++busy;
    if (o.degraded) ++degraded;
    if (!o.done || !o.ok || !o.digest_ok || o.degraded) {
      ++out.failed;
      continue;
    }
    ++ok_total;
    if (o.served_by == serve::Response::ServedBy::Cache) ++cache;
    result_bytes.push_back(static_cast<double>(o.result_bytes));
    if (plan[i].window == 0) {
      queue_ms.push_back(o.queue_ms);
      if (o.served_by == serve::Response::ServedBy::Computed) {
        compute_ms.push_back(o.compute_ms);
        io_ms.push_back(o.latency_ms - o.queue_ms - o.compute_ms);
      } else {
        io_ms.push_back(o.latency_ms - o.queue_ms);
      }
      (traced_request(i) ? traced_ms : untraced_ms).push_back(o.latency_ms);
    }
  }

  out.samples.setup_s = setup_s;
  out.samples.op_ms = windows.front().latency_ms;
  // The top rate overloads the lane, which then completes requests as fast
  // as it can until its window drains: the served throughput.
  out.samples.saturated_rps = {windows.back().achieved_rps};
  double max_rate = 0.0;
  for (const WindowStats& ws : windows)
    if (ws.passed) max_rate = ws.achieved_rps;
  out.samples.max_rate_rps = {max_rate};
  out.samples.peak_rss_mb = {peak_rss_mb()};
  if (!cfg.trace) return out;
  trace.disable();
  LayerValues v;
  v["core.peec_rlc_ms"] = median_of(trace.total_ms_by_op("core.peec_rlc"));
  v["geom.build_ms"] = median(build_ms);
  v["extract.ms"] = median_of(trace.self_ms_by_op("extract.extract"));
  v["extract.mutual_terms"] = median_of(mutual_terms_by_op);
  v["peec.build_ms"] = median_of(trace.self_ms_by_op("peec.build"));
  v["peec.unknowns"] = median_of(unknowns_by_op);
  v["circuit.transient_ms"] = median_of(trace.self_ms_by_op("circuit.transient"));
  v["circuit.steps"] = median_of(steps_by_op);
  v["circuit.refactors"] = median_of(refactors_by_op);
  v["serve.queue_ms"] = median(queue_ms);
  v["serve.compute_ms"] = median(compute_ms);
  v["serve.io_ms"] = median(io_ms);
  v["serve.cache_hit_ratio"] =
      static_cast<double>(cache) / static_cast<double>(std::max<std::size_t>(ok_total, 1));
  v["serve.busy_ratio"] =
      static_cast<double>(busy) / static_cast<double>(out.attempted);
  v["store.result_bytes"] = median(result_bytes);
  v["robust.recovery_actions"] = recovery_actions;
  v["govern.degradations"] = static_cast<double>(degraded);
  v["bench.generator_lag_ms"] = tail(lag_ms).value;
  v["bench.tracing_overhead"] = median(traced_ms) / median(untraced_ms) - 1.0;
  v["bench.failed_ratio"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  emit_per_layer(v, out);
  finish_trace(cfg, out);
  return out;
}

std::vector<Metric> end_to_end_metrics(const Samples& s,
                                       std::vector<std::string>& notes) {
  const Tail t = tail(s.op_ms);
  notes.push_back(fmt("op_tail_ms is p%.1f of %.0f samples, %.0f beyond it",
                      t.percentile, static_cast<double>(s.op_ms.size()),
                      static_cast<double>(t.samples_beyond)));
  // Closed loop (a fixed mix repeated in whole passes): every op of every
  // pass over the time of all passes, so the whole timed phase counts, not
  // the few passes around a median. One closed-loop caller sustains exactly
  // its completion rate, so that is also its highest rate. Serve: measured
  // per window of the open loop.
  const bool closed = s.ops_per_pass > 0;
  double pass_ms_total = 0.0;
  for (double ms : s.pass_ms) pass_ms_total += ms;
  const double ops_per_s =
      closed ? static_cast<double>(s.ops_per_pass * s.pass_ms.size()) /
                   (pass_ms_total * 1e-3)
             : median(s.saturated_rps);
  return {{"setup_s", median(s.setup_s), "s"},
          {"op_p50_ms", median(s.op_ms), "ms"},
          {"op_tail_ms", t.value, "ms"},
          {"ops_per_s", ops_per_s, "1/s"},
          {"max_rate_rps", closed ? ops_per_s : median(s.max_rate_rps), "1/s"},
          {"peak_rss_mb", median(s.peak_rss_mb), "MB"}};
}

}  // namespace perfbench
