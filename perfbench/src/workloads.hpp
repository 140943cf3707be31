// The three workloads. Each runs its timed phase for `seconds`, checks every
// output, and returns either the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Which of the run's processes this is (segments.hpp); 0 in a traced run.
  int segment = 0;
  /// Directory for the run's files: the traced run's Chrome trace-event
  /// JSON and the serve workload's Unix-domain socket.
  std::string run_dir = ".";
  std::string trace_path() const {
    return run_dir + "/trace-" + workload + "-" + std::to_string(seed) + ".json";
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run measured, before it is reduced to the end-to-end metrics.
/// Samples of several processes pool (see segments.hpp).
struct Samples {
  std::vector<double> setup_s;   ///< one per set-up repetition
  std::vector<double> op_ms;     ///< the op_p50_ms / op_tail_ms population
  std::vector<double> pass_ms;   ///< closed loop: one per whole pass
  std::size_t ops_per_pass = 0;  ///< closed loop: ops in one pass of the mix
  std::vector<double> saturated_rps;  ///< serve: overload window throughput
  std::vector<double> max_rate_rps;   ///< serve: highest passing rate achieved
  std::vector<double> peak_rss_mb;    ///< one per process
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Samples samples;
  std::vector<Metric> metrics;     ///< per-layer metrics of a traced run
  std::vector<std::string> notes;  ///< human-readable lines, printed first
  std::string results_digest;      ///< fingerprint of every result.* digest
};

RunResult run_clocknet(const RunConfig& cfg);
RunResult run_crossover(const RunConfig& cfg);
RunResult run_serve(const RunConfig& cfg);

/// The end-to-end metrics of (pooled) samples; explains the tail in `notes`.
std::vector<Metric> end_to_end_metrics(const Samples& s,
                                       std::vector<std::string>& notes);

}  // namespace perfbench
