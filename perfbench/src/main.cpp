// perfbench: the repository benchmark.
//
//   perfbench --workload clocknet|crossover|serve --seed N --seconds S
//             --trace 0|1 [--run-dir DIR]
//
// DIR (default ".") receives the traced run's Chrome trace-event JSON and
// the serve workload's Unix-domain socket.
//
// Prints the host and settings, human-readable notes, and as its last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (see perfbench/README.md). Exit code 0 unless the run
// could not be carried out at all.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "segments.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload clocknet|crossover|serve --seed N "
               "--seconds S --trace 0|1 [--run-dir DIR]\n");
  return 2;
}

const char* env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        cfg.trace = std::string(value) == "1";
      } else if (arg == "--run-dir") {
        cfg.run_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!have_workload || !(cfg.seconds > 0.0)) return usage();

  std::printf(
      "host: nproc=%u IND_THREADS=%s seed=%llu build=%s avx2=%s "
      "IND_CACHE_DIR=%s IND_SERVE_WORKERS=%s\n",
      std::thread::hardware_concurrency(), env_or("IND_THREADS", "unset"),
      static_cast<unsigned long long>(cfg.seed), PERFBENCH_BUILD_TYPE,
      PERFBENCH_AVX2 ? "on" : "off",
      std::getenv("IND_CACHE_DIR") ? "set" : "unset",
      env_or("IND_SERVE_WORKERS", "unset"));

  // Untraced runs measure in several processes (segments.hpp): three for
  // clocknet; two for crossover, whose whole passes of about 6 s would
  // overshoot shorter shares of the run; two for serve, whose overload
  // burst each process repeats.
  perfbench::RunResult (*run)(const perfbench::RunConfig&) = nullptr;
  int segments = 1;
  if (cfg.workload == "clocknet") {
    run = perfbench::run_clocknet;
    segments = 3;
  } else if (cfg.workload == "crossover") {
    run = perfbench::run_crossover;
    segments = 2;
  } else if (cfg.workload == "serve") {
    run = perfbench::run_serve;
    segments = 2;
  } else {
    return usage();
  }

  perfbench::RunResult r;
  try {
    if (cfg.trace) {
      r = run(cfg);
    } else {
      r = perfbench::run_in_segments(cfg, segments, run);
      r.metrics = perfbench::end_to_end_metrics(r.samples, r.notes);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  if (!r.results_digest.empty())
    std::printf("results digest: %s\n", r.results_digest.c_str());
  std::printf("failed_ratio: %.6f (%llu of %llu ops)\n",
              static_cast<double>(r.failed) / static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const perfbench::Metric& m : r.metrics)
    std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  r.correct = r.correct && r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
