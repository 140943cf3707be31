// Distribution helpers shared by every workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double median(std::vector<double> v);

/// The highest percentile with at least `beyond` samples above it: for n
/// sorted samples that is the value at rank n - beyond (1-based), i.e. the
/// (n - beyond)/n quantile. With n <= beyond no such percentile exists and
/// the maximum is reported with `samples_beyond` < `beyond`.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;        ///< in [0, 100]
  std::size_t samples_beyond = 0;
};
Tail tail(std::vector<double> v, std::size_t beyond = 10);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Binds the calling thread, and every thread it starts from now on, to one
/// CPU: the k-th of the CPUs the process could run on at its first call,
/// counted from the highest-numbered one and wrapping around. On a virtual
/// machine, wake-ups and migrations across CPUs cost a varying amount of
/// time, so an op runs on one CPU. Returns the CPU, or -1 if the affinity
/// could not be set.
int pin_to_cpu(std::uint64_t k);

}  // namespace perfbench
