#include "stats.hpp"

#include <sched.h>

#include <algorithm>
#include <fstream>
#include <string>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v, std::size_t beyond) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= beyond) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  t.value = v[n - beyond - 1];
  t.percentile = 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  t.samples_beyond = beyond;
  return t;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  return 0.0;
}

int pin_to_cpu(std::uint64_t k) {
  // Read once, before this process binds itself anywhere.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
      for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu)
        if (CPU_ISSET(cpu, &allowed)) out.push_back(cpu);
    return out;
  }();
  if (cpus.empty()) return -1;
  const int cpu = cpus[k % cpus.size()];
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

}  // namespace perfbench
