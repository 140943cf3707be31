// Open-loop request generator: sends on a fixed schedule regardless of how
// fast replies come back, so a slow server sees a growing queue instead of a
// slower client (no coordinated omission). Latency is measured by the caller
// from each request's *due* time, never from when it was actually sent: a
// stall in the generator or the network then shows up in the latency of
// every request queued behind it.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Due time of request i relative to the window start: a constant rate.
inline std::vector<double> constant_rate_schedule(double rate_per_s,
                                                  std::size_t count) {
  std::vector<double> due(count);
  for (std::size_t i = 0; i < count; ++i)
    due[i] = static_cast<double>(i) / rate_per_s;
  return due;
}

inline Clock::time_point due_time(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

/// Calls send(i) at start + due_s[i] for every i, in order, from the calling
/// thread. Stops early when `send` returns false. Returns how late each send
/// started (ms), one entry per request sent.
inline std::vector<double> run_open_loop(
    Clock::time_point start, const std::vector<double>& due_s,
    const std::function<bool(std::size_t)>& send) {
  std::vector<double> lag_ms;
  lag_ms.reserve(due_s.size());
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    const Clock::time_point due = due_time(start, due_s[i]);
    std::this_thread::sleep_until(due);
    lag_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    if (!send(i)) break;
  }
  return lag_ms;
}

}  // namespace perfbench
