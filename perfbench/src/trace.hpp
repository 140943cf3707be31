// In-memory span recorder for the traced run.
//
// Spans are opened by the benchmark's own code around calls into each
// module's public entry points; nothing inside the library is instrumented.
// Each span records its name, start, end, the span that was open on the same
// thread when it began (its parent) and the op it belongs to. Spans stay in
// memory and are written once, at exit, as Chrome trace-event JSON (viewable
// offline in Perfetto or chrome://tracing).
//
// Self time is a span's duration minus the part covered by its children.
// Children of a span run synchronously on its thread, so they are disjoint
// and that part is the sum of their durations.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Trace {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    int parent = -1;           ///< index into records, -1 for a root span
    std::uint64_t op = 0;
    std::uint32_t tid = 0;
  };

  /// Process-wide recorder. Disabled until enable(): every Span is then a
  /// no-op, so the untraced run pays nothing but a branch.
  static Trace& instance();
  void enable() { enabled_.store(true); }
  void disable() { enabled_.store(false); }
  bool enabled() const { return enabled_.load(); }

  /// Op id stamped on spans opened by the calling thread from now on.
  static void set_op(std::uint64_t op);

  int begin(const char* name);
  void end(int index);

  /// Per op, the summed self time (ms) of every span named `name`.
  std::map<std::uint64_t, double> self_ms_by_op(const std::string& name) const;
  /// Per op, the summed inclusive time (ms) of every span named `name`.
  std::map<std::uint64_t, double> total_ms_by_op(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  Trace() = default;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Record> records_;  ///< guarded by mutex_
};

/// RAII span; a no-op when tracing is disabled or `on` is false.
class Span {
 public:
  explicit Span(const char* name, bool on = true)
      : index_(on && Trace::instance().enabled() ? Trace::instance().begin(name)
                                                 : -1) {}
  ~Span() {
    if (index_ >= 0) Trace::instance().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

/// Values of a per-op map, for median().
std::vector<double> values(const std::map<std::uint64_t, double>& by_op);

}  // namespace perfbench
