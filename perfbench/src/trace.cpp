#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

thread_local int t_open = -1;           // innermost open span on this thread
thread_local std::uint64_t t_op = 0;
thread_local std::uint32_t t_tid = 0;
std::atomic<std::uint32_t> g_next_tid{1};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Trace& Trace::instance() {
  static Trace trace;
  return trace;
}

void Trace::set_op(std::uint64_t op) { t_op = op; }

int Trace::begin(const char* name) {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1);
  Record r;
  r.name = name;
  r.parent = t_open;
  r.op = t_op;
  r.tid = t_tid;
  std::lock_guard lock(mutex_);
  r.start_ns = now_ns();
  records_.push_back(std::move(r));
  t_open = static_cast<int>(records_.size()) - 1;
  return t_open;
}

void Trace::end(int index) {
  const std::int64_t t = now_ns();
  std::lock_guard lock(mutex_);
  Record& r = records_[static_cast<std::size_t>(index)];
  r.end_ns = t;
  t_open = r.parent;
}

std::map<std::uint64_t, double> Trace::total_ms_by_op(
    const std::string& name) const {
  std::map<std::uint64_t, double> out;
  std::lock_guard lock(mutex_);
  for (const Record& r : records_)
    if (r.name == name && r.end_ns >= 0)
      out[r.op] += static_cast<double>(r.end_ns - r.start_ns) * 1e-6;
  return out;
}

std::map<std::uint64_t, double> Trace::self_ms_by_op(
    const std::string& name) const {
  std::lock_guard lock(mutex_);
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_)
    if (r.parent >= 0 && r.end_ns >= 0)
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
  std::map<std::uint64_t, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.name == name && r.end_ns >= 0)
      out[r.op] +=
          static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) * 1e-6;
  }
  return out;
}

bool Trace::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard lock(mutex_);
  const std::int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const Record& r : records_) {
    if (r.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %llu, "
                 "\"parent\": %d}}",
                 first ? "" : ",\n", r.name.c_str(), r.tid,
                 static_cast<double>(r.start_ns - t0) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
                 static_cast<unsigned long long>(r.op), r.parent);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::vector<double> values(const std::map<std::uint64_t, double>& by_op) {
  std::vector<double> out;
  out.reserve(by_op.size());
  for (const auto& [op, v] : by_op) out.push_back(v);
  return out;
}

}  // namespace perfbench
