#include "segments.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

void put_values(std::ostringstream& os, const char* key,
                const std::vector<double>& values) {
  os << key;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof buf, " %.17g", v);
    os << buf;
  }
  os << '\n';
}

std::string serialize(const RunResult& r) {
  std::ostringstream os;
  os << "attempted " << r.attempted << "\nfailed " << r.failed << "\ncorrect "
     << (r.correct ? 1 : 0) << "\nops_per_pass " << r.samples.ops_per_pass
     << "\ndigest " << r.results_digest << '\n';
  put_values(os, "setup_s", r.samples.setup_s);
  put_values(os, "op_ms", r.samples.op_ms);
  put_values(os, "pass_ms", r.samples.pass_ms);
  put_values(os, "saturated_rps", r.samples.saturated_rps);
  put_values(os, "max_rate_rps", r.samples.max_rate_rps);
  put_values(os, "peak_rss_mb", r.samples.peak_rss_mb);
  for (const std::string& note : r.notes) os << "note " << note << '\n';
  return os.str();
}

RunResult parse(const std::string& text) {
  RunResult r;
  std::istringstream in(text);
  std::string line;
  bool complete = false;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    auto values = [&ls] {
      std::vector<double> v;
      for (double x; ls >> x;) v.push_back(x);
      return v;
    };
    if (key == "attempted") ls >> r.attempted;
    else if (key == "failed") ls >> r.failed;
    else if (key == "correct") { int c = 0; ls >> c; r.correct = c != 0; complete = true; }
    else if (key == "ops_per_pass") ls >> r.samples.ops_per_pass;
    else if (key == "digest") ls >> r.results_digest;
    else if (key == "setup_s") r.samples.setup_s = values();
    else if (key == "op_ms") r.samples.op_ms = values();
    else if (key == "pass_ms") r.samples.pass_ms = values();
    else if (key == "saturated_rps") r.samples.saturated_rps = values();
    else if (key == "max_rate_rps") r.samples.max_rate_rps = values();
    else if (key == "peak_rss_mb") r.samples.peak_rss_mb = values();
    else if (key == "note") r.notes.push_back(line.size() > 5 ? line.substr(5) : "");
  }
  if (!complete) throw std::runtime_error("segment ended without a result");
  return r;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

RunResult run_in_segments(const RunConfig& cfg, int segments,
                          RunResult (*run)(const RunConfig&)) {
  RunConfig part = cfg;
  part.seconds = cfg.seconds / segments;
  RunResult merged;
  std::vector<std::string> first_notes;
  for (int k = 0; k < segments; ++k) {
    part.segment = k;
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("segments: pipe failed");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("segments: fork failed");
    if (pid == 0) {
      ::close(fds[0]);
      int code = 0;
      try {
        const std::string text = serialize(run(part));
        for (std::size_t off = 0; off < text.size();) {
          const ssize_t n = ::write(fds[1], text.data() + off, text.size() - off);
          if (n <= 0) break;
          off += static_cast<std::size_t>(n);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: segment %d: %s\n", k, e.what());
        code = 1;
      }
      ::_exit(code);
    }
    ::close(fds[1]);
    std::string text;
    char buf[4096];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) > 0;)
      text.append(buf, static_cast<std::size_t>(n));
    ::close(fds[0]);
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("segment " + std::to_string(k) + " failed");

    RunResult r = parse(text);
    merged.attempted += r.attempted;
    merged.failed += r.failed;
    merged.correct = merged.correct && r.correct;
    if (k == 0) {
      merged.results_digest = r.results_digest;
      merged.samples.ops_per_pass = r.samples.ops_per_pass;
    } else if (r.results_digest != merged.results_digest) {
      // Same seed, same inputs: every process must compute the same results.
      merged.correct = false;
      merged.notes.push_back("results digest differs between segments");
    }
    // Notes every segment repeats verbatim are printed once.
    for (const std::string& note : r.notes)
      if (k == 0 || std::find(first_notes.begin(), first_notes.end(), note) ==
                        first_notes.end())
        merged.notes.push_back("segment " + std::to_string(k) + ": " + note);
    if (k == 0) first_notes = r.notes;
    append(merged.samples.setup_s, r.samples.setup_s);
    append(merged.samples.op_ms, r.samples.op_ms);
    append(merged.samples.pass_ms, r.samples.pass_ms);
    append(merged.samples.saturated_rps, r.samples.saturated_rps);
    append(merged.samples.max_rate_rps, r.samples.max_rate_rps);
    append(merged.samples.peak_rss_mb, r.samples.peak_rss_mb);
  }
  return merged;
}

}  // namespace perfbench
