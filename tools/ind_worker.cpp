// ind_worker: one sandboxed analysis lane of the serve worker pool.
//
//   ind_worker --fd N [--as-slack-bytes B] [--cpu-slack-s S]
//              [--max-frame-bytes M]
//
// Spawned by serve::WorkerPool (never run by hand): reads AnalyzeRequest
// frames off the inherited socketpair (fd 3 by convention), runs
// core::analyze under the request's *effective* RunBudget — the supervisor
// re-encodes the dispatched request with the budget already clamped by the
// server caps — and writes back one AnalyzeResponse or Error frame per
// request. The analysis is serve::compute_request, the function the
// server's in-process lane runs, so both lane kinds answer the same
// structured codes. Before each analysis the per-request RLIMIT_AS /
// RLIMIT_CPU soft limits derived from that budget are applied
// (govern/rlimit.hpp) and relaxed again afterwards, so a runaway allocation
// or wedged kernel kills this process — classified by the supervisor via its
// exit status — instead of the server.
//
// Exit protocol (what WorkerPool::classify_worker_exit reads):
//   0                      clean shutdown: EOF on the job pipe (supervisor
//                          closed it) or the supervisor vanished mid-reply
//   govern::kWorkerOomExitCode   std::bad_alloc under RLIMIT_AS — the heap
//                          cannot be trusted for a structured reply
//   2                      protocol violation on the job pipe
//   fatal signal           whatever the kernel says (SIGSEGV, SIGXCPU, ...)
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <unistd.h>

#include "govern/rlimit.hpp"
#include "serve/codec.hpp"
#include "serve/compute.hpp"
#include "serve/protocol.hpp"
#include "store/format.hpp"

namespace {

struct Args {
  int fd = 3;
  std::uint64_t as_slack_bytes = 512ull << 20;
  std::uint64_t cpu_slack_s = 5;
  std::uint32_t max_frame_bytes = ind::serve::kDefaultMaxFrameBytes;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ind_worker: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--fd") {
      a.fd = std::atoi(next());
    } else if (arg == "--as-slack-bytes") {
      a.as_slack_bytes = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--cpu-slack-s") {
      a.cpu_slack_s = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--max-frame-bytes") {
      a.max_frame_bytes =
          static_cast<std::uint32_t>(std::strtoull(next(), nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: ind_worker --fd N [--as-slack-bytes B] "
                   "[--cpu-slack-s S] [--max-frame-bytes M]\n");
      std::exit(arg == "--help" ? 0 : 2);
    }
  }
  return a;
}

/// Runs one decoded request through the same compute_request the server's
/// in-process lane calls, inside the per-request rlimit sandbox.
ind::serve::Frame serve_one(const Args& args, std::uint64_t job_id,
                            const ind::serve::Request& req) {
  ind::govern::apply_worker_rlimits(ind::govern::worker_rlimits(
      req.budget, args.as_slack_bytes, args.cpu_slack_s));
  // req.budget is already the effective (cap-clamped) budget. A
  // std::bad_alloc propagates to main, which self-exits.
  const ind::serve::ComputeOutcome out =
      ind::serve::compute_request(req, req.budget);
  ind::govern::relax_worker_rlimits();

  if (out.code != ind::serve::ErrorCode::None)
    return ind::serve::make_error(job_id, out.code, out.detail);
  ind::serve::Frame reply;
  reply.type = ind::serve::FrameType::AnalyzeResponse;
  reply.payload = ind::serve::encode_response_payload(
      job_id, ind::serve::Response::ServedBy::Computed, out.build_seconds,
      out.solve_seconds, 0.0, out.result_bytes);
  return reply;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // The supervisor closing the job pipe mid-write must surface as EPIPE
  // (write_frame maps it to "peer gone"), not kill us with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  for (;;) {
    std::optional<ind::serve::Frame> job;
    try {
      job = ind::serve::read_frame(args.fd, args.max_frame_bytes);
    } catch (const ind::serve::ProtocolError&) {
      return 0;  // torn pipe: the supervisor died or killed us on purpose
    }
    if (!job) return 0;  // clean EOF: supervisor shut the pool down
    if (job->type != ind::serve::FrameType::AnalyzeRequest) return 2;

    std::uint64_t job_id = 0;
    ind::serve::Frame reply;
    try {
      ind::store::ByteReader r(job->payload);
      job_id = r.u64();
      ind::serve::Request req;
      ind::serve::get_request(r, req);
      reply = serve_one(args, job_id, req);
    } catch (const std::bad_alloc&) {
      // RLIMIT_AS tripped (or the box is truly out of memory): building a
      // structured reply needs heap we may not have. Self-exit with the
      // classified code; the supervisor answers the tenant.
      _exit(ind::govern::kWorkerOomExitCode);
    } catch (const std::exception& e) {
      reply = ind::serve::make_error(job_id, ind::serve::ErrorCode::BadRequest,
                                     e.what());
    }
    // The supervisor reads replies under the same --max-frame-bytes cap it
    // handed us: an oversized payload would be rejected there with
    // FrameTooLarge while we sit blocked writing the remainder. Answer with a
    // structured (small) Error instead of ever starting an oversized write.
    if (reply.payload.size() > args.max_frame_bytes)
      reply = ind::serve::make_error(
          job_id, ind::serve::ErrorCode::FrameTooLarge,
          "worker reply of " + std::to_string(reply.payload.size()) +
              " bytes exceeds the " + std::to_string(args.max_frame_bytes) +
              "-byte frame cap; lower t_stop/dt or disable include_waveforms");
    if (!ind::serve::write_frame(args.fd, reply)) return 0;
  }
}
