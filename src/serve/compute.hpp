// The one compute step both executor lane kinds run for a flight.
//
// The in-process lane (Server::execute with IND_SERVE_WORKERS=0) calls
// compute_request directly; a worker lane dispatches the flight to an
// ind_worker process, which calls the same function and sends the outcome
// back as a frame that WorkerPool::run decodes into the same ComputeOutcome.
// So a request answers the same ErrorCode, or the same RESULT bytes, on
// either lane kind.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "govern/budget.hpp"
#include "serve/codec.hpp"
#include "serve/protocol.hpp"

namespace ind::serve {

/// Result of running one flight on either lane kind.
struct ComputeOutcome {
  ErrorCode code = ErrorCode::None;  ///< None = success
  std::string detail;                ///< set when code != None
  double build_seconds = 0.0;
  double solve_seconds = 0.0;
  std::vector<std::uint8_t> result_bytes;  ///< encode_result(); on success
};

/// Configures the process Governor with `budget`, runs core::analyze and
/// encodes its RESULT block. Exceptions map to structured codes:
/// govern::CancelledError to ShuttingDown (External kind) or
/// DeadlineExceeded, std::invalid_argument to BadRequest, any other
/// std::exception to Internal. std::bad_alloc propagates: a sandboxed
/// worker self-exits on it because its heap cannot be trusted, and the
/// in-process lane answers Internal.
ComputeOutcome compute_request(const Request& req,
                               const govern::RunBudget& budget);

}  // namespace ind::serve
