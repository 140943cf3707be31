#include "serve/compute.hpp"

#include <new>
#include <stdexcept>

namespace ind::serve {

ComputeOutcome compute_request(const Request& req,
                               const govern::RunBudget& budget) {
  govern::Governor::instance().configure(budget);
  ComputeOutcome out;
  core::AnalysisReport report;
  try {
    report = core::analyze(req.layout, req.options);
  } catch (const std::bad_alloc&) {
    throw;  // each lane kind handles it its own way (see the header)
  } catch (const govern::CancelledError& e) {
    // External = disconnect- or shutdown-triggered cancellation.
    out.code = e.kind() == govern::BudgetKind::External
                   ? ErrorCode::ShuttingDown
                   : ErrorCode::DeadlineExceeded;
    out.detail = e.what();
  } catch (const std::invalid_argument& e) {
    out.code = ErrorCode::BadRequest;
    out.detail = e.what();
  } catch (const std::exception& e) {
    out.code = ErrorCode::Internal;
    out.detail = e.what();
  }
  if (out.code != ErrorCode::None) return out;
  out.build_seconds = report.build_seconds;
  out.solve_seconds = report.solve_seconds;
  out.result_bytes = encode_result(report, req.include_waveforms);
  return out;
}

}  // namespace ind::serve
