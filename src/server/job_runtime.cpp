#include "server/job_runtime.hpp"

#include <sstream>
#include <utility>

#include "maxpower/run_report.hpp"

namespace mpe::server {

namespace {

/// The report both executors send: the job's own estimator options, the
/// population description and, for local runs, the trace.
std::string job_report(const maxpower::CampaignJob& job,
                       const maxpower::EstimationResult& result,
                       const std::string& population,
                       const util::Tracer* tracer) {
  try {
    std::ostringstream report;
    maxpower::RunReportOptions ro;
    ro.tracer = tracer;
    ro.population = population;
    write_run_report(report, result,
                     maxpower::campaign_engine_config(job).options, ro);
    return std::move(report).str();
  } catch (const std::exception&) {
    return {};  // a broken report never fails the job itself
  }
}

}  // namespace

ExecJobResult execute_job(const ServerCore::Started& started,
                          util::Tracer* tracer, CircuitCache& cache,
                          const std::string& state_dir) {
  ExecJobResult out;
  std::shared_ptr<const maxpower::JobCircuit> circuit;
  const ErrorCode looked_up =
      maxpower::error_code_of([&] { circuit = cache.lookup(started.job); });
  if (looked_up != ErrorCode::kOk) {
    out.outcome.name = started.job.name;
    out.outcome.error = looked_up;  // status stays kFailed
    return out;
  }

  maxpower::JobRunOptions options;
  options.state_dir = state_dir;
  options.retry.max_attempts = 1;
  options.control.cancel = started.cancel;
  if (started.deadline != ServerCore::Clock::time_point::max()) {
    options.control.deadline = util::Deadline::at(started.deadline);
  }
  options.threads = started.threads;
  Rng no_jitter(0);  // one attempt never backs off
  maxpower::JobRun run = maxpower::run_job(started.job, options, no_jitter,
                                           std::move(circuit), tracer);
  if (!run.population.empty()) {
    out.report =
        job_report(started.job, run.outcome.result, run.population, tracer);
  }
  out.outcome = std::move(run.outcome);
  return out;
}

std::string render_job_report(const maxpower::CampaignJob& job,
                              const maxpower::EstimationResult& result,
                              CircuitCache& cache) {
  try {
    // The cache makes this cheap after the first job per circuit; the stack
    // is built only for its description, exactly the one execute_job
    // would have reported.
    const maxpower::JobStack stack =
        maxpower::build_job_stack(job, cache.lookup(job));
    return job_report(job, result, stack.population->description(), nullptr);
  } catch (const std::exception&) {
    return {};
  }
}

}  // namespace mpe::server
