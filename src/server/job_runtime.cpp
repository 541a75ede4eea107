#include "server/job_runtime.hpp"

#include <sstream>
#include <utility>

#include "maxpower/engine.hpp"
#include "maxpower/run_report.hpp"
#include "sim/cpu_dispatch.hpp"

namespace mpe::server {

JobExec build_exec(const maxpower::CampaignJob& job, CircuitCache& cache) {
  JobExec e;
  e.circuit = cache.lookup(job);
  sim::PowerEvalOptions eval_opt;
  if (job.delay == "zero") {
    eval_opt.delay_model = sim::DelayModel::kZero;
  } else if (job.delay == "unit") {
    eval_opt.delay_model = sim::DelayModel::kUnit;
  }
  e.evaluator = std::make_unique<sim::CyclePowerEvaluator>(
      e.circuit->netlist(), eval_opt);
  if (job.activity >= 0.0) {
    e.pairs = std::make_unique<vec::HighActivityPairGenerator>(
        e.circuit->netlist().num_inputs(), job.activity);
  } else {
    e.pairs = std::make_unique<vec::TransitionProbPairGenerator>(
        e.circuit->netlist().num_inputs(), job.tprob);
  }
  e.streaming =
      std::make_unique<vec::StreamingPopulation>(*e.pairs, *e.evaluator);
  if (eval_opt.delay_model == sim::DelayModel::kZero) {
    // Adopt the cache's shared tape when a wide kernel exists (compiling it
    // lazily, once per cached circuit); otherwise the 64-lane interpreter.
    bool compiled = false;
    if (sim::kernel_available(sim::best_kernel())) {
      compiled =
          e.streaming->enable_compiled_with(e.circuit->program(eval_opt.tech));
    }
    if (!compiled) e.streaming->enable_bit_parallel();
  }
  return e;
}

ExecJobResult execute_job(const ServerCore::Started& started,
                          util::Tracer* tracer, CircuitCache& cache,
                          const std::string& state_dir) {
  using Clock = ServerCore::Clock;
  ExecJobResult out;
  out.outcome.name = started.job.name;
  out.outcome.attempts = 1;

  // The campaign runner's composition, plus the server's cross-cutting
  // fields: the ticket's cancel token and deadline, checkpoint, tracer.
  maxpower::EngineConfig cfg = maxpower::campaign_engine_config(started.job);
  maxpower::EstimatorOptions& est = cfg.options;
  est.control.cancel = started.cancel;
  if (started.deadline != Clock::time_point::max()) {
    est.control.deadline = util::Deadline::at(started.deadline);
  }
  if (!state_dir.empty()) {
    est.checkpoint_path = state_dir + "/" + started.job.name + ".ckpt";
  }
  est.tracer = tracer;
  const maxpower::Engine engine(cfg);
  maxpower::ParallelOptions par;
  par.threads = started.threads;

  JobExec exec;
  try {
    exec = build_exec(started.job, cache);
  } catch (const Error& e) {
    out.outcome.status = maxpower::JobStatus::kFailed;
    out.outcome.error = e.code();
    return out;
  } catch (const std::exception&) {
    out.outcome.status = maxpower::JobStatus::kFailed;
    out.outcome.error = ErrorCode::kInternal;
    return out;
  }

  maxpower::EstimationResult result;
  try {
    result = engine.run(*exec.streaming, started.job.seed, par);
  } catch (const Error& e) {
    out.outcome.status = maxpower::JobStatus::kFailed;
    out.outcome.error = e.code();
    return out;
  } catch (const std::exception&) {
    out.outcome.status = maxpower::JobStatus::kFailed;
    out.outcome.error = ErrorCode::kInternal;
    return out;
  }

  const ErrorCode code = maxpower::classify_run_result(result);
  if (code == ErrorCode::kOk) {
    out.outcome.status = maxpower::JobStatus::kDone;
  } else if (code == ErrorCode::kCancelled || code == ErrorCode::kDeadline) {
    out.outcome.status = maxpower::JobStatus::kStopped;
    out.outcome.error = code;
  } else {
    out.outcome.status = maxpower::JobStatus::kFailed;
    out.outcome.error = code;
  }
  const std::string population = exec.streaming->description();
  out.outcome.result = std::move(result);

  std::ostringstream report;
  try {
    maxpower::RunReportOptions ro;
    ro.tracer = tracer;
    ro.population = population;
    write_run_report(report, out.outcome.result, est, ro);
    out.report = std::move(report).str();
  } catch (const std::exception&) {
    out.report.clear();  // a broken report never fails the job itself
  }
  return out;
}

std::string render_job_report(const maxpower::CampaignJob& job,
                              const maxpower::EstimationResult& result,
                              CircuitCache& cache) {
  try {
    // The cache makes this cheap after the first job per circuit; the
    // streaming stack is built only for its description string, exactly the
    // one execute_job would have reported.
    const JobExec exec = build_exec(job, cache);
    const std::string population = exec.streaming->description();
    std::ostringstream report;
    maxpower::RunReportOptions ro;
    ro.population = population;
    write_run_report(report, result,
                     maxpower::campaign_engine_config(job).options, ro);
    return std::move(report).str();
  } catch (const std::exception&) {
    return {};
  }
}

}  // namespace mpe::server
