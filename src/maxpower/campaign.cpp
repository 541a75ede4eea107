#include "maxpower/campaign.hpp"

#include <map>
#include <sstream>
#include <utility>

#include "circuit/bench_io.hpp"
#include "circuit/verilog_io.hpp"
#include "gen/presets.hpp"
#include "maxpower/engine.hpp"
#include "maxpower/ledger.hpp"
#include "maxpower/stopping.hpp"
#include "maxpower/tail_fitter.hpp"
#include "sim/delay.hpp"
#include "util/atomic_file.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"

namespace mpe::maxpower {

namespace {

double number_field(const util::JsonValue& obj, std::string_view key,
                    double fallback, std::size_t line_no) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    throw Error(ErrorCode::kBadData, "manifest field must be a number",
                ErrorContext{}.kv("field", key).kv("line", line_no).str());
  }
  return v->as_number();
}

std::string string_field(const util::JsonValue& obj, std::string_view key,
                         std::size_t line_no) {
  const util::JsonValue* v = obj.find(key);
  if (v == nullptr) return {};
  if (!v->is_string()) {
    throw Error(ErrorCode::kBadData, "manifest field must be a string",
                ErrorContext{}.kv("field", key).kv("line", line_no).str());
  }
  return v->as_string();
}

CampaignJob parse_campaign_job_object(const util::JsonValue& v,
                                      std::size_t line_no) {
  static constexpr std::string_view kKnown[] = {
      "job", "circuit", "bench", "verilog", "seed", "epsilon",
      "confidence", "tprob", "activity", "max_hyper", "fitter", "stop",
      "delay"};
  if (!v.is_object()) {
    throw Error(ErrorCode::kParse, "manifest line is not a JSON object",
                ErrorContext{}.kv("line", line_no).str());
  }
  for (const auto& key : v.keys()) {
    bool known = false;
    for (auto k : kKnown) known = known || key == k;
    if (!known) {
      throw Error(ErrorCode::kBadData, "unknown campaign manifest field",
                  ErrorContext{}.kv("field", key).kv("line", line_no).str());
    }
  }
  CampaignJob job;
  job.name = string_field(v, "job", line_no);
  if (!valid_campaign_job_name(job.name)) {
    throw Error(ErrorCode::kBadData,
                "manifest job name missing or invalid "
                "(want [A-Za-z0-9._-]{1,128})",
                ErrorContext{}.kv("line", line_no).kv("job", job.name).str());
  }
  job.circuit = string_field(v, "circuit", line_no);
  job.bench = string_field(v, "bench", line_no);
  job.verilog = string_field(v, "verilog", line_no);
  job.seed = static_cast<std::uint64_t>(number_field(v, "seed", 1.0, line_no));
  job.epsilon = number_field(v, "epsilon", 0.05, line_no);
  job.confidence = number_field(v, "confidence", 0.90, line_no);
  job.tprob = number_field(v, "tprob", 0.5, line_no);
  job.activity = number_field(v, "activity", -1.0, line_no);
  job.max_hyper_samples = static_cast<std::size_t>(
      number_field(v, "max_hyper", 500.0, line_no));
  job.fitter = string_field(v, "fitter", line_no);
  if (!job.fitter.empty() && !tail_fitter_kind_from_name(job.fitter)) {
    throw Error(ErrorCode::kBadData,
                "unknown fitter (want mle | pwm | gev)",
                ErrorContext{}.kv("fitter", job.fitter)
                    .kv("line", line_no).str());
  }
  job.stop = string_field(v, "stop", line_no);
  if (!job.stop.empty() && !interval_kind_from_name(job.stop)) {
    throw Error(ErrorCode::kBadData,
                "unknown stopping rule (want t | bootstrap)",
                ErrorContext{}.kv("stop", job.stop)
                    .kv("line", line_no).str());
  }
  job.delay = string_field(v, "delay", line_no);
  if (!job.delay.empty() && !sim::delay_model_from_name(job.delay)) {
    throw Error(ErrorCode::kBadData,
                "unknown delay model (want zero | unit | loaded)",
                ErrorContext{}.kv("delay", job.delay)
                    .kv("line", line_no).str());
  }
  return job;
}

}  // namespace

/// kDataFault runs carry the underlying cause in the diagnostics records;
/// surface the most recent coded record so the retry classifier can tell an
/// injected transient (retryable) from genuinely bad data (fatal).
ErrorCode classify_run_result(const EstimationResult& r) {
  switch (r.stop_reason) {
    case StopReason::kConverged:
      return ErrorCode::kOk;
    case StopReason::kDeadlineExceeded:
      return ErrorCode::kDeadline;
    case StopReason::kCancelled:
      return ErrorCode::kCancelled;
    case StopReason::kDataFault: {
      const auto& records = r.diagnostics.records;
      for (auto it = records.rbegin(); it != records.rend(); ++it) {
        if (it->code != ErrorCode::kOk) return it->code;
      }
      return ErrorCode::kBadData;
    }
    case StopReason::kMaxHyperSamples:
    default:
      return ErrorCode::kNonConvergence;
  }
}

EngineConfig campaign_engine_config(const CampaignJob& job) {
  EngineConfig cfg;
  cfg.options.epsilon = job.epsilon;
  cfg.options.confidence = job.confidence;
  cfg.options.max_hyper_samples = job.max_hyper_samples;
  if (!job.stop.empty()) {
    cfg.options.interval = *interval_kind_from_name(job.stop);
  }
  if (!job.fitter.empty()) {
    // "mle" stays on the default (null) fitter so an explicit request for
    // the default does not perturb the checkpoint fingerprint.
    const TailFitterKind kind = *tail_fitter_kind_from_name(job.fitter);
    if (kind != TailFitterKind::kWeibullMle) {
      cfg.fitter = make_tail_fitter(kind);
    }
  }
  return cfg;
}

JobCircuit::JobCircuit(circuit::Netlist netlist)
    : netlist_(std::move(netlist)) {}

std::shared_ptr<const sim::GateProgram> JobCircuit::program(
    const sim::Technology& tech) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!program_) program_ = sim::GateProgram::compile(netlist_, tech);
  return program_;
}

bool JobCircuit::compiled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return program_ != nullptr;
}

circuit::Netlist load_job_netlist(const CampaignJob& job) {
  if (!job.bench.empty()) return circuit::read_bench_file(job.bench);
  if (!job.verilog.empty()) return circuit::read_verilog_file(job.verilog);
  return gen::build_preset(job.circuit.empty() ? "c432" : job.circuit,
                           job.seed);
}

JobStack build_job_stack(const CampaignJob& job,
                         std::shared_ptr<const JobCircuit> circuit) {
  JobStack s;
  if (job.population != nullptr) {
    s.population = job.population;
    return s;
  }
  s.circuit = circuit != nullptr
                  ? std::move(circuit)
                  : std::make_shared<const JobCircuit>(load_job_netlist(job));
  const circuit::Netlist& netlist = s.circuit->netlist();
  sim::PowerEvalOptions eval_opt;
  eval_opt.delay_model = sim::delay_model_from_name(job.delay)
                             .value_or(sim::DelayModel::kFanoutLoaded);
  s.evaluator = std::make_unique<sim::CyclePowerEvaluator>(netlist, eval_opt);
  if (job.activity >= 0.0) {
    s.pairs = std::make_unique<vec::HighActivityPairGenerator>(
        netlist.num_inputs(), job.activity);
  } else {
    s.pairs = std::make_unique<vec::TransitionProbPairGenerator>(
        netlist.num_inputs(), job.tprob);
  }
  s.streaming =
      std::make_unique<vec::StreamingPopulation>(*s.pairs, *s.evaluator);
  // Zero-delay jobs take the compiled tape (the circuit's shared one);
  // backends are result-invariant for a seed, so this never perturbs a
  // golden.
  if (eval_opt.delay_model == sim::DelayModel::kZero) {
    s.streaming->enable_compiled_with(s.circuit->program(eval_opt.tech));
  }
  s.population = s.streaming.get();
  return s;
}

bool valid_campaign_job_name(const std::string& name) {
  if (name.empty() || name.size() > kMaxCampaignJobNameBytes) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  // "." / ".." would escape the state directory.
  return name != "." && name != "..";
}

std::string_view to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kDone: return "done";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kStopped: return "stopped";
    case JobStatus::kSkipped: return "skipped";
  }
  return "failed";
}

std::optional<JobStatus> job_status_from_name(std::string_view name) {
  if (name == "done") return JobStatus::kDone;
  if (name == "failed") return JobStatus::kFailed;
  if (name == "stopped") return JobStatus::kStopped;
  if (name == "skipped") return JobStatus::kSkipped;
  return std::nullopt;
}

std::string campaign_job_to_json(const CampaignJob& job) {
  util::JsonFields f;
  f.add("job", job.name);
  if (!job.circuit.empty()) f.add("circuit", job.circuit);
  if (!job.bench.empty()) f.add("bench", job.bench);
  if (!job.verilog.empty()) f.add("verilog", job.verilog);
  f.add("seed", job.seed);
  f.add("epsilon", job.epsilon);
  f.add("confidence", job.confidence);
  f.add("tprob", job.tprob);
  if (job.activity >= 0.0) f.add("activity", job.activity);
  f.add("max_hyper", static_cast<std::uint64_t>(job.max_hyper_samples));
  if (!job.fitter.empty()) f.add("fitter", job.fitter);
  if (!job.stop.empty()) f.add("stop", job.stop);
  if (!job.delay.empty()) f.add("delay", job.delay);
  return f.object();
}

CampaignJob parse_campaign_job_line(std::string_view json_line) {
  util::JsonValue v;
  try {
    v = util::parse_json(json_line);
  } catch (const Error& e) {
    throw Error(ErrorCode::kParse, "malformed campaign job line",
                ErrorContext{}.kv("detail", e.message()).str());
  }
  return parse_campaign_job_object(v, 1);
}

std::vector<CampaignJob> parse_campaign_manifest(std::string_view text) {
  std::vector<CampaignJob> jobs;
  std::map<std::string, bool> seen;
  std::istringstream in{std::string(text)};
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    util::JsonValue v;
    try {
      v = util::parse_json(line);
    } catch (const Error& e) {
      throw Error(ErrorCode::kParse, "malformed campaign manifest line",
                  ErrorContext{}.kv("line", line_no)
                      .kv("detail", e.message()).str());
    }
    CampaignJob job = parse_campaign_job_object(v, line_no);
    if (seen[job.name]) {
      throw Error(ErrorCode::kBadData, "duplicate job name in manifest",
                  ErrorContext{}.kv("job", job.name).kv("line", line_no).str());
    }
    seen[job.name] = true;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<CampaignJob> load_campaign_manifest(const std::string& path) {
  return parse_campaign_manifest(util::read_file(path));
}

std::string campaign_record_line(const CampaignJobOutcome& outcome) {
  util::JsonFields f;
  f.add("schema", "mpe.campaign");
  f.add("v", std::uint64_t{1});
  f.add("job", outcome.name);
  f.add("status", to_string(outcome.status));
  f.add("attempts", static_cast<std::uint64_t>(outcome.attempts));
  if (!outcome.worker.empty()) f.add("worker", outcome.worker);
  if (outcome.error != ErrorCode::kOk) f.add("error", to_string(outcome.error));
  if (outcome.status == JobStatus::kDone) {
    f.add("estimate", outcome.result.estimate);
    f.add("hyper_samples",
          static_cast<std::uint64_t>(outcome.result.hyper_samples));
    f.add("units", static_cast<std::uint64_t>(outcome.result.units_used));
    f.add("converged", outcome.result.converged);
  }
  return seal_ledger_line(f.object());
}

JobRun run_job(const CampaignJob& job, const JobRunOptions& options,
               Rng& jitter_rng, std::shared_ptr<const JobCircuit> circuit,
               util::Tracer* tracer) {
  JobRun run;
  CampaignJobOutcome& outcome = run.outcome;
  outcome.name = job.name;

  EngineConfig cfg = campaign_engine_config(job);
  cfg.options.control = options.control;
  // The tighter of the campaign deadline and the per-job budget wins; the
  // cancellation token is shared either way.
  if (!options.job_deadline.unlimited() &&
      options.job_deadline.remaining() <
          cfg.options.control.deadline.remaining()) {
    cfg.options.control.deadline = options.job_deadline;
  }
  if (!options.state_dir.empty()) {
    cfg.options.checkpoint_path = options.state_dir + "/" + job.name + ".ckpt";
  }
  cfg.options.checkpoint_every_k = options.checkpoint_every_k;
  cfg.options.tracer = tracer;
  const Engine engine(cfg);
  ParallelOptions par;
  par.threads = options.threads;

  // Build once per job: retry attempts share the population, so stateful
  // decorators (fault-injection counters) advance across attempts and a
  // transient fault does not re-fire on the retry.
  JobStack stack;
  outcome.error = error_code_of(
      [&] { stack = build_job_stack(job, std::move(circuit)); });
  if (outcome.error != ErrorCode::kOk) return run;  // status is kFailed

  bool returned = false;
  const auto attempt = [&]() -> ErrorCode {
    returned = false;
    const ErrorCode thrown = error_code_of([&] {
      outcome.result = engine.run(*stack.population, job.seed, par);
      returned = true;
    });
    return returned ? classify_run_result(outcome.result) : thrown;
  };
  const util::RetryOutcome retried = util::retry_with_backoff(
      options.retry, options.control, jitter_rng, attempt);
  if (returned) run.population = stack.population->description();

  outcome.attempts = retried.attempts;
  outcome.error = retried.last_error;
  const util::StopCause cause = retried.stopped != util::StopCause::kNone
                                    ? retried.stopped
                                    : options.control.should_stop();
  if (retried.ok) {
    outcome.status = JobStatus::kDone;
  } else if (cause != util::StopCause::kNone ||
             outcome.error == ErrorCode::kCancelled ||
             outcome.error == ErrorCode::kDeadline) {
    // The job was interrupted, not broken: its checkpoint stays on disk
    // and the next invocation resumes it. A job stopped before any attempt
    // failed reports the brake that stopped it.
    outcome.status = JobStatus::kStopped;
    if (outcome.error == ErrorCode::kOk) {
      outcome.error = cause == util::StopCause::kDeadline
                          ? ErrorCode::kDeadline
                          : ErrorCode::kCancelled;
    }
  } else {
    outcome.status = JobStatus::kFailed;
  }
  return run;
}

CampaignJobOutcome run_campaign_job(CampaignJob& job,
                                    const JobRunOptions& options,
                                    Rng& jitter_rng) {
  return run_job(job, options, jitter_rng).outcome;
}

CampaignResult run_campaign(std::vector<CampaignJob>& jobs,
                            const CampaignOptions& options) {
  if (options.state_dir.empty()) {
    throw Error(ErrorCode::kPrecondition,
                "CampaignOptions::state_dir must be set");
  }
  util::ensure_directory(options.state_dir);
  const std::string report_path = options.report_path.empty()
                                      ? options.state_dir + "/campaign.jsonl"
                                      : options.report_path;
  const LedgerReadResult ledger_read = read_ledger_file(report_path);
  // Corrupt records are set aside, never trusted: an unreadable record can
  // never mark a job done, so the affected job re-runs from its checkpoint
  // and the ledger self-heals with a fresh sealed record.
  quarantine_ledger_lines(report_path, ledger_read.corrupt);
  const auto ledger = ledger_read.final_status();

  CampaignResult result;
  result.quarantined = ledger_read.corrupt.size();
  Rng jitter_rng(options.jitter_seed);

  JobRunOptions job_options;
  job_options.state_dir = options.state_dir;
  job_options.retry = options.retry;
  job_options.control = options.control;
  job_options.threads = options.threads;
  job_options.checkpoint_every_k = options.checkpoint_every_k;

  for (auto& job : jobs) {
    if (!valid_campaign_job_name(job.name)) {
      throw Error(ErrorCode::kBadData, "invalid campaign job name",
                  ErrorContext{}.kv("job", job.name).str());
    }
    if (const auto it = ledger.find(job.name);
        it != ledger.end() && it->second == "done") {
      CampaignJobOutcome outcome;
      outcome.name = job.name;
      outcome.status = JobStatus::kSkipped;
      ++result.skipped;
      result.jobs.push_back(std::move(outcome));
      continue;  // ledger says done: nothing to re-run, nothing to append
    }

    const util::StopCause before = options.control.should_stop();
    if (before != util::StopCause::kNone) {
      result.stopped = before;
      break;
    }

    CampaignJobOutcome outcome = run_campaign_job(job, job_options, jitter_rng);
    if (outcome.status == JobStatus::kDone) ++result.done;
    if (outcome.status == JobStatus::kFailed) ++result.failed;
    append_ledger_line(report_path, campaign_record_line(outcome));
    const bool was_stopped = outcome.status == JobStatus::kStopped;
    const ErrorCode stop_error = outcome.error;
    result.jobs.push_back(std::move(outcome));
    if (was_stopped) {
      const util::StopCause after = options.control.should_stop();
      result.stopped = after != util::StopCause::kNone
                           ? after
                           : (stop_error == ErrorCode::kDeadline
                                  ? util::StopCause::kDeadline
                                  : util::StopCause::kCancelled);
      break;
    }
  }
  return result;
}

}  // namespace mpe::maxpower
