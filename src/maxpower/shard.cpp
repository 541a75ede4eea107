#include "maxpower/shard.hpp"

#include <utility>

#include "maxpower/engine.hpp"
#include "maxpower/ledger.hpp"
#include "maxpower/unit_source.hpp"
#include "util/jsonl.hpp"

namespace mpe::maxpower {

std::uint64_t job_attempt_budget(const CampaignJob& job) {
  // The engine's attempt cap: max_hyper_samples accepted samples plus the
  // redraw budget for discarded ones (EstimatorOptions default; the
  // manifest has no redraw knob).
  return job.max_hyper_samples + EstimatorOptions{}.max_redraws;
}

std::size_t shard_count(std::uint64_t attempts, std::uint64_t shard_size) {
  if (attempts == 0) return 0;
  if (shard_size == 0) return 1;
  return static_cast<std::size_t>((attempts + shard_size - 1) / shard_size);
}

ShardRange shard_range(std::uint64_t attempts, std::uint64_t shard_size,
                       std::size_t k) {
  if (shard_size == 0) shard_size = attempts;
  ShardRange r;
  r.lo = k * shard_size;
  r.hi = std::min(attempts, r.lo + shard_size);
  if (r.lo >= r.hi) {
    throw Error(ErrorCode::kPrecondition, "shard index out of range",
                ErrorContext{}
                    .kv("shard", static_cast<std::uint64_t>(k))
                    .kv("attempts", attempts)
                    .str());
  }
  return r;
}

namespace {

/// The sample-log key of one shard: the job, shard and range, plus the full
/// spec, which pins every value-affecting knob — a shard checkpoint can
/// never be resumed under a different job configuration.
std::string shard_log_key(const CampaignJob& job, std::uint64_t shard,
                          std::uint64_t lo, std::uint64_t hi) {
  return util::JsonFields{}
      .add("job", job.name)
      .add("shard", shard)
      .add("lo", lo)
      .add("hi", hi)
      .add("spec", campaign_job_to_json(job))
      .object();
}

/// A shard's checkpoint. Best-effort: an unusable log only costs
/// recomputation, so no failure to read or write it ends the shard.
class ShardLog final : public SampleSink {
 public:
  ShardLog(const std::string& path, const std::string& key, std::uint64_t lo,
           std::uint64_t hi, std::size_t every)
      : writer_(path), every_(every == 0 ? 1 : every) {
    try {
      SampleLog log = load_sample_log(path, key, lo, hi);
      if (log.state == SampleLogState::kLoaded) {
        recorded = std::move(log.prefix);
      } else {
        // Fresh, foreign or corrupt: start over under our own header.
        create_sample_log(path, key);
      }
    } catch (const Error&) {
    }
  }

  void append(const ShardSample& sample, bool stopped) override {
    writer_.append(sample);
    if (stopped || writer_.pending() >= every_) sync();
  }
  void sync() override {
    try {
      writer_.flush();
    } catch (const Error&) {
      // Lost records are recomputed on resume.
    }
  }

  std::vector<ShardSample> recorded;  ///< the resumed prefix lo, lo+1, ...

 private:
  SampleLogWriter writer_;
  std::size_t every_;
};

}  // namespace

ShardOutcome run_campaign_shard(const CampaignJob& job, std::uint64_t shard,
                                std::uint64_t lo, std::uint64_t hi,
                                const ShardRunOptions& options) {
  ShardOutcome out;
  out.job = job.name;
  out.shard = shard;
  out.lo = lo;
  out.hi = hi;
  if (hi <= lo) {
    out.status = JobStatus::kFailed;
    out.error = ErrorCode::kPrecondition;
    return out;
  }

  JobStack stack;
  out.error = error_code_of([&] { stack = build_job_stack(job); });
  if (out.error != ErrorCode::kOk) return out;  // status is kFailed
  PopulationUnitSource source(*stack.population);

  ShardLog log(options.state_dir + "/" + job.name + ".shard" +
                   std::to_string(shard) + ".ckpt",
               shard_log_key(job, shard, lo, hi), lo, hi,
               options.checkpoint_every_k);
  EngineConfig cfg = campaign_engine_config(job);
  cfg.options.control = options.control;
  WindowRun window;
  out.error = error_code_of([&] {
    window = Engine(cfg).run_window(source, job.seed, lo, hi, log.recorded,
                                    log);
  });
  if (out.error == ErrorCode::kOk) out.error = window.fault;
  if (out.error != ErrorCode::kOk) return out;  // status is kFailed
  switch (window.result.stop_reason) {
    case StopReason::kCancelled:
      out.status = JobStatus::kStopped;
      out.error = ErrorCode::kCancelled;
      return out;
    case StopReason::kDeadlineExceeded:
      out.status = JobStatus::kStopped;
      out.error = ErrorCode::kDeadline;
      return out;
    default:
      break;
  }
  out.status = JobStatus::kDone;
  out.samples = std::move(window.samples);
  return out;
}

AssembledJob assemble_job(const CampaignJob& job,
                          const std::vector<ShardSample>& prefix) {
  const EngineConfig cfg = campaign_engine_config(job);
  AssembledJob out;
  out.result = Engine(cfg).replay(job.seed, prefix);
  // Terminal when the fold hit its stopping point inside the prefix:
  // convergence, the accepted-sample budget, or the full attempt budget
  // (the redraws-exhausted case). Otherwise the live run would have kept
  // drawing, so the result is a probe to discard.
  out.terminal = out.result.converged ||
                 out.result.hyper_samples >= cfg.options.max_hyper_samples ||
                 prefix.size() >= job_attempt_budget(job);
  return out;
}

CampaignJobOutcome assembled_outcome(const CampaignJob& job,
                                     const EstimationResult& result) {
  CampaignJobOutcome outcome;
  outcome.name = job.name;
  outcome.attempts = 1;
  const ErrorCode code = classify_run_result(result);
  if (code == ErrorCode::kOk) {
    outcome.status = JobStatus::kDone;
    outcome.result = result;
  } else {
    outcome.status = JobStatus::kFailed;
    outcome.error = code;
  }
  return outcome;
}

std::string shard_record_line(std::string_view job, std::uint64_t shard,
                              std::uint64_t lo, std::uint64_t hi,
                              std::string_view worker,
                              const std::vector<ShardSample>& samples) {
  util::JsonFields f;
  f.add("schema", "mpe.campaign");
  f.add("v", std::uint64_t{1});
  f.add("job", job);
  f.add("shard", shard);
  f.add("lo", lo);
  f.add("hi", hi);
  f.add("status", "done");
  if (!worker.empty()) f.add("worker", worker);
  f.add("samples", encode_shard_samples(samples));
  return seal_ledger_line(f.object());
}

}  // namespace mpe::maxpower
