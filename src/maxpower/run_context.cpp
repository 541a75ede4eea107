#include "maxpower/run_context.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/jsonl.hpp"

namespace mpe::maxpower {

namespace detail {

EstimatorMetrics::EstimatorMetrics() {
  auto& reg = util::MetricRegistry::global();
  runs_serial = reg.counter("mpe_estimator_runs_total", "path=serial");
  runs_parallel = reg.counter("mpe_estimator_runs_total", "path=parallel");
  converged_serial =
      reg.counter("mpe_estimator_converged_runs_total", "path=serial");
  converged_parallel =
      reg.counter("mpe_estimator_converged_runs_total", "path=parallel");
  hyper_accepted = reg.counter("mpe_estimator_hyper_samples_total");
  hyper_discarded = reg.counter("mpe_estimator_hyper_discarded_total");
  units = reg.counter("mpe_estimator_units_total");
  waves = reg.counter("mpe_estimator_waves_total");
  speculation_wasted = reg.counter("mpe_estimator_speculation_wasted_total");
  hyper_per_run = reg.histogram("mpe_estimator_hyper_samples_per_run");
  run_wall_ns = reg.histogram("mpe_estimator_run_wall_ns");
}

EstimatorMetrics& estimator_metrics() {
  static EstimatorMetrics m;
  return m;
}

}  // namespace detail

std::vector<ShardSample> CheckpointSink::open() {
  const std::string& path = options_.checkpoint_path;
  if (path.empty()) return {};
  const std::string key = std::to_string(fingerprint_);
  SampleLog log = load_sample_log(path, key);
  switch (log.state) {
    case SampleLogState::kAbsent:
      create_sample_log(path, key);
      break;
    case SampleLogState::kCorrupt:
      throw Error(ErrorCode::kCorruptData,
                  "checkpoint has no valid sample-log header; refusing to "
                  "resume",
                  ErrorContext{}.kv("path", path).str());
    case SampleLogState::kForeign:
      throw Error(ErrorCode::kPrecondition,
                  "checkpoint was written by a different run configuration; "
                  "refusing to resume",
                  ErrorContext{}
                      .kv("path", path)
                      .kv("expected_fingerprint", key)
                      .kv("found_fingerprint", log.found_key)
                      .str());
    case SampleLogState::kLoaded:
      if (options_.tracer != nullptr) {
        options_.tracer->event(
            "run_resumed",
            util::JsonFields{}.add("replayed", log.prefix.size()).body());
      }
      break;
  }
  writer_.emplace(path);
  return std::move(log.prefix);
}

void CheckpointSink::append(const ShardSample& sample, bool stopped) {
  if (!writer_) return;
  writer_->append(sample);
  const std::size_t every =
      std::max<std::size_t>(1, options_.checkpoint_every_k);
  if (stopped || writer_->pending() >= every) writer_->sync();
}

void CheckpointSink::sync() {
  if (writer_) writer_->sync();
}

void RunContext::check_source_size(std::optional<std::size_t> population_size,
                                   EstimationResult& r) const {
  const std::size_t need = options_.hyper.n * options_.hyper.m;
  if (population_size.has_value() && *population_size < need) {
    r.diagnostics.small_population = true;
    r.diagnostics.note(
        Severity::kWarning, ErrorCode::kBadData,
        "population smaller than one hyper-sample (|V| < n*m); "
        "sample maxima are correlated",
        ErrorContext{}.kv("size", *population_size).kv("n*m", need).str());
  }
}

void RunContext::record_accept(const HyperSampleResult& hs,
                               const EstimationResult& r) const {
  detail::estimator_metrics().hyper_accepted.inc();
  if (options_.tracer != nullptr) {
    util::JsonFields f;
    f.add("k", r.hyper_samples)
        .add("estimate", hs.estimate)
        .add("mu_hat", hs.mu_hat)
        .add("sample_max", hs.sample_max)
        .add("units", hs.units_used)
        .add("mle_converged", hs.mle.converged)
        .add("degenerate", hs.degenerate)
        .add("used_pwm", hs.used_pwm)
        .add("constant_sample", hs.constant_sample)
        .add("alpha", hs.mle.params.alpha)
        .add("profile_evals", hs.mle.profile_evaluations);
    if (r.hyper_samples >= options_.min_hyper_samples) {
      f.add("rel_error_bound", r.relative_error_bound);
    }
    options_.tracer->event("hyper_sample", f.body());
  }
}

void RunContext::record_discard(const HyperSampleResult& hs, bool recorded,
                                EstimationResult& r) const {
  ++r.diagnostics.discarded_hyper_samples;
  r.diagnostics.note(
      Severity::kWarning,
      hs.valid ? ErrorCode::kNonConvergence : ErrorCode::kBadData,
      hs.valid ? "degenerate fit discarded (redraw policy)"
               : "hyper-sample invalid: a sample had no finite unit power",
      ErrorContext{}
          .kv("nonfinite_units", hs.nonfinite_units)
          .kv("estimate", hs.estimate)
          .str());
  if (recorded) return;
  detail::estimator_metrics().hyper_discarded.inc();
  if (options_.tracer != nullptr) {
    options_.tracer->event("hyper_sample_discarded",
                           util::JsonFields{}
                               .add("valid", hs.valid)
                               .add("degenerate", hs.degenerate)
                               .add("nonfinite_units", hs.nonfinite_units)
                               .add("estimate", hs.estimate)
                               .body());
  }
}

void RunContext::record_stop(StopReason reason, EstimationResult& r) const {
  if (reason == StopReason::kCancelled) {
    r.stop_reason = StopReason::kCancelled;
    r.diagnostics.note(
        Severity::kWarning, ErrorCode::kCancelled,
        "run cancelled; returning partial result",
        ErrorContext{}.kv("hyper_samples", r.hyper_samples).str());
  } else {
    r.stop_reason = StopReason::kDeadlineExceeded;
    r.diagnostics.note(
        Severity::kWarning, ErrorCode::kDeadline,
        "deadline exceeded; returning partial result",
        ErrorContext{}.kv("hyper_samples", r.hyper_samples).str());
  }
  if (options_.tracer != nullptr) {
    options_.tracer->event(
        "run_stop",
        util::JsonFields{}
            .add("cause",
                 reason == StopReason::kCancelled ? "cancelled" : "deadline")
            .add("hyper_samples", r.hyper_samples)
            .body());
  }
}

void RunContext::record_draw_fault(const Error& e, EstimationResult& r) const {
  r.stop_reason = StopReason::kDataFault;
  r.diagnostics.note(Severity::kError, e.code(),
                     "population draw failed: " + e.message(), e.context());
  if (options_.tracer != nullptr) {
    options_.tracer->event("draw_fault",
                           util::JsonFields{}
                               .add("code", to_string(e.code()))
                               .add("message", e.message())
                               .body());
  }
}

void RunContext::record_redraws_exhausted(EstimationResult& r) const {
  r.stop_reason = StopReason::kDataFault;
  r.diagnostics.note(
      Severity::kError, ErrorCode::kBadData,
      "redraw budget exhausted before enough usable hyper-samples",
      ErrorContext{}
          .kv("discarded", r.diagnostics.discarded_hyper_samples)
          .kv("max_redraws", options_.max_redraws)
          .str());
  if (options_.tracer != nullptr) {
    options_.tracer->event(
        "run_stop",
        util::JsonFields{}
            .add("cause", "redraws-exhausted")
            .add("discarded", r.diagnostics.discarded_hyper_samples)
            .body());
  }
}

void RunContext::note_wave() const { detail::estimator_metrics().waves.inc(); }

void RunContext::note_speculation_wasted() const {
  detail::estimator_metrics().speculation_wasted.inc();
}

}  // namespace mpe::maxpower
