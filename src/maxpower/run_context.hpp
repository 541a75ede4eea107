// RunContext — the engine's cross-cutting services, threaded through the
// run loop once instead of hand-woven into each execution path: structured
// tracing (util::Tracer), the global metric handles, the sample sink new
// draws are logged to (CheckpointSink, an append-only sample log, for a
// run; the shard's own log for a window run), and the
// structured-diagnostics recording helpers. The
// engine owns exactly one RunContext per run; strategies never touch these
// services directly, which is what keeps a new fitter or stopping rule a
// ~50-line class instead of a cross-cutting change.
//
// Contract (docs/ARCHITECTURE.md): RunContext is a pure *observer and
// recorder* — its methods append diagnostics, emit trace events, bump
// metrics, and append sample records, but never change the value sequence
// of a run. Goldens are bit-identical with tracing/metrics/checkpointing on
// or off.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "maxpower/estimator.hpp"
#include "maxpower/sample_log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace mpe::maxpower {

namespace detail {

/// Estimator-level metric handles, registered once against the global
/// registry (docs/OBSERVABILITY.md catalogs every series).
struct EstimatorMetrics {
  util::Counter runs_serial;
  util::Counter runs_parallel;
  util::Counter converged_serial;
  util::Counter converged_parallel;
  util::Counter hyper_accepted;
  util::Counter hyper_discarded;
  util::Counter units;
  util::Counter waves;
  util::Counter speculation_wasted;
  util::Histogram hyper_per_run;
  util::Histogram run_wall_ns;

  EstimatorMetrics();
};

EstimatorMetrics& estimator_metrics();

}  // namespace detail

/// Durable run state of the pipelined path: the run's sample log
/// (maxpower/sample_log.hpp), keyed by its run_fingerprint(). Inert (every
/// call a no-op) when EstimatorOptions::checkpoint_path is empty, so the
/// feature costs one branch per folded sample when disabled.
class CheckpointSink final : public SampleSink {
 public:
  CheckpointSink(const EstimatorOptions& options, std::uint64_t fingerprint)
      : options_(options), fingerprint_(fingerprint) {}

  /// Opens the log and returns the recorded samples to replay — empty for
  /// a fresh run, whose header is written here. Throws mpe::Error
  /// (kCorruptData) when the file has no valid header and (kPrecondition)
  /// when it belongs to a different run configuration: resuming the wrong
  /// state silently is never an option.
  std::vector<ShardSample> open();

  /// Logs one newly drawn sample the fold visited, accepted or discarded;
  /// syncs every checkpoint_every_k records and when the run `stopped`.
  void append(const ShardSample& sample, bool stopped) override;

  /// Syncs pending records. Called on every other exit (deadline, cancel,
  /// fault, budget) so a resumed run never loses a sample to a graceful
  /// stop.
  void sync() override;

 private:
  const EstimatorOptions& options_;
  std::uint64_t fingerprint_;
  std::optional<SampleLogWriter> writer_;
};

/// Per-run bundle of cross-cutting services plus the recording helpers the
/// run loop calls at its decision points. Non-owning views of the options,
/// tracer and sample sink — all must outlive the run.
class RunContext {
 public:
  RunContext(const EstimatorOptions& options, SampleSink& samples)
      : options_(options), samples_(samples) {}

  const EstimatorOptions& options() const { return options_; }
  util::Tracer* tracer() const { return options_.tracer; }
  /// Where newly drawn samples go (the checkpoint, or a shard's log).
  SampleSink& samples() { return samples_; }

  /// Flags sources too small for the sampling design: with |V| < n*m the m
  /// "independent" samples heavily overlap, so the hyper-sample maxima are
  /// strongly correlated and the t interval is optimistic.
  void check_source_size(std::optional<std::size_t> population_size,
                         EstimationResult& r) const;

  /// Records an accepted hyper-sample (counter + the "hyper_sample" trace
  /// event with the fit diagnostics; rel_error_bound included once the
  /// stopping rule is live).
  void record_accept(const HyperSampleResult& hs,
                     const EstimationResult& r) const;

  /// Records a hyper-sample that could not be folded in (invalid draw, or
  /// degenerate fit under DegenerateFitPolicy::kDiscardRedraw). A
  /// `recorded` one (replayed from a sample log or shard results) only adds
  /// its diagnostics note: the run that drew it counted and traced it.
  void record_discard(const HyperSampleResult& hs, bool recorded,
                      EstimationResult& r) const;

  /// Records a deadline/cancellation stop (partial result).
  void record_stop(StopReason reason, EstimationResult& r) const;

  /// Records a draw fault (population raised mpe::Error).
  void record_draw_fault(const Error& e, EstimationResult& r) const;

  /// Records redraw-budget exhaustion (too few usable hyper-samples).
  void record_redraws_exhausted(EstimationResult& r) const;

  /// Wave bookkeeping for the speculative execution policy.
  void note_wave() const;
  void note_speculation_wasted() const;

 private:
  const EstimatorOptions& options_;
  SampleSink& samples_;
};

}  // namespace mpe::maxpower
