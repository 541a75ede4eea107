// The estimation engine: ONE run loop for the paper's iterative procedure
// (Figure 4), composed from four pluggable layers instead of two hand-woven
// code paths:
//
//   UnitSource       — where unit values come from (maxpower/unit_source.hpp)
//   TailFitter       — how sample maxima become one estimate
//                      (maxpower/tail_fitter.hpp)
//   StoppingRule[]   — when the run ends (maxpower/stopping.hpp)
//   ExecutionPolicy  — how draws are scheduled: the serial reference path
//                      (caller RNG, exactly the paper's loop) or the
//                      speculative pipelined path (per-index RNG streams,
//                      waves on a thread pool). Internal to the engine —
//                      selected by which run() overload is called.
//
// Cross-cutting services (tracing, metrics, checkpointing, run control)
// live in one RunContext (maxpower/run_context.hpp) threaded through the
// loop once. Both legacy estimate_max_power entry points are thin wrappers
// over an Engine with the default strategy composition, and every golden is
// bit-identical to the pre-engine implementation: same RNG consumption
// order, same fold order, same trace events.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "maxpower/estimator.hpp"
#include "maxpower/sample_log.hpp"

namespace mpe::maxpower {

class StoppingRule;  // maxpower/stopping.hpp
class TailFitter;    // maxpower/tail_fitter.hpp
class UnitSource;    // maxpower/unit_source.hpp

/// Full engine configuration: the estimator options plus the strategy
/// composition. Defaults reproduce the paper (and the legacy entry points)
/// exactly.
struct EngineConfig {
  EstimatorOptions options;
  /// Tail-fit strategy; null selects the paper's reversed-Weibull MLE
  /// (default_tail_fitter()).
  std::shared_ptr<const TailFitter> fitter;
  /// Termination chain, consulted in order; empty selects
  /// default_stopping_chain() — budget, run control, then the
  /// options.interval convergence rule. A non-empty chain REPLACES the
  /// default: include HyperBudgetRule (or an equivalent) or the run is
  /// bounded only by the budget epilogue's attempt cap.
  std::vector<std::shared_ptr<StoppingRule>> stopping;
};

/// What Engine::run_window returns: the samples one index window drew.
struct WindowRun {
  /// The samples the fold visited, indices lo, lo+1, ... in order.
  std::vector<ShardSample> samples;
  /// The fold over `samples`. For a window from index 0 it is the run's
  /// result so far; for a later window it means nothing.
  EstimationResult result;
  /// The code of the draw fault that ended the window early (kOk if none).
  ErrorCode fault = ErrorCode::kOk;
};

/// The layered estimation engine. An Engine is cheap to construct and
/// reusable; run() is const and may be called repeatedly. The built-in
/// strategies are stateless, so one Engine can serve concurrent runs —
/// custom stateful StoppingRules are the one exception (use one Engine per
/// run in that case).
///
/// Checkpoints (EstimatorOptions::checkpoint_path) are sample logs keyed by
/// the run fingerprint; a run resumes by replaying the log through the same
/// fold. A non-default fitter or stopping chain folds the strategy names
/// into the fingerprint — resuming a run under a different composition is a
/// hard kPrecondition refusal, never a silently different continuation.
class Engine {
 public:
  Engine() = default;
  explicit Engine(EngineConfig config) : config_(std::move(config)) {}

  const EngineConfig& config() const { return config_; }

  /// Sequential reference path: one shared RNG stream, exactly the paper's
  /// Figure-4 loop. It cannot resume, so a non-empty checkpoint_path is
  /// refused with mpe::Error(kPrecondition).
  EstimationResult run(UnitSource& source, Rng& rng) const;
  EstimationResult run(vec::Population& population, Rng& rng) const;

  /// Pipelined path: hyper-sample i draws from the counter-derived stream
  /// stream_seed(seed, i); waves of hyper-samples are computed
  /// speculatively (in parallel when the source allows it) and the stopping
  /// chain is applied in index order. Bit-identical for every thread count.
  EstimationResult run(UnitSource& source, std::uint64_t seed,
                       const ParallelOptions& parallel = {}) const;
  EstimationResult run(vec::Population& population, std::uint64_t seed,
                       const ParallelOptions& parallel = {}) const;

  /// Re-runs the fold + stopping chain over hyper-samples computed
  /// elsewhere (shard workers on other hosts). `samples` must be the
  /// contiguous index-ordered prefix 0..samples.size()-1 of the pipelined
  /// run's draw sequence for `seed`; the result is then bit-identical to
  /// run(source, seed, ...) whenever the recorded prefix covers the point
  /// where that run stops (convergence, budget, or redraw exhaustion).
  /// If the prefix runs out earlier, the returned partial result is a
  /// probe: not converged and not budget-terminal, and callers must
  /// discard it. Checkpointing, tracing, run control and the hyper-sample
  /// counters are off — replay is a pure deterministic fold, the same one
  /// a checkpointed run uses to resume.
  EstimationResult replay(std::uint64_t seed,
                          const std::vector<ShardSample>& samples) const;

  /// Draws the index window [lo, hi) of the pipelined run's sequence for
  /// `seed`, one sample at a time: what a fleet shard computes.
  /// `recorded` holds samples already finished for indices lo, lo+1, ...
  /// (a resumed shard log); they are served first and never redrawn. Each
  /// newly drawn sample the fold visits goes to `log`.
  ///
  /// A window from lo == 0 holds the whole prefix, so it folds each sample
  /// through run()'s fold and stopping chain and ends where run() stops:
  /// its samples are then [0, stop], possibly fewer than hi, and replay()
  /// of them equals run(). A recorded prefix that already reaches the
  /// stopping point is returned without drawing. A window from lo > 0 has
  /// nothing to fold against and draws every index up to hi. Either kind
  /// ends early on run control (result.stop_reason kCancelled or
  /// kDeadlineExceeded) or on a draw fault (`fault`).
  WindowRun run_window(UnitSource& source, std::uint64_t seed,
                       std::uint64_t lo, std::uint64_t hi,
                       const std::vector<ShardSample>& recorded,
                       SampleSink& log) const;

 private:
  EngineConfig config_;
};

}  // namespace mpe::maxpower
