#include "maxpower/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "maxpower/checkpoint.hpp"
#include "maxpower/run_context.hpp"
#include "maxpower/sample_log.hpp"
#include "maxpower/stopping.hpp"
#include "maxpower/tail_fitter.hpp"
#include "maxpower/unit_source.hpp"
#include "util/contracts.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace mpe::maxpower {

namespace {

void check_options(const EstimatorOptions& options) {
  MPE_EXPECTS(options.epsilon > 0.0 && options.epsilon < 1.0);
  MPE_EXPECTS(options.confidence > 0.0 && options.confidence < 1.0);
  MPE_EXPECTS(options.min_hyper_samples >= 2);
  MPE_EXPECTS(options.max_hyper_samples >= options.min_hyper_samples);
}

/// True when the hyper-sample may be folded into the mean under the active
/// degradation policy. Invalid or non-finite samples are never foldable.
bool usable(const EstimatorOptions& options, const HyperSampleResult& hs) {
  if (!hs.valid || !std::isfinite(hs.estimate)) return false;
  if (hs.degenerate && options.hyper.degenerate_policy ==
                           DegenerateFitPolicy::kDiscardRedraw) {
    return false;
  }
  return true;
}

/// Per-run instrumentation scope: emits the run_config event and the
/// closing "run" span into options.tracer (when set) and folds the run
/// outcome into the global metrics. Pure observer — it reads the result,
/// never writes it.
class RunScope {
 public:
  RunScope(const EstimatorOptions& options, UnitSource& source,
           bool parallel_path, unsigned threads)
      : options_(options),
        parallel_(parallel_path),
        start_(std::chrono::steady_clock::now()),
        span_(options.tracer != nullptr ? options.tracer->span("run")
                                        : util::Tracer().span("run")) {
    if (options_.tracer != nullptr) {
      util::JsonFields f;
      f.add("path", parallel_ ? "parallel" : "serial")
          .add("threads", threads)
          .add("epsilon", options_.epsilon)
          .add("confidence", options_.confidence)
          .add("n", options_.hyper.n)
          .add("m", options_.hyper.m)
          .add("min_hyper_samples", options_.min_hyper_samples)
          .add("max_hyper_samples", options_.max_hyper_samples)
          .add("interval", options_.interval == IntervalKind::kBootstrap
                               ? "bootstrap"
                               : "student-t")
          .add("population", source.description());
      const auto size = source.population_size();
      if (size.has_value()) f.add("population_size", *size);
      options_.tracer->event("run_config", f.body());
    }
  }

  /// Records the finished run. Call exactly once, with the final result.
  void finish(const EstimationResult& r) {
    auto& m = detail::estimator_metrics();
    (parallel_ ? m.runs_parallel : m.runs_serial).inc();
    if (r.converged) {
      (parallel_ ? m.converged_parallel : m.converged_serial).inc();
    }
    m.units.inc(r.units_used);
    m.hyper_per_run.observe(r.hyper_samples);
    if (util::MetricRegistry::global().enabled()) {
      const auto wall = std::chrono::steady_clock::now() - start_;
      m.run_wall_ns.observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wall)
              .count()));
    }
    if (options_.tracer != nullptr) {
      span_.note(util::JsonFields{}
                     .add("stop_reason", to_string(r.stop_reason))
                     .add("converged", r.converged)
                     .add("estimate", r.estimate)
                     .add("rel_error_bound", r.relative_error_bound)
                     .add("hyper_samples", r.hyper_samples)
                     .add("units_used", r.units_used)
                     .add("degenerate_fits", r.diagnostics.degenerate_fits)
                     .add("discarded",
                          r.diagnostics.discarded_hyper_samples)
                     .body());
      span_.finish();
    }
  }

 private:
  const EstimatorOptions& options_;
  bool parallel_;
  std::chrono::steady_clock::time_point start_;
  util::Tracer::Span span_;
};

/// RNG stream index reserved for the convergence-interval randomness (the
/// bootstrap resampler); hyper-sample i uses stream i, which can never
/// reach this one within the max_hyper_samples budget.
constexpr std::uint64_t kIntervalStream = ~std::uint64_t{0} - 1;

/// One drawn hyper-sample with its draw index, as handed from the
/// execution policy to the fold.
struct Slot {
  HyperSampleResult hs;
  std::size_t index = 0;
  bool computed = false;  ///< false = abandoned by a mid-wave fault/stop
  /// Served from a recorded prefix: counted, traced and logged by the run
  /// that drew it, so the fold only re-derives its effect on the result.
  bool recorded = false;
};

/// How draws are scheduled. The policy owns the draw cursor and the RNG
/// discipline; the engine's single loop owns folding, stopping, and
/// checkpointing. draw_wave() returns false when a draw faulted (the fault
/// is recorded before returning; `slots` then holds the computed prefix) or
/// when a replay ran out of recorded samples.
class ExecutionPolicy {
 public:
  virtual ~ExecutionPolicy() = default;
  /// Next draw index the run would consume (== draw attempts so far).
  virtual std::size_t cursor() const = 0;
  /// The RNG that feeds the stopping chain's interval randomness.
  virtual Rng& interval_rng() = 0;
  virtual bool draw_wave(UnitSource& source, const TailFitter& fitter,
                         RunContext& ctx, EstimationResult& r,
                         std::vector<Slot>& slots) = 0;
  /// Consumes the indices of the wave just folded (no-op when draw_wave
  /// already advanced the cursor).
  virtual void advance_past_wave() = 0;
};

/// The paper's sequential reference path: one draw per "wave", one shared
/// RNG stream for draws and interval randomness alike.
class SerialExecution final : public ExecutionPolicy {
 public:
  explicit SerialExecution(Rng& rng) : rng_(rng) {}

  std::size_t cursor() const override { return attempts_; }
  Rng& interval_rng() override { return rng_; }

  bool draw_wave(UnitSource& source, const TailFitter& fitter,
                 RunContext& ctx, EstimationResult& r,
                 std::vector<Slot>& slots) override {
    slots.clear();
    Slot s;
    s.index = attempts_;
    try {
      s.hs = draw_hyper_sample(source, ctx.options().hyper, fitter, rng_);
    } catch (const Error& e) {
      ctx.record_draw_fault(e, r);
      return false;
    }
    ++attempts_;
    s.computed = true;
    slots.push_back(std::move(s));
    return true;
  }

  void advance_past_wave() override {}  // attempts_ advanced on draw

 private:
  Rng& rng_;
  std::size_t attempts_ = 0;
};

/// The pipelined path: hyper-sample i always draws from the counter-derived
/// stream stream_seed(seed, i); waves of up to `wave` indices are computed
/// speculatively (concurrently when the source allows), and a dedicated
/// stream feeds the interval randomness, so the schedule is unobservable in
/// the result. Draws cover the index window [first, max_attempts). A
/// recorded run of samples for indices first, first+1, ... (a checkpoint's
/// or shard's sample log, or shard results being assembled) is served
/// first, as one wave, before anything is drawn; with `wave` == 0 nothing
/// is drawn at all (Engine::replay).
class SpeculativeExecution final : public ExecutionPolicy {
 public:
  SpeculativeExecution(std::uint64_t seed,
                       const std::vector<ShardSample>& recorded,
                       std::size_t wave, bool concurrent,
                       util::ThreadPool* pool, std::size_t first,
                       std::size_t max_attempts)
      : seed_(seed),
        recorded_(recorded),
        wave_(wave),
        concurrent_(concurrent),
        pool_(pool),
        max_attempts_(max_attempts),
        recorded_end_(std::min(first + recorded.size(), max_attempts)),
        interval_rng_(stream_seed(seed, kIntervalStream)),
        first_(first),
        next_index_(first) {}

  std::size_t cursor() const override { return next_index_; }
  Rng& interval_rng() override { return interval_rng_; }
  /// The code of the draw fault that ended the run (kOk if none).
  ErrorCode fault() const { return fault_; }

  bool draw_wave(UnitSource& source, const TailFitter& fitter,
                 RunContext& ctx, EstimationResult& r,
                 std::vector<Slot>& slots) override {
    slots.clear();
    if (next_index_ < recorded_end_) {
      for (std::size_t i = next_index_; i < recorded_end_; ++i) {
        Slot s;
        s.hs = hyper_from_shard_sample(recorded_[i - first_]);
        s.index = i;
        s.computed = true;
        s.recorded = true;
        slots.push_back(std::move(s));
      }
      last_count_ = recorded_end_ - next_index_;
      return true;
    }
    const std::size_t count = std::min(wave_, max_attempts_ - next_index_);
    if (count == 0) return false;  // a replay, or the attempt cap reached
    const EstimatorOptions& options = ctx.options();
    batch_.assign(count, HyperSampleResult{});
    // A computed batch entry always has units_used = n*m > 0; entries
    // abandoned by a mid-wave fault or stop keep the zero default, so the
    // fold below can recognize them.
    auto draw_one = [&](std::size_t j) {
      Rng hyper_rng(stream_seed(seed_, next_index_ + j));
      batch_[j] =
          draw_hyper_sample(source, options.hyper, fitter, hyper_rng);
    };
    ctx.note_wave();
    auto wave_span = options.tracer != nullptr
                         ? options.tracer->span("wave")
                         : util::Tracer().span("wave");
    bool draw_faulted = false;
    try {
      if (concurrent_ && count > 1) {
        pool_->parallel_for(0, count, draw_one, &options.control);
      } else {
        for (std::size_t j = 0; j < count; ++j) {
          if (options.control.should_stop() != util::StopCause::kNone) break;
          draw_one(j);
        }
      }
    } catch (const Error& e) {
      // The wave is drained before parallel_for rethrows, so every entry is
      // either fully computed or untouched; the engine folds the computed
      // prefix, then stops.
      ctx.record_draw_fault(e, r);
      fault_ = e.code();
      draw_faulted = true;
    }
    wave_span.note(util::JsonFields{}
                       .add("wave", wave_number_)
                       .add("first_index", next_index_)
                       .add("count", count)
                       .add("concurrent", concurrent_ && count > 1)
                       .body());
    wave_span.finish();
    ++wave_number_;
    slots.reserve(count);
    // The fold stops at the first entry a stop abandoned, so the cursor
    // only moves past the computed prefix: the indices after it are still
    // to draw.
    last_count_ = count;
    for (std::size_t j = 0; j < count; ++j) {
      Slot s;
      s.computed = batch_[j].units_used != 0;
      if (!s.computed) last_count_ = std::min(last_count_, j);
      s.index = next_index_ + j;
      s.hs = std::move(batch_[j]);
      slots.push_back(std::move(s));
    }
    return !draw_faulted;
  }

  void advance_past_wave() override { next_index_ += last_count_; }

 private:
  std::uint64_t seed_;
  const std::vector<ShardSample>& recorded_;
  std::size_t wave_;
  bool concurrent_;
  util::ThreadPool* pool_;
  std::size_t max_attempts_;
  std::size_t recorded_end_;
  Rng interval_rng_;
  std::size_t first_;
  std::size_t next_index_;
  std::size_t last_count_ = 0;
  std::size_t wave_number_ = 0;
  ErrorCode fault_ = ErrorCode::kOk;
  std::vector<HyperSampleResult> batch_;
};

/// UnitSource stand-in for replay: the fold never draws, so fill() is
/// unreachable.
class ReplaySource final : public UnitSource {
 public:
  void fill(std::span<double>, Rng&) override {
    throw Error(ErrorCode::kInternal, "replay source never draws");
  }
  bool concurrent_fill_safe() const override { return false; }
  std::optional<std::size_t> population_size() const override { return {}; }
  std::string description() const override { return "replay"; }
};

void finalize_chain(
    const std::vector<std::shared_ptr<StoppingRule>>& chain,
    const EstimatorOptions& options, EstimationResult& r, Rng& interval_rng) {
  for (const auto& rule : chain) rule->finalize(options, r, interval_rng);
}

/// The one run loop both execution policies share. Loop shape, fold order,
/// and trace-event placement mirror the legacy dual implementations
/// exactly — the golden tests pin this bit for bit. A resumed or replayed
/// run rebuilds its whole result (interval RNG included) by folding the
/// recorded prefix, so it is bit-identical by construction.
EstimationResult run_loop(UnitSource& source, const TailFitter& fitter,
                          const std::vector<std::shared_ptr<StoppingRule>>&
                              chain,
                          RunContext& ctx, ExecutionPolicy& policy) {
  const EstimatorOptions& options = ctx.options();
  EstimationResult r;
  ctx.check_source_size(source.population_size(), r);

  std::vector<Slot> slots;
  for (;;) {
    std::optional<StopReason> verdict;
    for (const auto& rule : chain) {
      verdict = rule->pre_draw(options, r, policy.cursor());
      if (verdict.has_value()) break;
    }
    if (verdict.has_value()) {
      if (*verdict == StopReason::kCancelled ||
          *verdict == StopReason::kDeadlineExceeded) {
        ctx.record_stop(*verdict, r);
        ctx.samples().sync();
        finalize_chain(chain, options, r, policy.interval_rng());
        return r;
      }
      break;  // budget verdict: fall through to the epilogue below
    }

    const bool wave_ok = policy.draw_wave(source, fitter, ctx, r, slots);

    // Stopping chain strictly in index order: hyper-samples past the
    // convergence point are discarded, so the result cannot depend on the
    // wave size or thread count. Discarded (unusable) hyper-samples simply
    // advance the index stream — the next index *is* the redraw.
    bool done = false;
    for (Slot& s : slots) {
      if (!s.computed) break;  // not computed (fault/stop)
      if (done || r.hyper_samples >= options.max_hyper_samples) {
        // Computed speculatively but never folded: count the waste so the
        // metrics show what the wave size costs.
        if (!s.recorded) ctx.note_speculation_wasted();
        continue;
      }
      r.diagnostics.nonfinite_units += s.hs.nonfinite_units;
      if (usable(options, s.hs)) {
        r.hyper_values.push_back(s.hs.estimate);
        r.units_used += s.hs.units_used;
        ++r.hyper_samples;
        if (!s.hs.mle.converged) ++r.degenerate_fits;
        if (s.hs.degenerate) ++r.diagnostics.degenerate_fits;
        if (s.hs.used_pwm) ++r.diagnostics.pwm_refits;
        if (s.hs.constant_sample) ++r.diagnostics.constant_samples;
        for (const auto& rule : chain) {
          if (rule->post_accept(options, r, policy.interval_rng())
                  .has_value()) {
            done = true;
            break;
          }
        }
        if (!s.recorded) ctx.record_accept(s.hs, r);
      } else {
        ctx.record_discard(s.hs, s.recorded, r);
      }
      // Every folded sample joins the log, accepted or discarded; unfolded
      // entries later in the wave are re-drawn on resume from their
      // per-index streams, reproducing the same values.
      if (!s.recorded) {
        ctx.samples().append(shard_sample_from_hyper(s.index, s.hs), done);
      }
    }
    if (done) return r;
    if (!wave_ok) {
      ctx.samples().sync();
      finalize_chain(chain, options, r, policy.interval_rng());
      return r;
    }
    policy.advance_past_wave();
  }

  // Budget epilogue: the chain ended the run without converging. Too few
  // accepted hyper-samples means the redraw budget was spent on unusable
  // draws — a data fault, not a clean budget stop.
  if (r.hyper_samples < options.max_hyper_samples &&
      r.stop_reason == StopReason::kMaxHyperSamples) {
    ctx.record_redraws_exhausted(r);
  }
  ctx.samples().sync();
  finalize_chain(chain, options, r, policy.interval_rng());
  return r;
}

/// Canonical description of a non-default strategy composition, folded into
/// the checkpoint fingerprint. Empty for the default composition, so
/// default-path fingerprints are unchanged.
std::string strategy_canon(const EngineConfig& config) {
  if (config.fitter == nullptr && config.stopping.empty()) return {};
  std::string canon = "fitter=";
  canon += config.fitter != nullptr ? config.fitter->name()
                                    : default_tail_fitter().name();
  canon += ";stop=";
  bool first = true;
  for (const auto& rule : config.stopping) {
    if (!first) canon += ',';
    canon += rule->name();
    first = false;
  }
  if (config.stopping.empty()) canon += "default";
  return canon;
}

const TailFitter& fitter_of(const EngineConfig& config) {
  return config.fitter != nullptr ? *config.fitter : default_tail_fitter();
}

std::vector<std::shared_ptr<StoppingRule>> chain_of(
    const EngineConfig& config) {
  return config.stopping.empty() ? default_stopping_chain() : config.stopping;
}

}  // namespace

EstimationResult Engine::run(UnitSource& source, Rng& rng) const {
  check_options(config_.options);
  if (!config_.options.checkpoint_path.empty()) {
    // Only per-index streams make a recorded prefix replayable; the shared
    // serial stream has no resume point.
    throw Error(ErrorCode::kPrecondition,
                "checkpoints need the seeded (pipelined) estimator path",
                ErrorContext{}
                    .kv("path", config_.options.checkpoint_path)
                    .str());
  }
  const TailFitter& fitter = fitter_of(config_);
  const auto chain = chain_of(config_);

  RunScope scope(config_.options, source, /*parallel_path=*/false, 1);
  CheckpointSink no_checkpoint(config_.options, /*fingerprint=*/0);
  RunContext ctx(config_.options, no_checkpoint);
  SerialExecution policy(rng);
  EstimationResult r = run_loop(source, fitter, chain, ctx, policy);
  scope.finish(r);
  return r;
}

EstimationResult Engine::run(vec::Population& population, Rng& rng) const {
  PopulationUnitSource source(population);
  return run(source, rng);
}

EstimationResult Engine::run(UnitSource& source, std::uint64_t seed,
                             const ParallelOptions& parallel) const {
  check_options(config_.options);
  const TailFitter& fitter = fitter_of(config_);
  const auto chain = chain_of(config_);

  unsigned threads = parallel.threads;
  if (parallel.pool != nullptr) {
    threads = parallel.pool->participants();
  } else if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Concurrent speculation needs thread-safe draws; otherwise draw the wave
  // sequentially (identical result, since streams are per-index anyway).
  const bool concurrent = threads > 1 && source.concurrent_fill_safe();

  // A local pool only when actually speculating concurrently and the caller
  // did not provide one.
  std::unique_ptr<util::ThreadPool> local_pool;
  util::ThreadPool* pool = parallel.pool;
  if (concurrent && pool == nullptr) {
    local_pool = std::make_unique<util::ThreadPool>(threads - 1);
    pool = local_pool.get();
  }
  const std::size_t wave = concurrent ? threads : 1;

  RunScope scope(config_.options, source, /*parallel_path=*/true, threads);
  CheckpointSink checkpoint(
      config_.options,
      run_fingerprint(config_.options, seed, /*parallel_path=*/true,
                      source.description(), strategy_canon(config_)));
  const std::vector<ShardSample> recorded = checkpoint.open();
  RunContext ctx(config_.options, checkpoint);
  SpeculativeExecution policy(
      seed, recorded, wave, concurrent, pool, /*first=*/0,
      config_.options.max_hyper_samples + config_.options.max_redraws);
  EstimationResult r = run_loop(source, fitter, chain, ctx, policy);
  scope.finish(r);
  return r;
}

EstimationResult Engine::run(vec::Population& population, std::uint64_t seed,
                             const ParallelOptions& parallel) const {
  PopulationUnitSource source(population);
  return run(source, seed, parallel);
}

EstimationResult Engine::replay(
    std::uint64_t seed, const std::vector<ShardSample>& samples) const {
  check_options(config_.options);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].index != i) {
      throw Error(ErrorCode::kPrecondition,
                  "replay samples must be the contiguous index prefix 0..k",
                  ErrorContext{}
                      .kv("position", i)
                      .kv("index", samples[i].index)
                      .str());
    }
  }
  const TailFitter& fitter = fitter_of(config_);
  const auto chain = chain_of(config_);
  // Replay is a pure fold: no checkpoint, no tracer, and an inert run
  // control, so a coordinator-side stop request can never truncate the
  // deterministic result mid-assembly.
  EstimatorOptions options = config_.options;
  options.checkpoint_path.clear();
  options.tracer = nullptr;
  options.control = util::RunControl{};
  CheckpointSink no_checkpoint(options, /*fingerprint=*/0);
  RunContext ctx(options, no_checkpoint);
  ReplaySource source;
  SpeculativeExecution policy(
      seed, samples, /*wave=*/0, /*concurrent=*/false, /*pool=*/nullptr,
      /*first=*/0, options.max_hyper_samples + options.max_redraws);
  return run_loop(source, fitter, chain, ctx, policy);
}

namespace {

/// Keeps each sample it forwards: a window run returns what it drew.
class KeepingSink final : public SampleSink {
 public:
  KeepingSink(SampleSink& log, std::vector<ShardSample>& kept)
      : log_(log), kept_(kept) {}
  void append(const ShardSample& sample, bool stopped) override {
    kept_.push_back(sample);
    log_.append(sample, stopped);
  }
  void sync() override { log_.sync(); }

 private:
  SampleSink& log_;
  std::vector<ShardSample>& kept_;
};

}  // namespace

WindowRun Engine::run_window(UnitSource& source, std::uint64_t seed,
                             std::uint64_t lo, std::uint64_t hi,
                             const std::vector<ShardSample>& recorded,
                             SampleSink& log) const {
  check_options(config_.options);
  MPE_EXPECTS(lo < hi);
  EstimatorOptions options = config_.options;
  options.checkpoint_path.clear();
  auto chain = chain_of(config_);
  if (lo > 0) {
    // Nothing precedes this window to fold against, so no convergence or
    // budget verdict means anything here: draw every index, and let only
    // run control end the window early.
    chain = {std::make_shared<RunControlRule>()};
    options.max_hyper_samples = std::numeric_limits<std::size_t>::max();
  }
  std::vector<ShardSample> drawn;
  KeepingSink sink(log, drawn);
  RunContext ctx(options, sink);
  SpeculativeExecution policy(seed, recorded, /*wave=*/1,
                              /*concurrent=*/false, /*pool=*/nullptr, lo, hi);
  WindowRun out;
  out.result = run_loop(source, fitter_of(config_), chain, ctx, policy);
  out.fault = policy.fault();
  // The fold visits each sample it accepts or discards, in index order; a
  // recorded sample past the stopping point was never visited.
  const std::size_t visited =
      out.result.hyper_samples + out.result.diagnostics.discarded_hyper_samples;
  out.samples.assign(recorded.begin(),
                     recorded.begin() + std::min(recorded.size(), visited));
  out.samples.insert(out.samples.end(), drawn.begin(), drawn.end());
  return out;
}

}  // namespace mpe::maxpower
