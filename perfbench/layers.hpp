// Timing decorators around the library's public layer interfaces. Each one
// delegates every call to the wrapped object unchanged — same values, same
// RNG consumption — and adds the call's wall time to a LayerTally. The
// benchmark installs them only in its traced run; the untraced run uses the
// bare objects.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "maxpower/stopping.hpp"
#include "maxpower/tail_fitter.hpp"
#include "maxpower/unit_source.hpp"
#include "vectors/generators.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Call count, item count and busy time of one layer. Safe to update from
/// several threads; busy time is summed across threads.
class LayerTally {
 public:
  void add(std::uint64_t items, Clock::duration busy) {
    calls_.fetch_add(1, std::memory_order_relaxed);
    items_.fetch_add(items, std::memory_order_relaxed);
    busy_ns_.fetch_add(static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               busy)
                               .count()),
                       std::memory_order_relaxed);
  }
  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t items() const { return items_.load(); }
  double busy_s() const { return static_cast<double>(busy_ns_.load()) * 1e-9; }

 private:
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> items_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
};

/// Records the [begin, end) interval of every call the engine makes into a
/// child layer, so the engine's self time can be taken as its wall time
/// minus the union of these intervals.
class IntervalLog {
 public:
  void add(Clock::time_point begin, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mutex_);
    intervals_.push_back({begin, end});
  }
  /// Length of the union of all recorded intervals, in seconds.
  double union_s() const;
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    intervals_.clear();
  }

 private:
  struct Interval {
    Clock::time_point begin;
    Clock::time_point end;
  };
  mutable std::mutex mutex_;
  std::vector<Interval> intervals_;
};

/// PairGenerator decorator: the `vectors` layer.
class TimedPairGenerator final : public mpe::vec::PairGenerator {
 public:
  TimedPairGenerator(const mpe::vec::PairGenerator& inner, LayerTally& tally)
      : inner_(inner), tally_(tally) {}

  mpe::vec::VectorPair generate(mpe::Rng& rng) const override;
  void generate_into(mpe::Rng& rng, mpe::vec::VectorPair& out) const override;
  std::size_t width() const override { return inner_.width(); }
  std::string description() const override { return inner_.description(); }

 private:
  const mpe::vec::PairGenerator& inner_;
  LayerTally& tally_;
};

/// UnitSource decorator: `vectors` + `sim` (the simulation share is this
/// layer's busy time minus the pair generator's).
class TimedUnitSource final : public mpe::maxpower::UnitSource {
 public:
  TimedUnitSource(mpe::maxpower::UnitSource& inner, LayerTally& tally,
                  IntervalLog* children)
      : inner_(inner), tally_(tally), children_(children) {}

  void fill(std::span<double> out, mpe::Rng& rng) override;
  bool concurrent_fill_safe() const override {
    return inner_.concurrent_fill_safe();
  }
  std::optional<std::size_t> population_size() const override {
    return inner_.population_size();
  }
  std::string description() const override { return inner_.description(); }

 private:
  mpe::maxpower::UnitSource& inner_;
  LayerTally& tally_;
  IntervalLog* children_;
};

/// TailFitter decorator: the `evt` layer. Keeps every call's duration so
/// the harness can report fit-time percentiles, and counts degenerate fits.
class TimedTailFitter final : public mpe::maxpower::TailFitter {
 public:
  TimedTailFitter(const mpe::maxpower::TailFitter& inner, LayerTally& tally,
                  IntervalLog* children)
      : inner_(inner), tally_(tally), children_(children) {}

  std::string_view name() const override { return inner_.name(); }
  mpe::maxpower::TailFitOutcome fit(
      std::span<const double> maxima,
      const mpe::maxpower::TailFitContext& context) const override;

  std::vector<double> fit_us() const;
  std::uint64_t degenerate() const { return degenerate_.load(); }

 private:
  const mpe::maxpower::TailFitter& inner_;
  LayerTally& tally_;
  IntervalLog* children_;
  mutable std::mutex mutex_;
  mutable std::vector<double> fit_us_;
  mutable std::atomic<std::uint64_t> degenerate_{0};
};

/// StoppingRule decorator: the `maxpower` stopping share.
class TimedStoppingRule final : public mpe::maxpower::StoppingRule {
 public:
  TimedStoppingRule(std::shared_ptr<mpe::maxpower::StoppingRule> inner,
                    LayerTally& tally, IntervalLog* children)
      : inner_(std::move(inner)), tally_(tally), children_(children) {}

  std::string_view name() const override { return inner_->name(); }
  std::optional<mpe::maxpower::StopReason> pre_draw(
      const mpe::maxpower::EstimatorOptions& options,
      const mpe::maxpower::EstimationResult& r, std::size_t cursor) override;
  std::optional<mpe::maxpower::StopReason> post_accept(
      const mpe::maxpower::EstimatorOptions& options,
      mpe::maxpower::EstimationResult& r, mpe::Rng& interval_rng) override;
  void finalize(const mpe::maxpower::EstimatorOptions& options,
                mpe::maxpower::EstimationResult& r,
                mpe::Rng& interval_rng) override;

 private:
  void record(Clock::time_point begin);

  std::shared_ptr<mpe::maxpower::StoppingRule> inner_;
  LayerTally& tally_;
  IntervalLog* children_;
};

/// default_stopping_chain() with every rule wrapped in a TimedStoppingRule.
std::vector<std::shared_ptr<mpe::maxpower::StoppingRule>> timed_default_chain(
    LayerTally& tally, IntervalLog* children);

}  // namespace perfbench
