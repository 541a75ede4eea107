#include "layers.hpp"

#include <algorithm>

namespace perfbench {

double IntervalLog::union_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Interval> sorted = intervals_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  Clock::duration total{0};
  Clock::time_point reach{};
  bool open = false;
  for (const Interval& iv : sorted) {
    if (!open || iv.begin >= reach) {
      total += iv.end - iv.begin;
      reach = iv.end;
      open = true;
    } else if (iv.end > reach) {
      total += iv.end - reach;
      reach = iv.end;
    }
  }
  return std::chrono::duration<double>(total).count();
}

mpe::vec::VectorPair TimedPairGenerator::generate(mpe::Rng& rng) const {
  const auto begin = Clock::now();
  mpe::vec::VectorPair pair = inner_.generate(rng);
  tally_.add(1, Clock::now() - begin);
  return pair;
}

void TimedPairGenerator::generate_into(mpe::Rng& rng,
                                       mpe::vec::VectorPair& out) const {
  const auto begin = Clock::now();
  inner_.generate_into(rng, out);
  tally_.add(1, Clock::now() - begin);
}

void TimedUnitSource::fill(std::span<double> out, mpe::Rng& rng) {
  const auto begin = Clock::now();
  inner_.fill(out, rng);
  const auto end = Clock::now();
  tally_.add(out.size(), end - begin);
  if (children_ != nullptr) children_->add(begin, end);
}

mpe::maxpower::TailFitOutcome TimedTailFitter::fit(
    std::span<const double> maxima,
    const mpe::maxpower::TailFitContext& context) const {
  const auto begin = Clock::now();
  mpe::maxpower::TailFitOutcome outcome = inner_.fit(maxima, context);
  const auto end = Clock::now();
  tally_.add(1, end - begin);
  if (children_ != nullptr) children_->add(begin, end);
  if (outcome.degenerate) degenerate_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  fit_us_.push_back(std::chrono::duration<double, std::micro>(end - begin)
                        .count());
  return outcome;
}

std::vector<double> TimedTailFitter::fit_us() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fit_us_;
}

void TimedStoppingRule::record(Clock::time_point begin) {
  const auto end = Clock::now();
  tally_.add(1, end - begin);
  if (children_ != nullptr) children_->add(begin, end);
}

std::optional<mpe::maxpower::StopReason> TimedStoppingRule::pre_draw(
    const mpe::maxpower::EstimatorOptions& options,
    const mpe::maxpower::EstimationResult& r, std::size_t cursor) {
  const auto begin = Clock::now();
  auto stop = inner_->pre_draw(options, r, cursor);
  record(begin);
  return stop;
}

std::optional<mpe::maxpower::StopReason> TimedStoppingRule::post_accept(
    const mpe::maxpower::EstimatorOptions& options,
    mpe::maxpower::EstimationResult& r, mpe::Rng& interval_rng) {
  const auto begin = Clock::now();
  auto stop = inner_->post_accept(options, r, interval_rng);
  record(begin);
  return stop;
}

void TimedStoppingRule::finalize(const mpe::maxpower::EstimatorOptions& options,
                                 mpe::maxpower::EstimationResult& r,
                                 mpe::Rng& interval_rng) {
  const auto begin = Clock::now();
  inner_->finalize(options, r, interval_rng);
  record(begin);
}

std::vector<std::shared_ptr<mpe::maxpower::StoppingRule>> timed_default_chain(
    LayerTally& tally, IntervalLog* children) {
  std::vector<std::shared_ptr<mpe::maxpower::StoppingRule>> chain;
  for (auto& rule : mpe::maxpower::default_stopping_chain()) {
    chain.push_back(
        std::make_shared<TimedStoppingRule>(std::move(rule), tally, children));
  }
  return chain;
}

}  // namespace perfbench
