// The run fingerprint: the key of an engine checkpoint.
//
// An engine checkpoint is a sample log (maxpower/sample_log.hpp) — the
// records of every hyper-sample the run's fold visited — and a run resumes
// by replaying it (maxpower/engine.hpp). The pipelined estimator draws
// hyper-sample i from the counter-derived stream stream_seed(seed, i), so
// those records are all the state there is: replaying them rebuilds the
// result, the diagnostics and the interval RNG, and the resumed run is
// bit-identical to an uninterrupted one at any thread count.
//
// What the records mean depends on the configuration that drew them, so the
// log's header carries this fingerprint over every estimator option that
// shapes the result plus the base seed, the execution path, the population
// description and any non-default strategy composition. Resuming under a
// mismatched configuration is a hard ErrorCode::kPrecondition refusal —
// budget fields (max_hyper_samples, deadlines) are deliberately excluded so
// a stopped run can be resumed with a bigger budget.
#pragma once

#include <cstdint>
#include <string_view>

#include "maxpower/estimator.hpp"

namespace mpe::maxpower {

/// Fingerprint of everything that shapes the value sequence of a run:
/// result-affecting EstimatorOptions fields (epsilon, confidence, interval
/// kind, min_hyper_samples, max_redraws, the full hyper-sample and MLE
/// configuration), the base seed, the execution path, and the population
/// description. The option field list is not maintained here — it is the
/// fingerprinted subset of visit_estimator_options
/// (maxpower/options_fields.hpp), the same visitor that serializes options,
/// so the two cannot drift apart. Excluded on purpose: max_hyper_samples
/// and RunControl (budgets — extending them is the point of resuming),
/// thread counts (the pipelined path is bit-identical across them),
/// tracer/checkpoint wiring.
std::uint64_t run_fingerprint(const EstimatorOptions& options,
                              std::uint64_t base_seed, bool parallel_path,
                              std::string_view population);

/// As above, additionally folding a non-default engine strategy composition
/// (maxpower/engine.hpp strategy_canon) into the fingerprint. An empty
/// `strategies` yields exactly the 4-argument fingerprint, so default-path
/// checkpoints keep their fingerprints; a non-default fitter or stopping
/// chain refuses to resume a checkpoint written under a different
/// composition.
std::uint64_t run_fingerprint(const EstimatorOptions& options,
                              std::uint64_t base_seed, bool parallel_path,
                              std::string_view population,
                              std::string_view strategies);

}  // namespace mpe::maxpower
