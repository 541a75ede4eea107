// In-process benchmark harness. Links the mpe library and times calls into
// its public layer interfaces; perfbench/run.py drives it and turns the raw
// samples it prints into the benchmark's metrics.
//
//   mpe_perfbench run <stream-zero|stream-loaded|finite-paper>
//                 --seed S --seconds T --trace 0|1
//       Runs one in-process workload and prints one JSON object of raw
//       samples (per-operation wall times, work counts, output checks and,
//       with --trace 1, per-layer tallies).
//   mpe_perfbench reference --jobs FILE --state-dir DIR
//       FILE holds "<id>\t<manifest job JSON>" lines. Runs each job through
//       run_campaign_job and prints the `result` line a serve daemon should
//       answer for it.
//   mpe_perfbench fingerprint
//       Prints the build fingerprint as JSON.
//   mpe_perfbench selftest
//       Checks that every decorator passes values and RNG use through.
//
// Refuses to run from a build without optimization or with assertions on.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen/presets.hpp"
#include "layers.hpp"
#include "maxpower/campaign.hpp"
#include "maxpower/engine.hpp"
#include "server/circuit_cache.hpp"
#include "server/job_runtime.hpp"
#include "server/server_protocol.hpp"
#include "sim/cpu_dispatch.hpp"
#include "sim/power_eval.hpp"
#include "util/jsonl.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "vectors/parallel_db.hpp"
#include "vectors/population.hpp"

namespace {

using namespace mpe;
using perfbench::Clock;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

// ---------------------------------------------------------------------------
// Workload definitions. The circuits are fixed; the seed drives the vector
// pairs and estimation streams.

/// Preset seed of every benchmark circuit (the CLI default).
constexpr std::uint64_t kCircuitSeed = 1;

/// A streaming workload: fixed-budget pipelined runs over one circuit.
struct StreamWorkload {
  const char* circuit;
  sim::DelayModel delay;
  unsigned threads;
  std::size_t budget;  ///< hyper-samples per run (max_hyper_samples)
};

constexpr StreamWorkload kStreamZero{"c7552", sim::DelayModel::kZero, 1, 50};
constexpr StreamWorkload kStreamLoaded{"c880", sim::DelayModel::kFanoutLoaded,
                                       2, 6};
/// Distinct run seeds per stream workload. Fit cost varies from seed to
/// seed, so a run spans many of them; the loop cycles through them so every
/// seed repeats and its result can be compared bit for bit.
constexpr std::size_t kStreamSeeds = 100;
/// Seeds a traced stream run cycles through (each runs bare and traced).
constexpr std::size_t kStreamTraceSeeds = 20;
/// Far below reach: the budget rule ends every stream run.
constexpr double kUnreachableEpsilon = 1e-9;

/// The paper's Table 1 setting on c880: one fixed population per circuit
/// (the seed drives the estimation runs), as in the paper.
constexpr const char* kFiniteCircuit = "c880";
constexpr std::uint64_t kFinitePopulationSeed = 1;
constexpr std::size_t kFinitePopulation = 40'000;
constexpr double kFiniteActivity = 0.3;
constexpr unsigned kFiniteDbThreads = 2;
/// Estimation runs per pass; each pass repeats the same seeds.
constexpr std::size_t kFiniteRuns = 400;
constexpr std::size_t kFiniteTraceRuns = 200;

/// Set-up repetitions per run (run.py reports their trimmed mean).
constexpr std::size_t kStreamSetups = 101;
constexpr std::size_t kFiniteSetups = 3;
/// Minimum timed operations per run: p95 needs ten samples beyond it.
constexpr std::size_t kMinOps = 200;

// ---------------------------------------------------------------------------
// Small helpers.

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += util::json_number(values[i]);
  }
  return out + "]";
}

/// Peak resident set of this process image (VmHWM). Unlike getrusage's
/// ru_maxrss it does not carry over the RSS of the parent that forked us.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // KiB -> MiB
    }
  }
  throw Error(ErrorCode::kIo, "no VmHWM in /proc/self/status");
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// What the harness keeps of one engine run: everything the run reports,
/// with the hyper-sample values folded into a hash, so that thousands of
/// kept runs do not show in the peak RSS the benchmark reports.
struct Outcome {
  double estimate = 0.0;
  double ci_lower = 0.0;
  double ci_upper = 0.0;
  double relative_error_bound = 0.0;
  std::size_t units_used = 0;
  std::size_t hyper_samples = 0;
  bool converged = false;
  maxpower::StopReason stop_reason = maxpower::StopReason::kMaxHyperSamples;
  std::uint64_t values_hash = 0;  ///< FNV-1a over the hyper-sample bits

  Outcome() = default;
  Outcome(const maxpower::EstimationResult& r)  // NOLINT: implicit on purpose
      : estimate(r.estimate),
        ci_lower(r.ci.lower),
        ci_upper(r.ci.upper),
        relative_error_bound(r.relative_error_bound),
        units_used(r.units_used),
        hyper_samples(r.hyper_samples),
        converged(r.converged),
        stop_reason(r.stop_reason),
        values_hash(0xcbf29ce484222325ull) {
    for (double v : r.hyper_values) {
      unsigned char bytes[sizeof v];
      std::memcpy(bytes, &v, sizeof v);
      for (unsigned char byte : bytes) {
        values_hash = (values_hash ^ byte) * 0x100000001b3ull;
      }
    }
  }
};

/// Bitwise equality of everything a run reports.
bool same_result(const Outcome& a, const Outcome& b) {
  return same_bits(a.estimate, b.estimate) &&
         same_bits(a.ci_lower, b.ci_lower) &&
         same_bits(a.ci_upper, b.ci_upper) &&
         same_bits(a.relative_error_bound, b.relative_error_bound) &&
         a.units_used == b.units_used && a.hyper_samples == b.hyper_samples &&
         a.converged == b.converged && a.stop_reason == b.stop_reason &&
         a.values_hash == b.values_hash;
}

/// Named pass/fail output checks, printed with the raw samples.
class Checks {
 public:
  void expect(bool ok, const std::string& name, const std::string& detail) {
    if (ok) return;
    if (failures_.size() < 16) failures_.push_back(name + ": " + detail);
    ++failed_;
  }
  void pass(const std::string& name) { names_.push_back(name); }
  std::string json() const {
    std::string out = "{\"ok\":";
    out += failed_ == 0 ? "true" : "false";
    out += ",\"checked\":[";
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (i) out += ',';
      out += "\"" + names_[i] + "\"";
    }
    out += "],\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      if (i) out += ',';
      util::JsonFields f;
      f.add("detail", failures_[i]);
      out += f.object();
    }
    return out + "]}";
  }

 private:
  std::vector<std::string> names_;
  std::vector<std::string> failures_;
  std::size_t failed_ = 0;
};

/// Registry counters the traced phase reads as deltas.
struct RegistryReading {
  double mle_fits = 0;
  double profile_evals = 0;
  double waves = 0;
  double wasted = 0;
  double pool_wait_ns = 0;

  static RegistryReading now() {
    const auto snap = util::MetricRegistry::global().snapshot();
    RegistryReading r;
    r.mle_fits = snap.value("mpe_mle_fits_total");
    r.profile_evals = snap.value("mpe_mle_profile_evals_total");
    r.waves = snap.value("mpe_estimator_waves_total");
    r.wasted = snap.value("mpe_estimator_speculation_wasted_total");
    if (const auto* s = snap.find("mpe_pool_task_wait_ns")) {
      r.pool_wait_ns = static_cast<double>(s->histogram.sum);
    }
    return r;
  }
  RegistryReading operator-(const RegistryReading& o) const {
    return {mle_fits - o.mle_fits, profile_evals - o.profile_evals,
            waves - o.waves, wasted - o.wasted, pool_wait_ns - o.pool_wait_ns};
  }
};

// ---------------------------------------------------------------------------
// Timed operations shared by every in-process workload.

/// One engine run as the harness saw it.
struct Op {
  double ms = 0.0;
  std::size_t seed_index = 0;
  Outcome result;
  RegistryReading counters;  ///< traced phase only
};

/// Per-layer tallies of the traced phase.
struct Tracing {
  perfbench::LayerTally vectors;
  perfbench::LayerTally source;  ///< UnitSource::fill: vectors + sim
  perfbench::LayerTally fits;
  perfbench::LayerTally stops;
  perfbench::IntervalLog children;
  std::shared_ptr<perfbench::TimedTailFitter> fitter;
  double engine_wall_s = 0.0;
  double engine_self_s = 0.0;

  Tracing()
      : fitter(std::make_shared<perfbench::TimedTailFitter>(
            maxpower::default_tail_fitter(), fits, &children)) {}

  maxpower::Engine engine(const maxpower::EstimatorOptions& options) {
    maxpower::EngineConfig config;
    config.options = options;
    config.fitter = fitter;
    config.stopping = perfbench::timed_default_chain(stops, &children);
    return maxpower::Engine(std::move(config));
  }
};

/// Runs `run_one(op)` over the seed cycle 0..seeds-1 (op.seed_index) until
/// the window has elapsed, at least `min_ops` runs were timed and every seed
/// ran twice. `full_passes` additionally finishes the pass in progress.
/// `after_op(i)` runs untimed after the i-th operation.
template <typename RunOne, typename AfterOp>
std::vector<Op> timed_loop(std::size_t seeds, double window_s,
                           std::size_t min_ops, bool full_passes,
                           RunOne&& run_one, AfterOp&& after_op) {
  std::vector<Op> ops;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const std::size_t j = i % seeds;
    if (j == 0 || !full_passes) {
      const bool enough = seconds_since(start) >= window_s &&
                          ops.size() >= min_ops && ops.size() >= 2 * seeds;
      if (enough) break;
    }
    Op op;
    op.seed_index = j;
    const auto t0 = Clock::now();
    run_one(op);
    op.ms = ms_between(t0, Clock::now());
    ops.push_back(std::move(op));
    after_op(i);
  }
  return ops;
}

/// Every repetition of a seed must reproduce its first result bit for bit.
void check_repeats(const std::vector<Op>& ops, Checks& checks,
                   const std::string& name) {
  std::map<std::size_t, const Outcome*> first;
  for (const Op& op : ops) {
    auto [it, fresh] = first.emplace(op.seed_index, &op.result);
    if (!fresh) {
      checks.expect(same_result(*it->second, op.result), name,
                    "seed index " + std::to_string(op.seed_index) +
                        " changed between repetitions");
    }
  }
  checks.pass(name);
}

/// Every repetition of a seed must use exactly the same work counts.
void check_counter_repeats(const std::vector<Op>& ops, Checks& checks) {
  std::map<std::size_t, const RegistryReading*> first;
  for (const Op& op : ops) {
    auto [it, fresh] = first.emplace(op.seed_index, &op.counters);
    if (!fresh) {
      const bool same =
          it->second->mle_fits == op.counters.mle_fits &&
          it->second->profile_evals == op.counters.profile_evals &&
          it->second->waves == op.counters.waves &&
          it->second->wasted == op.counters.wasted;
      checks.expect(same, "exact_counters_repeat",
                    "seed index " + std::to_string(op.seed_index) +
                        " used different fit/wave counts");
    }
  }
  checks.pass("exact_counters_repeat");
}

std::string ops_json(const std::vector<Op>& ops) {
  std::vector<double> ms, hs, units;
  for (const Op& op : ops) {
    ms.push_back(op.ms);
    hs.push_back(static_cast<double>(op.result.hyper_samples));
    units.push_back(static_cast<double>(op.result.units_used));
  }
  util::JsonFields f;
  f.raw("ms", json_array(ms));
  f.raw("hyper_samples", json_array(hs));
  f.raw("units", json_array(units));
  return f.object();
}

/// Per-layer figures of the traced phase, as JSON.
std::string layers_json(const Tracing& t, const std::vector<Op>& ops) {
  RegistryReading total;
  double hyper = 0, units = 0;
  for (const Op& op : ops) {
    total.mle_fits += op.counters.mle_fits;
    total.profile_evals += op.counters.profile_evals;
    total.waves += op.counters.waves;
    total.wasted += op.counters.wasted;
    total.pool_wait_ns += op.counters.pool_wait_ns;
    hyper += static_cast<double>(op.result.hyper_samples);
    units += static_cast<double>(op.result.units_used);
  }
  util::JsonFields f;
  f.add("engine_wall_s", t.engine_wall_s);
  f.add("engine_self_s", t.engine_self_s);
  f.add("hyper_samples", hyper);
  f.add("units", units);
  f.add("vectors_pairs", t.vectors.items());
  f.add("vectors_busy_s", t.vectors.busy_s());
  f.add("source_units", t.source.items());
  f.add("source_busy_s", t.source.busy_s());
  f.add("fits", t.fits.calls());
  f.add("fit_busy_s", t.fits.busy_s());
  f.raw("fit_us", json_array(t.fitter->fit_us()));
  f.add("degenerate_fits", t.fitter->degenerate());
  f.add("stop_calls", t.stops.calls());
  f.add("stop_busy_s", t.stops.busy_s());
  f.add("mle_fits", total.mle_fits);
  f.add("profile_evals", total.profile_evals);
  f.add("waves", total.waves);
  f.add("speculation_wasted", total.wasted);
  f.add("pool_task_wait_ns", total.pool_wait_ns);
  return f.object();
}

/// Times one traced engine run and folds its layer figures into `t`.
template <typename RunEngine>
maxpower::EstimationResult traced_run(Tracing& t, Op& op, RunEngine&& run) {
  t.children.clear();
  const RegistryReading before = RegistryReading::now();
  const auto t0 = Clock::now();
  maxpower::EstimationResult r = run();
  const double wall = seconds_since(t0);
  op.counters = RegistryReading::now() - before;
  t.engine_wall_s += wall;
  t.engine_self_s += wall - t.children.union_s();
  return r;
}

/// Prints the raw-sample record of one workload run.
struct Record {
  std::string workload;
  std::vector<double> setup_s;
  std::vector<double> gen_build_ms, sim_compile_ms, db_build_s;
  std::string kernel = "none";
  std::string ops = "null";
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string exact = "{}";
  std::string layers = "null";
  std::string untraced_ops = "null";
  Checks checks;

  void print() const {
    util::JsonFields f;
    f.add("workload", workload);
    f.raw("setup_s", json_array(setup_s));
    f.raw("gen_build_ms", json_array(gen_build_ms));
    f.raw("sim_compile_ms", json_array(sim_compile_ms));
    f.raw("db_build_s", json_array(db_build_s));
    f.add("kernel", kernel);
    f.raw("ops", ops);
    f.add("attempted", static_cast<std::uint64_t>(attempted));
    f.add("failed", static_cast<std::uint64_t>(failed));
    f.raw("exact", exact);
    f.raw("layers", layers);
    f.raw("untraced_ops", untraced_ops);
    f.raw("checks", checks.json());
    f.add("peak_rss_mb", peak_rss_mb());
    std::printf("%s\n", f.object().c_str());
  }
};

// ---------------------------------------------------------------------------
// Streaming workloads.

/// A streaming population and everything it borrows.
struct StreamStack {
  circuit::Netlist netlist;
  std::unique_ptr<sim::CyclePowerEvaluator> evaluator;
  std::unique_ptr<vec::UniformPairGenerator> pairs;
  std::unique_ptr<perfbench::TimedPairGenerator> timed_pairs;
  std::unique_ptr<vec::StreamingPopulation> population;
};

std::unique_ptr<StreamStack> build_stream(const StreamWorkload& w,
                                          perfbench::LayerTally* vectors,
                                          Record* record) {
  auto s = std::make_unique<StreamStack>();
  const auto t0 = Clock::now();
  s->netlist = gen::build_preset(w.circuit, kCircuitSeed);
  const auto t1 = Clock::now();
  sim::PowerEvalOptions eval;
  eval.delay_model = w.delay;
  s->evaluator = std::make_unique<sim::CyclePowerEvaluator>(s->netlist, eval);
  s->pairs =
      std::make_unique<vec::UniformPairGenerator>(s->netlist.num_inputs());
  const vec::PairGenerator* gen = s->pairs.get();
  if (vectors != nullptr) {
    s->timed_pairs =
        std::make_unique<perfbench::TimedPairGenerator>(*s->pairs, *vectors);
    gen = s->timed_pairs.get();
  }
  s->population =
      std::make_unique<vec::StreamingPopulation>(*gen, *s->evaluator);
  const auto t2 = Clock::now();
  // The CLI's --sim-backend auto: compiled tape for zero delay.
  if (w.delay == sim::DelayModel::kZero && !s->population->enable_compiled()) {
    s->population->enable_bit_parallel();
  }
  const auto t3 = Clock::now();
  if (record != nullptr) {
    record->setup_s.push_back(std::chrono::duration<double>(t3 - t0).count());
    record->gen_build_ms.push_back(ms_between(t0, t1));
    if (w.delay == sim::DelayModel::kZero) {
      record->sim_compile_ms.push_back(ms_between(t2, t3));
    }
    using Backend = vec::StreamingPopulation::Backend;
    const Backend b = s->population->backend();
    record->kernel = b == Backend::kCompiled
                         ? sim::to_string(s->population->compiled_kernel())
                     : b == Backend::kBitParallel ? "bit-parallel"
                                                  : "scalar-event";
  }
  return s;
}

maxpower::EstimatorOptions stream_options(const StreamWorkload& w) {
  maxpower::EstimatorOptions o;
  o.epsilon = kUnreachableEpsilon;
  o.max_hyper_samples = w.budget;
  return o;
}

bool stream_failed(const Outcome& r) {
  return r.stop_reason != maxpower::StopReason::kMaxHyperSamples &&
         r.stop_reason != maxpower::StopReason::kConverged;
}

/// The timed part of every in-process workload. Untraced: times bare runs
/// over the seed cycle for the window (at least kMinOps of them, every seed
/// twice), then runs seed 0 once traced for the bit-identity check. Traced:
/// runs each of the first `trace_seeds` seeds bare and traced back to back,
/// in alternating order, so both see the same host speed and the overhead
/// ratio compares like with like; the metric registry is on only during the
/// traced runs. `after_op(i)` runs untimed after the i-th operation (or
/// pair). Fills the record's samples and checks; returns the bare runs.
template <typename RunBare, typename RunTraced, typename Failed,
          typename AfterOp>
std::vector<Op> measure(Record& rec, const Tracing& t, std::size_t seeds,
                        std::size_t trace_seeds, double seconds, bool trace,
                        bool full_passes, RunBare&& run_bare,
                        RunTraced&& run_traced, Failed&& failed,
                        AfterOp&& after_op) {
  auto traced_op = [&](Op& op) {
    util::MetricRegistry::global().enable(true);
    run_traced(op);
    util::MetricRegistry::global().enable(false);
  };
  auto time_op = [](Op& op, auto& run) {
    const auto t0 = Clock::now();
    run(op);
    op.ms = ms_between(t0, Clock::now());
  };
  std::vector<Op> bare, traced;
  if (!trace) {
    bare = timed_loop(seeds, seconds, kMinOps, full_passes, run_bare,
                      after_op);
    Op op;
    time_op(op, traced_op);
    traced.push_back(std::move(op));
  } else {
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
      const std::size_t j = i % trace_seeds;
      if (j == 0 && i >= 2 * trace_seeds && seconds_since(start) >= seconds) {
        break;
      }
      Op a, b;
      a.seed_index = b.seed_index = j;
      if ((i / trace_seeds) % 2 == 0) {
        time_op(a, run_bare);
        time_op(b, traced_op);
      } else {
        time_op(b, traced_op);
        time_op(a, run_bare);
      }
      bare.push_back(std::move(a));
      traced.push_back(std::move(b));
      after_op(i);
    }
    check_counter_repeats(traced, rec.checks);
  }
  check_repeats(bare, rec.checks, "repeats_bitwise");
  std::map<std::size_t, const Outcome*> first;
  for (const Op& op : bare) first.emplace(op.seed_index, &op.result);
  for (const Op& op : traced) {
    rec.checks.expect(same_result(*first.at(op.seed_index), op.result),
                      "traced_equals_untraced",
                      "decorated run of seed index " +
                          std::to_string(op.seed_index) +
                          " differs from the bare run");
  }
  rec.checks.pass("traced_equals_untraced");
  for (const auto* ops : {&bare, &traced}) {
    for (const Op& op : *ops) {
      ++rec.attempted;
      if (failed(op.result)) ++rec.failed;
    }
  }
  if (trace) {
    rec.layers = layers_json(t, traced);
    rec.untraced_ops = ops_json(bare);
    rec.ops = ops_json(traced);
  } else {
    rec.ops = ops_json(bare);
  }
  return bare;
}

void run_stream(const StreamWorkload& w, const char* name, std::uint64_t seed,
                double seconds, bool trace) {
  Record rec;
  rec.workload = name;
  const std::unique_ptr<StreamStack> stack = build_stream(w, nullptr, &rec);
  // The other set-ups run one at a time between the timed runs: host speed
  // drifts in phases of seconds, and a burst of set-ups would sit in one.
  auto interleaved_setup = [&](std::size_t i) {
    if (i % 2 == 1 && rec.setup_s.size() < kStreamSetups) {
      build_stream(w, nullptr, &rec);
    }
  };
  std::vector<std::uint64_t> seeds;
  for (std::size_t j = 0; j < kStreamSeeds; ++j) {
    seeds.push_back(stream_seed(seed, j));
  }
  const maxpower::EstimatorOptions options = stream_options(w);
  maxpower::ParallelOptions par;
  par.threads = w.threads;
  const maxpower::Engine engine(maxpower::EngineConfig{options, {}, {}});

  Tracing t;
  auto tstack = build_stream(w, &t.vectors, nullptr);
  maxpower::PopulationUnitSource base(*tstack->population);
  perfbench::TimedUnitSource source(base, t.source, &t.children);
  const maxpower::Engine tengine = t.engine(options);
  const auto bare = measure(
      rec, t, kStreamSeeds, kStreamTraceSeeds, seconds, trace, false,
      [&](Op& op) {
        op.result = engine.run(*stack->population, seeds[op.seed_index], par);
      },
      [&](Op& op) {
        op.result = traced_run(t, op, [&] {
          return tengine.run(source, seeds[op.seed_index], par);
        });
      },
      stream_failed, interleaved_setup);
  if (w.threads > 1) {
    maxpower::ParallelOptions one;
    one.threads = 1;
    const auto r1 = engine.run(*stack->population, seeds[0], one);
    rec.checks.expect(same_result(bare.front().result, r1),
                      "threads_1_equals_threads_n",
                      "1-thread pipelined run differs from the " +
                          std::to_string(w.threads) + "-thread run");
    rec.checks.pass("threads_1_equals_threads_n");
  }
  // Vector pairs per run, over one pass of distinct seeds.
  const std::size_t runs = trace ? kStreamTraceSeeds : kStreamSeeds;
  double units = 0;
  for (std::size_t j = 0; j < runs; ++j) {
    units += static_cast<double>(bare[j].result.units_used);
  }
  util::JsonFields exact;
  exact.add("units_per_op", units / static_cast<double>(runs));
  rec.exact = exact.object();
  rec.print();
}

// ---------------------------------------------------------------------------
// Finite-population workload (the paper's Table 1 setting).

vec::FinitePopulation build_finite(Record& rec) {
  const auto t0 = Clock::now();
  const circuit::Netlist netlist =
      gen::build_preset(kFiniteCircuit, kCircuitSeed);
  const auto t1 = Clock::now();
  const vec::HighActivityPairGenerator pairs(netlist.num_inputs(),
                                             kFiniteActivity);
  vec::ParallelPowerDbOptions db;
  db.population_size = kFinitePopulation;
  db.seed = kFinitePopulationSeed;
  db.threads = kFiniteDbThreads;
  vec::FinitePopulation population = vec::build_power_database_parallel(
      netlist, pairs, sim::PowerEvalOptions{}, db);
  const auto t2 = Clock::now();
  rec.setup_s.push_back(std::chrono::duration<double>(t2 - t0).count());
  rec.gen_build_ms.push_back(ms_between(t0, t1));
  rec.db_build_s.push_back(std::chrono::duration<double>(t2 - t1).count());
  return population;
}

void run_finite(std::uint64_t seed, double seconds, bool trace) {
  Record rec;
  rec.workload = "finite-paper";
  rec.kernel = "finite-lookup";
  std::unique_ptr<vec::FinitePopulation> population;
  for (std::size_t i = 0; i < kFiniteSetups; ++i) {
    population = std::make_unique<vec::FinitePopulation>(build_finite(rec));
  }
  std::vector<std::uint64_t> seeds;
  for (std::size_t j = 0; j < kFiniteRuns; ++j) {
    seeds.push_back(stream_seed(seed ^ 0x7ab1e1ull, j));
  }
  const maxpower::EstimatorOptions options;  // the paper's 5 %, 90 %
  maxpower::ParallelOptions par;
  par.threads = 1;
  const maxpower::Engine engine(maxpower::EngineConfig{options, {}, {}});

  Tracing t;
  maxpower::PopulationUnitSource base(*population);
  perfbench::TimedUnitSource source(base, t.source, &t.children);
  const maxpower::Engine tengine = t.engine(options);
  const auto bare = measure(
      rec, t, kFiniteRuns, kFiniteTraceRuns, seconds, trace, true,
      [&](Op& op) {
        op.result = engine.run(*population, seeds[op.seed_index], par);
      },
      [&](Op& op) {
        op.result = traced_run(t, op, [&] {
          return tengine.run(source, seeds[op.seed_index], par);
        });
      },
      [](const Outcome& r) { return !r.converged; }, [](std::size_t) {});

  // Cost and accuracy over one pass of distinct seeds: exact for a seed.
  const double truth = population->true_max();
  const std::size_t runs = trace ? kFiniteTraceRuns : kFiniteRuns;
  double units = 0, abs_err = 0, covered = 0;
  for (std::size_t j = 0; j < runs; ++j) {
    const auto& r = bare[j].result;
    const double err = std::fabs(r.estimate - truth) / truth;
    units += static_cast<double>(r.units_used);
    abs_err += err;
    if (err <= options.epsilon) covered += 1;
  }
  const double n = static_cast<double>(runs);
  util::JsonFields exact;
  exact.add("units_per_op", units / n);
  exact.add("abs_rel_err_mean", abs_err / n);
  exact.add("within_epsilon_share", covered / n);
  exact.add("true_max", truth);
  exact.add("runs", static_cast<std::uint64_t>(runs));
  rec.exact = exact.object();
  rec.print();
}

// ---------------------------------------------------------------------------
// Reference results for the serve-fleet output check.

int run_reference(const std::string& jobs_path, const std::string& state_dir) {
  std::ifstream in(jobs_path);
  if (!in) {
    std::fprintf(stderr, "reference: cannot read %s\n", jobs_path.c_str());
    return 1;
  }
  server::CircuitCache cache(64);
  std::map<std::string, std::pair<maxpower::CampaignJobOutcome, std::string>>
      done;  // keyed by spec: identical specs give identical results
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    const std::string id = line.substr(0, tab);
    const std::string spec = line.substr(tab + 1);
    auto it = done.find(spec);
    if (it == done.end()) {
      maxpower::CampaignJob job = maxpower::parse_campaign_job_line(spec);
      job.name = "ref" + std::to_string(n++);
      maxpower::JobRunOptions options;
      options.state_dir = state_dir;
      Rng jitter(1);
      auto outcome = maxpower::run_campaign_job(job, options, jitter);
      std::string report =
          server::render_job_report(job, outcome.result, cache);
      it = done.emplace(spec, std::make_pair(std::move(outcome),
                                             std::move(report)))
               .first;
    }
    std::printf("%s\n", server::encode_result(id, it->second.first,
                                              it->second.second)
                            .c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Self-test: decorators are transparent.

int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  const circuit::Netlist netlist = gen::build_preset("c432", kCircuitSeed);
  const vec::UniformPairGenerator pairs(netlist.num_inputs());
  perfbench::LayerTally vectors;
  const perfbench::TimedPairGenerator timed_pairs(pairs, vectors);
  {
    Rng a(7), b(7);
    vec::VectorPair pa, pb;
    bool same = true;
    for (int i = 0; i < 50; ++i) {
      const vec::VectorPair ga = pairs.generate(a);
      const vec::VectorPair gb = timed_pairs.generate(b);
      same &= ga.first == gb.first && ga.second == gb.second;
      pairs.generate_into(a, pa);
      timed_pairs.generate_into(b, pb);
      same &= pa.first == pb.first && pa.second == pb.second;
    }
    expect(same && a() == b(), "TimedPairGenerator: same pairs, same RNG use");
    expect(vectors.items() == 100, "TimedPairGenerator: counts every pair");
  }

  sim::PowerEvalOptions eval;
  eval.delay_model = sim::DelayModel::kZero;
  sim::CyclePowerEvaluator ev_a(netlist, eval), ev_b(netlist, eval);
  vec::StreamingPopulation pop_a(pairs, ev_a), pop_b(timed_pairs, ev_b);
  pop_a.enable_compiled();
  pop_b.enable_compiled();
  maxpower::PopulationUnitSource src_a(pop_a), src_b_inner(pop_b);
  perfbench::LayerTally fills;
  perfbench::IntervalLog children;
  perfbench::TimedUnitSource src_b(src_b_inner, fills, &children);
  {
    Rng a(11), b(11);
    std::vector<double> va(300), vb(300);
    src_a.fill(va, a);
    src_b.fill(vb, b);
    bool same = a() == b();
    for (std::size_t i = 0; i < va.size(); ++i) same &= same_bits(va[i], vb[i]);
    expect(same, "TimedUnitSource: same values, same RNG use");
    expect(fills.items() == 300 && fills.calls() == 1,
           "TimedUnitSource: counts units and calls");
    expect(src_b.concurrent_fill_safe() == src_a.concurrent_fill_safe() &&
               src_b.population_size() == src_a.population_size() &&
               src_b.description() == src_a.description(),
           "TimedUnitSource: forwards properties");
  }

  {
    maxpower::EstimatorOptions options;
    options.max_hyper_samples = 12;
    const maxpower::Engine bare(maxpower::EngineConfig{options, {}, {}});
    Tracing t;
    perfbench::TimedUnitSource traced_src(src_b_inner, t.source, &t.children);
    const maxpower::Engine traced = t.engine(options);
    const auto ra = bare.run(src_a, 99);
    const auto rb = traced.run(traced_src, 99);
    expect(same_result(ra, rb),
           "TimedTailFitter + TimedStoppingRule: bit-identical engine run");
    expect(t.fits.calls() > 0 && t.fits.calls() <= ra.hyper_samples,
           "TimedTailFitter: at most one call per hyper-sample");
    expect(t.stops.calls() > 0, "TimedStoppingRule: rules consulted");
    expect(t.fitter->name() == maxpower::default_tail_fitter().name(),
           "TimedTailFitter: forwards the fitter name");
    Rng a(5), b(5);
    const auto sa = bare.run(src_a, a);
    const auto sb = traced.run(traced_src, b);
    expect(same_result(sa, sb) && a() == b(),
           "serial engine path: same result, same RNG use");
  }

  {
    perfbench::IntervalLog log;
    const auto t0 = Clock::now();
    using std::chrono::milliseconds;
    log.add(t0, t0 + milliseconds(10));
    log.add(t0 + milliseconds(5), t0 + milliseconds(15));
    log.add(t0 + milliseconds(20), t0 + milliseconds(25));
    log.add(t0 + milliseconds(21), t0 + milliseconds(22));
    expect(std::fabs(log.union_s() - 0.020) < 1e-9,
           "IntervalLog: union of overlapping intervals");
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

std::string fingerprint_json() {
  util::JsonFields f;
  f.add("build_type", PERFBENCH_BUILD_TYPE);
  f.add("optimized", kOptimized);
  f.add("ndebug", kNdebug);
#ifdef __VERSION__
  f.add("compiler", __VERSION__);
#endif
  f.add("simd_kernel", sim::to_string(sim::best_kernel()));
  f.add("hardware_threads", std::thread::hardware_concurrency());
  return f.object();
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: mpe_perfbench run <stream-zero|stream-loaded|"
               "finite-paper> --seed S --seconds T --trace 0|1\n"
               "       mpe_perfbench reference --jobs FILE --state-dir DIR\n"
               "       mpe_perfbench fingerprint | selftest\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> flags;
  std::string workload;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[a.substr(2)] = argv[++i];
    } else if (workload.empty()) {
      workload = a;
    } else {
      usage();
    }
  }
  if (cmd == "fingerprint") {
    std::printf("%s\n", fingerprint_json().c_str());
    return 0;
  }
  if (cmd == "selftest") return selftest();
  if (!kOptimized || !kNdebug) {
    std::fprintf(stderr,
                 "refusing to benchmark an unoptimized build (build type %s, "
                 "optimized=%d, NDEBUG=%d)\n",
                 PERFBENCH_BUILD_TYPE, kOptimized, kNdebug);
    return 3;
  }
  if (cmd == "reference") {
    if (!flags.count("jobs") || !flags.count("state-dir")) usage();
    return run_reference(flags["jobs"], flags["state-dir"]);
  }
  if (cmd != "run" || !flags.count("seed") || !flags.count("seconds")) usage();
  const std::uint64_t seed = std::stoull(flags["seed"]);
  const double seconds = std::stod(flags["seconds"]);
  const bool trace = flags.count("trace") && flags["trace"] == "1";
  if (workload == "stream-zero") {
    run_stream(kStreamZero, "stream-zero", seed, seconds, trace);
  } else if (workload == "stream-loaded") {
    run_stream(kStreamLoaded, "stream-loaded", seed, seconds, trace);
  } else if (workload == "finite-paper") {
    run_finite(seed, seconds, trace);
  } else {
    usage();
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "mpe_perfbench: %s\n", e.what());
  return 1;
}
