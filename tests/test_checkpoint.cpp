// Durable run state: engine checkpoints are sample logs
// (maxpower/sample_log.hpp) keyed by the run fingerprint
// (maxpower/checkpoint.hpp). The headline guarantee — a resumed estimation
// run is bit-identical to an uninterrupted one at any thread count — and
// the robustness sweeps: every truncation and every bit flip of a real log
// is either refused with a typed error or resumes to the uninterrupted
// result.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "maxpower/checkpoint.hpp"
#include "maxpower/estimator.hpp"
#include "maxpower/ledger.hpp"
#include "stats/weibull.hpp"
#include "util/atomic_file.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "vectors/fault_injection.hpp"
#include "vectors/population.hpp"

namespace {

namespace mp = mpe::maxpower;

mpe::vec::FinitePopulation weibull_population(std::size_t size,
                                              std::uint64_t seed,
                                              double alpha = 3.0,
                                              double mu = 10.0) {
  const mpe::stats::ReversedWeibull g(alpha, 1.0, mu);
  mpe::Rng rng(seed);
  std::vector<double> vals(size);
  for (auto& v : vals) v = g.sample(rng);
  return mpe::vec::FinitePopulation(std::move(vals), "synthetic weibull");
}

void expect_identical(const mp::EstimationResult& a,
                      const mp::EstimationResult& b) {
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.ci.lower, b.ci.lower);
  EXPECT_EQ(a.ci.upper, b.ci.upper);
  EXPECT_EQ(a.relative_error_bound, b.relative_error_bound);
  EXPECT_EQ(a.units_used, b.units_used);
  EXPECT_EQ(a.hyper_samples, b.hyper_samples);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.diagnostics.degenerate_fits, b.diagnostics.degenerate_fits);
  EXPECT_EQ(a.diagnostics.discarded_hyper_samples,
            b.diagnostics.discarded_hyper_samples);
  EXPECT_EQ(a.diagnostics.records.size(), b.diagnostics.records.size());
  ASSERT_EQ(a.hyper_values.size(), b.hyper_values.size());
  for (std::size_t i = 0; i < a.hyper_values.size(); ++i) {
    EXPECT_EQ(a.hyper_values[i], b.hyper_values[i]) << "hyper value " << i;
  }
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Byte offset of the start of line `n` (0-based) of `text`.
std::size_t line_start(const std::string& text, int n) {
  std::size_t at = 0;
  for (int i = 0; i < n; ++i) at = text.find('\n', at) + 1;
  return at;
}

// The robustness sweep over a real engine log, truncated at every byte
// offset and with every single bit flipped. A mutation that damages the
// header is refused with a typed error before anything is drawn; one that
// damages sample records drops them, and the resumed run recomputes them
// from their per-index streams. No mutation may produce a different result.
class LogMutationSweep {
 public:
  explicit LogMutationSweep(const std::string& name)
      : pop_(weibull_population(30000, 35)), path_(temp_path(name)) {
    opt_.epsilon = 0.02;
    one_.threads = 1;
    reference_ = mp::estimate_max_power(pop_, opt_, kSeed, one_);
    std::remove(path_.c_str());
    logged_ = opt_;
    logged_.checkpoint_path = path_;
    (void)mp::estimate_max_power(pop_, logged_, kSeed, one_);
    log_ = mpe::util::read_file(path_);
  }
  ~LogMutationSweep() { std::remove(path_.c_str()); }

  const mp::EstimationResult& reference() const { return reference_; }
  const std::string& log() const { return log_; }
  std::size_t refused() const { return refused_; }
  std::size_t resumed() const { return resumed_; }

  /// Resumes from `bytes`: the run must either be refused with a typed
  /// error or reproduce the uninterrupted result exactly.
  void resume_from(const std::string& bytes) {
    write_file(path_, bytes);
    try {
      expect_identical(reference_,
                       mp::estimate_max_power(pop_, logged_, kSeed, one_));
      ++resumed_;
    } catch (const mpe::Error& e) {
      EXPECT_TRUE(e.code() == mpe::ErrorCode::kCorruptData ||
                  e.code() == mpe::ErrorCode::kPrecondition)
          << mpe::to_string(e.code());
      ++refused_;
    }
  }

 private:
  static constexpr std::uint64_t kSeed = 91;
  mpe::vec::FinitePopulation pop_;
  std::string path_;
  mp::EstimatorOptions opt_;
  mp::EstimatorOptions logged_;
  mp::ParallelOptions one_;
  mp::EstimationResult reference_;
  std::string log_;
  std::size_t refused_ = 0;
  std::size_t resumed_ = 0;
};

// Every truncation inside the header is refused with a typed error
// (cutting only its newline leaves it whole); every truncation inside the
// records resumes to the uninterrupted result.
TEST(CheckpointFuzz, EveryTruncationThrowsTypedError) {
  LogMutationSweep sweep("ckpt_truncation.ckpt");
  ASSERT_TRUE(sweep.reference().converged);
  ASSERT_GT(sweep.reference().hyper_samples, 3u);
  const std::string& log = sweep.log();
  for (std::size_t len = 0; len < log.size(); ++len) {
    SCOPED_TRACE("truncated to " + std::to_string(len) + " bytes");
    sweep.resume_from(log.substr(0, len));
  }
  const std::size_t header = line_start(log, 1);
  EXPECT_EQ(sweep.refused(), header - 1);
  EXPECT_EQ(sweep.resumed(), log.size() - sweep.refused());
}

// Every single-bit flip is rejected: a flipped header refuses the run with
// a typed error, a flipped record fails its seal and is dropped, and the
// resumed run recomputes it to the uninterrupted result.
TEST(CheckpointFuzz, EverySingleBitFlipRejected) {
  LogMutationSweep sweep("ckpt_bitflip.ckpt");
  ASSERT_TRUE(sweep.reference().converged);
  ASSERT_GT(sweep.reference().hyper_samples, 3u);
  const std::string& log = sweep.log();
  for (std::size_t byte = 0; byte < log.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("bit " + std::to_string(bit) + " of byte " +
                   std::to_string(byte) + " flipped");
      std::string mutated = log;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      sweep.resume_from(mutated);
    }
  }
  const std::size_t header = line_start(log, 1);
  EXPECT_EQ(sweep.refused(), 8 * header);
  EXPECT_EQ(sweep.resumed(), 8 * log.size() - sweep.refused());
}

TEST(CheckpointFuzz, GarbageIsParseOrCorruptError) {
  // Anything that does not start with a sealed sample-log header — an
  // empty file, text, a binary blob, a sealed line of another schema — is
  // refused as corrupt, never treated as a fresh run.
  auto pop = weibull_population(20000, 79);
  const std::string path = temp_path("ckpt_garbage.ckpt");
  mp::EstimatorOptions opt;
  opt.checkpoint_path = path;
  for (const std::string garbage :
       {std::string(), std::string("not a checkpoint at all"),
        std::string("MPCK\x01\x00\x00\x00XXXXYYYYZZZZ", 20),
        mp::seal_ledger_line(R"({"schema":"mpe.campaign","v":1})")}) {
    write_file(path, garbage);
    try {
      (void)mp::estimate_max_power(pop, opt, std::uint64_t{3});
      FAIL() << "garbage resumed: " << garbage;
    } catch (const mpe::Error& e) {
      EXPECT_EQ(e.code(), mpe::ErrorCode::kCorruptData);
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointFingerprint, SensitiveToResultShapingOptionsOnly) {
  mp::EstimatorOptions a;
  const std::uint64_t fp =
      mp::run_fingerprint(a, 7, /*parallel_path=*/true, "pop");

  mp::EstimatorOptions b = a;
  b.epsilon = 0.01;
  EXPECT_NE(mp::run_fingerprint(b, 7, true, "pop"), fp);

  mp::EstimatorOptions c = a;
  c.max_hyper_samples += 100;  // budget: deliberately outside the print
  EXPECT_EQ(mp::run_fingerprint(c, 7, true, "pop"), fp);

  mp::EstimatorOptions d = a;
  d.control.deadline =
      mpe::util::Deadline::after(std::chrono::seconds(1));  // budget too
  EXPECT_EQ(mp::run_fingerprint(d, 7, true, "pop"), fp);

  EXPECT_NE(mp::run_fingerprint(a, 8, true, "pop"), fp);    // seed
  EXPECT_NE(mp::run_fingerprint(a, 7, false, "pop"), fp);   // path
  EXPECT_NE(mp::run_fingerprint(a, 7, true, "other"), fp);  // population
}

TEST(CheckpointFingerprint, VisitorFieldsMarkedFingerprintedAreFolded) {
  // The fingerprint is the fingerprinted subset of
  // visit_estimator_options — the same visitor that (de)serializes the
  // options — so this asserts the marks, not a hand-maintained list: a
  // deep fingerprinted field (the MLE grid) must perturb the print, and
  // the two fields marked non-fingerprinted (budget/cadence) must not.
  mp::EstimatorOptions a;
  const std::uint64_t fp = mp::run_fingerprint(a, 3, false, "pop");

  mp::EstimatorOptions grid = a;
  grid.hyper.mle.grid_points += 1;  // fingerprinted: shapes every fit
  EXPECT_NE(mp::run_fingerprint(grid, 3, false, "pop"), fp);

  mp::EstimatorOptions interval = a;
  interval.interval = mp::IntervalKind::kBootstrap;  // fingerprinted enum
  EXPECT_NE(mp::run_fingerprint(interval, 3, false, "pop"), fp);

  mp::EstimatorOptions budget = a;
  budget.max_hyper_samples *= 2;  // not fingerprinted: resumable budget
  budget.checkpoint_every_k += 4;  // not fingerprinted: write cadence
  EXPECT_EQ(mp::run_fingerprint(budget, 3, false, "pop"), fp);
}

// --- Resume bit-identity ----------------------------------------------------

TEST(CheckpointResume, ParallelResumeBitIdenticalAcrossThreadCounts) {
  auto pop = weibull_population(30000, 35);
  mp::EstimatorOptions opt;
  opt.epsilon = 0.01;  // converges at k = 18 here
  const std::uint64_t seed = 91;
  const auto reference = mp::estimate_max_power(pop, opt, seed);
  ASSERT_TRUE(reference.converged);
  ASSERT_GT(reference.hyper_samples, 5u);

  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    const std::string path =
        temp_path("ckpt_par_resume_" + std::to_string(threads) + ".ckpt");
    std::remove(path.c_str());
    mp::ParallelOptions par;
    par.threads = threads;

    mp::EstimatorOptions capped = opt;
    capped.checkpoint_path = path;
    capped.max_hyper_samples = 5;
    const auto partial = mp::estimate_max_power(pop, capped, seed, par);
    ASSERT_FALSE(partial.converged);

    mp::EstimatorOptions full = opt;
    full.checkpoint_path = path;
    const auto resumed = mp::estimate_max_power(pop, full, seed, par);
    expect_identical(reference, resumed);
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, ResumeAtDifferentThreadCountBitIdentical) {
  // Checkpoint taken at 8 threads, resumed at 1 and 2: the pipelined
  // estimator's per-index streams make the schedule unobservable, so the
  // thread count is not part of the fingerprint and may change mid-run.
  auto pop = weibull_population(30000, 35);
  mp::EstimatorOptions opt;
  opt.epsilon = 0.01;
  const std::uint64_t seed = 91;
  const auto reference = mp::estimate_max_power(pop, opt, seed);
  ASSERT_GT(reference.hyper_samples, 5u);

  for (unsigned resume_threads : {1u, 2u}) {
    SCOPED_TRACE(resume_threads);
    const std::string path = temp_path(
        "ckpt_cross_threads_" + std::to_string(resume_threads) + ".ckpt");
    std::remove(path.c_str());
    mp::EstimatorOptions capped = opt;
    capped.checkpoint_path = path;
    capped.max_hyper_samples = 5;
    mp::ParallelOptions eight;
    eight.threads = 8;
    (void)mp::estimate_max_power(pop, capped, seed, eight);

    mp::EstimatorOptions full = opt;
    full.checkpoint_path = path;
    mp::ParallelOptions narrow;
    narrow.threads = resume_threads;
    const auto resumed = mp::estimate_max_power(pop, full, seed, narrow);
    expect_identical(reference, resumed);
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, BootstrapIntervalResumeBitIdentical) {
  // The bootstrap stopping rule consumes the interval RNG at every accept;
  // the checkpoint must restore that stream position exactly.
  auto pop = weibull_population(30000, 35);
  mp::EstimatorOptions opt;
  opt.interval = mp::IntervalKind::kBootstrap;
  opt.epsilon = 0.005;  // converges at k = 49 here
  const std::uint64_t seed = 91;
  const auto reference = mp::estimate_max_power(pop, opt, seed);
  ASSERT_GT(reference.hyper_samples, 5u);

  const std::string path = temp_path("ckpt_bootstrap_resume.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions capped = opt;
  capped.checkpoint_path = path;
  capped.max_hyper_samples = 5;
  (void)mp::estimate_max_power(pop, capped, seed);

  mp::EstimatorOptions full = opt;
  full.checkpoint_path = path;
  const auto resumed = mp::estimate_max_power(pop, full, seed);
  expect_identical(reference, resumed);
  std::remove(path.c_str());
}

TEST(CheckpointResume, CompleteCheckpointShortCircuitsWithoutDrawing) {
  auto inner = weibull_population(20000, 55);
  // No faults installed: the decorator is used purely as a draw counter.
  mpe::vec::FaultInjectingPopulation pop(inner, {});
  const std::string path = temp_path("ckpt_complete.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions opt;
  opt.checkpoint_path = path;
  const std::uint64_t seed = 7;
  const auto first = mp::estimate_max_power(pop, opt, seed);
  ASSERT_TRUE(first.converged);
  const std::uint64_t draws_after_first = pop.draws();

  const auto second = mp::estimate_max_power(pop, opt, seed);
  EXPECT_EQ(pop.draws(), draws_after_first) << "resume re-simulated the run";
  expect_identical(first, second);
  std::remove(path.c_str());
}

TEST(CheckpointResume, CheckpointEveryKStillResumesExactly) {
  auto pop = weibull_population(20000, 61);
  mp::EstimatorOptions opt;
  opt.epsilon = 0.01;  // converges at k = 9 here, so k=3 batching skips writes
  const std::uint64_t seed = 19;
  const auto reference = mp::estimate_max_power(pop, opt, seed);
  ASSERT_GT(reference.hyper_samples, 4u);

  const std::string path = temp_path("ckpt_every_k.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions capped = opt;
  capped.checkpoint_path = path;
  capped.checkpoint_every_k = 3;
  capped.max_hyper_samples = 4;
  (void)mp::estimate_max_power(pop, capped, seed);

  mp::EstimatorOptions full = opt;
  full.checkpoint_path = path;
  full.checkpoint_every_k = 3;
  const auto resumed = mp::estimate_max_power(pop, full, seed);
  expect_identical(reference, resumed);
  std::remove(path.c_str());
}

// --- Refusals ---------------------------------------------------------------

TEST(CheckpointRefusal, FingerprintMismatchIsPrecondition) {
  auto pop = weibull_population(20000, 71);
  const std::string path = temp_path("ckpt_mismatch.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions opt;
  opt.checkpoint_path = path;
  opt.max_hyper_samples = 3;
  const std::uint64_t seed = 3;
  (void)mp::estimate_max_power(pop, opt, seed);

  mp::EstimatorOptions other = opt;
  other.epsilon = 0.01;  // result-shaping change: different run
  try {
    (void)mp::estimate_max_power(pop, other, seed);
    FAIL() << "mismatched checkpoint resumed";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kPrecondition);
    EXPECT_NE(e.context().find("expected_fingerprint"), std::string::npos);
  }

  // A different seed is a different value sequence: also refused.
  try {
    (void)mp::estimate_max_power(pop, opt, seed + 1);
    FAIL() << "wrong-seed checkpoint resumed";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kPrecondition);
  }
  std::remove(path.c_str());
}

TEST(CheckpointRefusal, SerialPathRefusesCheckpoints) {
  // Only per-index streams make a recorded prefix replayable: the serial
  // path has no resume point, so it refuses a checkpoint outright.
  auto pop = weibull_population(20000, 73);
  const std::string path = temp_path("ckpt_serial.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions opt;
  opt.checkpoint_path = path;
  mpe::Rng rng(3);
  try {
    (void)mp::estimate_max_power(pop, opt, rng);
    FAIL() << "serial path accepted a checkpoint";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kPrecondition);
  }
  EXPECT_FALSE(mpe::util::file_exists(path));
}

TEST(CheckpointRefusal, CorruptFileIsCorruptData) {
  // A flipped bit in the header: the log no longer says whose samples it
  // holds, so the run refuses it rather than guessing.
  auto pop = weibull_population(20000, 75);
  const std::string path = temp_path("ckpt_corrupt.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions opt;
  opt.checkpoint_path = path;
  opt.max_hyper_samples = 3;
  const std::uint64_t seed = 3;
  (void)mp::estimate_max_power(pop, opt, seed);

  std::string bytes = mpe::util::read_file(path);
  const std::size_t mid = line_start(bytes, 1) / 2;
  bytes[mid] = static_cast<char>(bytes[mid] ^ 0x40);
  write_file(path, bytes);
  try {
    (void)mp::estimate_max_power(pop, opt, seed);
    FAIL() << "checkpoint with a corrupt header resumed";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kCorruptData);
  }
  std::remove(path.c_str());
}

TEST(CheckpointResume, CorruptSampleRecordResumesBitIdentical) {
  // A flipped bit in a sample record fails its CRC: the record is dropped
  // and recomputed from its per-index stream, with the same value.
  auto pop = weibull_population(30000, 35);
  mp::EstimatorOptions opt;
  opt.epsilon = 0.01;  // converges at k = 18 here
  const std::uint64_t seed = 91;
  const auto reference = mp::estimate_max_power(pop, opt, seed);
  ASSERT_GT(reference.hyper_samples, 4u);

  const std::string path = temp_path("ckpt_corrupt_record.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions capped = opt;
  capped.checkpoint_path = path;
  capped.max_hyper_samples = 4;
  (void)mp::estimate_max_power(pop, capped, seed);

  std::string bytes = mpe::util::read_file(path);
  const std::size_t mid = (line_start(bytes, 2) + line_start(bytes, 3)) / 2;
  bytes[mid] = static_cast<char>(bytes[mid] ^ 0x40);
  write_file(path, bytes);

  mp::EstimatorOptions full = opt;
  full.checkpoint_path = path;
  expect_identical(reference, mp::estimate_max_power(pop, full, seed));
  std::remove(path.c_str());
}

TEST(CheckpointResume, ResumedRunCountsOnlyNewlyDrawnSamples) {
  // Replayed samples were counted by the run that drew them: a resumed
  // run's counter deltas cover exactly the samples it drew itself.
  auto pop = weibull_population(30000, 35);
  mp::EstimatorOptions opt;
  opt.epsilon = 0.01;
  opt.hyper.degenerate_policy = mp::DegenerateFitPolicy::kDiscardRedraw;
  const std::uint64_t seed = 91;
  auto& reg = mpe::util::MetricRegistry::global();
  reg.enable(true);
  const auto counted = [&reg]() {
    const auto snap = reg.snapshot();
    return std::pair{snap.value("mpe_estimator_hyper_samples_total"),
                     snap.value("mpe_estimator_hyper_discarded_total")};
  };

  const std::string path = temp_path("ckpt_counters.ckpt");
  std::remove(path.c_str());
  mp::EstimatorOptions capped = opt;
  capped.checkpoint_path = path;
  capped.max_hyper_samples = 4;
  const auto before = counted();
  const auto partial = mp::estimate_max_power(pop, capped, seed);
  const auto mid = counted();
  mp::EstimatorOptions full = opt;
  full.checkpoint_path = path;
  const auto resumed = mp::estimate_max_power(pop, full, seed);
  const auto after = counted();
  reg.enable(false);
  std::remove(path.c_str());

  // Both halves accept and discard: the replayed prefix holds discards too.
  ASSERT_GT(resumed.hyper_samples, partial.hyper_samples);
  ASSERT_GT(partial.diagnostics.discarded_hyper_samples, 0u);
  ASSERT_GT(resumed.diagnostics.discarded_hyper_samples,
            partial.diagnostics.discarded_hyper_samples);
  EXPECT_EQ(mid.first - before.first, partial.hyper_samples);
  EXPECT_EQ(mid.second - before.second,
            partial.diagnostics.discarded_hyper_samples);
  EXPECT_EQ(after.first - mid.first,
            resumed.hyper_samples - partial.hyper_samples);
  EXPECT_EQ(after.second - mid.second,
            resumed.diagnostics.discarded_hyper_samples -
                partial.diagnostics.discarded_hyper_samples);
}

TEST(AtomicFile, WriteReadRoundTripAndOverwrite) {
  const std::string path = temp_path("atomic_file_rt.bin");
  std::string payload = "hello\0world", longer(4096, 'x');
  payload.resize(11);
  mpe::util::atomic_write_file(path, longer);
  mpe::util::atomic_write_file(path, payload);  // shrinking overwrite
  EXPECT_EQ(mpe::util::read_file(path), payload);
  EXPECT_TRUE(mpe::util::file_exists(path));
  std::remove(path.c_str());
  EXPECT_FALSE(mpe::util::file_exists(path));
}

TEST(AtomicFile, EnsureDirectoryIsIdempotentAndReportsIoErrors) {
  const std::string dir = temp_path("ensure_dir_once");
  std::remove(dir.c_str());
  mpe::util::ensure_directory(dir);
  mpe::util::ensure_directory(dir);  // already there: not an error
  EXPECT_TRUE(mpe::util::file_exists(dir));
  std::remove(dir.c_str());
  try {
    mpe::util::ensure_directory("/nonexistent-dir-mpe/child");
    FAIL() << "created a directory under a missing parent";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kIo);
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir-mpe/child"),
              std::string::npos);
  }
}

TEST(AtomicFile, UnwritableDirectoryIsIoError) {
  try {
    mpe::util::atomic_write_file("/nonexistent-dir-mpe/x.bin", "data");
    FAIL() << "write into a missing directory succeeded";
  } catch (const mpe::Error& e) {
    EXPECT_EQ(e.code(), mpe::ErrorCode::kIo);
  }
}

}  // namespace
