// maxpower/shard: wave-index partition math, the shard-sample JSON codec
// (bit-exact doubles, non-finite estimates), checkpointed shard execution,
// shard 0 stopping where the local run stops, and the headline guarantee — computing a job as shards on "different
// workers" and folding them back through assemble_job yields a result
// byte-identical to the single-process run, for every shard size.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

#include "maxpower/campaign.hpp"
#include "maxpower/ledger.hpp"
#include "maxpower/shard.hpp"
#include "util/atomic_file.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

namespace mp = mpe::maxpower;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

mp::CampaignJob tiny_job(const std::string& name, std::uint64_t seed,
                         double epsilon = 0.2) {
  mp::CampaignJob job;
  job.name = name;
  job.circuit = "c432";
  job.seed = seed;
  job.epsilon = epsilon;
  job.confidence = 0.8;
  job.max_hyper_samples = 12;
  return job;
}

/// Computes the shards of `job` under `shard_size` in order and returns the
/// sample sequence they deliver to assembly: every shard's, up to a short
/// shard 0, which stopped where the job stops and is a whole prefix alone.
std::vector<mp::ShardSample> compute_all_shards(const mp::CampaignJob& job,
                                                std::uint64_t shard_size,
                                                const std::string& state_dir) {
  const std::uint64_t attempts = mp::job_attempt_budget(job);
  mp::ShardRunOptions options;
  options.state_dir = state_dir;
  std::vector<mp::ShardSample> all;
  for (std::size_t k = 0; k < mp::shard_count(attempts, shard_size); ++k) {
    const mp::ShardRange range = mp::shard_range(attempts, shard_size, k);
    const mp::ShardOutcome out =
        mp::run_campaign_shard(job, k, range.lo, range.hi, options);
    EXPECT_EQ(out.status, mp::JobStatus::kDone);
    all.insert(all.end(), out.samples.begin(), out.samples.end());
    if (out.samples.size() < range.hi - range.lo) break;
  }
  return all;
}

/// The records of the sample log at `path`, whatever its key.
std::vector<mp::ShardSample> log_records(const std::string& path) {
  const std::string key = mp::load_sample_log(path, "").found_key;
  return mp::load_sample_log(path, key).prefix;
}

std::uint64_t counter(const char* series) {
  return mpe::util::MetricRegistry::global().snapshot().value(series);
}

// ---------------------------------------------------------------- partition

TEST(ShardPartition, CoversTheAttemptBudgetExactlyOnce) {
  const mp::CampaignJob job = tiny_job("p", 1);
  const std::uint64_t attempts = mp::job_attempt_budget(job);
  EXPECT_EQ(attempts, job.max_hyper_samples +
                          mp::EstimatorOptions{}.max_redraws);
  for (const std::uint64_t size :
       {std::uint64_t{1}, std::uint64_t{3}, std::uint64_t{8}, attempts,
        std::uint64_t{1000}}) {
    const std::size_t n = mp::shard_count(attempts, size);
    std::uint64_t next = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const mp::ShardRange r = mp::shard_range(attempts, size, k);
      EXPECT_EQ(r.lo, next) << "size " << size << " shard " << k;
      EXPECT_LT(r.lo, r.hi);
      next = r.hi;
    }
    EXPECT_EQ(next, attempts) << "size " << size;
  }
  // shard_size 0 means whole-job: one shard spanning everything.
  EXPECT_EQ(mp::shard_count(attempts, 0), 1u);
  EXPECT_EQ(mp::shard_range(attempts, 0, 0).hi, attempts);
  EXPECT_THROW((void)mp::shard_range(attempts, 8, 1000), mpe::Error);
}

// -------------------------------------------------------------------- codec

TEST(ShardCodec, RoundTripsBitExactlyIncludingNonFiniteEstimates) {
  std::vector<mp::ShardSample> samples(3);
  samples[0].index = 7;
  samples[0].estimate = 0.1 + 0.2;  // famously non-representable
  samples[0].units = 4250;
  samples[0].valid = true;
  samples[0].mle_converged = true;
  samples[1].index = 8;
  samples[1].estimate = std::nan("");
  samples[1].nonfinite_units = 3;
  samples[1].degenerate = true;
  samples[2].index = 9;
  samples[2].estimate = -std::numeric_limits<double>::infinity();
  samples[2].used_pwm = true;
  samples[2].constant_sample = true;

  const auto decoded =
      mp::decode_shard_samples(mp::encode_shard_samples(samples));
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0], samples[0]);  // bit-exact double round trip
  EXPECT_TRUE(std::isnan(decoded[1].estimate));
  EXPECT_EQ(decoded[1].nonfinite_units, 3u);
  EXPECT_TRUE(decoded[1].degenerate);
  EXPECT_EQ(decoded[2], samples[2]);

  EXPECT_THROW((void)mp::decode_shard_samples("not json"), mpe::Error);
  EXPECT_THROW((void)mp::decode_shard_samples(R"({"i":1})"), mpe::Error);
  EXPECT_THROW((void)mp::decode_shard_samples(R"([{"i":1}])"), mpe::Error);
}

TEST(ShardCodec, RejectsOutOfRangeNumbersInsteadOfCastingThem) {
  // Worker frames are decoded with this codec: a number that does not fit
  // its field exactly must be refused, not wrapped, truncated or rounded
  // into a plausible-looking index, unit count or flag set.
  struct Case {
    const char* what;
    const char* element;
  };
  for (const Case& c : {
           Case{"negative index", R"({"i":-1,"est":1.5,"u":300,"f":1})"},
           Case{"huge units", R"({"i":0,"est":1.5,"u":1e300,"f":1})"},
           Case{"fractional index", R"({"i":2.5,"est":1.5,"u":300,"f":1})"},
           Case{"flags past 0x1f", R"({"i":0,"est":1.5,"u":300,"f":4097})"},
       }) {
    try {
      (void)mp::decode_shard_samples(std::string("[") + c.element + "]");
      ADD_FAILURE() << c.what << " decoded";
    } catch (const mpe::Error& e) {
      EXPECT_EQ(e.code(), mpe::ErrorCode::kBadData) << c.what;
    }
  }
}

// ------------------------------------------------- compute + assemble == run

TEST(ShardAssembly, EveryShardSizeReproducesTheSingleProcessRunExactly) {
  for (const std::uint64_t seed : {3ull, 11ull}) {
    mp::CampaignJob job = tiny_job("solo", seed);
    mp::JobRunOptions solo_options;
    solo_options.state_dir = fresh_dir("shard_solo");
    mpe::Rng jitter(1);
    const mp::CampaignJobOutcome solo =
        mp::run_campaign_job(job, solo_options, jitter);
    ASSERT_EQ(solo.status, mp::JobStatus::kDone);

    for (const std::uint64_t size : {1ull, 3ull, 8ull, 100ull}) {
      const mp::CampaignJob sharded_job = tiny_job("solo", seed);
      const std::string dir = fresh_dir("shard_fleet");
      const auto all = compute_all_shards(sharded_job, size, dir);
      const mp::AssembledJob assembled = mp::assemble_job(sharded_job, all);
      ASSERT_TRUE(assembled.terminal) << "size " << size;
      // Ledger-visible payload must be byte-identical to the solo run.
      EXPECT_EQ(assembled.result.estimate, solo.result.estimate)
          << "seed " << seed << " size " << size;
      EXPECT_EQ(assembled.result.hyper_samples, solo.result.hyper_samples);
      EXPECT_EQ(assembled.result.units_used, solo.result.units_used);
      EXPECT_EQ(assembled.result.converged, solo.result.converged);
      const mp::CampaignJobOutcome outcome =
          mp::assembled_outcome(sharded_job, assembled.result);
      EXPECT_EQ(outcome.status, mp::JobStatus::kDone);
    }
  }
}

TEST(ShardAssembly, ShortPrefixOfAConvergingJobIsTerminalEarly) {
  // The job converges well inside its budget, so shard 0 stops there and
  // its prefix is terminal alone — the coordinator never waits for (or
  // leases) work past the stopping point.
  const mp::CampaignJob job = tiny_job("early", 3);
  const std::string dir = fresh_dir("shard_early");
  const auto all = compute_all_shards(job, 8, dir);
  ASSERT_LT(all.size(), 8u);
  const mp::AssembledJob full = mp::assemble_job(job, all);
  ASSERT_TRUE(full.terminal);
  ASSERT_TRUE(full.result.converged);
  // A one-sample prefix cannot have converged (min_hyper_samples > 1).
  std::vector<mp::ShardSample> one(all.begin(), all.begin() + 1);
  EXPECT_FALSE(mp::assemble_job(job, one).terminal);
}

TEST(ShardWindow, ShardZeroStopsAtTheLocalRunsFoldAndAssemblesToIt) {
  for (const std::uint64_t seed : {3ull, 5ull, 11ull}) {
    mp::CampaignJob job = tiny_job("fold", seed);
    mp::JobRunOptions solo_options;
    solo_options.state_dir = fresh_dir("shard_fold_solo");
    mpe::Rng jitter(1);
    const mp::CampaignJobOutcome solo =
        mp::run_campaign_job(job, solo_options, jitter);
    ASSERT_EQ(solo.status, mp::JobStatus::kDone);
    ASSERT_TRUE(solo.result.converged);

    // The local run's checkpoint holds exactly the samples its fold
    // visited; shard 0 over the whole budget returns that same prefix.
    const std::uint64_t attempts = mp::job_attempt_budget(job);
    mp::ShardRunOptions options;
    options.state_dir = fresh_dir("shard_fold");
    const mp::ShardOutcome shard =
        mp::run_campaign_shard(job, 0, 0, attempts, options);
    ASSERT_EQ(shard.status, mp::JobStatus::kDone);
    EXPECT_EQ(shard.samples,
              log_records(solo_options.state_dir + "/fold.ckpt"))
        << "seed " << seed;
    EXPECT_LT(shard.samples.size(), attempts);

    const mp::AssembledJob assembled = mp::assemble_job(job, shard.samples);
    ASSERT_TRUE(assembled.terminal);
    EXPECT_EQ(mp::campaign_record_line(
                  mp::assembled_outcome(job, assembled.result)),
              mp::campaign_record_line(solo))
        << "seed " << seed;
  }
}

TEST(ShardWindow, LaterShardDrawsItsFullRangePastTheStoppingPoint) {
  const mp::CampaignJob job = tiny_job("later", 5);
  mp::ShardRunOptions options;
  options.state_dir = fresh_dir("shard_later");
  const mp::ShardOutcome zero = mp::run_campaign_shard(job, 0, 0, 8, options);
  ASSERT_EQ(zero.status, mp::JobStatus::kDone);
  ASSERT_LT(zero.samples.size(), 8u);  // the job stops inside shard 0

  const mp::ShardOutcome one = mp::run_campaign_shard(job, 1, 8, 16, options);
  ASSERT_EQ(one.status, mp::JobStatus::kDone);
  ASSERT_EQ(one.samples.size(), 8u);
  for (std::size_t i = 0; i < one.samples.size(); ++i) {
    EXPECT_EQ(one.samples[i].index, 8 + i);
  }
}

TEST(ShardWindow, ResumedLogPastTheStoppingPointReturnsWithoutDrawing) {
  const mp::CampaignJob job = tiny_job("done", 5);
  const std::string dir = fresh_dir("shard_done");
  mp::ShardRunOptions options;
  options.state_dir = dir;
  const mp::ShardOutcome first = mp::run_campaign_shard(job, 0, 0, 8, options);
  ASSERT_EQ(first.status, mp::JobStatus::kDone);
  ASSERT_LT(first.samples.size(), 8u);

  // Pad the log past the stopping point, as a log that kept drawing to the
  // end of its range would be: the indices up to 8, from a later window.
  const mp::ShardOutcome rest = mp::run_campaign_shard(
      job, 9, first.samples.size(), 8, options);
  ASSERT_EQ(rest.status, mp::JobStatus::kDone);
  {
    mp::SampleLogWriter writer(dir + "/done.shard0.ckpt");
    for (const auto& s : rest.samples) writer.append(s);
    writer.flush();
  }

  auto& reg = mpe::util::MetricRegistry::global();
  reg.enable(true);
  const std::uint64_t waves = counter("mpe_estimator_waves_total");
  const std::uint64_t accepted = counter("mpe_estimator_hyper_samples_total");
  const mp::ShardOutcome resumed =
      mp::run_campaign_shard(job, 0, 0, 8, options);
  EXPECT_EQ(counter("mpe_estimator_waves_total"), waves);
  EXPECT_EQ(counter("mpe_estimator_hyper_samples_total"), accepted);
  reg.enable(false);
  ASSERT_EQ(resumed.status, mp::JobStatus::kDone);
  EXPECT_EQ(resumed.samples, first.samples);  // [0, stop], nothing more
}

TEST(ShardAssembly, NonContiguousPrefixThrows) {
  const mp::CampaignJob job = tiny_job("gap", 3);
  const std::string dir = fresh_dir("shard_gap");
  auto all = compute_all_shards(job, 8, dir);
  ASSERT_GE(all.size(), 3u);
  all.erase(all.begin() + 1);  // hole at index 1
  EXPECT_THROW((void)mp::assemble_job(job, all), mpe::Error);
}

TEST(ShardAssembly, AssemblyAddsNothingToTheHyperSampleCounters) {
  // The workers counted these samples when they drew them; folding them
  // again in the assembling process must not count them twice.
  const mp::CampaignJob job = tiny_job("count", 3);
  const auto all = compute_all_shards(job, 8, fresh_dir("shard_count"));
  auto& reg = mpe::util::MetricRegistry::global();
  reg.enable(true);
  const auto before = reg.snapshot();
  const mp::AssembledJob assembled = mp::assemble_job(job, all);
  const auto after = reg.snapshot();
  reg.enable(false);
  ASSERT_TRUE(assembled.terminal);
  ASSERT_GT(assembled.result.hyper_samples, 0u);
  for (const char* series : {"mpe_estimator_hyper_samples_total",
                             "mpe_estimator_hyper_discarded_total"}) {
    EXPECT_EQ(after.value(series), before.value(series)) << series;
  }
}

// -------------------------------------------------------------- checkpoints

TEST(ShardCheckpoint, TruncatedCheckpointResumesToTheSameSamples) {
  const mp::CampaignJob job = tiny_job("ckpt", 5);
  const std::string dir = fresh_dir("shard_ckpt");
  mp::ShardRunOptions options;
  options.state_dir = dir;
  // Shard 1: a full window, so there are records past the tear to resume.
  const mp::ShardOutcome first = mp::run_campaign_shard(job, 1, 8, 16, options);
  ASSERT_EQ(first.status, mp::JobStatus::kDone);
  ASSERT_EQ(first.samples.size(), 8u);

  // kill -9 mid-flush: keep the header + first two sample lines, tearing
  // the third in half. The CRC catches the torn line; the contiguous
  // prefix survives and the rest recomputes deterministically.
  const std::string ckpt = dir + "/ckpt.shard1.ckpt";
  std::string text = mpe::util::read_file(ckpt);
  std::size_t keep = 0;
  for (int lines = 0; lines < 3; ++lines) {
    keep = text.find('\n', keep) + 1;
  }
  mpe::util::atomic_write_file(ckpt, text.substr(0, keep + 10));

  const mp::ShardOutcome second =
      mp::run_campaign_shard(job, 1, 8, 16, options);
  ASSERT_EQ(second.status, mp::JobStatus::kDone);
  EXPECT_EQ(second.samples, first.samples);
}

TEST(ShardCheckpoint, ForeignSpecHeaderIsDiscardedNotResumed) {
  const mp::CampaignJob job = tiny_job("spec", 5);
  const std::string dir = fresh_dir("shard_spec");
  mp::ShardRunOptions options;
  options.state_dir = dir;
  const mp::ShardOutcome first = mp::run_campaign_shard(job, 0, 0, 8, options);
  ASSERT_EQ(first.status, mp::JobStatus::kDone);

  // Same job name, different seed: the sealed header pins the spec, so the
  // stale checkpoint must be ignored (resuming it would corrupt results).
  mp::CampaignJob reseeded = tiny_job("spec", 6);
  const mp::ShardOutcome other =
      mp::run_campaign_shard(reseeded, 0, 0, 8, options);
  ASSERT_EQ(other.status, mp::JobStatus::kDone);
  EXPECT_NE(other.samples[0].estimate, first.samples[0].estimate);
  // And rerunning the reseeded job now resumes its own rewritten file.
  const mp::ShardOutcome again =
      mp::run_campaign_shard(reseeded, 0, 0, 8, options);
  EXPECT_EQ(again.samples, other.samples);
}

TEST(ShardRun, RunControlStopKeepsPartialProgress) {
  const mp::CampaignJob job = tiny_job("stop", 5);
  const std::string dir = fresh_dir("shard_stop");
  mp::ShardRunOptions options;
  options.state_dir = dir;
  const auto cancel = mpe::util::CancellationToken::create();
  options.control.cancel = cancel;
  cancel.request_stop();
  const mp::ShardOutcome stopped =
      mp::run_campaign_shard(job, 1, 8, 16, options);
  EXPECT_EQ(stopped.status, mp::JobStatus::kStopped);
  EXPECT_EQ(stopped.error, mpe::ErrorCode::kCancelled);

  mp::ShardRunOptions clean;
  clean.state_dir = dir;
  const mp::ShardOutcome resumed =
      mp::run_campaign_shard(job, 1, 8, 16, clean);
  EXPECT_EQ(resumed.status, mp::JobStatus::kDone);
  EXPECT_EQ(resumed.samples.size(), 8u);
}

// ------------------------------------------------------------ ledger record

TEST(ShardRecord, RoundTripsThroughTheLedgerSealed) {
  const mp::CampaignJob job = tiny_job("rec", 3);
  const std::string dir = fresh_dir("shard_rec");
  mp::ShardRunOptions options;
  options.state_dir = dir;
  const mp::ShardOutcome out = mp::run_campaign_shard(job, 1, 8, 16, options);
  ASSERT_EQ(out.status, mp::JobStatus::kDone);

  const std::string line =
      mp::shard_record_line("rec", 1, 8, 16, "w0", out.samples);
  EXPECT_TRUE(mp::verify_ledger_line(line));
  const auto ledger = mp::read_ledger_text(line + "\n");
  ASSERT_EQ(ledger.records.size(), 1u);
  const mp::LedgerRecord& rec = ledger.records[0];
  EXPECT_TRUE(rec.is_shard);
  EXPECT_EQ(rec.shard, 1u);
  EXPECT_EQ(rec.lo, 8u);
  EXPECT_EQ(rec.hi, 16u);
  EXPECT_EQ(mp::decode_shard_samples(rec.samples), out.samples);
  // A done shard must never read as a done job.
  EXPECT_TRUE(ledger.final_status().empty());
}

}  // namespace
