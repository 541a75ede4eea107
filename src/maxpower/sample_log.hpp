// Sealed sample logs: the one on-disk record of finished hyper-samples.
//
// Hyper-sample i of the pipelined engine path is a pure function of
// Rng(stream_seed(seed, i)), so everything a run needs in order to continue
// is the list of finished (index, sample) records; Engine::replay folds
// them back into the full result. Engine checkpoints, shard checkpoints,
// shard-result frames and ledger shard records all carry the same record:
//
//   {"schema":"mpe.samples","v":1,"key":"...","crc":"..."}   header
//   {"i":0,"est":9.75,"u":300,"f":17,"crc":"..."}             one per sample
//   ...
//
// Every line is sealed with the ledger CRC (maxpower/ledger.hpp). The
// header is written with util::atomic_write_file, so a kill -9 can never
// tear it; `key` names the run the records belong to and is chosen by the
// caller (the run fingerprint for an engine checkpoint, the job, shard,
// range and spec for a shard). Records are appended after it. A torn,
// bit-flipped or duplicated record is skipped or deduplicated on load and
// only the contiguous prefix of indices is trusted: a lost record is simply
// recomputed, with the same value.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "maxpower/hyper_sample.hpp"

namespace mpe::maxpower {

/// One finished hyper-sample: the slice of HyperSampleResult the engine
/// fold consumes (estimate, units, validity flags), keyed by its wave
/// index. Doubles survive the JSON round trip bit-exactly (util/jsonl
/// shortest round-trippable rendering).
struct ShardSample {
  std::uint64_t index = 0;
  double estimate = 0.0;
  std::uint64_t units = 0;            ///< units_used (n*m)
  std::uint64_t nonfinite_units = 0;  ///< non-finite unit values sanitized
  bool valid = false;
  bool degenerate = false;
  bool used_pwm = false;
  bool constant_sample = false;
  bool mle_converged = false;

  bool operator==(const ShardSample&) const = default;
};

/// Projects a drawn hyper-sample onto the fold-relevant slice.
ShardSample shard_sample_from_hyper(std::uint64_t index,
                                    const HyperSampleResult& hs);

/// Inverse of shard_sample_from_hyper: fields the fold never reads keep
/// their defaults.
HyperSampleResult hyper_from_shard_sample(const ShardSample& s);

/// JSON array codec for sample sequences — the wire payload of shard-result
/// messages and the ledger's shard records. Element form:
/// {"i":index,"est":estimate,"u":units,["nfu":n,]"f":flags}.
std::string encode_shard_samples(const std::vector<ShardSample>& samples);
/// Throws mpe::Error(kParse) on malformed JSON and kBadData on a malformed
/// element: a missing field, or i/u/nfu that is not an integer in
/// [0, 2^53], or flags outside 0..0x1f.
std::vector<ShardSample> decode_shard_samples(std::string_view json_array);

/// What load_sample_log found at a path.
enum class SampleLogState {
  kAbsent,   ///< no file: a fresh run
  kForeign,  ///< a valid header with a different key
  kCorrupt,  ///< the first line is not a valid sealed header
  kLoaded,   ///< our header; `prefix` holds the recorded samples
};

struct SampleLog {
  SampleLogState state = SampleLogState::kAbsent;
  std::string found_key;             ///< header key (kForeign, kLoaded)
  std::vector<ShardSample> prefix;   ///< records lo, lo+1, ... (kLoaded)
};

/// Reads the log at `path` and returns the contiguous run of records with
/// indices lo, lo+1, ... (records outside [lo, hi) are ignored). Records
/// that are torn, fail their CRC or do not decode are skipped, and
/// duplicates of one index are deduplicated. Throws mpe::Error(kIo) only
/// when an existing file cannot be read.
SampleLog load_sample_log(
    const std::string& path, std::string_view key, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

/// Atomically replaces `path` with a log holding only the header for
/// `key`. Throws mpe::Error(kIo).
void create_sample_log(const std::string& path, std::string_view key);

/// Where a run's newly drawn samples go, in index order, as the engine's
/// fold visits them: the engine checkpoint (maxpower/run_context.hpp) or a
/// shard's log (maxpower/shard.cpp).
class SampleSink {
 public:
  virtual ~SampleSink() = default;
  /// `stopped` is true for the sample on which the stopping chain ended the
  /// run; no sync() follows it.
  virtual void append(const ShardSample& sample, bool stopped) = 0;
  /// Called on every other exit (budget, deadline, cancel, fault).
  virtual void sync() = 0;
};

/// Appends sealed records to an existing log. Records queue in memory
/// until flush(), which appends them in one write (first terminating a
/// torn final line, so a record is never fused onto a partial one);
/// sync() additionally fsyncs. Both throw mpe::Error(kIo); queued records
/// are dropped either way, and a lost record is recomputed on resume.
class SampleLogWriter {
 public:
  explicit SampleLogWriter(std::string path);
  ~SampleLogWriter();
  SampleLogWriter(const SampleLogWriter&) = delete;
  SampleLogWriter& operator=(const SampleLogWriter&) = delete;

  void append(const ShardSample& s);
  std::size_t pending() const { return pending_count_; }
  void flush();
  void sync();

 private:
  std::string path_;
  int fd_ = -1;
  std::string pending_;
  std::size_t pending_count_ = 0;
  bool unsynced_ = false;
};

}  // namespace mpe::maxpower
