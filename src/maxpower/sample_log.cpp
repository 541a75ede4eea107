#include "maxpower/sample_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "maxpower/ledger.hpp"
#include "util/atomic_file.hpp"
#include "util/jsonl.hpp"
#include "util/status.hpp"

namespace mpe::maxpower {

namespace {

constexpr std::uint8_t kFlagValid = 1u << 0;
constexpr std::uint8_t kFlagDegenerate = 1u << 1;
constexpr std::uint8_t kFlagUsedPwm = 1u << 2;
constexpr std::uint8_t kFlagConstant = 1u << 3;
constexpr std::uint8_t kFlagMleConverged = 1u << 4;
constexpr std::uint8_t kAllFlags = 0x1f;

/// Largest integer a JSON number (parsed as double) carries exactly.
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53

std::uint8_t pack_flags(const ShardSample& s) {
  std::uint8_t f = 0;
  if (s.valid) f |= kFlagValid;
  if (s.degenerate) f |= kFlagDegenerate;
  if (s.used_pwm) f |= kFlagUsedPwm;
  if (s.constant_sample) f |= kFlagConstant;
  if (s.mle_converged) f |= kFlagMleConverged;
  return f;
}

void unpack_flags(std::uint8_t f, ShardSample& s) {
  s.valid = (f & kFlagValid) != 0;
  s.degenerate = (f & kFlagDegenerate) != 0;
  s.used_pwm = (f & kFlagUsedPwm) != 0;
  s.constant_sample = (f & kFlagConstant) != 0;
  s.mle_converged = (f & kFlagMleConverged) != 0;
}

/// An estimate field may be non-finite (util/jsonl renders NaN/Inf as the
/// strings "nan"/"inf"/"-inf"); the fold discards such samples but the
/// record must still round-trip.
double estimate_field(const util::JsonValue& v, std::string_view key) {
  const util::JsonValue* field = v.find(key);
  if (field == nullptr) {
    throw Error(ErrorCode::kBadData, "shard sample missing field",
                ErrorContext{}.kv("field", key).str());
  }
  if (field->is_number()) return field->as_number();
  if (field->is_string()) {
    const std::string& s = field->as_string();
    if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
    if (s == "inf") return std::numeric_limits<double>::infinity();
    if (s == "-inf") return -std::numeric_limits<double>::infinity();
  }
  throw Error(ErrorCode::kBadData, "shard sample field is not a number",
              ErrorContext{}.kv("field", key).str());
}

/// A non-negative integer field no larger than `max`. Anything else —
/// negative, fractional, non-finite, or out of range — is kBadData, never
/// an unchecked cast.
std::uint64_t count_field(const util::JsonValue& v, std::string_view key,
                          bool required, double max = kMaxExactInteger) {
  const util::JsonValue* field = v.find(key);
  if (field == nullptr) {
    if (required) {
      throw Error(ErrorCode::kBadData, "shard sample missing field",
                  ErrorContext{}.kv("field", key).str());
    }
    return 0;
  }
  const double x = field->is_number() ? field->as_number() : -1.0;
  if (!(x >= 0.0 && x <= max) || std::floor(x) != x) {
    throw Error(ErrorCode::kBadData,
                "shard sample field is not an integer in range",
                ErrorContext{}.kv("field", key).str());
  }
  return static_cast<std::uint64_t>(x);
}

std::string encode_record(const ShardSample& s) {
  util::JsonFields f;
  f.add("i", s.index);
  f.add("est", s.estimate);
  f.add("u", s.units);
  if (s.nonfinite_units != 0) f.add("nfu", s.nonfinite_units);
  f.add("f", static_cast<std::uint64_t>(pack_flags(s)));
  return f.object();
}

ShardSample decode_record(const util::JsonValue& v) {
  if (!v.is_object()) {
    throw Error(ErrorCode::kBadData, "shard sample is not a JSON object");
  }
  ShardSample s;
  s.index = count_field(v, "i", /*required=*/true);
  s.estimate = estimate_field(v, "est");
  s.units = count_field(v, "u", /*required=*/true);
  s.nonfinite_units = count_field(v, "nfu", /*required=*/false);
  unpack_flags(static_cast<std::uint8_t>(
                   count_field(v, "f", /*required=*/true, kAllFlags)),
               s);
  return s;
}

std::string header_line(std::string_view key) {
  util::JsonFields f;
  f.add("schema", "mpe.samples");
  f.add("v", std::uint64_t{1});
  f.add("key", key);
  return seal_ledger_line(f.object());
}

/// The key of a sealed sample-log header line; false when `line` is not one.
bool parse_header(const std::string& line, std::string& key) {
  if (!verify_ledger_line(line)) return false;
  util::JsonValue v;
  try {
    v = util::parse_json(line);
  } catch (const Error&) {
    return false;
  }
  const auto* schema = v.find("schema");
  const auto* version = v.find("v");
  const auto* k = v.find("key");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "mpe.samples" || version == nullptr ||
      !version->is_number() || version->as_number() != 1.0 || k == nullptr ||
      !k->is_string()) {
    return false;
  }
  key = k->as_string();
  return true;
}

[[noreturn]] void throw_errno(const char* what, const std::string& path) {
  throw Error(ErrorCode::kIo, what,
              ErrorContext{}
                  .kv("path", path)
                  .kv("errno", std::strerror(errno))
                  .str());
}

}  // namespace

ShardSample shard_sample_from_hyper(std::uint64_t index,
                                    const HyperSampleResult& hs) {
  ShardSample s;
  s.index = index;
  s.estimate = hs.estimate;
  s.units = hs.units_used;
  s.nonfinite_units = hs.nonfinite_units;
  s.valid = hs.valid;
  s.degenerate = hs.degenerate;
  s.used_pwm = hs.used_pwm;
  s.constant_sample = hs.constant_sample;
  s.mle_converged = hs.mle.converged;
  return s;
}

HyperSampleResult hyper_from_shard_sample(const ShardSample& s) {
  HyperSampleResult hs;
  hs.estimate = s.estimate;
  hs.units_used = static_cast<std::size_t>(s.units);
  hs.nonfinite_units = static_cast<std::size_t>(s.nonfinite_units);
  hs.valid = s.valid;
  hs.degenerate = s.degenerate;
  hs.used_pwm = s.used_pwm;
  hs.constant_sample = s.constant_sample;
  hs.mle.converged = s.mle_converged;
  return hs;
}

std::string encode_shard_samples(const std::vector<ShardSample>& samples) {
  std::string out = "[";
  for (const ShardSample& s : samples) {
    if (out.size() > 1) out += ',';
    out += encode_record(s);
  }
  out += ']';
  return out;
}

std::vector<ShardSample> decode_shard_samples(std::string_view json_array) {
  util::JsonValue v;
  try {
    v = util::parse_json(json_array);
  } catch (const Error& e) {
    throw Error(ErrorCode::kParse, "malformed shard sample array",
                ErrorContext{}.kv("detail", e.message()).str());
  }
  if (!v.is_array()) {
    throw Error(ErrorCode::kBadData, "shard samples are not a JSON array");
  }
  std::vector<ShardSample> out;
  out.reserve(v.as_array().size());
  for (const util::JsonValue& item : v.as_array()) {
    out.push_back(decode_record(item));
  }
  return out;
}

SampleLog load_sample_log(const std::string& path, std::string_view key,
                          std::uint64_t lo, std::uint64_t hi) {
  SampleLog log;
  if (!util::file_exists(path)) return log;
  std::istringstream in(util::read_file(path));
  std::string line;
  std::getline(in, line);
  if (!parse_header(line, log.found_key)) {
    log.state = SampleLogState::kCorrupt;
    return log;
  }
  if (log.found_key != key) {
    log.state = SampleLogState::kForeign;
    return log;
  }
  log.state = SampleLogState::kLoaded;
  std::map<std::uint64_t, ShardSample> by_index;
  while (std::getline(in, line)) {
    if (!verify_ledger_line(line)) continue;  // torn or flipped: recompute
    try {
      const ShardSample s = decode_record(util::parse_json(line));
      if (s.index >= lo && s.index < hi) by_index.emplace(s.index, s);
    } catch (const Error&) {
      continue;
    }
  }
  for (auto it = by_index.find(lo); it != by_index.end() &&
                                    it->first == lo + log.prefix.size();
       ++it) {
    log.prefix.push_back(it->second);
  }
  return log;
}

void create_sample_log(const std::string& path, std::string_view key) {
  util::atomic_write_file(path, header_line(key) + "\n");
}

SampleLogWriter::SampleLogWriter(std::string path) : path_(std::move(path)) {}

SampleLogWriter::~SampleLogWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void SampleLogWriter::append(const ShardSample& s) {
  pending_ += seal_ledger_line(encode_record(s));
  pending_ += '\n';
  ++pending_count_;
}

void SampleLogWriter::flush() {
  if (pending_.empty()) return;
  std::string out = std::move(pending_);
  pending_.clear();
  pending_count_ = 0;
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
    if (fd_ < 0) throw_errno("cannot open sample log for append", path_);
  }
  // A writer killed mid-append leaves a partial final line: terminate it
  // so the first record of this batch is not fused onto it.
  struct stat st {};
  char last = '\n';
  if (::fstat(fd_, &st) == 0 && st.st_size > 0 &&
      ::pread(fd_, &last, 1, st.st_size - 1) == 1 && last != '\n') {
    out.insert(out.begin(), '\n');
  }
  std::size_t written = 0;
  while (written < out.size()) {
    const ssize_t n = ::write(fd_, out.data() + written, out.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("sample log append failed", path_);
    }
    written += static_cast<std::size_t>(n);
  }
  unsynced_ = true;
}

void SampleLogWriter::sync() {
  flush();
  if (!unsynced_) return;
  if (::fsync(fd_) != 0) throw_errno("sample log fsync failed", path_);
  unsynced_ = false;
}

}  // namespace mpe::maxpower
