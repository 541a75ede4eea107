#include "maxpower/checkpoint.hpp"

#include <cstdio>
#include <string>

#include "maxpower/options_fields.hpp"

namespace mpe::maxpower {

namespace {

void fp_num(std::string& out, const char* key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s=%.17g;", key, v);
  out += buf;
}

void fp_u64(std::string& out, const char* key, std::uint64_t v) {
  out += key;
  out += '=';
  out += std::to_string(v);
  out += ';';
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// options_fields visitor that renders the fingerprinted subset in the
/// canonical order and format (doubles via "%.17g", everything else as
/// decimal integers). Non-fingerprinted fields are skipped, which is the
/// whole exclusion mechanism: the flag lives next to the field in
/// visit_estimator_options, not in a second hand-maintained list here.
struct FingerprintVisitor {
  std::string& canon;

  void number(const char* name, const double& v, bool fingerprinted) {
    if (fingerprinted) fp_num(canon, name, v);
  }
  template <typename T>
  void integer(const char* name, const T& v, bool fingerprinted) {
    if (fingerprinted) fp_u64(canon, name, static_cast<std::uint64_t>(v));
  }
  void flag(const char* name, const bool& v, bool fingerprinted) {
    if (fingerprinted) fp_u64(canon, name, v ? 1 : 0);
  }
  template <typename E>
  void enumeration(const char* name, const E& v, bool fingerprinted) {
    if (fingerprinted) fp_u64(canon, name, static_cast<std::uint64_t>(v));
  }
};

}  // namespace

std::uint64_t run_fingerprint(const EstimatorOptions& options,
                              std::uint64_t base_seed, bool parallel_path,
                              std::string_view population) {
  return run_fingerprint(options, base_seed, parallel_path, population, {});
}

std::uint64_t run_fingerprint(const EstimatorOptions& options,
                              std::uint64_t base_seed, bool parallel_path,
                              std::string_view population,
                              std::string_view strategies) {
  std::string canon;
  canon.reserve(512);
  canon += parallel_path ? "path=parallel;" : "path=serial;";
  fp_u64(canon, "seed", base_seed);
  visit_estimator_options(options, FingerprintVisitor{canon});
  canon += "population=";
  canon += population;
  if (!strategies.empty()) {
    canon += ";strategies=";
    canon += strategies;
  }
  return fnv1a(canon);
}

}  // namespace mpe::maxpower
