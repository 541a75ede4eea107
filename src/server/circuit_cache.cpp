#include "server/circuit_cache.hpp"

#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"
#include "util/status.hpp"

namespace mpe::server {

namespace {

struct CacheMetrics {
  util::Counter hits = util::MetricRegistry::global().counter(
      "mpe_server_cache_hits_total");
  util::Counter misses = util::MetricRegistry::global().counter(
      "mpe_server_cache_misses_total");
  util::Counter evictions = util::MetricRegistry::global().counter(
      "mpe_server_cache_evictions_total");
};

CacheMetrics& cm() {
  static CacheMetrics metrics;
  return metrics;
}

}  // namespace

CircuitCache::CircuitCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::string CircuitCache::key_for(const maxpower::CampaignJob& job) {
  // File-backed circuits are keyed by content hash, never by path: a
  // symlinked/renamed file shares its entry and an edited file misses.
  if (!job.bench.empty() || !job.verilog.empty()) {
    const bool is_bench = !job.bench.empty();
    const std::string content =
        util::read_file(is_bench ? job.bench : job.verilog);
    std::string key = is_bench ? "bench:" : "verilog:";
    key += std::to_string(util::crc32(content));
    key += ':';
    key += std::to_string(content.size());
    return key;
  }
  std::string key = "preset:";
  key += job.circuit.empty() ? "c432" : job.circuit;
  key += ':';
  key += std::to_string(job.seed);
  return key;
}

std::shared_ptr<const maxpower::JobCircuit> CircuitCache::lookup(
    const maxpower::CampaignJob& job) {
  const std::string key = key_for(job);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = by_key_.find(key); it != by_key_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
      ++hits_;
      cm().hits.inc();
      return it->second->circuit;
    }
  }
  // Build outside any fast path but under the lock below: serializing two
  // concurrent misses for the same circuit is the point of the cache.
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = by_key_.find(key); it != by_key_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    cm().hits.inc();
    return it->second->circuit;
  }
  ++misses_;
  cm().misses.inc();
  auto circuit = std::make_shared<const maxpower::JobCircuit>(
      maxpower::load_job_netlist(job));
  lru_.push_front(Entry{key, circuit});
  by_key_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    by_key_.erase(lru_.back().key);
    lru_.pop_back();  // holders keep their shared_ptr; only our ref drops
    ++evictions_;
    cm().evictions.inc();
  }
  return circuit;
}

CircuitCache::Stats CircuitCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return Stats{hits_, misses_, evictions_, lru_.size(), capacity_};
}

}  // namespace mpe::server
