#include "server/fleet_executor.hpp"

#include <chrono>
#include <random>
#include <utility>

#include "server/job_runtime.hpp"
#include "util/jsonl.hpp"
#include "util/metrics.hpp"

namespace mpe::server {

namespace {

dist::CoordinatorConfig fleet_core_config(const std::string& state_dir,
                                          const FleetOptions& options) {
  dist::CoordinatorConfig cfg;
  cfg.state_dir = state_dir + "/fleet";
  cfg.lease = options.lease;
  cfg.max_assignments = options.max_assignments;
  cfg.straggler_after = options.straggler_after;
  cfg.persistent = true;
  // Always sharded: only an assembled shard prefix carries the full
  // EstimationResult (CI bounds, diagnostics) a server result line needs.
  if (options.shard_size > 0) {
    cfg.shard_size = options.shard_size;
  } else {
    cfg.shard_auto = true;
  }
  cfg.shard_size_floor = options.shard_size_floor;
  cfg.shard_size_ceiling = options.shard_size_ceiling;
  cfg.shard_target_latency = options.shard_target_latency;
  cfg.metrics = &util::MetricRegistry::global();
  return cfg;
}

std::string random_salt() {
  std::random_device rd;
  static constexpr char kHex[] = "0123456789abcdef";
  std::string salt(8, '0');
  std::uint32_t bits = (static_cast<std::uint32_t>(rd()) << 16) ^ rd();
  for (char& c : salt) {
    c = kHex[bits & 0xf];
    bits >>= 4;
  }
  return salt;
}

}  // namespace

FleetExecutor::FleetExecutor(CircuitCache& cache, const std::string& state_dir,
                             const FleetOptions& options,
                             dist::Listener* unix_listener,
                             dist::Listener* tcp_listener)
    : cache_(cache),
      core_(fleet_core_config(state_dir, options)),
      unix_listener_(unix_listener),
      tcp_listener_(tcp_listener),
      salt_(random_salt()) {
  if (unix_listener_ == nullptr && tcp_listener_ == nullptr) {
    throw Error(ErrorCode::kUsage,
                "fleet mode needs a worker-facing listener");
  }
}

FleetExecutor::~FleetExecutor() {
  // The serve loop is gone; tell lingering workers the shop is closed so
  // they exit on a drain reply instead of redialing a dead socket. Bounded:
  // workers poll at most once a second, so most catch it on the first pass.
  core_.begin_drain();
  const auto deadline = Clock::now() + std::chrono::milliseconds{1200};
  while (!conns_.empty() && Clock::now() < deadline) {
    for (auto& conn : conns_) {
      for (;;) {
        std::string line;
        const auto status =
            conn->recv_line(line, std::chrono::milliseconds{10});
        if (status != dist::LineChannel::RecvStatus::kLine) {
          if (status != dist::LineChannel::RecvStatus::kTimeout) conn->close();
          break;
        }
        std::string reply;
        try {
          reply = core_.handle(dist::decode_message(line), Clock::now());
        } catch (const Error& e) {
          reply = dist::encode_error(e.what());
        }
        if (!conn->send_line(reply)) {
          conn->close();
          break;
        }
      }
    }
    std::erase_if(conns_, [](const auto& c) { return !c->valid(); });
  }
}

std::string FleetExecutor::salted_name(std::uint64_t ticket,
                                       const std::string& id) const {
  std::string name = "f" + salt_ + "-" + std::to_string(ticket) + "-";
  const std::size_t room =
      name.size() < maxpower::kMaxCampaignJobNameBytes
          ? maxpower::kMaxCampaignJobNameBytes - name.size()
          : 0;
  name.append(id, 0, room);
  return name;
}

void FleetExecutor::start(ServerCore::Started started) {
  Inflight entry;
  entry.ticket = started.ticket;
  entry.cancel = started.cancel;
  entry.job = std::move(started.job);
  const std::string client_id = entry.job.name;
  entry.job.name = salted_name(started.ticket, client_id);
  core_.add_job(entry.job);
  const std::string name = entry.job.name;
  inflight_.emplace(name, std::move(entry));
}

void FleetExecutor::service_connections(Clock::time_point now,
                                        std::vector<ExecEvent>& events,
                                        bool& activity) {
  const std::chrono::milliseconds no_wait{0};
  if (unix_listener_ != nullptr) {
    while (auto conn = unix_listener_->accept(no_wait)) {
      conns_.push_back(std::move(conn));
      activity = true;
    }
  }
  if (tcp_listener_ != nullptr) {
    while (auto conn = tcp_listener_->accept(no_wait)) {
      conns_.push_back(std::move(conn));
      activity = true;
    }
  }
  for (auto& conn : conns_) {
    for (;;) {
      std::string line;
      const auto status = conn->recv_line(line, no_wait);
      if (status == dist::LineChannel::RecvStatus::kClosed) {
        conn->close();  // worker gone; lease expiry covers its shards
        break;
      }
      if (status == dist::LineChannel::RecvStatus::kOverflow) {
        conn->send_line(dist::encode_error("oversized frame"));
        conn->close();
        break;
      }
      if (status != dist::LineChannel::RecvStatus::kLine) break;
      activity = true;
      std::string reply;
      try {
        const dist::Message msg = dist::decode_message(line);
        const std::size_t shards_before = core_.shards_done();
        reply = core_.handle(msg, now);
        if (msg.kind == dist::MessageKind::kShardResult &&
            core_.shards_done() > shards_before) {
          // A fresh shard landed: surface it to the submitter as a trace
          // event (the fleet analogue of the local engine's event stream).
          const auto it = inflight_.find(msg.job);
          if (it != inflight_.end() &&
              it->second.shards_seen.insert(msg.shard).second) {
            util::JsonFields f;
            f.add("shard", msg.shard)
                .add("lo", msg.lo)
                .add("hi", msg.hi)
                .add("worker", msg.worker);
            events.push_back({it->second.ticket, it->second.next_seq++,
                              "shard_done", f.body()});
          }
        }
      } catch (const Error& e) {
        reply = dist::encode_error(e.what());
      }
      if (!conn->send_line(reply)) {
        conn->close();
        break;
      }
      if (!conn->line_buffered()) break;
    }
  }
  std::erase_if(conns_, [](const auto& c) { return !c->valid(); });
}

bool FleetExecutor::pump(Clock::time_point now, std::vector<ExecEvent>& events,
                         std::vector<ExecCompletion>& completions) {
  bool activity = false;

  // ServerCore tripped a job's token (cancel, deadline, disconnect): pull
  // it off the fleet. The coordinator records it stopped; workers holding
  // its shards get revoke on their next heartbeat.
  for (auto& [name, entry] : inflight_) {
    if (entry.abandoned || !entry.cancel.stop_requested()) continue;
    entry.abandoned = true;
    core_.abandon(name);
    activity = true;
  }

  service_connections(now, events, activity);
  core_.tick(now);

  for (maxpower::CampaignJobOutcome& outcome : core_.take_completions()) {
    const auto it = inflight_.find(outcome.name);
    if (it == inflight_.end()) continue;
    ExecCompletion done;
    done.ticket = it->second.ticket;
    if (outcome.status == maxpower::JobStatus::kDone) {
      // The assembled result is bit-identical to a single-process run, so
      // the report rendered from it matches the local executor's byte for
      // byte (modulo tracing, which fleet reports never include).
      done.report = render_job_report(it->second.job, outcome.result, cache_);
    }
    done.outcome = std::move(outcome);
    completions.push_back(std::move(done));
    inflight_.erase(it);
    activity = true;
  }

  // Once the drain emptied the fleet, start telling idle workers to go
  // home — the serve loop exits right after, and a worker that asks again
  // during the destructor's linger still gets the same answer.
  if (draining_ && inflight_.empty() && !core_.draining()) {
    core_.begin_drain();
  }
  return activity;
}

void FleetExecutor::stop_all() {
  for (auto& [name, entry] : inflight_) {
    if (entry.abandoned) continue;
    entry.abandoned = true;
    core_.abandon(name);
  }
  core_.begin_drain();
}

}  // namespace mpe::server
