#include "dist/coordinator.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "dist/transport.hpp"
#include "maxpower/ledger.hpp"
#include "util/atomic_file.hpp"
#include "util/status.hpp"

namespace mpe::dist {

namespace {

using maxpower::CampaignJobOutcome;
using maxpower::JobStatus;

}  // namespace

CoordinatorCore::CoordinatorCore(CoordinatorConfig config)
    : config_(std::move(config)), jitter_rng_(config_.jitter_seed) {
  if (config_.state_dir.empty()) {
    throw Error(ErrorCode::kPrecondition,
                "CoordinatorConfig::state_dir must be set");
  }
  if (config_.max_assignments == 0) config_.max_assignments = 1;
  util::ensure_directory(config_.state_dir);
  report_path_ = config_.report_path.empty()
                     ? config_.state_dir + "/campaign.jsonl"
                     : config_.report_path;

  // One substrate, two policies: a whole-job claim is an exclusive lease, a
  // shard claim allows a second speculative holder (straggler re-issue,
  // first valid result wins).
  whole_policy_.lease = config_.lease;
  whole_policy_.max_assignments = config_.max_assignments;
  whole_policy_.reassign = config_.reassign;
  whole_policy_.max_holders = 1;
  shard_policy_ = whole_policy_;
  shard_policy_.max_holders = 2;
  shard_policy_.straggler_after = config_.straggler_after;

  jobs_.reserve(config_.jobs.size());
  for (std::size_t i = 0; i < config_.jobs.size(); ++i) {
    const auto& job = config_.jobs[i];
    if (!maxpower::valid_campaign_job_name(job.name)) {
      throw Error(ErrorCode::kBadData, "invalid campaign job name",
                  ErrorContext{}.kv("job", job.name).str());
    }
    if (!by_name_.emplace(job.name, i).second) {
      throw Error(ErrorCode::kBadData, "duplicate job name in manifest",
                  ErrorContext{}.kv("job", job.name).str());
    }
    JobState state;
    state.index = i;
    state.outcome.name = job.name;
    init_shards(state, job);
    jobs_.push_back(std::move(state));
  }

  // The ledger is the only durable coordinator state: a restarted
  // coordinator rediscovers completed work here, and in-flight work through
  // lease adoption (see handle/kHeartbeat).
  const maxpower::LedgerReadResult ledger_read =
      maxpower::read_ledger_file(report_path_);
  quarantined_ = ledger_read.corrupt.size();
  maxpower::quarantine_ledger_lines(report_path_, ledger_read.corrupt);
  for (const auto& [name, status] : ledger_read.final_status()) {
    if (status != "done") continue;  // failed/stopped jobs re-run
    if (auto* state = find(name)) {
      sched::complete(state->lease);
      state->skipped = true;
      state->outcome.status = JobStatus::kSkipped;
    }
  }
  // Done-shard records carry their sample payload inline, so partial
  // progress of in-flight sharded jobs also survives a coordinator restart:
  // rebuild it here, then fold any prefix that already reached its job's
  // stopping point.
  for (const auto& rec : ledger_read.records) {
    if (!rec.is_shard || rec.status != "done") continue;
    JobState* state = find(rec.job);
    if (state == nullptr || state->phase() != JobPhase::kPending ||
        rec.shard >= state->shards.size()) {
      continue;  // unknown, terminal, or unsharded job
    }
    ShardState& shard = state->shards[rec.shard];
    if (shard.lease.phase == sched::LeasePhase::kDone) {
      continue;  // duplicate record
    }
    if (shard.lo != rec.lo || shard.hi != rec.hi) {
      continue;  // foreign partition (shard_size changed between runs)
    }
    std::vector<maxpower::ShardSample> samples;
    try {
      samples = maxpower::decode_shard_samples(rec.samples);
    } catch (const Error&) {
      continue;  // mangled payload: the shard simply recomputes
    }
    if (!completes(*state, shard, samples)) continue;
    sched::complete(shard.lease);
    shard.samples = std::move(samples);
    ++shards_done_;
  }
  if (sharded_mode()) {
    for (auto& state : jobs_) try_assemble(state);
  }
}

std::size_t CoordinatorCore::shard_size_now() const {
  if (!config_.shard_auto) return config_.shard_size;
  const std::size_t floor = std::max<std::size_t>(1, config_.shard_size_floor);
  const std::size_t ceiling = std::max(floor, config_.shard_size_ceiling);
  if (ewma_ms_per_attempt_ <= 0.0) {
    // No observation yet: the configured size, or the floor — small first
    // shards make the latency estimate converge fast.
    return std::clamp(config_.shard_size == 0 ? floor : config_.shard_size,
                      floor, ceiling);
  }
  const double target =
      static_cast<double>(config_.shard_target_latency.count()) /
      ewma_ms_per_attempt_;
  if (target >= static_cast<double>(ceiling)) return ceiling;
  if (target <= static_cast<double>(floor)) return floor;
  return static_cast<std::size_t>(target);
}

void CoordinatorCore::init_shards(JobState& state,
                                  const maxpower::CampaignJob& job) {
  if (!sharded_mode()) return;
  const std::size_t size = shard_size_now();
  const std::uint64_t attempts = maxpower::job_attempt_budget(job);
  const std::size_t n = maxpower::shard_count(attempts, size);
  state.shards.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const maxpower::ShardRange range = maxpower::shard_range(attempts, size, k);
    state.shards[k].lo = range.lo;
    state.shards[k].hi = range.hi;
  }
}

bool CoordinatorCore::completes(
    const JobState& state, const ShardState& shard,
    const std::vector<maxpower::ShardSample>& samples) const {
  const std::uint64_t range = shard.hi - shard.lo;
  if (samples.empty() || samples.size() > range) return false;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].index != shard.lo + i) return false;
  }
  if (samples.size() == range) return true;
  // Short: only shard 0 folds as it draws, and it stops early only at the
  // job's stopping point, so its slice must assemble terminal by itself.
  return shard.lo == 0 &&
         maxpower::assemble_job(config_.jobs[state.index], samples).terminal;
}

void CoordinatorCore::observe_shard_latency(const ShardState& shard,
                                            Clock::time_point now) {
  const auto latency = std::chrono::duration_cast<std::chrono::milliseconds>(
      now - shard.lease.leased_since);
  if (config_.metrics != nullptr) {
    config_.metrics->histogram("mpe_coord_shard_latency_ms")
        .observe(static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, static_cast<std::int64_t>(latency.count()))));
  }
  if (!config_.shard_auto) return;
  // Per sample computed: shard 0 may stop well short of its range.
  const std::uint64_t attempts = shard.samples.size();
  if (attempts == 0 || latency.count() < 0) return;
  const double per_attempt = static_cast<double>(latency.count()) /
                             static_cast<double>(attempts);
  const double alpha = std::clamp(config_.shard_latency_alpha, 0.01, 1.0);
  ewma_ms_per_attempt_ = ewma_ms_per_attempt_ <= 0.0
                             ? per_attempt
                             : alpha * per_attempt +
                                   (1.0 - alpha) * ewma_ms_per_attempt_;
  if (config_.metrics != nullptr) {
    const auto level = static_cast<std::int64_t>(shard_size_now());
    config_.metrics->gauge("mpe_coord_shard_size")
        .add(level - shard_size_metric_);
    shard_size_metric_ = level;
  }
}

void CoordinatorCore::add_job(maxpower::CampaignJob job) {
  if (!maxpower::valid_campaign_job_name(job.name)) {
    throw Error(ErrorCode::kBadData, "invalid campaign job name",
                ErrorContext{}.kv("job", job.name).str());
  }
  const std::size_t i = config_.jobs.size();
  if (!by_name_.emplace(job.name, i).second) {
    throw Error(ErrorCode::kBadData, "duplicate job name",
                ErrorContext{}.kv("job", job.name).str());
  }
  config_.jobs.push_back(std::move(job));
  JobState state;
  state.index = i;
  state.outcome.name = config_.jobs[i].name;
  init_shards(state, config_.jobs[i]);
  jobs_.push_back(std::move(state));
}

bool CoordinatorCore::abandon(const std::string& job) {
  JobState* state = find(job);
  if (state == nullptr || state->phase() == JobPhase::kDone ||
      state->phase() == JobPhase::kFailed) {
    return false;
  }
  CampaignJobOutcome outcome;
  outcome.name = config_.jobs[state->index].name;
  outcome.status = JobStatus::kStopped;
  outcome.error = ErrorCode::kCancelled;
  outcome.attempts = state->lease.assignments;
  record(*state, outcome);
  return true;
}

std::vector<CampaignJobOutcome> CoordinatorCore::take_completions() {
  return std::exchange(completions_, {});
}

CoordinatorCore::JobState* CoordinatorCore::find(const std::string& job) {
  const auto it = by_name_.find(job);
  return it == by_name_.end() ? nullptr : &jobs_[it->second];
}

std::string CoordinatorCore::grant(JobState& state, const std::string& worker,
                                   Clock::time_point now) {
  sched::grant(state.lease, whole_policy_, worker, now);
  ++leases_granted_;
  return encode_lease(
      config_.jobs[state.index].name,
      maxpower::campaign_job_to_json(config_.jobs[state.index]),
      static_cast<std::uint64_t>(config_.lease.count()),
      static_cast<std::uint64_t>(config_.job_deadline.count()));
}

void CoordinatorCore::record(JobState& state,
                             const CampaignJobOutcome& outcome) {
  state.outcome = outcome;
  state.failed = outcome.status != JobStatus::kDone;
  sched::complete(state.lease);
  // A terminal job never assembles again, and a persistent daemon keeps
  // its state for good: release the shard payloads now.
  for (auto& shard : state.shards) {
    std::vector<maxpower::ShardSample>().swap(shard.samples);
  }
  maxpower::append_ledger_line(report_path_,
                               maxpower::campaign_record_line(outcome));
  completions_.push_back(state.outcome);
}

void CoordinatorCore::fail_exhausted(JobState& state, std::size_t attempts,
                                     ErrorCode error) {
  CampaignJobOutcome outcome;
  outcome.name = config_.jobs[state.index].name;
  outcome.status = JobStatus::kFailed;
  outcome.attempts = attempts;
  outcome.error = error;
  record(state, outcome);
}

std::string CoordinatorCore::grant_shard(JobState& state, std::size_t k,
                                         const std::string& worker,
                                         Clock::time_point now) {
  ShardState& shard = state.shards[k];
  sched::grant(shard.lease, shard_policy_, worker, now);
  ++leases_granted_;
  return encode_shard_lease(
      config_.jobs[state.index].name,
      maxpower::campaign_job_to_json(config_.jobs[state.index]),
      static_cast<std::uint64_t>(k), shard.lo, shard.hi,
      static_cast<std::uint64_t>(config_.lease.count()),
      static_cast<std::uint64_t>(config_.job_deadline.count()));
}

void CoordinatorCore::try_assemble(JobState& state) {
  if (state.phase() == JobPhase::kDone || state.phase() == JobPhase::kFailed) {
    return;
  }
  std::vector<maxpower::ShardSample> prefix;
  for (const auto& shard : state.shards) {
    if (shard.lease.phase != sched::LeasePhase::kDone) break;
    prefix.insert(prefix.end(), shard.samples.begin(), shard.samples.end());
    // A short shard 0 ends at the job's stopping point: nothing after it
    // belongs to the prefix.
    if (shard.samples.size() < shard.hi - shard.lo) break;
  }
  if (prefix.empty()) return;
  const maxpower::CampaignJob& job = config_.jobs[state.index];
  const maxpower::AssembledJob assembled =
      maxpower::assemble_job(job, prefix);
  if (!assembled.terminal) return;  // probe only: more shards needed
  record(state, maxpower::assembled_outcome(job, assembled.result));
}

void CoordinatorCore::tick(Clock::time_point now) {
  for (auto& state : jobs_) {
    if (state.lease.phase == sched::LeasePhase::kLeased) {
      // Whole-job claim in flight: expire it through the substrate. A job
      // that burned its whole lease budget (workers keep dying under it, or
      // it stalls past every lease) is recorded failed so the campaign can
      // terminate.
      if (sched::expire(state.lease, whole_policy_, now, jitter_rng_) ==
          sched::ExpiryVerdict::kExhausted) {
        fail_exhausted(state, state.lease.assignments, ErrorCode::kDeadline);
      }
      continue;
    }
    if (state.phase() != JobPhase::kPending) continue;
    for (auto& shard : state.shards) {
      if (shard.lease.phase != sched::LeasePhase::kLeased) continue;
      if (sched::expire(shard.lease, shard_policy_, now, jitter_rng_) ==
          sched::ExpiryVerdict::kExhausted) {
        fail_exhausted(state, shard.lease.assignments, ErrorCode::kDeadline);
        break;  // job terminal; its other shards are moot
      }
    }
  }
}

std::string CoordinatorCore::handle(const Message& msg, Clock::time_point now) {
  tick(now);
  switch (msg.kind) {
    case MessageKind::kHello:
      if (msg.proto != kProtocolVersion) {
        return encode_error("protocol version mismatch");
      }
      return encode_ack();

    case MessageKind::kRequest: {
      if (draining_) return encode_drain();
      Clock::time_point soonest = Clock::time_point::max();
      for (auto& state : jobs_) {
        if (state.phase() != JobPhase::kPending) continue;
        if (!sharded_mode()) {
          if (sched::grantable(state.lease, now)) {
            return grant(state, msg.worker, now);  // manifest order
          }
          soonest = std::min(soonest, state.lease.earliest_grant);
          continue;
        }
        for (std::size_t k = 0; k < state.shards.size(); ++k) {
          ShardState& shard = state.shards[k];
          if (shard.lease.phase != sched::LeasePhase::kPending) continue;
          if (sched::grantable(shard.lease, now)) {
            return grant_shard(state, k, msg.worker, now);
          }
          soonest = std::min(soonest, shard.lease.earliest_grant);
        }
      }
      // Nothing fresh to hand out: hunt for a straggler. The oldest
      // in-flight shard that has been leased longer than straggler_after
      // gets a second, speculative holder; the first valid result wins and
      // the ledger dedups the loser.
      JobState* spec_state = nullptr;
      std::size_t spec_k = 0;
      Clock::time_point oldest = Clock::time_point::max();
      for (auto& state : jobs_) {
        if (state.phase() != JobPhase::kPending) continue;
        for (std::size_t k = 0; k < state.shards.size(); ++k) {
          ShardState& shard = state.shards[k];
          if (!sched::straggler_eligible(shard.lease, shard_policy_,
                                         msg.worker, now)) {
            continue;
          }
          if (shard.lease.leased_since < oldest) {
            oldest = shard.lease.leased_since;
            spec_state = &state;
            spec_k = k;
          }
        }
      }
      if (spec_state != nullptr) {
        return grant_shard(*spec_state, spec_k, msg.worker, now);
      }
      // A persistent (estimation-as-a-service) coordinator never declares
      // the campaign over on its own: the job set is dynamic, so an empty
      // pool means "come back soon", not "go home".
      if (!config_.persistent && finished()) return encode_drain();
      // Nothing grantable *yet*: pending jobs are backoff-gated or leased
      // elsewhere. Tell the worker when to come back.
      std::chrono::milliseconds wait{250};
      if (soonest != Clock::time_point::max()) {
        wait = std::chrono::duration_cast<std::chrono::milliseconds>(soonest -
                                                                     now);
      }
      wait = std::clamp(wait, std::chrono::milliseconds{50},
                        std::chrono::milliseconds{1000});
      return encode_wait(static_cast<std::uint64_t>(wait.count()));
    }

    case MessageKind::kHeartbeat: {
      JobState* state = find(msg.job);
      // A claim must have this coordinator's lease structure. A whole-job
      // holder from before a restart with sharding switched on is cut
      // loose, and its work is recomputed as shards.
      if (state == nullptr || msg.has_shard != sharded_mode()) {
        return encode_revoke(msg.job);
      }
      if (sharded_mode() && (state->phase() == JobPhase::kDone ||
                             state->phase() == JobPhase::kFailed ||
                             msg.shard >= state->shards.size())) {
        return encode_revoke(msg.job);
      }
      sched::Lease& lease =
          sharded_mode() ? state->shards[msg.shard].lease : state->lease;
      const sched::LeasePolicy& policy =
          sharded_mode() ? shard_policy_ : whole_policy_;
      // The substrate settles the rest: renewal for a live holder, adoption
      // for an in-flight claim this coordinator does not know (it
      // restarted, or the claim expired before a re-grant) — the work in
      // flight is exactly the work we want done — and revoke when the claim
      // is done or every holder slot is taken.
      switch (sched::heartbeat(lease, policy, msg.worker, now)) {
        case sched::HeartbeatVerdict::kAdopted:
          ++leases_granted_;
          [[fallthrough]];
        case sched::HeartbeatVerdict::kRenewed:
          return encode_ack();
        case sched::HeartbeatVerdict::kRejected:
          break;
      }
      return encode_revoke(msg.job);
    }

    case MessageKind::kShardResult: {
      JobState* state = find(msg.job);
      if (state == nullptr) return encode_error("shard result for unknown job");
      if (state->phase() == JobPhase::kDone ||
          state->phase() == JobPhase::kFailed) {
        // Job already terminal: a late or duplicate shard report. Ack
        // without appending — the ledger already tells the whole story.
        return encode_ack();
      }
      if (msg.shard >= state->shards.size()) {
        return encode_error("shard result out of range");
      }
      ShardState& shard = state->shards[msg.shard];
      if (shard.lo != msg.lo || shard.hi != msg.hi) {
        return encode_error("shard result range mismatch");
      }
      switch (msg.shard_status) {
        case JobStatus::kDone: {
          if (shard.lease.phase == sched::LeasePhase::kDone) {
            return encode_ack();  // first result won; dedup the loser
          }
          std::vector<maxpower::ShardSample> samples;
          try {
            samples = maxpower::decode_shard_samples(msg.samples);
          } catch (const Error&) {
            return encode_error("malformed shard samples");
          }
          if (!completes(*state, shard, samples)) {
            return encode_error("shard samples do not cover the range");
          }
          sched::complete(shard.lease);
          shard.samples = std::move(samples);
          observe_shard_latency(shard, now);
          ++shards_done_;
          maxpower::append_ledger_line(
              report_path_,
              maxpower::shard_record_line(msg.job, msg.shard, shard.lo,
                                          shard.hi, msg.worker,
                                          shard.samples));
          try_assemble(*state);
          return encode_ack();
        }
        case JobStatus::kFailed: {
          sched::drop_holder(shard.lease, msg.worker);
          if (shard.lease.phase == sched::LeasePhase::kLeased &&
              shard.lease.holders.empty()) {
            if (shard.lease.assignments >= shard_policy_.max_assignments) {
              fail_exhausted(*state, shard.lease.assignments,
                             msg.shard_error == ErrorCode::kOk
                                 ? ErrorCode::kDeadline
                                 : msg.shard_error);
            } else {
              sched::release(shard.lease, shard_policy_, now,
                             /*count_backoff=*/true, jitter_rng_);
            }
          }
          return encode_ack();
        }
        case JobStatus::kStopped: {
          // Graceful hand-back: the shard checkpoint keeps the progress.
          sched::drop_holder(shard.lease, msg.worker);
          if (shard.lease.phase == sched::LeasePhase::kLeased &&
              shard.lease.holders.empty()) {
            sched::release(shard.lease, shard_policy_, now,
                           /*count_backoff=*/false, jitter_rng_);
          }
          return encode_ack();
        }
        case JobStatus::kSkipped:
          return encode_ack();
      }
      return encode_ack();
    }

    case MessageKind::kResult: {
      // Only an assembled shard prefix yields the full EstimationResult, so
      // a sharded coordinator records no whole-job outcome.
      if (sharded_mode()) {
        return encode_error("whole-job result on a sharded coordinator");
      }
      JobState* state = find(msg.job);
      if (state == nullptr) return encode_error("result for unknown job");
      const CampaignJobOutcome& outcome = msg.outcome;
      switch (outcome.status) {
        case JobStatus::kDone:
          if (state->phase() == JobPhase::kDone) {
            // At-least-once delivery meets state dedup: re-sent (or stale-
            // holder) done reports are acked without a second ledger append.
            return encode_ack();
          }
          record(*state, outcome);
          return encode_ack();
        case JobStatus::kFailed:
          if (state->phase() == JobPhase::kDone ||
              state->phase() == JobPhase::kFailed) {
            return encode_ack();  // already terminal
          }
          if (state->phase() == JobPhase::kLeased &&
              !sched::holds(state->lease, msg.worker)) {
            // A stale holder's failure must not kill a job the current
            // holder may yet finish.
            return encode_ack();
          }
          record(*state, outcome);
          return encode_ack();
        case JobStatus::kStopped:
          // Graceful hand-back (worker drain / revoked lease): the job goes
          // straight back to the pool, checkpoint intact.
          if (state->phase() == JobPhase::kLeased &&
              sched::holds(state->lease, msg.worker)) {
            sched::release(state->lease, whole_policy_, now,
                           /*count_backoff=*/false, jitter_rng_);
          }
          return encode_ack();
        case JobStatus::kSkipped:
          return encode_ack();
      }
      return encode_ack();
    }

    case MessageKind::kLease:
    case MessageKind::kShardLease:
    case MessageKind::kWait:
    case MessageKind::kDrain:
    case MessageKind::kAck:
    case MessageKind::kRevoke:
    case MessageKind::kError:
      break;  // coordinator-to-worker kinds are invalid inbound
  }
  return encode_error("unexpected message kind");
}

bool CoordinatorCore::any_leased() const {
  return std::any_of(jobs_.begin(), jobs_.end(), [](const JobState& s) {
    if (s.phase() == JobPhase::kLeased) return true;
    if (s.phase() != JobPhase::kPending) return false;
    return std::any_of(s.shards.begin(), s.shards.end(),
                       [](const ShardState& shard) {
                         return shard.lease.phase ==
                                    sched::LeasePhase::kLeased &&
                                !shard.lease.holders.empty();
                       });
  });
}

std::size_t CoordinatorCore::samples_held() const {
  std::size_t held = 0;
  for (const auto& state : jobs_) {
    for (const auto& shard : state.shards) held += shard.samples.size();
  }
  return held;
}

bool CoordinatorCore::finished() const {
  return std::all_of(jobs_.begin(), jobs_.end(), [](const JobState& s) {
    return s.phase() == JobPhase::kDone || s.phase() == JobPhase::kFailed;
  });
}

maxpower::CampaignResult CoordinatorCore::summary() const {
  maxpower::CampaignResult result;
  result.quarantined = quarantined_;
  for (const auto& state : jobs_) {
    if (state.phase() == JobPhase::kDone && state.skipped) {
      ++result.skipped;
    } else if (state.phase() == JobPhase::kDone) {
      ++result.done;
    } else if (state.phase() == JobPhase::kFailed) {
      ++result.failed;
    }
    if (state.phase() == JobPhase::kDone ||
        state.phase() == JobPhase::kFailed) {
      result.jobs.push_back(state.outcome);
    }
  }
  return result;
}

JobPhase CoordinatorCore::phase(const std::string& job) const {
  const auto it = by_name_.find(job);
  if (it == by_name_.end()) {
    throw Error(ErrorCode::kBadData, "unknown job",
                ErrorContext{}.kv("job", job).str());
  }
  return jobs_[it->second].phase();
}

maxpower::CampaignResult serve_campaign(
    CoordinatorCore& core, const CoordinatorServerOptions& options) {
  UnixListener listener(options.socket_path);
  return serve_campaign(core, listener, options);
}

maxpower::CampaignResult serve_campaign(
    CoordinatorCore& core, Listener& listener,
    const CoordinatorServerOptions& options) {
  using Clock = CoordinatorCore::Clock;
  std::vector<std::unique_ptr<LineChannel>> conns;

  const auto drain_grace = options.drain_grace.count() > 0
                               ? options.drain_grace
                               : std::chrono::milliseconds{30000};
  Clock::time_point drain_deadline = Clock::time_point::max();
  bool busy = false;  // did the previous iteration process any line?

  for (;;) {
    const auto now = Clock::now();
    core.tick(now);
    if (options.control.should_stop() != util::StopCause::kNone &&
        !core.draining()) {
      core.begin_drain();
    }
    if (core.draining() && drain_deadline == Clock::time_point::max()) {
      drain_deadline = now + drain_grace;
    }
    if (core.finished()) break;
    if (core.draining() && (!core.any_leased() || now >= drain_deadline)) {
      break;
    }

    // Shard leases multiply message traffic per job; when the previous
    // iteration had work, poll the accept non-blocking so one slow accept
    // timeout cannot throttle the whole fleet's request rate.
    if (auto conn = listener.accept(busy ? std::chrono::milliseconds{0}
                                         : options.poll)) {
      conns.push_back(std::move(conn));
    }
    busy = false;

    for (auto& conn : conns) {
      // Drain every line this peer already delivered; a worker only has one
      // message in flight, but a batch can pile up while we were busy.
      for (;;) {
        std::string line;
        const auto status =
            conn->recv_line(line, std::chrono::milliseconds{0});
        if (status == LineChannel::RecvStatus::kClosed) {
          conn->close();  // peer gone; lease expiry covers its jobs
          break;
        }
        if (status == LineChannel::RecvStatus::kOverflow) {
          // A frame past the receive limit is a protocol violation, not a
          // transport fault: say so before hanging up.
          conn->send_line(encode_error("oversized frame"));
          conn->close();
          break;
        }
        if (status != LineChannel::RecvStatus::kLine) break;
        busy = true;
        std::string reply;
        try {
          reply = core.handle(decode_message(line), Clock::now());
        } catch (const Error& e) {
          reply = encode_error(e.what());
        }
        if (!conn->send_line(reply)) {
          conn->close();
          break;
        }
        if (!conn->line_buffered()) break;
      }
    }
    std::erase_if(conns, [](const auto& c) { return !c->valid(); });
  }

  maxpower::CampaignResult result = core.summary();
  if (core.draining() && !core.finished()) {
    result.stopped = options.control.should_stop() != util::StopCause::kNone
                         ? options.control.should_stop()
                         : util::StopCause::kCancelled;
  }
  // Linger briefly so connected workers learn the campaign is over from a
  // drain reply instead of burning their whole redial budget against a
  // vanished socket. Heartbeats get revoke (stop wasted work on stale
  // leases); everything else gets drain. Exit as soon as every worker has
  // hung up, or after a hard cap.
  const auto linger_deadline = Clock::now() + std::chrono::milliseconds{2000};
  while (!conns.empty() && Clock::now() < linger_deadline) {
    if (auto conn = listener.accept(std::chrono::milliseconds{10})) {
      conns.push_back(std::move(conn));
    }
    for (auto& conn : conns) {
      for (;;) {
        std::string line;
        const auto status =
            conn->recv_line(line, std::chrono::milliseconds{0});
        if (status == LineChannel::RecvStatus::kClosed ||
            status == LineChannel::RecvStatus::kOverflow) {
          conn->close();
          break;
        }
        if (status != LineChannel::RecvStatus::kLine) break;
        bool heartbeat = false;
        std::string job;
        try {
          const Message msg = decode_message(line);
          heartbeat = msg.kind == MessageKind::kHeartbeat;
          job = msg.job;
        } catch (const Error&) {
        }
        if (!conn->send_line(heartbeat ? encode_revoke(job)
                                       : encode_drain())) {
          conn->close();
          break;
        }
      }
    }
    std::erase_if(conns, [](const auto& c) { return !c->valid(); });
  }
  return result;
}

}  // namespace mpe::dist
