// Campaign coordinator: partitions a campaign manifest into job leases and
// serves them to workers over the dist protocol, surviving the death of any
// participant — including itself.
//
// Fault model and the exactly-once argument (docs/ROBUSTNESS.md,
// "Distributed campaigns"):
//   * A lease is a time-bounded claim on one job. Workers renew it by
//     heartbeating; a worker that dies (kill -9, network gone) simply stops
//     renewing, the lease expires, and the job returns to the pending pool
//     after a jittered backoff (util/retry's policy — same taxonomy as
//     job-level retries). Reassignment is bounded: a job that burns
//     max_assignments leases is recorded failed, so a worker-killing job
//     cannot grind the fleet forever.
//   * All durable state is the append-only sealed ledger (maxpower/ledger)
//     plus the per-job checkpoints workers write through the engine. The
//     coordinator itself is stateless across restarts: a restarted
//     coordinator re-reads the ledger, treats recorded-done jobs as
//     skipped, and *adopts* leases from workers that heartbeat for a job it
//     does not think is leased — so in-flight work survives a coordinator
//     kill -9 without re-execution.
//   * "done" results are accepted from stale lease holders too (the engine
//     is deterministic, so a late result is byte-identical to the one the
//     current holder would produce), deduplicated against job state, and
//     appended to the ledger exactly once. Workers re-send results until
//     acked; at-least-once delivery + state dedup = exactly-once ledger.
//   * Under shard_size > 0 the same machinery runs at shard granularity
//     (docs/ROBUSTNESS.md, "Sharded jobs"): each job is split into
//     contiguous wave-index ranges [lo, hi) leased independently. A
//     coordinator's lease structure is fixed for its lifetime — every job
//     is leased whole, or every job only as shards — so one wave index is
//     never claimed under two structures. Heartbeat renewal, expiry,
//     bounded re-dispatch, straggler speculation (second holder, first
//     valid result wins), and restart adoption all key on job:shard.
//     Done-shard payloads are appended to the ledger inline so a restarted
//     coordinator rebuilds in-flight jobs from the ledger alone, and the
//     contiguous done prefix is folded through Engine::replay into a final
//     record byte-identical to a single-process run — the only way a
//     sharded job turns done (a whole-job result frame is refused).
//
// The lease mechanics themselves — grant/heartbeat/expiry/backoff-gated
// reassignment/adoption/straggler eligibility — live in the shared
// scheduling substrate (sched/lease.hpp); a whole-job claim is a lease with
// max_holders 1, a shard claim one with max_holders 2. CoordinatorCore is
// the campaign policy on top: what to encode, when a job is terminal, what
// the ledger records. It stays a pure state machine over injected time —
// every transition takes an explicit `now` — so lease expiry, backoff
// gating, and drain are unit-testable without sockets or sleeps.
// serve_campaign() wraps it in the poll loop that owns real connections and
// the wall clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "maxpower/campaign.hpp"
#include "maxpower/shard.hpp"
#include "sched/lease.hpp"
#include "util/deadline.hpp"
#include "util/metrics.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"

namespace mpe::dist {

struct CoordinatorConfig {
  std::vector<maxpower::CampaignJob> jobs;  ///< manifest order
  /// Coordinator-local durable state: the ledger defaults to
  /// <state_dir>/campaign.jsonl. Workers resolve job/shard checkpoints
  /// under their own WorkerConfig::state_dir — the directories need not be
  /// shared, which is what makes cross-host fleets work (a worker on
  /// another machine resumes from its local checkpoints, and a worker with
  /// a fresh directory simply recomputes — determinism makes the result
  /// byte-identical either way; see docs/ROBUSTNESS.md).
  std::string state_dir;
  std::string report_path;
  /// Lease duration; workers must heartbeat well within it. Also the upper
  /// bound on how stale a dead worker's claim can get.
  std::chrono::milliseconds lease{5000};
  /// Per-job wall-clock budget shipped inside each lease (0 = none).
  std::chrono::milliseconds job_deadline{0};
  /// A job's total lease grants (first assignment included) before the
  /// coordinator gives up and records it failed.
  std::size_t max_assignments = 5;
  /// Backoff between reassignments of one job (expiry storms should not
  /// thrash); initial_backoff/multiplier/max_backoff/jitter are used.
  util::RetryPolicy reassign;
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
  /// Intra-job wave sharding: when > 0, each job is split into contiguous
  /// wave-index ranges of this many attempts and leased only shard by shard
  /// (maxpower/shard); whole-job heartbeats are revoked and whole-job
  /// results refused. 0 = whole-job leases only.
  std::size_t shard_size = 0;
  /// A leased shard older than this with idle capacity elsewhere is a
  /// straggler: it is speculatively re-issued to a second worker and the
  /// first valid result wins (0 = twice the lease duration).
  std::chrono::milliseconds straggler_after{0};
  /// Adaptive shard sizing (`--shard-size auto`): partition each job at the
  /// size that aims one shard at shard_target_latency, from an EWMA of
  /// observed per-attempt shard latency, clamped to
  /// [shard_size_floor, shard_size_ceiling]. Implies sharded mode even when
  /// shard_size is 0; before the first observation the partition uses
  /// shard_size (or the floor when shard_size is 0) — small first shards
  /// make the estimate converge quickly. Jobs keep the partition they were
  /// created with; only later-created jobs see the updated size.
  bool shard_auto = false;
  std::size_t shard_size_floor = 16;
  std::size_t shard_size_ceiling = 4096;
  std::chrono::milliseconds shard_target_latency{2000};
  double shard_latency_alpha = 0.2;  ///< EWMA smoothing factor in (0, 1]
  /// Estimation-as-a-service mode: the job set is dynamic (add_job), so a
  /// worker request finding nothing pending is answered `wait`, never
  /// `drain` (begin_drain() still wins once called).
  bool persistent = false;
  /// Optional metric sink: shard latency observations and the adaptive
  /// shard-size level (mpe_coord_* series). Null = no metrics.
  util::MetricRegistry* metrics = nullptr;
};

/// Where one job stands inside the coordinator.
enum class JobPhase : std::uint8_t { kPending, kLeased, kDone, kFailed };

/// The deterministic heart of the coordinator. Not thread-safe; one owner.
class CoordinatorCore {
 public:
  using Clock = sched::Clock;

  /// Reads the ledger (quarantining corrupt records), marks recorded-done
  /// jobs, and creates the state directory. Throws on unusable config.
  explicit CoordinatorCore(CoordinatorConfig config);

  /// Handles one decoded worker message at time `now`; returns the encoded
  /// reply line. Appends ledger records for terminal transitions.
  std::string handle(const Message& msg, Clock::time_point now);

  /// Dynamically registers one more job (estimation-as-a-service mode;
  /// usually combined with `persistent`). The job is partitioned with the
  /// shard size in effect right now and becomes grantable immediately.
  /// Throws Error(kBadData) on an invalid or duplicate name.
  void add_job(maxpower::CampaignJob job);

  /// Marks a non-terminal job stopped/cancelled — the submitter is gone or
  /// cancelled it. The outcome is recorded (ledger + completions) and every
  /// later heartbeat for the job is answered revoke, so workers abandon its
  /// shards. Returns false when the job is unknown or already terminal.
  bool abandon(const std::string& job);

  /// Drains the outcomes that turned terminal since the last call, in
  /// record order. The estimation server's fleet executor maps these back
  /// to submit tickets; the campaign CLI never calls it (summary() already
  /// aggregates).
  std::vector<maxpower::CampaignJobOutcome> take_completions();

  /// The shard size a job created right now would be partitioned with
  /// (fixed shard_size, or the EWMA-driven adaptive size under shard_auto).
  std::size_t shard_size_now() const;

  /// Expires overdue leases; records jobs that exhausted their assignment
  /// budget as failed. Call once per loop iteration.
  void tick(Clock::time_point now);

  /// Stops granting leases (SIGTERM drain). In-flight leases keep being
  /// served so running jobs can finish and report.
  void begin_drain() { draining_ = true; }
  bool draining() const { return draining_; }

  bool any_leased() const;
  /// True when every job is terminal (done or failed, including
  /// ledger-skipped ones).
  bool finished() const;

  /// Jobs granted since construction (monotonic; includes re-grants).
  std::size_t leases_granted() const { return leases_granted_; }

  /// Invocation summary in run_campaign's shape: skipped = done per the
  /// pre-existing ledger, done/failed = transitions this run.
  maxpower::CampaignResult summary() const;

  JobPhase phase(const std::string& job) const;  ///< test/observability hook

  /// Shards completed across all jobs (monotonic; test/observability hook).
  std::size_t shards_done() const { return shards_done_; }

  /// Shard samples held for assembly across all jobs (test/observability
  /// hook): a job's samples are released when it turns terminal.
  std::size_t samples_held() const;

 private:
  /// One wave-index range of a sharded job: the shard payload around its
  /// sched::Lease (max_holders 2: primary + one straggler re-issue).
  struct ShardState {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    sched::Lease lease;
    /// Filled when done; released when the job turns terminal.
    std::vector<maxpower::ShardSample> samples;
  };

  struct JobState {
    std::size_t index = 0;  ///< into config_.jobs
    bool skipped = false;   ///< done per the ledger before this run
    /// Terminal flavor once `lease` is done: failed vs done.
    bool failed = false;
    /// The whole-job claim (max_holders 1). For a sharded job it stays
    /// pending while shards carry the claims; record() completes it either
    /// way, so lease.phase == kDone means the job is terminal.
    sched::Lease lease;
    maxpower::CampaignJobOutcome outcome;
    std::vector<ShardState> shards;  ///< sharded_mode() only

    JobPhase phase() const {
      if (lease.phase == sched::LeasePhase::kDone) {
        return failed ? JobPhase::kFailed : JobPhase::kDone;
      }
      return lease.phase == sched::LeasePhase::kLeased ? JobPhase::kLeased
                                                       : JobPhase::kPending;
    }
  };

  /// Sharding is on when a fixed size is set or the adaptive sizer runs.
  /// It cannot change during a core's lifetime: it fixes every job's lease
  /// structure (whole-job or shards) when the job is created.
  bool sharded_mode() const {
    return config_.shard_size > 0 || config_.shard_auto;
  }
  /// Partitions a fresh JobState (ctor and add_job share it).
  void init_shards(JobState& state, const maxpower::CampaignJob& job);
  /// True when `samples` complete `shard`: its whole contiguous range, or —
  /// for the shard from index 0 only — a contiguous slice [0, stop] that
  /// assembles terminal alone (shard 0 stopped where the job stops).
  /// Throws what assemble_job throws.
  bool completes(const JobState& state, const ShardState& shard,
                 const std::vector<maxpower::ShardSample>& samples) const;
  /// Folds one finished shard's latency, per sample it returned, into the
  /// adaptive-size EWMA and the metric series.
  void observe_shard_latency(const ShardState& shard, Clock::time_point now);

  JobState* find(const std::string& job);
  std::string grant(JobState& state, const std::string& worker,
                    Clock::time_point now);
  void record(JobState& state, const maxpower::CampaignJobOutcome& outcome);
  void fail_exhausted(JobState& state, std::size_t attempts, ErrorCode error);

  std::string grant_shard(JobState& state, std::size_t k,
                          const std::string& worker, Clock::time_point now);
  /// Folds the contiguous done-shard prefix through the engine; records the
  /// job terminal (done or failed) when the prefix reaches its stopping
  /// point.
  void try_assemble(JobState& state);

  CoordinatorConfig config_;
  /// Lease policies over the shared substrate: whole jobs are exclusive
  /// claims, shards allow one speculative straggler re-issue.
  sched::LeasePolicy whole_policy_;
  sched::LeasePolicy shard_policy_;
  std::string report_path_;
  std::vector<JobState> jobs_;
  std::map<std::string, std::size_t> by_name_;
  Rng jitter_rng_;
  bool draining_ = false;
  std::size_t quarantined_ = 0;
  std::size_t leases_granted_ = 0;
  std::size_t shards_done_ = 0;
  /// EWMA of per-attempt shard wall latency in ms (0 = no observation yet).
  double ewma_ms_per_attempt_ = 0.0;
  /// Level last pushed to the mpe_coord_shard_size gauge (delta tracking).
  std::int64_t shard_size_metric_ = 0;
  /// Outcomes recorded since the last take_completions().
  std::vector<maxpower::CampaignJobOutcome> completions_;
};

/// Socket-server options for serve_campaign.
struct CoordinatorServerOptions {
  std::string socket_path;   ///< Unix-domain socket to listen on
  util::RunControl control;  ///< cancellation → graceful drain
  /// Outer poll granularity: accept/expiry latency, not correctness.
  std::chrono::milliseconds poll{20};
  /// Hard cap on how long a drain waits for in-flight leases before the
  /// coordinator exits anyway (0 = wait a full lease duration).
  std::chrono::milliseconds drain_grace{0};
};

/// Runs the coordinator loop until the campaign finishes or a drain
/// completes. Returns the invocation summary (CampaignResult::stopped set
/// when the run was cut short by drain).
maxpower::CampaignResult serve_campaign(CoordinatorCore& core,
                                        const CoordinatorServerOptions& options);

class Listener;  // dist/transport.hpp

/// Same loop over a caller-owned listener (Unix-domain or TCP), so one
/// coordinator serves a multi-host fleet. `options.socket_path` is ignored.
maxpower::CampaignResult serve_campaign(CoordinatorCore& core,
                                        Listener& listener,
                                        const CoordinatorServerOptions& options);

}  // namespace mpe::dist
