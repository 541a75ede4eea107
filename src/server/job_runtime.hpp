// Per-job plumbing of the server's executors: running one granted job and
// rendering its run report. Both executors go through maxpower's one job
// runtime (build_job_stack / run_job, the campaign runner's own), with the
// netlist and compiled tape coming from the shared circuit cache — that is
// what makes server results byte-identical to batch runs, whichever
// executor (local thread pool or shard fleet) produced them.
#pragma once

#include <string>

#include "maxpower/campaign.hpp"
#include "maxpower/estimator.hpp"
#include "server/circuit_cache.hpp"
#include "server/server_core.hpp"
#include "util/trace.hpp"

namespace mpe::server {

struct ExecJobResult {
  maxpower::CampaignJobOutcome outcome;
  std::string report;
};

/// Runs one granted job to a terminal outcome (never throws): one attempt,
/// under the ticket's cancel token and deadline, traced into `tracer`.
ExecJobResult execute_job(const ServerCore::Started& started,
                          util::Tracer* tracer, CircuitCache& cache,
                          const std::string& state_dir);

/// Renders the JSONL run report for an already-computed result (the fleet
/// path: the numbers came from Engine::replay over shard samples, the
/// population description from the job's stack on its cache entry).
/// Returns "" when rendering fails — a broken report never fails the job.
std::string render_job_report(const maxpower::CampaignJob& job,
                              const maxpower::EstimationResult& result,
                              CircuitCache& cache);

}  // namespace mpe::server
