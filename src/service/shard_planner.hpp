#pragma once

#include <cstddef>
#include <vector>

#include "harness/experiment.hpp"
#include "orchestrator/job.hpp"

namespace ao::service {

/// A campaign's jobs partitioned across shards. Every job index appears in
/// exactly one shard; empty shards are possible when there are fewer jobs
/// than shards. (The wire and the ao_worker flags call a shard's job-index
/// list its `groups`.)
struct ShardPlan {
  std::vector<std::vector<std::size_t>> shard_groups;  ///< per shard, sorted
  std::vector<double> shard_costs;                     ///< estimated work

  std::size_t shard_count() const { return shard_groups.size(); }
};

/// Relative cost estimate of one job (the unit the planner balances) under
/// `options`. GEMM jobs scale with n^3 (plus n^2 when their output is
/// verified), STREAM with bytes moved, the studies with their functional
/// host work — coarse, but enough to keep two shards of a mixed campaign
/// within the same order of magnitude of work.
double estimated_job_cost(const orchestrator::ExperimentJob& job,
                          const harness::GemmExperiment::Options& options);

/// Partitions `jobs` into `shard_count` shards by longest-processing-time
/// greedy assignment over bundles: the jobs whose numeric result a scheduler
/// computes once and shares between chips — every chip of one GEMM
/// (impl, n), every chip of one precision / FP64-emulation / SME study at
/// (n, seed), every chip of one functional ANE product at (m, n, k, seed) —
/// form one bundle, placed whole, and charged the shared computation once. Bundles are sorted by descending cost, each placed on
/// the least-loaded shard. Deterministic — ties break on job index and
/// shard index — so a plan computed by the service addresses the same jobs
/// a worker process expands from the same request.
ShardPlan plan_shards(const std::vector<orchestrator::ExperimentJob>& jobs,
                      const harness::GemmExperiment::Options& options,
                      std::size_t shard_count);

}  // namespace ao::service
