#pragma once

#include <cstddef>
#include <vector>

#include "orchestrator/campaign.hpp"

namespace ao::service {

/// A campaign's job groups partitioned across shards. Every group index
/// appears in exactly one shard; empty shards are possible when there are
/// fewer groups than shards.
struct ShardPlan {
  std::vector<std::vector<std::size_t>> shard_groups;  ///< per shard, sorted
  std::vector<double> shard_costs;                     ///< estimated work

  std::size_t shard_count() const { return shard_groups.size(); }
};

/// Relative cost estimate of one job group (the unit the planner balances).
/// GEMM-family groups scale with n^3, STREAM with bytes moved, the studies
/// with their functional host work — coarse, but enough to keep two shards
/// of a mixed campaign within the same order of magnitude of work.
double estimated_group_cost(const orchestrator::Campaign::JobGroup& group);

/// Partitions `groups` into `shard_count` shards by longest-processing-time
/// greedy assignment over bundles: the groups whose numeric result a
/// scheduler computes once and shares between chips — every chip of one
/// GEMM (impl, n), every chip of one precision / FP64-emulation / SME study
/// at (n, seed) — form one bundle, placed whole, and charged the shared
/// computation once. Bundles are sorted by descending cost, each placed on
/// the least-loaded shard. Deterministic — ties break on group index and
/// shard index — so a plan computed by the service addresses the same
/// groups a worker process expands from the same request.
ShardPlan plan_shards(const std::vector<orchestrator::Campaign::JobGroup>& groups,
                      std::size_t shard_count);

}  // namespace ao::service
