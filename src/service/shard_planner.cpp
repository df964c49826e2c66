#include "service/shard_planner.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <tuple>

#include "stream/cpu_stream.hpp"
#include "stream/gpu_stream.hpp"
#include "util/error.hpp"

namespace ao::service {
namespace {

using orchestrator::ExperimentJob;
using orchestrator::JobKind;

/// `computes` is false for a chip whose numeric result another chip of the
/// same bundle computes (see bundle_of): it is charged its per-chip model
/// work, n^2, instead of the n^3 product.
double estimated_job_cost(const ExperimentJob& job, bool computes) {
  const auto n = static_cast<double>(job.n);
  if (!computes && (job.kind == JobKind::kGemmMeasure ||
                    job.kind == JobKind::kPrecisionStudy ||
                    job.kind == JobKind::kFp64Emulation ||
                    job.kind == JobKind::kSmeGemm)) {
    return n * n;
  }
  switch (job.kind) {
    case JobKind::kGemmMeasure:
      return n * n * n;
    case JobKind::kGemmVerify:
      return n * n;
    case JobKind::kStream: {
      const auto elements =
          job.stream_elements != 0
              ? static_cast<double>(job.stream_elements)
              : static_cast<double>(stream::CpuStream::kDefaultElements);
      return elements * job.stream_repetitions;
    }
    case JobKind::kGpuStream: {
      const auto elements =
          job.stream_elements != 0
              ? static_cast<double>(job.stream_elements)
              : static_cast<double>(stream::GpuStream::kDefaultElements);
      return elements * job.stream_repetitions;
    }
    case JobKind::kPowerIdle:
      return 1.0;
    case JobKind::kPrecisionStudy:
      return 4.0 * n * n * n;  // four formats, each a functional GEMM
    case JobKind::kAneInference: {
      const double m = job.ane_m != 0 ? static_cast<double>(job.ane_m) : n;
      const double k = job.ane_k != 0 ? static_cast<double>(job.ane_k) : n;
      return job.ane_functional ? m * n * k : 1.0;
    }
    case JobKind::kFp64Emulation:
      // Reference GEMM + emulated GEMM + FP32 error sweep, all host-side.
      return 3.0 * n * n * n;
    case JobKind::kSmeGemm:
      return 2.0 * n * n * n;  // SME run + AMX reference
  }
  throw util::InvalidArgument("unknown JobKind");
}

double group_cost(const orchestrator::Campaign::JobGroup& group,
                  bool computes) {
  double cost = 0.0;
  for (const ExperimentJob& job : group.jobs) {
    cost += estimated_job_cost(job, computes);
  }
  return cost;
}

/// The groups whose numeric result one scheduler computes once and shares
/// between chips (a functional GEMM per (impl, n); the precision,
/// FP64-emulation and SME accuracy passes per (n, seed)) form one bundle,
/// keyed here; every other group is a bundle of its own (nullopt).
using BundleKey = std::tuple<JobKind, soc::GemmImpl, std::size_t, std::uint64_t>;
std::optional<BundleKey> bundle_of(const ExperimentJob& root) {
  switch (root.kind) {
    case JobKind::kGemmMeasure:
      return BundleKey{root.kind, root.impl, root.n, 0};
    case JobKind::kPrecisionStudy:
    case JobKind::kFp64Emulation:
    case JobKind::kSmeGemm:
      return BundleKey{root.kind, soc::GemmImpl{}, root.n, root.study_seed};
    default:
      return std::nullopt;
  }
}

}  // namespace

double estimated_group_cost(const orchestrator::Campaign::JobGroup& group) {
  return group_cost(group, /*computes=*/true);
}

ShardPlan plan_shards(
    const std::vector<orchestrator::Campaign::JobGroup>& groups,
    std::size_t shard_count) {
  AO_REQUIRE(shard_count >= 1, "need at least one shard");
  ShardPlan plan;
  plan.shard_groups.resize(shard_count);
  plan.shard_costs.assign(shard_count, 0.0);

  // Bundle the groups that share a numeric result, so all of them land on
  // one shard and its scheduler computes the result once; the bundle is
  // charged that computation once.
  std::vector<std::vector<std::size_t>> bundles;
  std::vector<double> costs;
  std::map<BundleKey, std::size_t> bundle_index;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const auto key = bundle_of(groups[i].jobs.front());
    std::size_t bundle = bundles.size();
    bool first = true;
    if (key.has_value()) {
      const auto [it, inserted] = bundle_index.try_emplace(*key, bundle);
      bundle = it->second;
      first = inserted;
    }
    if (first) {
      bundles.emplace_back();
      costs.push_back(0.0);
    }
    bundles[bundle].push_back(i);
    costs[bundle] += group_cost(groups[i], /*computes=*/first);
  }

  // LPT greedy: heaviest bundle first onto the least-loaded shard. Sorting
  // is stable on (cost desc, first group index asc) so the plan is a pure
  // function of the group list.
  std::vector<std::size_t> order(bundles.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (costs[a] != costs[b]) {
      return costs[a] > costs[b];
    }
    return a < b;
  });
  for (const std::size_t index : order) {
    const auto lightest = static_cast<std::size_t>(std::distance(
        plan.shard_costs.begin(),
        std::min_element(plan.shard_costs.begin(), plan.shard_costs.end())));
    auto& shard = plan.shard_groups[lightest];
    shard.insert(shard.end(), bundles[index].begin(), bundles[index].end());
    plan.shard_costs[lightest] += costs[index];
  }
  for (auto& shard : plan.shard_groups) {
    std::sort(shard.begin(), shard.end());
  }
  return plan;
}

}  // namespace ao::service
