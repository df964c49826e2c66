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
/// work, n^2 (an ANE dispatch: 1), instead of the n^3 product. A verified
/// GEMM job is charged n^2 more, for its verdict (computed, or copied from
/// the claimant).
double job_cost(const ExperimentJob& job,
                const harness::GemmExperiment::Options& options,
                bool computes) {
  const auto n = static_cast<double>(job.n);
  if (!computes && (job.kind == JobKind::kPrecisionStudy ||
                    job.kind == JobKind::kFp64Emulation ||
                    job.kind == JobKind::kSmeGemm)) {
    return n * n;
  }
  if (!computes && job.kind == JobKind::kAneInference) {
    return 1.0;
  }
  switch (job.kind) {
    case JobKind::kGemmMeasure: {
      const double verify =
          harness::verified_at(options, job.impl, job.n) ? n * n : 0.0;
      return (computes ? n * n * n : n * n) + verify;
    }
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
    case JobKind::kAneInference:
      return job.ane_functional ? static_cast<double>(job.ane_rows()) * n *
                                      static_cast<double>(job.ane_depth())
                                : 1.0;
    case JobKind::kFp64Emulation:
      // Reference GEMM + emulated GEMM + FP32 error sweep, all host-side.
      return 3.0 * n * n * n;
    case JobKind::kSmeGemm:
      return 2.0 * n * n * n;  // SME run + AMX reference
  }
  throw util::InvalidArgument("unknown JobKind");
}

/// The jobs whose numeric result one scheduler computes once and shares
/// between chips (a functional GEMM per (impl, n); the precision,
/// FP64-emulation and SME accuracy passes per (n, seed); a functional ANE
/// product per (m, n, k, seed)) form one bundle, keyed here as (kind, impl,
/// m, n, k, seed); every other job is a bundle of its own (nullopt).
using BundleKey = std::tuple<JobKind, soc::GemmImpl, std::size_t, std::size_t,
                             std::size_t, std::uint64_t>;
std::optional<BundleKey> bundle_of(const ExperimentJob& job) {
  switch (job.kind) {
    case JobKind::kGemmMeasure:
      return BundleKey{job.kind, job.impl, 0, job.n, 0, 0};
    case JobKind::kPrecisionStudy:
    case JobKind::kFp64Emulation:
    case JobKind::kSmeGemm:
      return BundleKey{job.kind, soc::GemmImpl{}, 0, job.n, 0, job.study_seed};
    case JobKind::kAneInference:
      if (!job.ane_functional) {
        return std::nullopt;
      }
      return BundleKey{job.kind, soc::GemmImpl{}, job.ane_rows(), job.n,
                       job.ane_depth(), job.study_seed};
    default:
      return std::nullopt;
  }
}

}  // namespace

double estimated_job_cost(const ExperimentJob& job,
                          const harness::GemmExperiment::Options& options) {
  return job_cost(job, options, /*computes=*/true);
}

ShardPlan plan_shards(const std::vector<ExperimentJob>& jobs,
                      const harness::GemmExperiment::Options& options,
                      std::size_t shard_count) {
  AO_REQUIRE(shard_count >= 1, "need at least one shard");
  ShardPlan plan;
  plan.shard_groups.resize(shard_count);
  plan.shard_costs.assign(shard_count, 0.0);

  // Bundle the jobs that share a numeric result, so all of them land on one
  // shard and its scheduler computes the result once; the bundle is charged
  // that computation once.
  std::vector<std::vector<std::size_t>> bundles;
  std::vector<double> costs;
  std::map<BundleKey, std::size_t> bundle_index;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto key = bundle_of(jobs[i]);
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
    costs[bundle] += job_cost(jobs[i], options, /*computes=*/first);
  }

  // LPT greedy: heaviest bundle first onto the least-loaded shard. Sorting
  // is stable on (cost desc, first job index asc) so the plan is a pure
  // function of the job list.
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
