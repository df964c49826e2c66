#pragma once

#include <cstdint>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/matrix_workload.hpp"
#include "orchestrator/job.hpp"
#include "orchestrator/result_cache.hpp"
#include "orchestrator/scheduler.hpp"

namespace ao::orchestrator {

/// Aggregated campaign output plus helpers for the reporting layer.
struct CampaignResult {
  std::vector<harness::GemmMeasurement> gemm;  ///< sorted (chip, n, impl)
  std::vector<StreamRecord> stream;            ///< CPU and GPU points
  std::vector<PrecisionRecord> precision;
  std::vector<AneRecord> ane;
  std::vector<PowerRecord> power;
  std::vector<Fp64EmuRecord> fp64emu;
  std::vector<SmeRecord> sme;
  CampaignStats stats;

  /// Re-orders the GEMM measurements into the serial suite's historical row
  /// order: chips in the order they first appear in `gemm`'s canonical
  /// sort, sizes outer, implementations inner. Points the paper skips are
  /// simply absent.
  std::vector<harness::GemmMeasurement> ordered(
      const std::vector<std::size_t>& sizes,
      const std::vector<soc::GemmImpl>& impls) const;
};

/// Builder-style front end of the orchestrator: describes a benchmark
/// campaign as (chips x implementations x sizes) plus any mix of STREAM,
/// precision, ANE and power work, expands it into a JobQueue of independent
/// jobs (one per point; the paper's skip rules are honored), and runs it on
/// a CampaignScheduler.
///
///   orchestrator::ResultCache cache;
///   cache.load("results.aocache");       // warm from a previous process
///   cache.persist_to("results.aocache"); // write-through new points
///   orchestrator::Campaign campaign;
///   campaign.chips({soc::ChipModel::kM1, soc::ChipModel::kM2})
///       .sizes(harness::figure2_sizes())
///       .stream_sweep({1, 4, 8})
///       .gpu_stream()
///       .precision_study({256})
///       .ane_inference({512})
///       .cache(&cache)
///       .concurrency(8);
///   auto result = campaign.run();   // result.gemm/stream/precision/ane
///
/// Unset dimensions default to the paper's full grid: all four chips, all
/// six Table-2 implementations, all ten sizes.
class Campaign {
 public:
  Campaign& chips(std::vector<soc::ChipModel> chips);
  Campaign& impls(std::vector<soc::GemmImpl> impls);
  Campaign& sizes(std::vector<std::size_t> sizes);
  Campaign& options(harness::GemmExperiment::Options options);
  /// Worker count for the scheduler; 0 = hardware concurrency, 1 = serial.
  Campaign& concurrency(std::size_t workers);
  /// Attaches a (caller-owned) cache; overlapping and repeated campaigns
  /// service already-measured points from it.
  Campaign& cache(ResultCache* cache);
  /// Adds one CPU STREAM job per (chip, thread count). `elements` 0 keeps
  /// the paper's array sizing.
  Campaign& stream_sweep(std::vector<int> thread_counts, int repetitions = 10,
                         std::size_t elements = 0);
  /// Adds one GPU STREAM job per chip (the paper's 20-repetition MSL run).
  Campaign& gpu_stream(int repetitions = 20, std::size_t elements = 0);
  /// Adds one mixed-precision GEMM study job per (chip, size).
  Campaign& precision_study(std::vector<std::size_t> sizes,
                            std::uint64_t seed = 99);
  /// Adds one Core ML FP16 GEMM dispatch job per (chip, size), square
  /// n x n x n. Functional jobs really multiply (and record the output
  /// spot-check); keep sizes modest.
  Campaign& ane_inference(std::vector<std::size_t> sizes,
                          bool functional = true);
  /// Adds one double-single FP64-emulation GEMM study job per (chip, size);
  /// functional on the simulated GPU, so keep sizes modest.
  Campaign& fp64_emulation(std::vector<std::size_t> sizes,
                           std::uint64_t seed = 41);
  /// Adds one SME-vs-AMX GEMM job per (chip, size).
  Campaign& sme_gemm(std::vector<std::size_t> sizes, std::uint64_t seed = 77);
  /// Adds one idle-floor power job per chip.
  Campaign& power_idle(double window_seconds = 1.0);
  /// Attaches a (caller-owned) timeline profiler: run() records a `campaign`
  /// root span, a `schedule` span around expansion, and per-job `execute`
  /// spans through the scheduler. nullptr (the default) disables.
  Campaign& profiler(obs::TimelineProfiler* profiler);

  /// The sweep as an ordered job list, one job per record. The order (and so
  /// each job's index) is deterministic for a given campaign description —
  /// shard plans built by one process address the same jobs in another.
  std::vector<ExperimentJob> jobs() const;

  /// Expands the sweep into `queue`. Exposed for tests and custom
  /// schedulers; run() does this internally.
  void expand(JobQueue& queue) const;

  /// Expands only the named jobs (indices into jobs()) — the shard-subset
  /// form the campaign service's workers run.
  void expand_subset(JobQueue& queue,
                     const std::vector<std::size_t>& job_indices) const;

  /// Expands and executes the campaign.
  CampaignResult run();

 private:
  std::vector<soc::ChipModel> chips_{soc::kAllChipModels.begin(),
                                     soc::kAllChipModels.end()};
  std::vector<soc::GemmImpl> impls_{soc::kAllGemmImpls.begin(),
                                    soc::kAllGemmImpls.end()};
  std::vector<std::size_t> sizes_ = harness::paper_sizes();
  harness::GemmExperiment::Options options_;
  std::size_t concurrency_ = 0;
  ResultCache* cache_ = nullptr;
  obs::TimelineProfiler* profiler_ = nullptr;
  std::vector<int> stream_thread_counts_;
  int stream_repetitions_ = 10;
  std::size_t stream_elements_ = 0;
  bool gpu_stream_ = false;
  int gpu_stream_repetitions_ = 20;
  std::size_t gpu_stream_elements_ = 0;
  std::vector<std::size_t> precision_sizes_;
  std::uint64_t precision_seed_ = 99;
  std::vector<std::size_t> ane_sizes_;
  bool ane_functional_ = true;
  std::vector<std::size_t> fp64emu_sizes_;
  std::uint64_t fp64emu_seed_ = 41;
  std::vector<std::size_t> sme_sizes_;
  std::uint64_t sme_seed_ = 77;
  bool power_idle_ = false;
  double power_window_seconds_ = 1.0;
};

/// Pushes every job into `queue` — expand() for a job list that is already
/// materialized. The PlanCache's consumers rebuild queues from compiled
/// expansions through these instead of re-running jobs().
void push_jobs(JobQueue& queue, const std::vector<ExperimentJob>& jobs);

/// Pushes only the named jobs (indices into `jobs`) — expand_subset() for a
/// materialized job list. Throws util::InvalidArgument on an out-of-range
/// index.
void push_job_subset(JobQueue& queue, const std::vector<ExperimentJob>& jobs,
                     const std::vector<std::size_t>& job_indices);

}  // namespace ao::orchestrator
