#include "orchestrator/campaign.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "util/error.hpp"

namespace ao::orchestrator {

std::vector<harness::GemmMeasurement> CampaignResult::ordered(
    const std::vector<std::size_t>& sizes,
    const std::vector<soc::GemmImpl>& impls) const {
  // Preserve the chip grouping of the canonical sort, then emit the serial
  // suite's size-major / implementation-minor row order within each chip.
  std::vector<soc::ChipModel> chip_order;
  for (const auto& m : gemm) {
    if (std::find(chip_order.begin(), chip_order.end(), m.chip) ==
        chip_order.end()) {
      chip_order.push_back(m.chip);
    }
  }
  std::map<std::tuple<soc::ChipModel, std::size_t, soc::GemmImpl>,
           const harness::GemmMeasurement*>
      by_point;
  for (const auto& m : gemm) {
    by_point.emplace(std::tuple(m.chip, m.n, m.impl), &m);
  }
  std::vector<harness::GemmMeasurement> out;
  out.reserve(gemm.size());
  for (const auto chip : chip_order) {
    for (const std::size_t n : sizes) {
      for (const auto impl : impls) {
        const auto it = by_point.find(std::tuple(chip, n, impl));
        if (it != by_point.end()) {
          out.push_back(*it->second);
        }
      }
    }
  }
  return out;
}

Campaign& Campaign::chips(std::vector<soc::ChipModel> chips) {
  chips_ = std::move(chips);
  return *this;
}

Campaign& Campaign::impls(std::vector<soc::GemmImpl> impls) {
  impls_ = std::move(impls);
  return *this;
}

Campaign& Campaign::sizes(std::vector<std::size_t> sizes) {
  sizes_ = std::move(sizes);
  return *this;
}

Campaign& Campaign::options(harness::GemmExperiment::Options options) {
  options_ = std::move(options);
  return *this;
}

Campaign& Campaign::concurrency(std::size_t workers) {
  concurrency_ = workers;
  return *this;
}

Campaign& Campaign::cache(ResultCache* cache) {
  cache_ = cache;
  return *this;
}

Campaign& Campaign::stream_sweep(std::vector<int> thread_counts,
                                 int repetitions, std::size_t elements) {
  AO_REQUIRE(repetitions >= 1, "need at least one STREAM repetition");
  stream_thread_counts_ = std::move(thread_counts);
  stream_repetitions_ = repetitions;
  stream_elements_ = elements;
  return *this;
}

Campaign& Campaign::gpu_stream(int repetitions, std::size_t elements) {
  AO_REQUIRE(repetitions >= 1, "need at least one STREAM repetition");
  gpu_stream_ = true;
  gpu_stream_repetitions_ = repetitions;
  gpu_stream_elements_ = elements;
  return *this;
}

Campaign& Campaign::precision_study(std::vector<std::size_t> sizes,
                                    std::uint64_t seed) {
  precision_sizes_ = std::move(sizes);
  precision_seed_ = seed;
  return *this;
}

Campaign& Campaign::ane_inference(std::vector<std::size_t> sizes,
                                  bool functional) {
  ane_sizes_ = std::move(sizes);
  ane_functional_ = functional;
  return *this;
}

Campaign& Campaign::fp64_emulation(std::vector<std::size_t> sizes,
                                   std::uint64_t seed) {
  fp64emu_sizes_ = std::move(sizes);
  fp64emu_seed_ = seed;
  return *this;
}

Campaign& Campaign::sme_gemm(std::vector<std::size_t> sizes,
                             std::uint64_t seed) {
  sme_sizes_ = std::move(sizes);
  sme_seed_ = seed;
  return *this;
}

Campaign& Campaign::power_idle(double window_seconds) {
  AO_REQUIRE(window_seconds > 0.0, "power window must be positive");
  power_idle_ = true;
  power_window_seconds_ = window_seconds;
  return *this;
}

Campaign& Campaign::profiler(obs::TimelineProfiler* profiler) {
  profiler_ = profiler;
  return *this;
}

std::vector<ExperimentJob> Campaign::jobs() const {
  AO_REQUIRE(!chips_.empty(), "campaign needs at least one chip");
  std::vector<ExperimentJob> out;
  for (const auto chip : chips_) {
    for (const std::size_t n : sizes_) {
      for (const auto impl : impls_) {
        if (harness::paper_skips(impl, n)) {
          continue;  // the paper's skip rule is part of the sweep contract
        }
        ExperimentJob measure;
        measure.kind = JobKind::kGemmMeasure;
        // Large sizes first: the long-running points start while the small
        // ones backfill idle workers.
        measure.priority = static_cast<int>(n);
        measure.chip = chip;
        measure.impl = impl;
        measure.n = n;
        out.push_back(measure);
      }
    }
    for (const int threads : stream_thread_counts_) {
      ExperimentJob job;
      job.kind = JobKind::kStream;
      job.chip = chip;
      job.stream_threads = threads;
      job.stream_repetitions = stream_repetitions_;
      job.stream_elements = stream_elements_;
      out.push_back(job);
    }
    if (gpu_stream_) {
      ExperimentJob job;
      job.kind = JobKind::kGpuStream;
      job.chip = chip;
      job.stream_repetitions = gpu_stream_repetitions_;
      job.stream_elements = gpu_stream_elements_;
      out.push_back(job);
    }
    for (const std::size_t n : precision_sizes_) {
      ExperimentJob job;
      job.kind = JobKind::kPrecisionStudy;
      job.chip = chip;
      job.n = n;
      job.study_seed = precision_seed_;
      out.push_back(job);
    }
    for (const std::size_t n : ane_sizes_) {
      ExperimentJob job;
      job.kind = JobKind::kAneInference;
      job.chip = chip;
      job.n = n;
      job.ane_functional = ane_functional_;
      out.push_back(job);
    }
    for (const std::size_t n : fp64emu_sizes_) {
      ExperimentJob job;
      job.kind = JobKind::kFp64Emulation;
      job.chip = chip;
      job.n = n;
      job.study_seed = fp64emu_seed_;
      out.push_back(job);
    }
    for (const std::size_t n : sme_sizes_) {
      ExperimentJob job;
      job.kind = JobKind::kSmeGemm;
      job.chip = chip;
      job.n = n;
      job.study_seed = sme_seed_;
      out.push_back(job);
    }
    if (power_idle_) {
      ExperimentJob job;
      job.kind = JobKind::kPowerIdle;
      job.chip = chip;
      job.power_window_seconds = power_window_seconds_;
      out.push_back(job);
    }
  }
  return out;
}

void push_jobs(JobQueue& queue, const std::vector<ExperimentJob>& jobs) {
  for (const ExperimentJob& job : jobs) {
    queue.push(job);
  }
}

void push_job_subset(JobQueue& queue, const std::vector<ExperimentJob>& jobs,
                     const std::vector<std::size_t>& job_indices) {
  for (const std::size_t index : job_indices) {
    AO_REQUIRE(index < jobs.size(), "shard job index out of range");
    queue.push(jobs[index]);
  }
}

void Campaign::expand(JobQueue& queue) const { push_jobs(queue, jobs()); }

void Campaign::expand_subset(
    JobQueue& queue, const std::vector<std::size_t>& job_indices) const {
  push_job_subset(queue, jobs(), job_indices);
}

CampaignResult Campaign::run() {
  obs::TimelineProfiler::Scope root(profiler_, obs::Phase::kCampaign,
                                    /*parent=*/0, "campaign-run");
  JobQueue queue;
  {
    obs::TimelineProfiler::Scope schedule(profiler_, obs::Phase::kSchedule);
    expand(queue);
  }

  CampaignScheduler::Options scheduler_options;
  scheduler_options.concurrency = concurrency_;
  CampaignScheduler scheduler(options_, scheduler_options, cache_);
  scheduler.set_profile_sink(profiler_, root.id());
  if (cache_ != nullptr) {
    cache_->set_profiler(profiler_);
  }
  CampaignOutputs outputs = scheduler.run(queue);
  if (cache_ != nullptr) {
    cache_->set_profiler(nullptr);
  }

  CampaignResult result;
  result.gemm = std::move(outputs.gemm);
  result.stream = std::move(outputs.stream);
  result.precision = std::move(outputs.precision);
  result.ane = std::move(outputs.ane);
  result.power = std::move(outputs.power);
  result.fp64emu = std::move(outputs.fp64emu);
  result.sme = std::move(outputs.sme);
  result.stats = outputs.stats;
  return result;
}

}  // namespace ao::orchestrator
