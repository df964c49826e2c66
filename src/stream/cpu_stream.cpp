#include "stream/cpu_stream.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace ao::stream {

CpuStream::CpuStream(soc::Soc& soc, std::size_t elements)
    : soc_(&soc), perf_(soc), elements_(elements) {
  AO_REQUIRE(elements >= 1024, "STREAM arrays must not be trivially small");
}

void CpuStream::ensure_arrays() {
  if (a_.size() == elements_) {
    return;
  }
  a_.assign(elements_, 1.0);
  b_.assign(elements_, 2.0);
  c_.assign(elements_, 0.0);
}

void CpuStream::kernel_pass(soc::StreamKernel kernel, int threads,
                            bool functional) {
  if (functional) {
    ensure_arrays();
    double* a = a_.data();
    double* b = b_.data();
    double* c = c_.data();
    // `threads` contiguous chunks on the shared pool — the static schedule
    // stream.c's OpenMP loops use.
    const std::size_t n = elements_;
    const auto chunks = static_cast<std::size_t>(threads);
    util::global_pool().parallel_for(chunks, [&](std::size_t t) {
      const std::size_t end = n * (t + 1) / chunks;
      for (std::size_t i = n * t / chunks; i < end; ++i) {
        switch (kernel) {
          case soc::StreamKernel::kCopy:
            c[i] = a[i];
            break;
          case soc::StreamKernel::kScale:
            b[i] = kScalar * c[i];
            break;
          case soc::StreamKernel::kAdd:
            c[i] = a[i] + b[i];
            break;
          case soc::StreamKernel::kTriad:
            a[i] = b[i] + kScalar * c[i];
            break;
        }
      }
    });
  }

  const std::uint64_t bytes =
      static_cast<std::uint64_t>(soc::stream_arrays_touched(kernel)) *
      elements_ * sizeof(double);
  const double time_ns =
      perf_.stream_time_ns(soc::MemoryAgent::kCpu, kernel, bytes, threads);
  const double watts = perf_.stream_power_watts(soc::MemoryAgent::kCpu);
  const double utilization =
      std::min(1.0, static_cast<double>(threads) /
                        soc_->spec().total_cpu_cores());
  soc_->execute(soc::ComputeUnit::kCpuPCluster, time_ns, watts, utilization);
}

RunResult CpuStream::run(int threads, int repetitions, bool functional) {
  AO_REQUIRE(threads >= 1, "thread count must be >= 1");
  AO_REQUIRE(repetitions >= 1, "need at least one repetition");
  RunResult result;
  result.threads = threads;

  for (std::size_t k = 0; k < soc::kAllStreamKernels.size(); ++k) {
    result.kernels[k].kernel = soc::kAllStreamKernels[k];
    result.kernels[k].bytes_per_pass =
        static_cast<std::uint64_t>(
            soc::stream_arrays_touched(soc::kAllStreamKernels[k])) *
        elements_ * sizeof(double);
    result.kernels[k].min_time_ns = 0.0;
  }

  std::array<double, 4> best_gbs{};
  std::array<double, 4> sum_gbs{};
  std::array<double, 4> min_time{};
  min_time.fill(0.0);

  for (int rep = 0; rep < repetitions; ++rep) {
    for (std::size_t k = 0; k < soc::kAllStreamKernels.size(); ++k) {
      const auto kernel = soc::kAllStreamKernels[k];
      const std::uint64_t t0 = soc_->clock().now();
      kernel_pass(kernel, threads, functional);
      const auto dt = static_cast<double>(soc_->clock().now() - t0);
      const double gbs =
          util::gb_per_s(static_cast<double>(result.kernels[k].bytes_per_pass), dt);
      best_gbs[k] = std::max(best_gbs[k], gbs);
      sum_gbs[k] += gbs;
      min_time[k] = min_time[k] == 0.0 ? dt : std::min(min_time[k], dt);
    }
  }

  for (std::size_t k = 0; k < 4; ++k) {
    result.kernels[k].best_gbs = best_gbs[k];
    result.kernels[k].avg_gbs = sum_gbs[k] / repetitions;
    result.kernels[k].min_time_ns = min_time[k];
  }
  return result;
}

SweepResult CpuStream::sweep(int repetitions, bool functional) {
  SweepResult sweep;
  const int cores = soc_->spec().total_cpu_cores();
  double best_overall = 0.0;
  for (int t = 1; t <= cores; ++t) {
    RunResult run_result = run(t, repetitions, functional);
    for (std::size_t k = 0; k < 4; ++k) {
      sweep.best_gbs_per_kernel[k] = std::max(sweep.best_gbs_per_kernel[k],
                                              run_result.kernels[k].best_gbs);
    }
    if (run_result.best_overall_gbs() > best_overall) {
      best_overall = run_result.best_overall_gbs();
      sweep.best_thread_count = t;
    }
    sweep.per_thread_count.push_back(std::move(run_result));
  }
  return sweep;
}

double CpuStream::validate(int passes, int threads) {
  AO_REQUIRE(passes >= 1, "need at least one validation pass");
  if (threads <= 0) {
    threads = soc_->spec().total_cpu_cores();
  }
  // Reset and run functional passes.
  ensure_arrays();
  std::fill(a_.begin(), a_.end(), 1.0);
  std::fill(b_.begin(), b_.end(), 2.0);
  std::fill(c_.begin(), c_.end(), 0.0);
  for (int p = 0; p < passes; ++p) {
    for (const auto kernel : soc::kAllStreamKernels) {
      kernel_pass(kernel, threads, /*functional=*/true);
    }
  }
  // Closed-form evolution of the scalars (stream.c's checkSTREAMresults).
  double ea = 1.0;
  double eb = 2.0;
  double ec = 0.0;
  for (int p = 0; p < passes; ++p) {
    ec = ea;
    eb = kScalar * ec;
    ec = ea + eb;
    ea = eb + kScalar * ec;
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < elements_; ++i) {
    worst = std::max(worst, std::fabs(a_[i] - ea) / ea);
    worst = std::max(worst, std::fabs(b_[i] - eb) / eb);
    worst = std::max(worst, std::fabs(c_[i] - ec) / ec);
  }
  return worst;
}

}  // namespace ao::stream
