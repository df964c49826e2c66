#include <gtest/gtest.h>
#include <sys/resource.h>

#include "core/system.hpp"
#include "stream/cpu_stream.hpp"
#include "stream/gpu_stream.hpp"

namespace ao::stream {
namespace {

constexpr std::size_t kSmallArray = 1u << 16;  // keep functional tests fast

// ------------------------------------------------------------ CPU STREAM ---

TEST(CpuStream, ValidationPassesFunctionally) {
  soc::Soc soc(soc::ChipModel::kM1);
  CpuStream bench(soc, kSmallArray);
  // stream.c's check: worst relative error across all arrays ~ 0.
  EXPECT_LT(bench.validate(3), 1e-12);
  // Thread counts that do not divide the array still cover every element
  // exactly once.
  ASSERT_NE(kSmallArray % 3, 0u);
  ASSERT_NE(kSmallArray % 7, 0u);
  EXPECT_LT(bench.validate(3, 3), 1e-12);
  EXPECT_LT(bench.validate(3, 7), 1e-12);
}

TEST(CpuStream, ModelMatchesCalibrationAtFullThreads) {
  for (const auto chip : soc::kAllChipModels) {
    soc::Soc soc(chip);
    CpuStream bench(soc, kSmallArray);
    const auto result =
        bench.run(soc.spec().total_cpu_cores(), /*repetitions=*/3);
    const auto& anchors = soc::calibration(chip).stream.cpu_gbs;
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(result.kernels[k].best_gbs, anchors[k], anchors[k] * 0.01)
          << soc::to_string(chip) << " "
          << soc::to_string(soc::kAllStreamKernels[k]);
    }
  }
}

TEST(CpuStream, ThreadSweepIsMonotoneAndPeaksAtFullCores) {
  soc::Soc soc(soc::ChipModel::kM3);
  CpuStream bench(soc, kSmallArray);
  const auto sweep = bench.sweep(/*repetitions=*/2);
  ASSERT_EQ(sweep.per_thread_count.size(),
            static_cast<std::size_t>(soc.spec().total_cpu_cores()));
  double prev = 0.0;
  for (const auto& run : sweep.per_thread_count) {
    const double best = run.best_overall_gbs();
    EXPECT_GE(best, prev);
    prev = best;
  }
  EXPECT_EQ(sweep.best_thread_count, soc.spec().total_cpu_cores());
  EXPECT_NEAR(sweep.best_overall_gbs(),
              soc::calibration(soc::ChipModel::kM3).stream.cpu_peak_gbs(),
              0.5);
}

TEST(CpuStream, M2AnomalyReproduced) {
  // Figure 1 / Section 5.1: M2 CPU Copy and Scale trail Add/Triad by
  // 20-30 GB/s; no other chip shows such a gap.
  for (const auto chip : soc::kAllChipModels) {
    soc::Soc soc(chip);
    CpuStream bench(soc, kSmallArray);
    const auto result = bench.run(soc.spec().total_cpu_cores(), 2);
    const double copy = result.of(soc::StreamKernel::kCopy).best_gbs;
    const double triad = result.of(soc::StreamKernel::kTriad).best_gbs;
    const double gap = triad - copy;
    if (chip == soc::ChipModel::kM2) {
      EXPECT_GE(gap, 20.0);
      EXPECT_LE(gap, 30.0);
    } else {
      EXPECT_LT(gap, 10.0) << soc::to_string(chip);
    }
  }
}

TEST(CpuStream, ChargesCpuActivity) {
  soc::Soc soc(soc::ChipModel::kM1);
  CpuStream bench(soc, kSmallArray);
  bench.run(4, 1);
  ASSERT_FALSE(soc.activity().empty());
  for (const auto& rec : soc.activity().records()) {
    EXPECT_EQ(rec.unit, soc::ComputeUnit::kCpuPCluster);
    EXPECT_GT(rec.watts, 0.0);
  }
}

TEST(CpuStream, RejectsBadArguments) {
  soc::Soc soc(soc::ChipModel::kM1);
  CpuStream bench(soc, kSmallArray);
  EXPECT_THROW(bench.run(0, 1), util::InvalidArgument);
  EXPECT_THROW(bench.run(1, 0), util::InvalidArgument);
  EXPECT_THROW(CpuStream(soc, 8), util::InvalidArgument);  // trivially small
}

// ------------------------------------------------------------ GPU STREAM ---

TEST(GpuStream, ValidationPassesFunctionally) {
  core::System system(soc::ChipModel::kM2);
  GpuStream bench(system.device(), kSmallArray);
  EXPECT_EQ(bench.validate(), 0.0f);  // exact FP32 arithmetic on small values
}

TEST(GpuStream, ModelMatchesCalibration) {
  for (const auto chip : soc::kAllChipModels) {
    core::System system(chip);
    GpuStream bench(system.device());  // default 64 MiB arrays
    const auto result = bench.run(/*repetitions=*/3);
    const auto& anchors = soc::calibration(chip).stream.gpu_gbs;
    for (std::size_t k = 0; k < 4; ++k) {
      // Launch overhead shaves a little off the asymptotic anchor.
      EXPECT_NEAR(result.kernels[k].best_gbs, anchors[k], anchors[k] * 0.05)
          << soc::to_string(chip);
      EXPECT_LT(result.kernels[k].best_gbs, anchors[k]);
    }
  }
}

TEST(GpuStream, UsesSharedZeroCopyBuffers) {
  core::System system(soc::ChipModel::kM1);
  const auto allocated_before = system.memory().allocated_bytes();
  GpuStream bench(system.device(), kSmallArray);
  // Three arrays of 2^16 floats, page-rounded.
  EXPECT_GE(system.memory().allocated_bytes() - allocated_before,
            3u * kSmallArray * sizeof(float));
}

TEST(GpuStream, ChargesGpuActivity) {
  core::System system(soc::ChipModel::kM4);
  GpuStream bench(system.device(), kSmallArray);
  bench.run(1);
  ASSERT_FALSE(system.soc().activity().empty());
  for (const auto& rec : system.soc().activity().records()) {
    EXPECT_EQ(rec.unit, soc::ComputeUnit::kGpu);
  }
}

long thread_minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return usage.ru_minflt;
}

TEST(GpuStream, ModelOnlyRunLeavesTheArraysUntouched) {
  core::System system(soc::ChipModel::kM3);
  const long before = thread_minor_faults();
  GpuStream(system.device()).run(2);
  const long faults = thread_minor_faults() - before;
  // Three default arrays of 128 MiB, in 4 KiB host pages.
  const long pages =
      static_cast<long>(3 * GpuStream::kDefaultElements * sizeof(float) / 4096);
  EXPECT_LT(faults, pages / 16) << "of " << pages << " pages";
}

// -------------------------------------------------- Figure-1 level facts ---

TEST(StreamFigure1, PeaksMatchPaperNumbers) {
  // CPU 59/78/92/103, GPU 60/91/92/100 (within 1%, model vs anchors).
  const std::array<double, 4> cpu_expected = {59, 78, 92, 103};
  const std::array<double, 4> gpu_expected = {60, 91, 92, 100};
  for (std::size_t i = 0; i < soc::kAllChipModels.size(); ++i) {
    const auto chip = soc::kAllChipModels[i];
    core::System system(chip);
    CpuStream cpu(system.soc(), kSmallArray);
    const auto cpu_sweep = cpu.sweep(2);
    EXPECT_NEAR(cpu_sweep.best_overall_gbs(), cpu_expected[i],
                cpu_expected[i] * 0.01)
        << soc::to_string(chip);
    GpuStream gpu(system.device());
    const auto gpu_run = gpu.run(3);
    EXPECT_NEAR(gpu_run.best_overall_gbs(), gpu_expected[i],
                gpu_expected[i] * 0.05)
        << soc::to_string(chip);
  }
}

TEST(StreamFigure1, EightyFivePercentOfTheoretical) {
  // "All chips get to ~85% of theoretical peak bandwidth" (CPU best).
  for (const auto chip : soc::kAllChipModels) {
    soc::Soc soc(chip);
    CpuStream bench(soc, kSmallArray);
    const auto sweep = bench.sweep(2);
    const double frac =
        sweep.best_overall_gbs() / soc.spec().memory_bandwidth_gbs;
    EXPECT_GE(frac, 0.77) << soc::to_string(chip);
    EXPECT_LE(frac, 1.0) << soc::to_string(chip);
  }
}

}  // namespace
}  // namespace ao::stream
