#include <gtest/gtest.h>

#include "soc/activity_log.hpp"
#include "soc/benchmark_taxonomy.hpp"
#include "soc/calibration.hpp"
#include "soc/chip_spec.hpp"
#include "soc/device_info.hpp"
#include "soc/frequency_governor.hpp"
#include "soc/sim_clock.hpp"
#include "soc/soc.hpp"
#include "soc/thermal_model.hpp"
#include "util/error.hpp"

namespace ao::soc {
namespace {

// ---------------------------------------------------- chip specs (Table 1) -

TEST(ChipSpec, Table1M1) {
  const ChipSpec& m1 = chip_spec(ChipModel::kM1);
  EXPECT_EQ(m1.name, "M1");
  EXPECT_EQ(m1.process_technology, "5");
  EXPECT_EQ(m1.cpu_architecture, "ARMv8.5-A");
  EXPECT_EQ(m1.performance_cores, 4);
  EXPECT_EQ(m1.efficiency_cores, 4);
  EXPECT_DOUBLE_EQ(m1.p_clock_ghz, 3.2);
  EXPECT_DOUBLE_EQ(m1.e_clock_ghz, 2.06);
  EXPECT_EQ(m1.vector_unit, "NEON");
  EXPECT_EQ(m1.vector_width_bits, 128);
  EXPECT_EQ(m1.l2_mb_p_cluster, 12);
  EXPECT_EQ(m1.gpu_cores_max, 8);
  EXPECT_DOUBLE_EQ(m1.gpu_clock_ghz, 1.27);
  EXPECT_EQ(m1.memory_technology, "LPDDR4X");
  EXPECT_DOUBLE_EQ(m1.memory_bandwidth_gbs, 67.0);
  EXPECT_FALSE(m1.amx_is_sme);
}

TEST(ChipSpec, Table1M2) {
  const ChipSpec& m2 = chip_spec(ChipModel::kM2);
  EXPECT_EQ(m2.cpu_architecture, "ARMv8.6-A");
  EXPECT_DOUBLE_EQ(m2.p_clock_ghz, 3.5);
  EXPECT_EQ(m2.l2_mb_p_cluster, 16);
  EXPECT_EQ(m2.memory_technology, "LPDDR5");
  EXPECT_DOUBLE_EQ(m2.memory_bandwidth_gbs, 100.0);
  EXPECT_NE(m2.amx_precisions.find("BF16"), std::string::npos);
}

TEST(ChipSpec, Table1M3) {
  const ChipSpec& m3 = chip_spec(ChipModel::kM3);
  EXPECT_EQ(m3.process_technology, "3");
  EXPECT_DOUBLE_EQ(m3.p_clock_ghz, 4.05);
  EXPECT_DOUBLE_EQ(m3.gpu_clock_ghz, 1.38);
  EXPECT_DOUBLE_EQ(m3.memory_bandwidth_gbs, 100.0);
}

TEST(ChipSpec, Table1M4) {
  const ChipSpec& m4 = chip_spec(ChipModel::kM4);
  EXPECT_EQ(m4.cpu_architecture, "ARMv9.2-A");
  EXPECT_EQ(m4.performance_cores, 4);
  EXPECT_EQ(m4.efficiency_cores, 6);  // M4 has 4P + 6E
  EXPECT_DOUBLE_EQ(m4.p_clock_ghz, 4.4);
  EXPECT_TRUE(m4.amx_is_sme);  // standardized ARM SME on M4
  EXPECT_EQ(m4.memory_technology, "LPDDR5X");
  EXPECT_DOUBLE_EQ(m4.memory_bandwidth_gbs, 120.0);
  EXPECT_DOUBLE_EQ(m4.theoretical_fp32_tflops_max, 4.26);
}

TEST(ChipSpec, GenerationalBandwidthProgression) {
  // 67 -> 100 -> 100 -> 120 GB/s across the series.
  EXPECT_LT(chip_spec(ChipModel::kM1).memory_bandwidth_gbs,
            chip_spec(ChipModel::kM2).memory_bandwidth_gbs);
  EXPECT_EQ(chip_spec(ChipModel::kM2).memory_bandwidth_gbs,
            chip_spec(ChipModel::kM3).memory_bandwidth_gbs);
  EXPECT_LT(chip_spec(ChipModel::kM3).memory_bandwidth_gbs,
            chip_spec(ChipModel::kM4).memory_bandwidth_gbs);
}

TEST(ChipSpec, NeuralEngineAlways16Cores) {
  for (const auto model : kAllChipModels) {
    EXPECT_EQ(chip_spec(model).neural_engine_cores, 16);
  }
}

TEST(ChipSpec, NameRoundTrip) {
  for (const auto model : kAllChipModels) {
    EXPECT_EQ(chip_model_from_string(to_string(model)), model);
  }
  EXPECT_EQ(chip_model_from_string("m3"), ChipModel::kM3);
  EXPECT_THROW(chip_model_from_string("M5"), util::InvalidArgument);
}

TEST(ChipSpec, PageSizeMatchesApple) {
  EXPECT_EQ(ChipSpec::kPageSize, 16384u);
}

// ------------------------------------------------------ devices (Table 3) --

TEST(DeviceInfo, Table3Devices) {
  EXPECT_EQ(device_info(ChipModel::kM1).device, "MacBook Air");
  EXPECT_EQ(device_info(ChipModel::kM2).device, "Mac mini");
  EXPECT_EQ(device_info(ChipModel::kM3).device, "MacBook Air");
  EXPECT_EQ(device_info(ChipModel::kM4).device, "Mac mini");
}

TEST(DeviceInfo, CoolingSplit) {
  EXPECT_TRUE(device_info(ChipModel::kM1).is_laptop());
  EXPECT_FALSE(device_info(ChipModel::kM2).is_laptop());
  EXPECT_TRUE(device_info(ChipModel::kM3).is_laptop());
  EXPECT_FALSE(device_info(ChipModel::kM4).is_laptop());
}

TEST(DeviceInfo, MemoryConfigurations) {
  EXPECT_EQ(device_info(ChipModel::kM1).memory_gb, 8);
  EXPECT_EQ(device_info(ChipModel::kM2).memory_gb, 8);
  EXPECT_EQ(device_info(ChipModel::kM3).memory_gb, 16);
  EXPECT_EQ(device_info(ChipModel::kM4).memory_gb, 16);
}

TEST(DeviceInfo, ReleaseYears) {
  EXPECT_EQ(device_info(ChipModel::kM1).release_year, 2020);
  EXPECT_EQ(device_info(ChipModel::kM4).release_year, 2024);
}

// ----------------------------------------------------------- taxonomy ------

TEST(Taxonomy, StreamByteAccounting) {
  EXPECT_EQ(stream_arrays_touched(StreamKernel::kCopy), 2);
  EXPECT_EQ(stream_arrays_touched(StreamKernel::kScale), 2);
  EXPECT_EQ(stream_arrays_touched(StreamKernel::kAdd), 3);
  EXPECT_EQ(stream_arrays_touched(StreamKernel::kTriad), 3);
}

TEST(Taxonomy, StreamFlopAccounting) {
  EXPECT_EQ(stream_flops_per_element(StreamKernel::kCopy), 0);
  EXPECT_EQ(stream_flops_per_element(StreamKernel::kScale), 1);
  EXPECT_EQ(stream_flops_per_element(StreamKernel::kAdd), 1);
  EXPECT_EQ(stream_flops_per_element(StreamKernel::kTriad), 2);
}

TEST(Taxonomy, GemmFlopFormula) {
  // n^2 (2n - 1), the paper's count.
  EXPECT_DOUBLE_EQ(gemm_flops(1), 1.0);
  EXPECT_DOUBLE_EQ(gemm_flops(2), 4.0 * 3.0);
  EXPECT_DOUBLE_EQ(gemm_flops(1024), 1024.0 * 1024.0 * 2047.0);
}

TEST(Taxonomy, ImplementationTable2Columns) {
  EXPECT_EQ(gemm_framework(GemmImpl::kCpuSingle), "C++");
  EXPECT_EQ(gemm_framework(GemmImpl::kCpuAccelerate), "Accelerate");
  EXPECT_EQ(gemm_framework(GemmImpl::kGpuMps), "Metal");
  EXPECT_EQ(gemm_hardware(GemmImpl::kCpuOmp), "CPU");
  EXPECT_EQ(gemm_hardware(GemmImpl::kGpuCutlass), "GPU");
  EXPECT_TRUE(is_gpu_impl(GemmImpl::kGpuNaive));
  EXPECT_FALSE(is_gpu_impl(GemmImpl::kCpuAccelerate));
}

// --------------------------------------------------------- calibration -----

TEST(Calibration, StreamPeaksMatchPaperFigure1) {
  // "M1 to M4 (respectively) see up to 59, 78, 92, and 103 GB/s for CPU;
  //  60, 91, 92, and 100 GB/s for GPU."
  EXPECT_DOUBLE_EQ(calibration(ChipModel::kM1).stream.cpu_peak_gbs(), 59.0);
  EXPECT_DOUBLE_EQ(calibration(ChipModel::kM2).stream.cpu_peak_gbs(), 78.0);
  EXPECT_DOUBLE_EQ(calibration(ChipModel::kM3).stream.cpu_peak_gbs(), 92.0);
  EXPECT_DOUBLE_EQ(calibration(ChipModel::kM4).stream.cpu_peak_gbs(), 103.0);
  EXPECT_DOUBLE_EQ(calibration(ChipModel::kM1).stream.gpu_peak_gbs(), 60.0);
  EXPECT_DOUBLE_EQ(calibration(ChipModel::kM2).stream.gpu_peak_gbs(), 91.0);
  EXPECT_DOUBLE_EQ(calibration(ChipModel::kM3).stream.gpu_peak_gbs(), 92.0);
  EXPECT_DOUBLE_EQ(calibration(ChipModel::kM4).stream.gpu_peak_gbs(), 100.0);
}

TEST(Calibration, M2CpuCopyScaleAnomaly) {
  // "The M2 CPU deviates with a 20-30 GB/s gap comparing the Copy and Scale
  //  to other kernels."
  const auto& s = calibration(ChipModel::kM2).stream;
  const double copy = s.cpu_gbs[static_cast<int>(StreamKernel::kCopy)];
  const double triad = s.cpu_gbs[static_cast<int>(StreamKernel::kTriad)];
  EXPECT_GE(triad - copy, 20.0);
  EXPECT_LE(triad - copy, 30.0);
}

TEST(Calibration, GemmPeaksMatchPaperSection52) {
  // Accelerate: 0.90 / 1.09 / 1.38 / 1.49 TFLOPS.
  EXPECT_DOUBLE_EQ(
      gemm_calibration(ChipModel::kM1, GemmImpl::kCpuAccelerate).peak_gflops,
      900.0);
  EXPECT_DOUBLE_EQ(
      gemm_calibration(ChipModel::kM4, GemmImpl::kCpuAccelerate).peak_gflops,
      1490.0);
  // MPS: 1.36 / 2.24 / 2.47 / 2.90 TFLOPS.
  EXPECT_DOUBLE_EQ(gemm_calibration(ChipModel::kM1, GemmImpl::kGpuMps).peak_gflops,
                   1360.0);
  EXPECT_DOUBLE_EQ(gemm_calibration(ChipModel::kM4, GemmImpl::kGpuMps).peak_gflops,
                   2900.0);
  // Naive shader beats the Cutlass-style shader in the paper's own numbers.
  for (const auto chip : kAllChipModels) {
    EXPECT_GT(gemm_calibration(chip, GemmImpl::kGpuNaive).peak_gflops,
              gemm_calibration(chip, GemmImpl::kGpuCutlass).peak_gflops);
  }
}

TEST(Calibration, PowerAnchorsYieldPaperEfficiencies) {
  // MPS: 0.21 / 0.40 / 0.46 / 0.33 TFLOPS/W (Section 5.3).
  const std::array<double, 4> expected = {210.0, 400.0, 460.0, 330.0};
  for (std::size_t i = 0; i < kAllChipModels.size(); ++i) {
    const auto& g = gemm_calibration(kAllChipModels[i], GemmImpl::kGpuMps);
    EXPECT_NEAR(g.peak_gflops / g.power_watts, expected[i],
                expected[i] * 0.05);
  }
}

TEST(Calibration, AllPowersWithinPaperRange) {
  // "Power consumption varies from a few Watts to 10-20 Watts."
  for (const auto chip : kAllChipModels) {
    for (const auto impl : kAllGemmImpls) {
      const auto& g = gemm_calibration(chip, impl);
      EXPECT_GT(g.power_watts, 1.0);
      EXPECT_LE(g.power_watts, 20.5);
    }
  }
}

// ----------------------------------------------------------- sim clock -----

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.advance(1000.4);
  EXPECT_EQ(clock.now(), 1000u);
  clock.advance_ns(500);
  EXPECT_EQ(clock.now(), 1500u);
  clock.reset();
  EXPECT_EQ(clock.now(), 0u);
}

TEST(SimClock, RejectsNegative) {
  SimClock clock;
  EXPECT_THROW(clock.advance(-1.0), util::InvalidArgument);
}

// --------------------------------------------------------- activity log ----

TEST(ActivityLog, EnergyInWindowProratesOverlap) {
  ActivityLog log;
  // 10 W for 1 simulated second.
  log.record({0, 1'000'000'000, ComputeUnit::kGpu, 10.0, 1.0});
  EXPECT_NEAR(log.energy_in_window(ComputeUnit::kGpu, 0, 1'000'000'000), 10.0,
              1e-9);
  // Half the interval -> half the energy.
  EXPECT_NEAR(log.energy_in_window(ComputeUnit::kGpu, 0, 500'000'000), 5.0,
              1e-9);
  // Disjoint window -> nothing.
  EXPECT_EQ(log.energy_in_window(ComputeUnit::kGpu, 2'000'000'000,
                                 3'000'000'000),
            0.0);
  // Other unit -> nothing.
  EXPECT_EQ(log.energy_in_window(ComputeUnit::kAmx, 0, 1'000'000'000), 0.0);
}

TEST(ActivityLog, TotalsAcrossUnits) {
  ActivityLog log;
  log.record({0, 1'000'000'000, ComputeUnit::kGpu, 5.0, 0.5});
  log.record({0, 1'000'000'000, ComputeUnit::kAmx, 3.0, 0.5});
  EXPECT_NEAR(log.total_energy_in_window(0, 1'000'000'000), 8.0, 1e-9);
}

TEST(ActivityLog, BusySeconds) {
  ActivityLog log;
  log.record({100, 1100, ComputeUnit::kCpuPCluster, 1.0, 1.0});
  EXPECT_NEAR(
      log.busy_seconds_in_window(ComputeUnit::kCpuPCluster, 0, 10'000),
      1e-6, 1e-12);
}

TEST(ActivityLog, RejectsInvertedInterval) {
  ActivityLog log;
  EXPECT_THROW(log.record({100, 50, ComputeUnit::kGpu, 1.0, 1.0}),
               util::InvalidArgument);
}

// -------------------------------------------------------- thermal model ----

TEST(ThermalModel, StartsAtAmbientNoThrottle) {
  ThermalModel t(CoolingSolution::kPassive);
  EXPECT_DOUBLE_EQ(t.temperature_celsius(), t.ambient_celsius());
  EXPECT_DOUBLE_EQ(t.throttle_factor(), 1.0);
}

TEST(ThermalModel, HeatsUnderLoadCoolsAtIdle) {
  ThermalModel t(CoolingSolution::kPassive);
  t.integrate(15.0, 60.0);
  const double hot = t.temperature_celsius();
  EXPECT_GT(hot, t.ambient_celsius());
  t.cool(600.0);
  EXPECT_LT(t.temperature_celsius(), hot);
  EXPECT_NEAR(t.temperature_celsius(), t.ambient_celsius(), 1.0);
}

TEST(ThermalModel, PassiveThrottlesBeforeActive) {
  ThermalModel laptop(CoolingSolution::kPassive);
  ThermalModel desktop(CoolingSolution::kActiveAir);
  // Sustained 20 W load for 10 minutes.
  laptop.integrate(20.0, 600.0);
  desktop.integrate(20.0, 600.0);
  EXPECT_GT(laptop.temperature_celsius(), desktop.temperature_celsius());
  EXPECT_LT(laptop.throttle_factor(), 1.0);
  EXPECT_GT(laptop.throttle_factor(), 0.8);
  EXPECT_DOUBLE_EQ(desktop.throttle_factor(), 1.0);
}

TEST(ThermalModel, ThrottleBoundedByFloor) {
  ThermalModel t(CoolingSolution::kPassive);
  t.integrate(100.0, 10'000.0);  // absurd sustained load
  EXPECT_GE(t.throttle_factor(), 0.8);
}

TEST(ThermalModel, ResetRestoresAmbient) {
  ThermalModel t(CoolingSolution::kActiveAir);
  t.integrate(30.0, 300.0);
  t.reset();
  EXPECT_DOUBLE_EQ(t.temperature_celsius(), t.ambient_celsius());
}

// ----------------------------------------------------------- governor ------

TEST(FrequencyGovernor, SingleCoreBoostsAllCoreDerates) {
  const ChipSpec& m1 = chip_spec(ChipModel::kM1);
  FrequencyGovernor gov(m1);
  const double single =
      gov.effective_clock_ghz(ComputeUnit::kCpuPCluster, 1, 1.0);
  const double all = gov.effective_clock_ghz(ComputeUnit::kCpuPCluster, 4, 1.0);
  EXPECT_DOUBLE_EQ(single, m1.p_clock_ghz);
  EXPECT_NEAR(all, m1.p_clock_ghz * FrequencyGovernor::kAllCoreDerate, 1e-12);
  EXPECT_LT(all, single);
}

TEST(FrequencyGovernor, ThrottleScalesClock) {
  const ChipSpec& m4 = chip_spec(ChipModel::kM4);
  FrequencyGovernor gov(m4);
  const double full = gov.effective_clock_ghz(ComputeUnit::kGpu, 1, 1.0);
  const double throttled = gov.effective_clock_ghz(ComputeUnit::kGpu, 1, 0.9);
  EXPECT_NEAR(throttled, full * 0.9, 1e-12);
}

TEST(FrequencyGovernor, RejectsBadInputs) {
  FrequencyGovernor gov(chip_spec(ChipModel::kM1));
  EXPECT_THROW(gov.effective_clock_ghz(ComputeUnit::kGpu, -1, 1.0),
               util::InvalidArgument);
  EXPECT_THROW(gov.effective_clock_ghz(ComputeUnit::kGpu, 1, 0.0),
               util::InvalidArgument);
}

// ----------------------------------------------------------- Soc -----------

TEST(Soc, ExecuteAdvancesClockLogsAndHeats) {
  Soc soc(ChipModel::kM1);
  const double t_amb = soc.thermal().temperature_celsius();
  const auto start = soc.execute(ComputeUnit::kGpu, 1e9, 6.5, 0.8);
  EXPECT_EQ(start, 0u);
  EXPECT_EQ(soc.clock().now(), 1'000'000'000u);
  ASSERT_EQ(soc.activity().records().size(), 1u);
  const auto& rec = soc.activity().records().front();
  EXPECT_EQ(rec.unit, ComputeUnit::kGpu);
  EXPECT_DOUBLE_EQ(rec.watts, 6.5);
  EXPECT_GT(soc.thermal().temperature_celsius(), t_amb);
}

TEST(Soc, IdleAdvancesWithoutActivity) {
  Soc soc(ChipModel::kM2);
  soc.idle(5e8);
  EXPECT_EQ(soc.clock().now(), 500'000'000u);
  EXPECT_TRUE(soc.activity().empty());
}

TEST(Soc, ResetRestoresBootState) {
  Soc soc(ChipModel::kM3);
  soc.execute(ComputeUnit::kAmx, 1e9, 5.0, 1.0);
  soc.reset();
  EXPECT_EQ(soc.clock().now(), 0u);
  EXPECT_TRUE(soc.activity().empty());
  EXPECT_DOUBLE_EQ(soc.thermal().temperature_celsius(),
                   soc.thermal().ambient_celsius());
}

TEST(Soc, MemoryCapacityTracksDevice) {
  EXPECT_EQ(Soc(ChipModel::kM1).memory_capacity_bytes(), 8ull << 30);
  EXPECT_EQ(Soc(ChipModel::kM4).memory_capacity_bytes(), 16ull << 30);
}

TEST(Soc, RejectsBadUtilization) {
  Soc soc(ChipModel::kM1);
  EXPECT_THROW(soc.execute(ComputeUnit::kGpu, 1.0, 1.0, 1.5),
               util::InvalidArgument);
}

}  // namespace
}  // namespace ao::soc
