#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "accelerate/reference_blas.hpp"
#include "amx/float16.hpp"
#include "ane/neural_engine.hpp"
#include "util/rng.hpp"

namespace ao::ane {
namespace {

/// The FP16-ingest / FP32-accumulate datapath as a plain i-j-k dot product:
/// the loop the host GEMM ran before its i-k-j rewrite, kept as the
/// bit-exact oracle for it.
std::vector<float> fp16_gemm_ijk(std::size_t m, std::size_t n, std::size_t k,
                                 const std::vector<float>& a,
                                 const std::vector<float>& b) {
  std::vector<float> c(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += amx::round_to_half(a[i * k + kk]) *
               amx::round_to_half(b[kk * n + j]);
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

struct GemmShape {
  std::size_t m, n, k;
};

/// One shape whose every edge is a multiple of 16 (ANE-compatible) and one
/// whose edges are not.
constexpr GemmShape kBitExactShapes[] = {{48, 80, 32}, {33, 17, 100}};

TEST(NeuralEngine, SixteenCoresEveryGeneration) {
  for (const auto chip : soc::kAllChipModels) {
    soc::Soc soc(chip);
    NeuralEngine ane(soc);
    EXPECT_EQ(ane.core_count(), 16);
  }
}

TEST(NeuralEngine, ThroughputGrowsAcrossGenerations) {
  double prev = 0.0;
  for (const auto chip : soc::kAllChipModels) {
    soc::Soc soc(chip);
    NeuralEngine ane(soc);
    EXPECT_GT(ane.peak_int8_tops(), prev);
    prev = ane.peak_int8_tops();
  }
  // M4's 38 TOPS headline number.
  soc::Soc m4(soc::ChipModel::kM4);
  EXPECT_DOUBLE_EQ(NeuralEngine(m4).peak_int8_tops(), 38.0);
}

TEST(NeuralEngine, Fp16IsHalfInt8Rate) {
  soc::Soc soc(soc::ChipModel::kM2);
  NeuralEngine ane(soc);
  EXPECT_DOUBLE_EQ(ane.peak_fp16_tflops(), ane.peak_int8_tops() / 2.0);
}

TEST(NeuralEngine, GemmMatchesReferenceAtFp16Accuracy) {
  soc::Soc soc(soc::ChipModel::kM1);
  NeuralEngine ane(soc);
  const std::size_t n = 64;
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  std::vector<float> c(n * n);
  util::fill_uniform(std::span<float>(a), 1);
  util::fill_uniform(std::span<float>(b), 2);
  ane.run_gemm_fp16(n, n, n, a.data(), b.data(), c.data());

  std::vector<float> expected(n * n);
  accelerate::reference::sgemm(false, false, n, n, n, 1.0f, a.data(), n,
                               b.data(), n, 0.0f, expected.data(), n);
  // Inputs round through FP16 (~1e-3 relative); dot products of length 64 of
  // [0,1) values stay below ~16 magnitude: allow a proportional bound.
  const float err = accelerate::reference::max_abs_diff(expected.data(),
                                                        c.data(), n, n, n);
  EXPECT_LT(err, 0.05f);
  EXPECT_GT(err, 0.0f);  // FP16 rounding must actually be visible
}

TEST(NeuralEngine, GemmIsBitIdenticalToAnIjkDotProduct) {
  soc::Soc soc(soc::ChipModel::kM2);
  NeuralEngine ane(soc);
  for (const auto [m, n, k] : kBitExactShapes) {
    std::vector<float> a(m * k);
    std::vector<float> b(k * n);
    std::vector<float> c(m * n, -1.0f);
    util::fill_uniform(std::span<float>(a), 3);
    util::fill_uniform(std::span<float>(b), 4);
    ane.run_gemm_fp16(m, n, k, a.data(), b.data(), c.data());
    const auto expected = fp16_gemm_ijk(m, n, k, a, b);
    EXPECT_EQ(std::memcmp(c.data(), expected.data(), c.size() * sizeof(float)),
              0)
        << m << "x" << n << "x" << k;
  }
}

TEST(NeuralEngine, ChargesAneTimeAndPower) {
  soc::Soc soc(soc::ChipModel::kM3);
  NeuralEngine ane(soc);
  const std::size_t n = 32;
  std::vector<float> a(n * n, 0.5f);
  std::vector<float> b(n * n, 0.5f);
  std::vector<float> c(n * n);
  const double ns = ane.run_gemm_fp16(n, n, n, a.data(), b.data(), c.data());
  EXPECT_GT(ns, 0.0);
  ASSERT_FALSE(soc.activity().empty());
  const auto& rec = soc.activity().records().back();
  EXPECT_EQ(rec.unit, soc::ComputeUnit::kNeuralEngine);
  EXPECT_DOUBLE_EQ(rec.watts, ane.active_power_watts());
}

TEST(NeuralEngine, AneBeatsAmxOnFp16Throughput) {
  // Section 2.3: "The Neural Engine delivers higher throughput for matrix
  // operations than AMX but at lower precision."
  for (const auto chip : soc::kAllChipModels) {
    soc::Soc soc(chip);
    NeuralEngine ane(soc);
    const double accelerate_peak =
        soc::gemm_calibration(chip, soc::GemmImpl::kCpuAccelerate).peak_gflops;
    EXPECT_GT(ane.sustained_fp16_gflops(), accelerate_peak) << soc::to_string(chip);
  }
}

// ------------------------------------------------------ CoreML dispatch ----

TEST(CoreMLRuntime, AneChosenWhenAllowedAndCompatible) {
  soc::Soc soc(soc::ChipModel::kM4);
  CoreMLRuntime runtime(soc, ComputeUnits::kAll);
  EXPECT_EQ(runtime.plan_gemm(256, 256, 256), DispatchTarget::kNeuralEngine);
}

TEST(CoreMLRuntime, IncompatibleShapeFallsBackSilently) {
  // Section 2.3: Core ML "does not provide granular control nor guarantees
  // that the Neural Engine is used for execution".
  soc::Soc soc(soc::ChipModel::kM4);
  CoreMLRuntime runtime(soc, ComputeUnits::kAll);
  EXPECT_EQ(runtime.plan_gemm(100, 256, 256), DispatchTarget::kGpu);  // m%16
  EXPECT_EQ(runtime.plan_gemm(256, 256, 32768), DispatchTarget::kGpu);  // k cap
}

TEST(CoreMLRuntime, PreferenceRestrictsPlacement) {
  soc::Soc soc(soc::ChipModel::kM1);
  CoreMLRuntime cpu_only(soc, ComputeUnits::kCpuOnly);
  EXPECT_EQ(cpu_only.plan_gemm(256, 256, 256), DispatchTarget::kCpu);
  CoreMLRuntime cpu_gpu(soc, ComputeUnits::kCpuAndGpu);
  EXPECT_EQ(cpu_gpu.plan_gemm(256, 256, 256), DispatchTarget::kGpu);
  CoreMLRuntime cpu_ane(soc, ComputeUnits::kCpuAndNeuralEngine);
  EXPECT_EQ(cpu_ane.plan_gemm(256, 256, 256), DispatchTarget::kNeuralEngine);
  // ANE-preferring runtime still falls back to CPU for incompatible shapes.
  EXPECT_EQ(cpu_ane.plan_gemm(100, 100, 100), DispatchTarget::kCpu);
}

TEST(CoreMLRuntime, GpuFallbackIsBitIdenticalToAnIjkDotProduct) {
  soc::Soc soc(soc::ChipModel::kM3);
  CoreMLRuntime runtime(soc, ComputeUnits::kCpuAndGpu);
  for (const auto [m, n, k] : kBitExactShapes) {
    std::vector<float> a(m * k);
    std::vector<float> b(k * n);
    std::vector<float> c(m * n, -1.0f);
    util::fill_uniform(std::span<float>(a), 5);
    util::fill_uniform(std::span<float>(b), 6);
    const Prediction p =
        runtime.predict_gemm(m, n, k, a.data(), b.data(), c.data());
    EXPECT_EQ(p.target, DispatchTarget::kGpu);
    const auto expected = fp16_gemm_ijk(m, n, k, a, b);
    EXPECT_EQ(std::memcmp(c.data(), expected.data(), c.size() * sizeof(float)),
              0)
        << m << "x" << n << "x" << k;
  }
}

TEST(CoreMLRuntime, NamesMatchCoreML) {
  EXPECT_EQ(to_string(ComputeUnits::kAll), "MLComputeUnitsAll");
  EXPECT_EQ(to_string(DispatchTarget::kNeuralEngine), "NeuralEngine");
}

}  // namespace
}  // namespace ao::ane
