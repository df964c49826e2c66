#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "amx/float16.hpp"
#include "ane/neural_engine.hpp"
#include "fp64emu/double_single.hpp"
#include "precision/precision_study.hpp"
#include "soc/calibration.hpp"
#include "soc/perf_model.hpp"
#include "soc/soc.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ao::precision {
namespace {

class PrecisionStudyTest : public ::testing::TestWithParam<soc::ChipModel> {};

TEST_P(PrecisionStudyTest, AccuracyOrderingHolds) {
  const auto results = run_gemm_precision_study(GetParam(), 128);
  ASSERT_EQ(results.size(), 4u);

  const auto& fp64 = results[0];
  const auto& emu = results[1];
  const auto& fp32 = results[2];
  const auto& fp16 = results[3];

  // FP64 native is the reference: zero error by construction.
  EXPECT_EQ(fp64.max_abs_error, 0.0);
  // Emulated FP64 carries ~14 digits, FP32 ~6. FP16 inputs keep ~3 digits
  // each, and the FP32 accumulator adds almost no error of its own, so the
  // FP16 row reads ~2-3 digits below FP32 rather than a fixed figure.
  EXPECT_LT(emu.max_abs_error, 1e-9);
  EXPECT_GT(fp32.max_abs_error, emu.max_abs_error);
  EXPECT_GT(fp16.max_abs_error, fp32.max_abs_error * 10.0);
  EXPECT_GT(emu.significant_digits, 10.0);
  EXPECT_GT(fp32.significant_digits, 4.0);
  EXPECT_LE(fp16.significant_digits, fp32.significant_digits - 1.5);
}

TEST_P(PrecisionStudyTest, ThroughputOrderingHolds) {
  const auto results = run_gemm_precision_study(GetParam(), 64);
  const auto& fp64 = results[0];
  const auto& emu = results[1];
  const auto& fp32 = results[2];
  const auto& fp16 = results[3];

  // FP16 > FP32 > FP64 native > FP64 emulated, the trade-off the paper's
  // future-work section asks about.
  EXPECT_GT(fp16.modeled_gflops, fp32.modeled_gflops);
  EXPECT_GT(fp32.modeled_gflops, fp64.modeled_gflops);
  EXPECT_GT(fp64.modeled_gflops, emu.modeled_gflops);
  // The emulation penalty is roughly an order of magnitude vs FP32.
  EXPECT_GT(fp32.modeled_gflops / emu.modeled_gflops, 5.0);
}

TEST_P(PrecisionStudyTest, ErrorGrowsWithSize) {
  const auto small = run_gemm_precision_study(GetParam(), 32);
  const auto large = run_gemm_precision_study(GetParam(), 256);
  // Longer dot products accumulate more rounding error in FP32.
  EXPECT_GT(large[2].max_abs_error, small[2].max_abs_error);
}

INSTANTIATE_TEST_SUITE_P(AllChips, PrecisionStudyTest,
                         ::testing::Values(soc::ChipModel::kM1,
                                           soc::ChipModel::kM4),
                         [](const auto& info) { return to_string(info.param); });

// The split API: one chip-free accuracy pass, filled per chip, equals the
// composed study on every chip — the form the campaign scheduler shares.
TEST(PrecisionStudy, SplitApiEqualsTheComposedStudyForEveryChip) {
  const auto pass = gemm_accuracy_pass(48, 7);
  ASSERT_EQ(pass.size(), 4u);
  for (const auto& row : pass) {
    EXPECT_EQ(row.modeled_gflops, 0.0);
    EXPECT_FALSE(row.executing_unit.empty());
  }
  for (const auto chip : soc::kAllChipModels) {
    auto rows = pass;
    fill_modeled_gflops(rows, chip);
    EXPECT_EQ(rows, run_gemm_precision_study(chip, 48, 7)) << to_string(chip);

    // The per-chip fill is the calibrated model alone.
    soc::Soc soc(chip);
    const double fp32 =
        soc::PerfModel(soc).gemm_gflops(soc::GemmImpl::kGpuMps, 4096);
    EXPECT_EQ(rows[0].modeled_gflops,
              soc::gemm_calibration(chip, soc::GemmImpl::kCpuAccelerate)
                      .peak_gflops /
                  2.0);
    EXPECT_EQ(rows[1].modeled_gflops, fp32 / fp64emu::kFlopsPerDsFma * 2.0);
    EXPECT_EQ(rows[2].modeled_gflops, fp32);
    EXPECT_EQ(rows[3].modeled_gflops, fp32 * 2.0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i].modeled_gflops = 0.0;
      EXPECT_EQ(rows[i], pass[i]);  // the fill touches nothing else
    }
  }
}

TEST(PrecisionStudy, FormatNames) {
  EXPECT_NE(to_string(Format::kFp64Emulated).find("double-single"),
            std::string::npos);
  EXPECT_NE(to_string(Format::kFp16).find("FP16"), std::string::npos);
}

// --------------------------------------- bit identity vs the i-j-k loops --

// Verbatim serial copies of the study's original kernels: the FP64 ground
// truth, and the i-j-k quantized and double-single loops (one dot product
// per output element, B read down its columns). The shipped kernels run
// i-k-j in float or split hi/lo lanes and must reproduce these results bit
// for bit.
std::vector<double> fp64_ground_truth(const std::vector<double>& a,
                                      const std::vector<double>& b,
                                      std::size_t n) {
  std::vector<double> c(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t kk = 0; kk < n; ++kk) {
      const double a_ik = a[i * n + kk];
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] += a_ik * b[kk * n + j];
      }
    }
  }
  return c;
}

template <typename Quantize>
std::vector<double> ijk_quantized(const std::vector<double>& a,
                                  const std::vector<double>& b, std::size_t n,
                                  Quantize quantize) {
  std::vector<double> qa(n * n);
  std::vector<double> qb(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    qa[i] = quantize(a[i]);
    qb[i] = quantize(b[i]);
  }
  std::vector<double> c(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < n; ++kk) {
        acc = quantize(acc + quantize(qa[i * n + kk] * qb[kk * n + j]));
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

/// The FP16 datapath as a dot product: inputs rounded through half, the sum
/// kept in FP32 from 0.0f in k order.
std::vector<double> ijk_fp16_fp32_accumulate(const std::vector<double>& a,
                                             const std::vector<double>& b,
                                             std::size_t n) {
  std::vector<float> ha(n * n);
  std::vector<float> hb(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    ha[i] = amx::half_to_float(amx::float_to_half(static_cast<float>(a[i])));
    hb[i] = amx::half_to_float(amx::float_to_half(static_cast<float>(b[i])));
  }
  std::vector<double> c(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < n; ++kk) {
        acc += ha[i * n + kk] * hb[kk * n + j];
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

std::vector<double> ijk_double_single(const std::vector<double>& a,
                                      const std::vector<double>& b,
                                      std::size_t n) {
  using fp64emu::DoubleSingle;
  std::vector<DoubleSingle> dsa(n * n);
  std::vector<DoubleSingle> dsb(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    dsa[i] = DoubleSingle::from_double(a[i]);
    dsb[i] = DoubleSingle::from_double(b[i]);
  }
  std::vector<double> c(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      DoubleSingle acc;
      for (std::size_t kk = 0; kk < n; ++kk) {
        acc = fp64emu::ds_fma(dsa[i * n + kk], dsb[kk * n + j], acc);
      }
      c[i * n + j] = acc.to_double();
    }
  }
  return c;
}

/// The study's error statistics, computed exactly as make_result does.
template <typename T>
std::array<double, 3> error_stats(const std::vector<double>& reference,
                                  const std::vector<T>& value) {
  double worst = 0.0;
  double sum = 0.0;
  double ref_scale = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double err = std::fabs(reference[i] - value[i]);
    worst = std::max(worst, err);
    sum += err;
    ref_scale = std::max(ref_scale, std::fabs(reference[i]));
  }
  const double rel = worst / std::max(ref_scale, 1e-300);
  return {worst, sum / static_cast<double>(reference.size()),
          rel > 0.0 ? -std::log10(rel) : 16.0};
}

/// The study's operands at (n, seed).
struct Operands {
  std::vector<double> a;
  std::vector<double> b;
};

Operands study_operands(std::size_t n, std::uint64_t seed) {
  Operands ops{std::vector<double>(n * n), std::vector<double>(n * n)};
  util::fill_uniform(std::span<double>(ops.a), seed);
  util::fill_uniform(std::span<double>(ops.b), seed + 1);
  return ops;
}

std::array<double, 3> row_stats(const StudyResult& row) {
  return {row.max_abs_error, row.mean_abs_error, row.significant_digits};
}

class PrecisionStudyBitIdentity
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(PrecisionStudyBitIdentity, MatchesTheIjkLoopsBitForBit) {
  const auto [n, seed] = GetParam();
  const auto [a, b] = study_operands(n, seed);
  const std::vector<double> reference = fp64_ground_truth(a, b, n);
  const std::array<std::array<double, 3>, 4> want = {
      error_stats(reference, reference),
      error_stats(reference, ijk_double_single(a, b, n)),
      error_stats(reference, ijk_quantized(a, b, n,
                                           [](double v) {
                                             return static_cast<double>(
                                                 static_cast<float>(v));
                                           })),
      error_stats(reference, ijk_fp16_fp32_accumulate(a, b, n))};

  const auto results = run_gemm_precision_study(soc::ChipModel::kM2, n, seed);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t f = 0; f < 4; ++f) {
    const std::array<double, 3> got = row_stats(results[f]);
    EXPECT_EQ(std::memcmp(got.data(), want[f].data(), sizeof(got)), 0)
        << to_string(results[f].format) << ": max " << got[0] << " vs "
        << want[f][0] << ", mean " << got[1] << " vs " << want[f][1];
  }
}

// 100 is not a multiple of any vector width or chunk size.
INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, PrecisionStudyBitIdentity,
    ::testing::Combine(::testing::Values(std::size_t{48}, std::size_t{64},
                                         std::size_t{100}, std::size_t{256}),
                       ::testing::Values(std::uint64_t{99}, std::uint64_t{7},
                                         std::uint64_t{2024})),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// FP16 has one definition: the study's FP16 row is exactly the error of a
// functional Neural Engine GEMM on the same operands.
TEST(PrecisionStudy, Fp16RowIsTheNeuralEngineDatapath) {
  for (const std::size_t n : {48u, 100u}) {
    const std::uint64_t seed = 5;
    const auto [a, b] = study_operands(n, seed);
    const std::vector<float> a32(a.begin(), a.end());
    const std::vector<float> b32(b.begin(), b.end());
    std::vector<float> c(n * n);
    soc::Soc soc(soc::ChipModel::kM4);
    ane::NeuralEngine(soc).run_gemm_fp16(n, n, n, a32.data(), b32.data(),
                                         c.data());
    const std::array<double, 3> want =
        error_stats(fp64_ground_truth(a, b, n), c);

    const auto rows = gemm_accuracy_pass(n, seed);
    ASSERT_EQ(rows[3].format, Format::kFp16);
    const std::array<double, 3> got = row_stats(rows[3]);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), sizeof(got)), 0)
        << "n=" << n << ": max " << got[0] << " vs " << want[0];
  }
}

TEST(PrecisionStudy, RejectsHugeSizes) {
  EXPECT_THROW(run_gemm_precision_study(soc::ChipModel::kM1, 4096),
               util::InvalidArgument);
}

}  // namespace
}  // namespace ao::precision
