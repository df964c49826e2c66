#include <gtest/gtest.h>

#include "core/system.hpp"
#include "harness/experiment.hpp"
#include "harness/matrix_workload.hpp"
#include "harness/reporting.hpp"
#include "util/aligned_buffer.hpp"

namespace ao::harness {
namespace {

// ----------------------------------------------------- matrix workload -----

TEST(MatrixWorkload, PaperSizeList) {
  const auto& sizes = paper_sizes();
  ASSERT_EQ(sizes.size(), 10u);
  EXPECT_EQ(sizes.front(), 32u);
  EXPECT_EQ(sizes.back(), 16384u);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], sizes[i - 1] * 2);  // powers of two
  }
}

TEST(MatrixWorkload, PaperSkipRule) {
  // CPU-Single and CPU-OMP "did not execute 8,192 and 16,384".
  EXPECT_TRUE(paper_skips(soc::GemmImpl::kCpuSingle, 8192));
  EXPECT_TRUE(paper_skips(soc::GemmImpl::kCpuOmp, 16384));
  EXPECT_FALSE(paper_skips(soc::GemmImpl::kCpuSingle, 4096));
  EXPECT_FALSE(paper_skips(soc::GemmImpl::kCpuAccelerate, 16384));
  EXPECT_FALSE(paper_skips(soc::GemmImpl::kGpuMps, 16384));
}

TEST(MatrixWorkload, PageAlignedAndPageRounded) {
  MatrixSet m(32, /*fill=*/false);  // 32*32*4 = 4096 B -> one 16 KiB page
  EXPECT_EQ(m.memory_length(), 16384u);
  EXPECT_TRUE(util::AlignedBuffer::is_aligned(m.left(), 16384));
  EXPECT_TRUE(util::AlignedBuffer::is_aligned(m.right(), 16384));
  EXPECT_TRUE(util::AlignedBuffer::is_aligned(m.out(), 16384));
}

TEST(MatrixWorkload, FillIsDeterministicAndInRange) {
  MatrixSet a(64, true, 42);
  MatrixSet b(64, true, 42);
  for (std::size_t i = 0; i < 64 * 64; ++i) {
    ASSERT_EQ(a.left()[i], b.left()[i]);
    ASSERT_GE(a.left()[i], 0.0f);
    ASSERT_LT(a.left()[i], 1.0f);
  }
  // Left and right use different seeds.
  bool any_different = false;
  for (std::size_t i = 0; i < 64 * 64; ++i) {
    any_different |= a.left()[i] != a.right()[i];
  }
  EXPECT_TRUE(any_different);
}

TEST(MatrixWorkload, ClearOutZeroes) {
  MatrixSet m(32, true);
  m.out()[5] = 3.0f;
  m.clear_out();
  EXPECT_EQ(m.out()[5], 0.0f);
}

// ------------------------------------------------------------ experiment ---

class ExperimentTest : public ::testing::Test {
 protected:
  core::System system_{soc::ChipModel::kM1};
};

TEST_F(ExperimentTest, MeasureVerifiesSmallSizes) {
  GemmExperiment::Options opts;
  opts.repetitions = 3;
  opts.verify_n_max = 128;
  GemmExperiment experiment(system_.gemm_context(), opts);

  MatrixSet matrices(64, true);
  for (const auto kind : soc::kAllGemmImpls) {
    auto impl = gemm::create_gemm(kind, system_.gemm_context());
    matrices.clear_out();
    const GemmMeasurement m = experiment.measure(*impl, matrices);
    EXPECT_TRUE(m.functional) << soc::to_string(kind);
    EXPECT_TRUE(m.verified) << soc::to_string(kind)
                            << " err=" << m.max_error;
    EXPECT_EQ(m.time_ns.count(), 3u);
    EXPECT_GT(m.best_gflops, 0.0);
    EXPECT_GE(m.best_gflops, m.mean_gflops);
    EXPECT_GT(m.power_mw, 0.0);
    EXPECT_GT(m.gflops_per_watt, 0.0);
  }
}

TEST_F(ExperimentTest, FunctionalThresholdHonored) {
  GemmExperiment::Options opts;
  opts.repetitions = 1;
  opts.functional_n_max[soc::GemmImpl::kCpuSingle] = 32;
  GemmExperiment experiment(system_.gemm_context(), opts);

  auto impl = gemm::create_gemm(soc::GemmImpl::kCpuSingle,
                                system_.gemm_context());
  MatrixSet small(32, true);
  EXPECT_TRUE(experiment.measure(*impl, small).functional);
  MatrixSet big(64, true);
  const auto m = experiment.measure(*impl, big);
  EXPECT_FALSE(m.functional);
  EXPECT_FALSE(m.verified);
  // Model-only run must not write the output matrix.
  EXPECT_EQ(big.out()[0], 0.0f);
}

// The default ceilings compute no product that nothing reads: every impl
// runs functionally only where its output is also verified.
TEST(ExperimentOptions, DefaultFunctionalCeilingsStayWithinVerification) {
  const GemmExperiment::Options opts;
  for (const auto impl : soc::kAllGemmImpls) {
    const auto it = opts.functional_n_max.find(impl);
    ASSERT_NE(it, opts.functional_n_max.end()) << soc::to_string(impl);
    EXPECT_LE(it->second, opts.verify_n_max) << soc::to_string(impl);
    for (std::size_t n = 32; n <= 16384; n *= 2) {
      EXPECT_EQ(functional_at(opts, impl, n), verified_at(opts, impl, n))
          << soc::to_string(impl) << " n=" << n;
    }
  }
}

TEST_F(ExperimentTest, PowerPiggybacksOnRun) {
  GemmExperiment experiment(system_.gemm_context());
  auto impl = gemm::create_gemm(soc::GemmImpl::kGpuMps, system_.gemm_context());
  MatrixSet matrices(256, true);
  const auto m = experiment.measure(*impl, matrices);
  // GPU implementation: GPU power dominates the sample.
  EXPECT_GT(m.gpu_power_mw, m.cpu_power_mw);
}

TEST_F(ExperimentTest, RunSuiteHonorsSkips) {
  GemmExperiment::Options opts;
  opts.repetitions = 1;
  opts.use_powermetrics = false;
  // Keep everything model-only for speed.
  for (auto& [impl, ceiling] : opts.functional_n_max) {
    ceiling = 0;
  }
  GemmExperiment experiment(system_.gemm_context(), opts);
  const auto results = experiment.run_suite(
      {soc::GemmImpl::kCpuSingle, soc::GemmImpl::kGpuMps}, {4096, 8192});
  // CPU-Single skips 8192 -> 3 rows, not 4.
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_FALSE(r.impl == soc::GemmImpl::kCpuSingle && r.n == 8192);
  }
}

TEST_F(ExperimentTest, NoPowermetricsLeavesPowerZero) {
  GemmExperiment::Options opts;
  opts.repetitions = 1;
  opts.use_powermetrics = false;
  GemmExperiment experiment(system_.gemm_context(), opts);
  auto impl = gemm::create_gemm(soc::GemmImpl::kCpuOmp, system_.gemm_context());
  MatrixSet matrices(64, true);
  const auto m = experiment.measure(*impl, matrices);
  EXPECT_EQ(m.power_mw, 0.0);
  EXPECT_EQ(m.gflops_per_watt, 0.0);
}

// ------------------------------------------------------------- reporting ---

std::vector<GemmMeasurement> tiny_results() {
  core::System system(soc::ChipModel::kM1);
  GemmExperiment::Options opts;
  opts.repetitions = 2;
  GemmExperiment experiment(system.gemm_context(), opts);
  return experiment.run_suite(
      {soc::GemmImpl::kCpuAccelerate, soc::GemmImpl::kGpuMps}, {32, 64});
}

TEST(Reporting, Figure2TableAndCsv) {
  const auto results = tiny_results();
  const auto table = figure2_table(soc::ChipModel::kM1, results);
  EXPECT_EQ(table.row_count(), 2u);  // two sizes
  const auto csv = figure2_csv(results);
  EXPECT_EQ(csv.row_count(), 4u);  // 2 impls x 2 sizes
  const auto rows = util::parse_csv(csv.to_string());
  EXPECT_EQ(rows[0][0], "chip");
  EXPECT_EQ(rows[1][0], "M1");
}

TEST(Reporting, Figure2PlotRenders) {
  const auto results = tiny_results();
  const std::string plot = figure2_plot(soc::ChipModel::kM1, results);
  EXPECT_NE(plot.find("GFLOPS"), std::string::npos);
  EXPECT_NE(plot.find("legend"), std::string::npos);
}

TEST(Reporting, PeakTablesHaveSixRows) {
  const auto results = tiny_results();
  EXPECT_EQ(peak_gflops_table(results).row_count(), 6u);
  EXPECT_EQ(peak_efficiency_table(results).row_count(), 6u);
}

TEST(Reporting, Figure1Artifacts) {
  StreamFigureEntry e;
  e.chip = soc::ChipModel::kM1;
  e.theoretical_gbs = 67.0;
  e.cpu_gbs = {55, 54, 58, 59};
  e.gpu_gbs = {60, 59, 58, 59};
  const auto table = figure1_table({e});
  EXPECT_EQ(table.row_count(), 2u);  // CPU + GPU rows
  const auto csv = figure1_csv({e});
  EXPECT_EQ(csv.row_count(), 8u);  // 2 agents x 4 kernels
  const std::string chart = figure1_chart({e});
  EXPECT_NE(chart.find("M1"), std::string::npos);
  EXPECT_NE(chart.find("theoretical"), std::string::npos);
}

TEST(Reporting, ForChipFilters) {
  std::vector<GemmMeasurement> mixed(3);
  mixed[0].chip = soc::ChipModel::kM1;
  mixed[1].chip = soc::ChipModel::kM2;
  mixed[2].chip = soc::ChipModel::kM1;
  EXPECT_EQ(for_chip(mixed, soc::ChipModel::kM1).size(), 2u);
  EXPECT_EQ(for_chip(mixed, soc::ChipModel::kM4).size(), 0u);
}

}  // namespace
}  // namespace ao::harness
