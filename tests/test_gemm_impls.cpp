#include <gtest/gtest.h>

#include <vector>

#include "accelerate/reference_blas.hpp"
#include "core/system.hpp"
#include "gemm/gemm_interface.hpp"
#include "harness/matrix_workload.hpp"

namespace ao::gemm {
namespace {

class GemmImplTest : public ::testing::TestWithParam<soc::GemmImpl> {
 protected:
  core::System system_{soc::ChipModel::kM2};
};

TEST_P(GemmImplTest, MatchesReference) {
  auto impl = create_gemm(GetParam(), system_.gemm_context());
  EXPECT_EQ(impl->kind(), GetParam());
  for (const std::size_t n : {32u, 64u, 128u}) {
    harness::MatrixSet matrices(n, true, 7 + n);
    impl->multiply(n, matrices.memory_length(), matrices.left(),
                   matrices.right(), matrices.out(), /*functional=*/true);
    std::vector<float> expected(n * n);
    accelerate::reference::sgemm(false, false, n, n, n, 1.0f, matrices.left(),
                                 n, matrices.right(), n, 0.0f, expected.data(),
                                 n);
    EXPECT_LE(accelerate::reference::max_abs_diff(expected.data(),
                                                  matrices.out(), n, n, n),
              accelerate::reference::gemm_tolerance(n))
        << impl->name() << " n=" << n;
  }
}

TEST_P(GemmImplTest, ModelOnlySkipsNumericWork) {
  auto impl = create_gemm(GetParam(), system_.gemm_context());
  harness::MatrixSet matrices(64, true);
  const auto t0 = system_.soc().clock().now();
  impl->multiply(64, matrices.memory_length(), matrices.left(),
                 matrices.right(), matrices.out(), /*functional=*/false);
  EXPECT_GT(system_.soc().clock().now(), t0);  // time charged
  for (std::size_t i = 0; i < 64 * 64; ++i) {
    ASSERT_EQ(matrices.out()[i], 0.0f);  // data untouched
  }
}

TEST_P(GemmImplTest, SimulatedTimeMatchesPerfModel) {
  auto impl = create_gemm(GetParam(), system_.gemm_context());
  harness::MatrixSet matrices(128, false);
  soc::PerfModel perf(system_.soc());
  const double expected = perf.gemm_time_ns(GetParam(), 128);
  const auto t0 = system_.soc().clock().now();
  impl->multiply(128, matrices.memory_length(), matrices.left(),
                 matrices.right(), matrices.out(), /*functional=*/false);
  const auto dt = static_cast<double>(system_.soc().clock().now() - t0);
  EXPECT_NEAR(dt, expected, expected * 0.05) << impl->name();
}

TEST_P(GemmImplTest, ActivityLandsOnDeclaredUnit) {
  auto impl = create_gemm(GetParam(), system_.gemm_context());
  harness::MatrixSet matrices(64, false);
  impl->multiply(64, matrices.memory_length(), matrices.left(),
                 matrices.right(), matrices.out(), /*functional=*/false);
  ASSERT_FALSE(system_.soc().activity().empty());
  const auto unit = system_.soc().activity().records().back().unit;
  if (soc::is_gpu_impl(GetParam())) {
    EXPECT_EQ(unit, soc::ComputeUnit::kGpu);
  } else if (GetParam() == soc::GemmImpl::kCpuAccelerate) {
    EXPECT_EQ(unit, soc::ComputeUnit::kAmx);
  } else {
    EXPECT_EQ(unit, soc::ComputeUnit::kCpuPCluster);
  }
}

TEST_P(GemmImplTest, ValidatesArguments) {
  auto impl = create_gemm(GetParam(), system_.gemm_context());
  harness::MatrixSet matrices(32, false);
  EXPECT_THROW(impl->multiply(0, matrices.memory_length(), matrices.left(),
                              matrices.right(), matrices.out(), false),
               util::InvalidArgument);
  EXPECT_THROW(impl->multiply(32, 16 /* too small */, matrices.left(),
                              matrices.right(), matrices.out(), false),
               util::InvalidArgument);
  EXPECT_THROW(impl->multiply(32, matrices.memory_length(), nullptr,
                              matrices.right(), matrices.out(), false),
               util::InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    AllImplementations, GemmImplTest, ::testing::ValuesIn(soc::kAllGemmImpls),
    [](const auto& info) {
      std::string name = soc::to_string(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// ------------------------------------------------------------- registry ----

TEST(GemmRegistry, CreatesAllSix) {
  core::System system(soc::ChipModel::kM1);
  ASSERT_EQ(soc::kAllGemmImpls.size(), 6u);
  for (const auto impl : soc::kAllGemmImpls) {
    EXPECT_EQ(create_gemm(impl, system.gemm_context())->kind(), impl);
  }
}

TEST(GemmRegistry, ImplementationsAgreeWithEachOther) {
  core::System system(soc::ChipModel::kM3);
  std::vector<std::unique_ptr<IGemm>> impls;
  for (const auto impl : soc::kAllGemmImpls) {
    impls.push_back(create_gemm(impl, system.gemm_context()));
  }
  const std::size_t n = 96;
  harness::MatrixSet matrices(n, true, 55);

  std::vector<float> first;
  for (auto& impl : impls) {
    matrices.clear_out();
    impl->multiply(n, matrices.memory_length(), matrices.left(),
                   matrices.right(), matrices.out(), true);
    if (first.empty()) {
      first.assign(matrices.out(), matrices.out() + n * n);
    } else {
      EXPECT_LE(accelerate::reference::max_abs_diff(first.data(),
                                                    matrices.out(), n, n, n),
                accelerate::reference::gemm_tolerance(n))
          << impl->name() << " disagrees with " << impls.front()->name();
    }
  }
}

TEST(GemmRegistry, CpuOmpIsBitIdenticalToCpuSingle) {
  // The pooled tiles keep every output element's k order, so the parallel
  // result equals the single-threaded one bit for bit — also when the size
  // leaves partial edge tiles.
  core::System system(soc::ChipModel::kM1);
  auto single = create_gemm(soc::GemmImpl::kCpuSingle, system.gemm_context());
  auto omp = create_gemm(soc::GemmImpl::kCpuOmp, system.gemm_context());
  const std::size_t n = 150;
  harness::MatrixSet matrices(n, true, 21);
  single->multiply(n, matrices.memory_length(), matrices.left(),
                   matrices.right(), matrices.out(), true);
  const std::vector<float> expected(matrices.out(), matrices.out() + n * n);
  matrices.clear_out();
  omp->multiply(n, matrices.memory_length(), matrices.left(), matrices.right(),
                matrices.out(), true);
  EXPECT_EQ(std::vector<float>(matrices.out(), matrices.out() + n * n),
            expected);
}

TEST(GemmRegistry, GpuImplsWrapZeroCopy) {
  // The GPU paths must accept the page-rounded harness allocations without
  // copying: after a functional run, the harness output array holds the
  // result (proof the shader wrote through the wrapped pointer).
  core::System system(soc::ChipModel::kM4);
  auto impl = create_gemm(soc::GemmImpl::kGpuNaive, system.gemm_context());
  const std::size_t n = 64;
  harness::MatrixSet matrices(n, true);
  impl->multiply(n, matrices.memory_length(), matrices.left(),
                 matrices.right(), matrices.out(), true);
  double sum = 0.0;
  for (std::size_t i = 0; i < n * n; ++i) {
    sum += matrices.out()[i];
  }
  EXPECT_GT(sum, 0.0);
}

}  // namespace
}  // namespace ao::gemm
