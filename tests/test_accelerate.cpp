#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "accelerate/cblas.hpp"
#include "accelerate/reference_blas.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ao::accelerate {
namespace {

std::vector<float> random_matrix(std::size_t elements, std::uint64_t seed) {
  std::vector<float> m(elements);
  util::fill_uniform(std::span<float>(m), seed);
  return m;
}

// --------------------------------------------------------- cblas_sgemm -----

TEST(CblasSgemm, Listing1Configuration) {
  // The paper's exact call: row-major, no transposes, alpha 1, beta 0.
  const int n = 96;
  const auto a = random_matrix(n * n, 1);
  const auto b = random_matrix(n * n, 2);
  std::vector<float> c(n * n, -9.0f);
  std::vector<float> expected(n * n);
  cblas_sgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans, n, n, n, 1.0f,
              a.data(), n, b.data(), n, 0.0f, c.data(), n);
  reference::sgemm(false, false, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
                   expected.data(), n);
  EXPECT_LE(reference::max_abs_diff(expected.data(), c.data(), n, n, n),
            reference::gemm_tolerance(n));
}

class CblasTransposeTest
    : public ::testing::TestWithParam<std::tuple<CBLAS_TRANSPOSE, CBLAS_TRANSPOSE>> {};

TEST_P(CblasTransposeTest, RowMajorAllCombos) {
  const auto [ta, tb] = GetParam();
  const int m = 24;
  const int n = 40;
  const int k = 56;
  // Stored shapes depend on the transpose flags.
  const auto a = random_matrix(static_cast<std::size_t>(m) * k, 3);
  const auto b = random_matrix(static_cast<std::size_t>(k) * n, 4);
  const int lda = ta == CblasTrans ? m : k;
  const int ldb = tb == CblasTrans ? k : n;
  std::vector<float> c(static_cast<std::size_t>(m) * n, 1.0f);
  std::vector<float> expected = c;
  cblas_sgemm(CblasRowMajor, ta, tb, m, n, k, 1.25f, a.data(), lda, b.data(),
              ldb, 0.75f, c.data(), n);
  reference::sgemm(ta == CblasTrans, tb == CblasTrans, m, n, k, 1.25f, a.data(),
                   lda, b.data(), ldb, 0.75f, expected.data(), n);
  EXPECT_LE(reference::max_abs_diff(expected.data(), c.data(), m, n, n),
            reference::gemm_tolerance(k));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, CblasTransposeTest,
    ::testing::Combine(::testing::Values(CblasNoTrans, CblasTrans),
                       ::testing::Values(CblasNoTrans, CblasTrans)));

TEST(CblasSgemm, ColMajorMatchesRowMajorTransposedProblem) {
  const int n = 32;
  const auto a = random_matrix(n * n, 5);
  const auto b = random_matrix(n * n, 6);
  std::vector<float> c_col(n * n, 0.0f);
  std::vector<float> c_row(n * n, 0.0f);
  // Column-major C = A*B equals row-major computation on re-interpreted
  // (transposed) storage; validate against explicitly transposed inputs.
  cblas_sgemm(CblasColMajor, CblasNoTrans, CblasNoTrans, n, n, n, 1.0f,
              a.data(), n, b.data(), n, 0.0f, c_col.data(), n);
  // Row-major equivalent: C^T = B^T A^T with the same buffers.
  cblas_sgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans, n, n, n, 1.0f,
              b.data(), n, a.data(), n, 0.0f, c_row.data(), n);
  for (std::size_t i = 0; i < c_col.size(); ++i) {
    ASSERT_EQ(c_col[i], c_row[i]);
  }
}

TEST(CblasSgemm, DegenerateDimensionsAreNoops) {
  std::vector<float> a(4, 1.0f);
  std::vector<float> c(4, 3.0f);
  cblas_sgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans, 0, 2, 2, 1.0f,
              a.data(), 2, a.data(), 2, 0.0f, c.data(), 2);
  EXPECT_EQ(c[0], 3.0f);  // untouched
}

TEST(CblasSgemm, KZeroScalesByBeta) {
  std::vector<float> a(4, 1.0f);
  std::vector<float> c(4, 2.0f);
  cblas_sgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans, 2, 2, 0, 1.0f,
              a.data(), 1, a.data(), 2, 0.5f, c.data(), 2);
  for (const float v : c) {
    EXPECT_EQ(v, 1.0f);
  }
}

TEST(CblasSgemm, RejectsBadLeadingDimension) {
  std::vector<float> buf(64);
  EXPECT_THROW(cblas_sgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans, 4, 4, 8,
                           1.0f, buf.data(), 4 /* < k */, buf.data(), 8, 0.0f,
                           buf.data(), 4),
               util::InvalidArgument);
}

// ------------------------------------------------------------ reference ----

TEST(ReferenceBlas, ToleranceScalesWithDepth) {
  EXPECT_LT(reference::gemm_tolerance(16), reference::gemm_tolerance(1024));
  EXPECT_GT(reference::gemm_tolerance(16), 0.0f);
}

TEST(ReferenceBlas, MaxAbsDiffFindsWorstCell) {
  const float x[] = {1, 2, 3, 4};
  const float y[] = {1, 2.5f, 3, 3};
  EXPECT_EQ(reference::max_abs_diff(x, y, 2, 2, 2), 1.0f);
}

/// The reference SGEMM as the textbook i-j-k loop, one double accumulator
/// per output element. reference::sgemm must reproduce it bit for bit.
void naive_ijk_sgemm(bool transpose_a, bool transpose_b, std::size_t m,
                     std::size_t n, std::size_t k, float alpha, const float* a,
                     std::size_t lda, const float* b, std::size_t ldb,
                     float beta, float* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float a_v = transpose_a ? a[kk * lda + i] : a[i * lda + kk];
        const float b_v = transpose_b ? b[j * ldb + kk] : b[kk * ldb + j];
        acc += static_cast<double>(a_v) * static_cast<double>(b_v);
      }
      const double prior = beta == 0.0f ? 0.0 : beta * c[i * ldc + j];
      c[i * ldc + j] = static_cast<float>(alpha * acc + prior);
    }
  }
}

TEST(ReferenceBlas, BitIdenticalToNaiveIjkForEveryTransposeCombination) {
  const std::size_t m = 37;
  const std::size_t n = 29;
  const std::size_t k = 45;
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      // Leading dimensions wider than the rows they hold catch a loop that
      // strides by the logical width instead.
      const std::size_t lda = (ta ? m : k) + 3;
      const std::size_t ldb = (tb ? k : n) + 5;
      const std::size_t ldc = n + 2;
      const auto a = random_matrix((ta ? k : m) * lda, 11);
      const auto b = random_matrix((tb ? n : k) * ldb, 12);
      std::vector<float> got = random_matrix(m * ldc, 13);
      std::vector<float> want = got;
      reference::sgemm(ta, tb, m, n, k, 1.5f, a.data(), lda, b.data(), ldb,
                       -0.625f, got.data(), ldc);
      naive_ijk_sgemm(ta, tb, m, n, k, 1.5f, a.data(), lda, b.data(), ldb,
                      -0.625f, want.data(), ldc);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
                0)
          << "transpose_a " << ta << " transpose_b " << tb;
    }
  }
}

}  // namespace
}  // namespace ao::accelerate
