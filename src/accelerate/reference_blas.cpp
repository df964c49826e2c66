#include "accelerate/reference_blas.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/simd.hpp"

namespace ao::accelerate::reference {

AO_SIMD_CLONES
void sgemm(bool transpose_a, bool transpose_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc) {
  auto a_at = [&](std::size_t i, std::size_t kk) {
    return transpose_a ? a[kk * lda + i] : a[i * lda + kk];
  };
  auto b_at = [&](std::size_t kk, std::size_t j) {
    return transpose_b ? b[j * ldb + kk] : b[kk * ldb + j];
  };
  // Accumulate in double so the reference is strictly more accurate than
  // any FP32 path under test. Each element sums its products in k order
  // from zero, the bits of an i-j-k dot product. Without transposes the
  // shared register-blocked kernel computes a block of rows at a time.
  constexpr std::size_t kRowBlock = 16;
  std::vector<double> acc(kRowBlock * n);
  for (std::size_t i0 = 0; i0 < m; i0 += kRowBlock) {
    const std::size_t rows = std::min(kRowBlock, m - i0);
    if (!transpose_a && !transpose_b) {
      util::gemm_korder(rows, n, k, a + i0 * lda, lda, b, ldb, acc.data(),
                        n);
    } else {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (std::size_t r = 0; r < rows; ++r) {
        double* acc_row = acc.data() + r * n;
        for (std::size_t kk = 0; kk < k; ++kk) {
          const auto a_ik = static_cast<double>(a_at(i0 + r, kk));
          for (std::size_t j = 0; j < n; ++j) {
            acc_row[j] += a_ik * static_cast<double>(b_at(kk, j));
          }
        }
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      float* c_row = c + (i0 + r) * ldc;
      for (std::size_t j = 0; j < n; ++j) {
        const double prior = beta == 0.0f ? 0.0 : beta * c_row[j];
        c_row[j] = static_cast<float>(alpha * acc[r * n + j] + prior);
      }
    }
  }
}

float max_abs_diff(const float* x, const float* y, std::size_t m, std::size_t n,
                   std::size_t ld) {
  float worst = 0.0f;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      worst = std::max(worst, std::fabs(x[i * ld + j] - y[i * ld + j]));
    }
  }
  return worst;
}

float gemm_tolerance(std::size_t k) {
  // Elements are U[0,1): expected |dot| ~ k/4; FP32 rounding grows ~ sqrt(k)
  // for random rounding. 1e-5 * k covers reassociated (blocked/parallel)
  // summation orders with comfortable slack while staying tight enough to
  // catch indexing bugs (which produce O(1) errors).
  return 1e-5f * static_cast<float>(std::max<std::size_t>(k, 16));
}

}  // namespace ao::accelerate::reference
