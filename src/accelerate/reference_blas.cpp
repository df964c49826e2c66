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
  // any FP32 path under test. The loop is i-k-j over a row of accumulators:
  // each element still sums its products in k order, so the result is
  // bit-identical to an i-j-k dot product, but B is streamed by rows.
  std::vector<double> acc(n);
  for (std::size_t i = 0; i < m; ++i) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::size_t kk = 0; kk < k; ++kk) {
      const auto a_ik = static_cast<double>(a_at(i, kk));
      for (std::size_t j = 0; j < n; ++j) {
        acc[j] += a_ik * static_cast<double>(b_at(kk, j));
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      const double prior = beta == 0.0f ? 0.0 : beta * c[i * ldc + j];
      c[i * ldc + j] = static_cast<float>(alpha * acc[j] + prior);
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
