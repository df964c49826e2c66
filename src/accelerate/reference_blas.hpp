#pragma once

#include <cstddef>

namespace ao::accelerate::reference {

/// SGEMM with full alpha/beta/transpose support, accumulating in double —
/// the golden reference every optimized path (AMX, MPS, Metal shaders) is
/// tested against. Each element sums its products in k order from zero, the
/// bits of a naive triple loop; the no-transpose case (every verify
/// reference) runs on util::gemm_korder. Never used for performance
/// reporting.
void sgemm(bool transpose_a, bool transpose_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc);

/// Largest absolute elementwise difference between two m x n row-major
/// matrices (leading dimension ld).
float max_abs_diff(const float* x, const float* y, std::size_t m, std::size_t n,
                   std::size_t ld);

/// Tolerance for comparing an optimized SGEMM against the reference at
/// accumulation depth k: FP32 summation error grows with k and with the
/// magnitude of the operands (ours are in [0, 1]).
float gemm_tolerance(std::size_t k);

}  // namespace ao::accelerate::reference
