#include "gemm/cpu_impls.hpp"

#include <algorithm>

#include "accelerate/cblas.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ao::gemm {
namespace {

void validate(std::size_t n, std::size_t memory_length, const float* left,
              const float* right, const float* out) {
  AO_REQUIRE(n > 0, "matrix size must be positive");
  AO_REQUIRE(left != nullptr && right != nullptr && out != nullptr,
             "matrix pointers must not be null");
  AO_REQUIRE(memory_length >= n * n * sizeof(float),
             "memory_length smaller than the matrix");
}

/// Charges the modeled cost of one multiplication to the SoC.
void charge(GemmContext& ctx, const soc::PerfModel& perf, soc::GemmImpl impl,
            std::size_t n, soc::ComputeUnit unit) {
  ctx.soc.execute(unit, perf.gemm_time_ns(impl, n),
                  perf.gemm_power_watts(impl, n), perf.gemm_utilization(impl, n));
}

}  // namespace

CpuSingleGemm::CpuSingleGemm(GemmContext& context)
    : ctx_(&context), perf_(context.soc) {}

void CpuSingleGemm::multiply(std::size_t n, std::size_t memory_length,
                             const float* left, const float* right, float* out,
                             bool functional) {
  validate(n, memory_length, left, right, out);
  if (functional) {
    // The paper's baseline: standard algorithm, triple nested loop, single
    // threaded. On the host the loop runs register-blocked (C tiles held
    // across the k loop) so the functional run does not dominate the
    // harness; each element still sums its products in k order from zero,
    // the bits of the textbook i-j-k loop.
    util::gemm_korder(n, n, n, left, n, right, n, out, n);
  }
  charge(*ctx_, perf_, kind(), n, soc::ComputeUnit::kCpuPCluster);
}

CpuOmpGemm::CpuOmpGemm(GemmContext& context)
    : ctx_(&context), perf_(context.soc) {}

void CpuOmpGemm::multiply(std::size_t n, std::size_t memory_length,
                          const float* left, const float* right, float* out,
                          bool functional) {
  validate(n, memory_length, left, right, out);
  if (functional) {
    // Output tiles spread over the shared pool; each output element still
    // sums its products in k order, so the result is bit-identical to
    // CPU-Single's.
    const std::size_t blocks = (n + kBlock - 1) / kBlock;
    util::global_pool().parallel_for(blocks * blocks, [&](std::size_t t) {
      const std::size_t i0 = t / blocks * kBlock;
      const std::size_t j0 = t % blocks * kBlock;
      util::gemm_korder(std::min(kBlock, n - i0), std::min(kBlock, n - j0),
                        n, left + i0 * n, n, right + j0, n, out + i0 * n + j0,
                        n);
    });
  }
  charge(*ctx_, perf_, kind(), n, soc::ComputeUnit::kCpuPCluster);
}

CpuAccelerateGemm::CpuAccelerateGemm(GemmContext& context)
    : ctx_(&context), perf_(context.soc) {}

void CpuAccelerateGemm::multiply(std::size_t n, std::size_t memory_length,
                                 const float* left, const float* right,
                                 float* out, bool functional) {
  validate(n, memory_length, left, right, out);
  if (functional) {
    // Listing 1, verbatim semantics:
    // cblas_sgemm(CblasRowMajor, NoTrans, NoTrans, n,n,n, 1, A,n, B,n, 0, C,n)
    const int ni = static_cast<int>(n);
    accelerate::cblas_sgemm(accelerate::CblasRowMajor, accelerate::CblasNoTrans,
                            accelerate::CblasNoTrans, ni, ni, ni, 1.0f, left, ni,
                            right, ni, 0.0f, out, ni);
  }
  // Accelerate's SGEMM runs on the AMX units (Section 5.2).
  charge(*ctx_, perf_, kind(), n, soc::ComputeUnit::kAmx);
}

}  // namespace ao::gemm
