#pragma once

#include <cstddef>

/// Compiles the function it precedes once per x86-64 ISA level (AVX-512,
/// AVX2, baseline SSE2) and picks the widest one the CPU supports when the
/// program loads (GCC/Clang function multi-versioning through an ifunc).
/// Elsewhere it expands to nothing and the function is built once at the
/// build's own flags.
///
/// Every clone computes the same bits: the build pins -ffp-contract=off, so
/// no clone fuses a multiply and an add into an FMA, and each kernel marked
/// with it keeps its operation order in every lane. A callee that is not
/// inlined runs at its own clone's ISA, so a kernel's hot helper carries the
/// attribute too; lambdas cannot, so a hot loop in one calls a named
/// function that does.
///
/// Give each register tile shape its own cloned function: GCC 12 emitted
/// scalar code for a cloned function that inlined several shapes at once.
/// The ctest ao_tile_kernels_vectorized (tools/check_tile_kernels_vectorized
/// .sh) fails when the AVX-512 clone of a wide tile shape holds no zmm
/// arithmetic.
///
/// A ThreadSanitizer build keeps one version: GCC instruments the ifunc
/// resolver, which runs before the sanitizer's runtime is up, and the
/// program dies at load.
#if defined(__x86_64__) && defined(__ELF__) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(__SANITIZE_THREAD__)
#define AO_SIMD_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define AO_SIMD_CLONES
#endif

namespace ao::util {

/// y[j] += a * x[j] for j < n: one multiply, then one add, per element, so
/// a k-order GEMM row loop built on it keeps every element's rounding chain
/// (MPS's sgemm_block, which skips zero a and so cannot use gemm_korder).
/// `x` and `y` must not overlap. Multi-versioned (AO_SIMD_CLONES).
void axpy(std::size_t n, float a, const float* x, float* y);

/// C = A * B for row-major A (m x k, stride lda), B (k x n, stride ldb) and
/// C (m x n, stride ldc); C is overwritten and must not overlap A or B.
/// Each element sums its products from zero in k order, one multiply then
/// one add per step: the bits of an i-j-k dot product, or of an i-k-j loop
/// of axpy row updates. The third overload widens float operands to a
/// double accumulator, each product (double)a * (double)b.
///
/// Register-blocked: a 4 x 64 (float) or 4 x 32 (double) tile of C stays in
/// registers across the whole k loop, so each B row segment is loaded once
/// per tile and each A element is broadcast once; the rows and columns left
/// over run as 1 x 64 / 1 x 32, 1 x 8 and 1 x 1 tiles. Each shape is its own
/// AO_SIMD_CLONES function, called once per tile.
void gemm_korder(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 std::size_t lda, const float* b, std::size_t ldb, float* c,
                 std::size_t ldc);
void gemm_korder(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 std::size_t lda, const double* b, std::size_t ldb, double* c,
                 std::size_t ldc);
void gemm_korder(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 std::size_t lda, const float* b, std::size_t ldb, double* c,
                 std::size_t ldc);

}  // namespace ao::util
