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
/// a k-order GEMM row loop built on it keeps every element's rounding chain.
/// `x` and `y` must not overlap. Multi-versioned (AO_SIMD_CLONES).
void axpy(std::size_t n, float a, const float* x, float* y);
void axpy(std::size_t n, double a, const double* x, double* y);

}  // namespace ao::util
