#pragma once

#include <cstddef>

namespace ao::amx {

/// Tiled FP32 GEMM executed through the AMX instruction emulator — the
/// engine underneath ao::accelerate's cblas_sgemm (Section 2.1: "BLAS routines
/// within Accelerate ... utilizing the AMX units").
///
/// Computes C = alpha * A * B + beta * C over row-major matrices with leading
/// dimensions lda/ldb/ldc. Internally:
///   1. packs A panels column-major (so a 16-float A column segment loads
///      straight into an X register) and B panels row-major;
///   2. walks 16 x 16 C tiles, accumulating k in Z via fma32;
///   3. parallelizes across C tile rows, one AmxUnit per worker thread
///      (each P-core owns AMX access in flight).
///
/// `threads` <= 0 selects the host's hardware concurrency.
void amx_sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const float* a, std::size_t lda, const float* b, std::size_t ldb,
               float beta, float* c, std::size_t ldc, int threads = 0);

}  // namespace ao::amx
