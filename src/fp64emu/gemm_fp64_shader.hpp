#pragma once

#include <cstdint>
#include <vector>

#include "metal/kernel.hpp"

namespace ao::metal {
class Device;
}

namespace ao::fp64emu {

/// GEMM shader computing in emulated FP64 (double-single arithmetic) on the
/// FP32-only simulated GPU — the extension experiment for the paper's FP64
/// limitation ("the M-Series GPUs lack native FP64 support (which can be
/// emulated)", Section 1; "this might limit their suitability for certain
/// scientific applications requiring double-precision", Section 7).
///
/// Bindings (all FP32 buffers; hi/lo component pairs for the ds format):
///   slot 0: A.hi   slot 1: A.lo
///   slot 2: B.hi   slot 3: B.lo
///   slot 4: C.hi   slot 5: C.lo
///   slot 6: uint32 n
///
/// The work estimate prices each emulated FMA at kFlopsPerDsFma FP32
/// operations on the generic GPU roofline, which produces the ~20x
/// FP32-to-emulated-FP64 throughput gap the technique is known for.
metal::Kernel make_gemm_fp64_emulated();

/// The double-single GEMM kernel the emulated shader and the precision
/// study share, on split hi/lo FP32 planes (row-major, strides lda, ldb,
/// ldc): C = A * B for a `rows` x `cols` block of C, summed over `depth`.
/// `a_*` point at the block's first row of A, `b_*` at its first column of
/// B, `c_*` at its first element of C, which is overwritten. k is the outer
/// loop: each step splits the B row segment once for the whole block, then
/// advances every element's ds_fma chain by one product. Each chain starts
/// from zero and runs in k order, the bits of a per-element dot product.
void ds_gemm_block(std::size_t rows, std::size_t cols, std::size_t depth,
                   const float* a_hi, const float* a_lo, std::size_t lda,
                   const float* b_hi, const float* b_lo, std::size_t ldb,
                   float* c_hi, float* c_lo, std::size_t ldc);

/// Splits a host FP64 matrix into hi/lo FP32 planes.
void split_matrix(const double* src, float* hi, float* lo, std::size_t count);

/// Reassembles hi/lo planes into FP64.
void join_matrix(const float* hi, const float* lo, double* dst,
                 std::size_t count);

/// The whole emulated-FP64 GEMM round trip on `device` for n x n FP64
/// operands: split into hi/lo planes, dispatch the shader (charging the
/// simulated GPU), join the product back to FP64. The one dispatch sequence
/// the X3 bench and the orchestrator's kFp64Emulation executor share.
std::vector<double> run_emulated_gemm(metal::Device& device, const double* a,
                                      const double* b, std::uint32_t n);

}  // namespace ao::fp64emu
