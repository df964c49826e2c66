#pragma once

#include "metal/kernel.hpp"

namespace ao::shaders {

/// GEMM compute shaders after the open-source metal_performance_testing
/// repository the paper takes its naive and "Cutlass-style" shaders from.
/// Both compute C = A * B over row-major FP32 square matrices bound as:
///
///   slot 0: A    slot 1: B    slot 2: C    slot 3: uint32 n
///
/// The naive shader assigns one thread per C element (row = global y,
/// col = global x) and walks the full k dimension with no data staging.
/// Written as a GroupKernel: the host runs a threadgroup's threads in
/// lockstep over k, as a SIMD-group does, so each step reads a row of B.
/// Every thread still adds its own products in k order from 0.0f, so C is
/// bit-identical to one call per thread. Any threads_per_threadgroup works.
metal::Kernel make_gemm_naive();

/// The Cutlass-style tiled shader stages 32 x 32 tiles of A and B through
/// threadgroup memory; an 8 x 8 threadgroup computes one C tile with each
/// thread accumulating a 4 x 4 register micro-tile. Written as a GroupKernel:
/// the explicit phase loops correspond to the MSL version's
/// threadgroup_barrier(mem_flags::mem_threadgroup) between the load and
/// multiply phases. In the multiply phase the threads run in lockstep over
/// k, a full tile row at a time; each accumulator keeps its k order.
metal::Kernel make_gemm_tiled();

/// Tile geometry of the tiled shader (exported for dispatch-size math).
inline constexpr std::uint32_t kGemmTile = 32;          ///< C tile edge
inline constexpr std::uint32_t kGemmGroupEdge = 8;      ///< threads per edge
inline constexpr std::uint32_t kGemmMicroTile =
    kGemmTile / kGemmGroupEdge;                         ///< 4x4 per thread

/// Threadgroup memory the tiled shader needs (two staged tiles).
inline constexpr std::size_t kGemmTiledScratchBytes =
    2u * kGemmTile * kGemmTile * sizeof(float);

}  // namespace ao::shaders
