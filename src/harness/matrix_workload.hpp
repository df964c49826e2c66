#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "soc/benchmark_taxonomy.hpp"
#include "util/aligned_buffer.hpp"

namespace ao::harness {

/// The paper's matrix-size sweep (Section 4): powers of two from 32 to
/// 16384, "as this provides further hardware optimizations and as padding to
/// such sizes occurs often".
const std::vector<std::size_t>& paper_sizes();

/// Sizes shown in the paper's figures (Figure 2 starts at 256; Figures 3-4
/// at 2048).
const std::vector<std::size_t>& figure2_sizes();
const std::vector<std::size_t>& figure34_sizes();

/// The paper skips the slowest CPU paths at the largest sizes: "Except for
/// CPU-Single (Baseline) and CPU-OMP, which did not execute 8,192 and
/// 16,384 due to the long execution time."
bool paper_skips(soc::GemmImpl impl, std::size_t n);

/// Non-owning view of one GEMM operand set: the exact tuple the paper's
/// test-library callback receives (size, page-rounded byte length, three
/// page-aligned matrices). Inputs are const — a view can share one
/// left/right allocation across many concurrent measurements (the
/// orchestrator's batched scheduling) while each measurement writes its own
/// output matrix.
struct MatrixView {
  std::size_t n = 0;
  std::size_t memory_length = 0;  ///< page-rounded bytes per matrix
  const float* left = nullptr;
  const float* right = nullptr;
  float* out = nullptr;
};

/// One benchmark operand set: three n x n FP32 matrices laid out as the
/// paper's aligned_alloc calls lay them out — aligned to the 16384-byte page
/// size, lengths extended to the nearest page multiple "such that the GPU
/// could bypass memory copying".
class MatrixSet {
 public:
  /// Allocates and (optionally) fills A and B with uniform [0, 1) values;
  /// C starts zeroed. Filling is skipped for model-only runs where content
  /// is never read.
  MatrixSet(std::size_t n, bool fill = true, std::uint64_t seed = 42);

  std::size_t n() const { return n_; }
  /// Page-rounded byte length of each matrix (the `memory_length` the
  /// paper's callback receives).
  std::size_t memory_length() const { return left_.capacity(); }

  float* left() { return left_.as_span<float>().data(); }
  float* right() { return right_.as_span<float>().data(); }
  float* out() { return out_.as_span<float>().data(); }
  const float* left() const { return left_.as_span<float>().data(); }
  const float* right() const { return right_.as_span<float>().data(); }
  const float* out() const { return out_.as_span<float>().data(); }

  /// Zeroes the output matrix (between repetitions).
  void clear_out();

  /// The view the measurement layer consumes.
  MatrixView view() { return {n_, memory_length(), left(), right(), out()}; }

 private:
  std::size_t n_;
  util::AlignedBuffer left_;
  util::AlignedBuffer right_;
  util::AlignedBuffer out_;
};

/// Parallel uniform [0,1) fill with per-chunk deterministic seeding.
void parallel_fill_uniform(float* data, std::size_t count, std::uint64_t seed);

/// The canonical operand-seeding convention: the left matrix is generated
/// from `seed`, the right from a derived seed. Every producer of GEMM
/// operands (MatrixSet, the orchestrator's MatrixBatch) goes through these
/// two functions, so (n, seed) identifies the operand bits everywhere — the
/// property the orchestrator's ResultCache identity rests on.
void fill_left_operand(float* data, std::size_t n, std::uint64_t seed);
void fill_right_operand(float* data, std::size_t n, std::uint64_t seed);

}  // namespace ao::harness
