#pragma once

#include "gemm/gemm_interface.hpp"

namespace ao::gemm {

/// GPU-Naive: the naive algorithm as a Metal shader, one thread per C
/// element (Table 2 row 3); the host runs each threadgroup's threads in
/// lockstep over k (see shaders/gemm_shaders.hpp). Loads the `gemm_naive`
/// function from the shader library on construction, as the paper loads its
/// .metallib on startup.
class GpuNaiveGemm final : public IGemm {
 public:
  explicit GpuNaiveGemm(GemmContext& context);
  soc::GemmImpl kind() const override { return soc::GemmImpl::kGpuNaive; }
  void multiply(std::size_t n, std::size_t memory_length, const float* left,
                const float* right, float* out, bool functional) override;

  /// Threadgroup edge: "eight horizontal and eight vertical thread groups
  /// were used" (Section 3.2) — 8 x 8 threads per group, grid sized to
  /// cover the matrix.
  static constexpr std::uint32_t kGroupEdge = 8;

 private:
  GemmContext* ctx_;
  metal::ComputePipelineStatePtr pipeline_;
};

/// GPU-CUTLASS: the Cutlass-style tiled shader with threadgroup-memory
/// staging (Table 2 row 4).
class GpuTiledGemm final : public IGemm {
 public:
  explicit GpuTiledGemm(GemmContext& context);
  soc::GemmImpl kind() const override { return soc::GemmImpl::kGpuCutlass; }
  void multiply(std::size_t n, std::size_t memory_length, const float* left,
                const float* right, float* out, bool functional) override;

 private:
  GemmContext* ctx_;
  metal::ComputePipelineStatePtr pipeline_;
};

/// GPU-MPS: Metal Performance Shaders matrix multiplication (Table 2 row 5),
/// following the paper's Listing 2: wrap the page-aligned matrices in
/// no-copy shared buffers, build MPSMatrix descriptors, encode, commit, wait.
class GpuMpsGemm final : public IGemm {
 public:
  explicit GpuMpsGemm(GemmContext& context);
  soc::GemmImpl kind() const override { return soc::GemmImpl::kGpuMps; }
  void multiply(std::size_t n, std::size_t memory_length, const float* left,
                const float* right, float* out, bool functional) override;

 private:
  GemmContext* ctx_;
};

}  // namespace ao::gemm
