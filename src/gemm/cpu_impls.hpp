#pragma once

#include "gemm/gemm_interface.hpp"

namespace ao::gemm {

/// CPU-Single: the reference baseline — a naive triple nested loop in plain
/// C++ on one performance core (Table 2 row 1).
class CpuSingleGemm final : public IGemm {
 public:
  explicit CpuSingleGemm(GemmContext& context);
  soc::GemmImpl kind() const override { return soc::GemmImpl::kCpuSingle; }
  void multiply(std::size_t n, std::size_t memory_length, const float* left,
                const float* right, float* out, bool functional) override;

 private:
  GemmContext* ctx_;
  soc::PerfModel perf_;
};

/// CPU-OMP: multi-threaded tiled multiplication, after the open-source
/// Block-Matrix-Multiplication-OpenMP implementation the paper uses
/// (Section 3.2, footnote 1). The tiles run on util::global_pool(), the
/// engine behind every other parallel kernel here, instead of an OpenMP
/// team.
class CpuOmpGemm final : public IGemm {
 public:
  explicit CpuOmpGemm(GemmContext& context);
  soc::GemmImpl kind() const override { return soc::GemmImpl::kCpuOmp; }
  void multiply(std::size_t n, std::size_t memory_length, const float* left,
                const float* right, float* out, bool functional) override;

  /// Tile edge of the blocked loop (exposed for tests).
  static constexpr std::size_t kBlock = 64;

 private:
  GemmContext* ctx_;
  soc::PerfModel perf_;
};

/// CPU-Accelerate: cblas_sgemm from the Accelerate clone, running on the AMX
/// coprocessor emulator (Listing 1).
class CpuAccelerateGemm final : public IGemm {
 public:
  explicit CpuAccelerateGemm(GemmContext& context);
  soc::GemmImpl kind() const override { return soc::GemmImpl::kCpuAccelerate; }
  void multiply(std::size_t n, std::size_t memory_length, const float* left,
                const float* right, float* out, bool functional) override;

 private:
  GemmContext* ctx_;
  soc::PerfModel perf_;
};

}  // namespace ao::gemm
