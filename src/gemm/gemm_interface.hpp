#pragma once

#include <memory>
#include <string>

#include "metal/device.hpp"
#include "soc/benchmark_taxonomy.hpp"
#include "soc/perf_model.hpp"

namespace ao::gemm {

/// Shared wiring the implementations draw on: the simulated SoC, its Metal
/// device, one command queue (the paper creates one per run) and the
/// compiled shader library. All references must outlive the implementations.
struct GemmContext {
  soc::Soc& soc;
  metal::Device& device;
  metal::CommandQueuePtr queue;
  const metal::Library& shaders;
};

/// One matrix-multiplication implementation from Table 2.
///
/// multiply() has the exact shape of the paper's test-library callback:
/// `(unsigned int n, unsigned int memory_length, void* left, void* right,
/// void* out)` — n x n row-major FP32 matrices in page-aligned allocations
/// of `memory_length` bytes (a whole number of 16384-byte pages, so the GPU
/// paths can wrap them zero-copy).
///
/// With `functional == false` the numeric work is skipped and only the
/// simulated cost is charged — used above the verification threshold, where
/// the host-side O(n^3) would dominate the run (the paper similarly skips
/// its slowest paths at n >= 8192).
class IGemm {
 public:
  virtual ~IGemm() = default;

  virtual soc::GemmImpl kind() const = 0;
  std::string name() const { return soc::to_string(kind()); }

  virtual void multiply(std::size_t n, std::size_t memory_length,
                        const float* left, const float* right, float* out,
                        bool functional = true) = 0;
};

/// Builds the implementation for `impl` over `context`.
std::unique_ptr<IGemm> create_gemm(soc::GemmImpl impl, GemmContext& context);

}  // namespace ao::gemm
