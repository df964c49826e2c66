#pragma once

#include <memory>

#include "metal/kernel.hpp"

namespace ao::metal {

class Device;

/// MTLComputePipelineState equivalent: a kernel prepared for dispatch on a
/// device, exposing the execution-width limits the paper's shaders query
/// when choosing threadgroup sizes.
class ComputePipelineState {
 public:
  const Kernel& kernel() const { return kernel_; }
  Device& device() { return *device_; }

  /// Hardware limit on threads per threadgroup (1024 on Apple GPUs).
  static constexpr std::uint32_t kMaxTotalThreadsPerThreadgroup = 1024;
  std::uint32_t max_total_threads_per_threadgroup() const {
    return kMaxTotalThreadsPerThreadgroup;
  }

  /// SIMD-group width (32 on Apple GPUs).
  std::uint32_t thread_execution_width() const { return 32; }

  /// Metal's per-threadgroup memory budget (32 KiB).
  static constexpr std::size_t kMaxThreadgroupMemory = 32 * 1024;

 private:
  friend class Device;
  ComputePipelineState(Device* device, Kernel kernel)
      : device_(device), kernel_(std::move(kernel)) {}

  Device* device_;
  Kernel kernel_;
};

using ComputePipelineStatePtr = std::shared_ptr<ComputePipelineState>;

}  // namespace ao::metal
