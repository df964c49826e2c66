#pragma once

#include <memory>

#include "gemm/gemm_interface.hpp"
#include "mem/unified_memory.hpp"
#include "metal/device.hpp"
#include "shaders/default_library.hpp"
#include "soc/perf_model.hpp"
#include "soc/soc.hpp"

namespace ao::core {

/// One fully wired simulated machine — the library's top-level entry point.
///
/// Construction order mirrors the physical stack: the SoC (clock, thermal
/// state, activity log), its unified memory pool, the Metal device over
/// both, a default command queue, and the shader library. Benchmarks,
/// examples and tests build everything else from here.
///
///   ao::core::System m4(ao::soc::ChipModel::kM4);
///   auto mps = ao::gemm::create_gemm(ao::soc::GemmImpl::kGpuMps,
///                                    m4.gemm_context());
class System {
 public:
  explicit System(soc::ChipModel model);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  soc::Soc& soc() { return soc_; }
  const soc::Soc& soc() const { return soc_; }
  mem::UnifiedMemory& memory() { return memory_; }
  metal::Device& device() { return device_; }
  metal::CommandQueuePtr default_queue() { return queue_; }
  const metal::Library& shader_library() const {
    return shaders::default_library();
  }
  const soc::PerfModel& perf() const { return perf_; }

  /// Context handed to the GEMM implementations (references this System).
  gemm::GemmContext& gemm_context() { return gemm_context_; }

  soc::ChipModel model() const { return soc_.spec().model; }
  std::string name() const { return soc_.spec().name; }

 private:
  soc::Soc soc_;
  mem::UnifiedMemory memory_;
  metal::Device device_;
  metal::CommandQueuePtr queue_;
  soc::PerfModel perf_;
  gemm::GemmContext gemm_context_;
};

}  // namespace ao::core
