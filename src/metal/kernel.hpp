#pragma once

#include <functional>
#include <string>
#include <variant>

#include "metal/argument_table.hpp"
#include "metal/shader_types.hpp"
#include "soc/benchmark_taxonomy.hpp"

namespace ao::metal {

/// How the simulator prices a dispatch of this kernel. The calibrated GEMM
/// and STREAM paths route to their dedicated anchors (Figures 1-2); anything
/// else takes the generic GPU roofline.
struct WorkEstimate {
  enum class Timing { kGeneric, kGemm, kStream };

  Timing timing = Timing::kGeneric;

  // kGeneric
  double flops = 0.0;
  double bytes = 0.0;
  double compute_efficiency = 0.60;

  // kGemm
  soc::GemmImpl gemm_impl = soc::GemmImpl::kGpuNaive;
  std::size_t gemm_n = 0;

  // kStream
  soc::StreamKernel stream_kernel = soc::StreamKernel::kCopy;
  std::uint64_t stream_bytes = 0;

  static WorkEstimate generic(double flops, double bytes,
                              double efficiency = 0.60);
  static WorkEstimate gemm(soc::GemmImpl impl, std::size_t n);
  static WorkEstimate stream(soc::StreamKernel kernel, std::uint64_t bytes);
};

/// Per-thread kernel body (no threadgroup memory / barriers), called once
/// per thread: the STREAM kernels.
using ThreadKernelFn =
    std::function<void(const ArgumentTable&, const ThreadContext&)>;

/// Per-threadgroup kernel body, called once per threadgroup: the
/// Cutlass-style tiled GEMM shader (threadgroup memory + barrier phases) and
/// the naive GEMM shader (its threads run in lockstep over k). See
/// GroupContext for the execution contract.
using GroupKernelFn =
    std::function<void(const ArgumentTable&, const GroupContext&)>;

/// Cost estimator invoked at commit time with the bound arguments and the
/// dispatch geometry.
using WorkEstimator =
    std::function<WorkEstimate(const ArgumentTable&, const DispatchShape&)>;

/// A compiled compute function — the .metallib entry the paper's benchmarks
/// load by name before dispatching.
struct Kernel {
  std::string name;
  std::variant<ThreadKernelFn, GroupKernelFn> body;
  WorkEstimator estimator;

  bool is_group_kernel() const {
    return std::holds_alternative<GroupKernelFn>(body);
  }
};

}  // namespace ao::metal
