#include "shaders/stream_kernels.hpp"

namespace ao::shaders {
namespace {

using metal::ArgumentTable;
using metal::DispatchShape;
using metal::ThreadContext;
using metal::WorkEstimate;

/// Shared estimator: total traffic = arrays_touched * n * sizeof(float).
metal::WorkEstimator stream_estimator(soc::StreamKernel kernel) {
  return [kernel](const ArgumentTable& args, const DispatchShape&) {
    const auto n = args.value<std::uint32_t>(3);
    const std::uint64_t bytes = static_cast<std::uint64_t>(
                                    soc::stream_arrays_touched(kernel)) *
                                n * sizeof(float);
    return WorkEstimate::stream(kernel, bytes);
  };
}

}  // namespace

metal::Kernel make_stream_copy() {
  metal::Kernel k;
  k.name = "stream_copy";
  k.body = metal::ThreadKernelFn(
      [](const ArgumentTable& args, const ThreadContext& ctx) {
        const auto n = args.value<std::uint32_t>(3);
        const std::uint32_t i = ctx.thread_position_in_grid.x;
        if (i >= n) {
          return;
        }
        const float* a = args.buffer_data<float>(0);
        float* c = args.buffer_data<float>(2);
        c[i] = a[i];
      });
  k.estimator = stream_estimator(soc::StreamKernel::kCopy);
  return k;
}

metal::Kernel make_stream_scale() {
  metal::Kernel k;
  k.name = "stream_scale";
  k.body = metal::ThreadKernelFn(
      [](const ArgumentTable& args, const ThreadContext& ctx) {
        const auto n = args.value<std::uint32_t>(3);
        const std::uint32_t i = ctx.thread_position_in_grid.x;
        if (i >= n) {
          return;
        }
        float* b = args.buffer_data<float>(1);
        const float* c = args.buffer_data<float>(2);
        const auto scalar = args.value<float>(4);
        b[i] = scalar * c[i];
      });
  k.estimator = stream_estimator(soc::StreamKernel::kScale);
  return k;
}

metal::Kernel make_stream_add() {
  metal::Kernel k;
  k.name = "stream_add";
  k.body = metal::ThreadKernelFn(
      [](const ArgumentTable& args, const ThreadContext& ctx) {
        const auto n = args.value<std::uint32_t>(3);
        const std::uint32_t i = ctx.thread_position_in_grid.x;
        if (i >= n) {
          return;
        }
        const float* a = args.buffer_data<float>(0);
        const float* b = args.buffer_data<float>(1);
        float* c = args.buffer_data<float>(2);
        c[i] = a[i] + b[i];
      });
  k.estimator = stream_estimator(soc::StreamKernel::kAdd);
  return k;
}

metal::Kernel make_stream_triad() {
  metal::Kernel k;
  k.name = "stream_triad";
  k.body = metal::ThreadKernelFn(
      [](const ArgumentTable& args, const ThreadContext& ctx) {
        const auto n = args.value<std::uint32_t>(3);
        const std::uint32_t i = ctx.thread_position_in_grid.x;
        if (i >= n) {
          return;
        }
        float* a = args.buffer_data<float>(0);
        const float* b = args.buffer_data<float>(1);
        const float* c = args.buffer_data<float>(2);
        const auto scalar = args.value<float>(4);
        a[i] = b[i] + scalar * c[i];
      });
  k.estimator = stream_estimator(soc::StreamKernel::kTriad);
  return k;
}

std::string stream_kernel_name(soc::StreamKernel kernel) {
  switch (kernel) {
    case soc::StreamKernel::kCopy:
      return "stream_copy";
    case soc::StreamKernel::kScale:
      return "stream_scale";
    case soc::StreamKernel::kAdd:
      return "stream_add";
    case soc::StreamKernel::kTriad:
      return "stream_triad";
  }
  return "stream_copy";
}

}  // namespace ao::shaders
