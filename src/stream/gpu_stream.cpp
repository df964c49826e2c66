#include "stream/gpu_stream.hpp"

#include <algorithm>
#include <cmath>

#include "shaders/default_library.hpp"
#include "shaders/stream_kernels.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ao::stream {

GpuStream::GpuStream(metal::Device& device, std::size_t elements)
    : device_(&device), queue_(device.new_command_queue()), elements_(elements) {
  AO_REQUIRE(elements >= 1024, "STREAM arrays must not be trivially small");
  const std::size_t bytes = elements_ * sizeof(float);
  a_ = device.new_buffer(bytes, mem::StorageMode::kShared);
  b_ = device.new_buffer(bytes, mem::StorageMode::kShared);
  c_ = device.new_buffer(bytes, mem::StorageMode::kShared);
  // The STREAM initial values are written lazily, on the first functional
  // pass. Buffers commit host pages only on first touch, so model-only runs
  // (the orchestrator's bulk case) cost address space, not the hundreds of
  // MiB the arrays span.

  const auto& lib = shaders::default_library();
  for (std::size_t k = 0; k < soc::kAllStreamKernels.size(); ++k) {
    pipelines_[k] = device.new_compute_pipeline_state(
        lib, shaders::stream_kernel_name(soc::kAllStreamKernels[k]));
  }
}

void GpuStream::ensure_filled() {
  if (filled_) {
    return;
  }
  auto* a = static_cast<float*>(a_->contents());
  auto* b = static_cast<float*>(b_->contents());
  auto* c = static_cast<float*>(c_->contents());
  std::fill(a, a + elements_, 1.0f);
  std::fill(b, b + elements_, 2.0f);
  std::fill(c, c + elements_, 0.0f);
  filled_ = true;
}

void GpuStream::encode_kernel(soc::StreamKernel kernel, bool functional) {
  if (functional) {
    ensure_filled();
  }
  auto cmd = queue_->command_buffer();
  auto enc = cmd->compute_command_encoder();
  enc->set_compute_pipeline_state(pipelines_[static_cast<std::size_t>(kernel)]);
  enc->set_buffer(a_.get(), 0, 0);
  enc->set_buffer(b_.get(), 0, 1);
  enc->set_buffer(c_.get(), 0, 2);
  enc->set_value<std::uint32_t>(static_cast<std::uint32_t>(elements_), 3);
  enc->set_value<float>(kScalar, 4);
  enc->set_functional_execution(functional);
  enc->dispatch_threads({static_cast<std::uint32_t>(elements_), 1, 1},
                        {256, 1, 1});
  enc->end_encoding();
  cmd->commit();
  cmd->wait_until_completed();
}

RunResult GpuStream::run(int repetitions, bool functional) {
  AO_REQUIRE(repetitions >= 1, "need at least one repetition");
  RunResult result;
  result.threads = 0;

  std::array<double, 4> best_gbs{};
  std::array<double, 4> sum_gbs{};
  std::array<double, 4> min_time{};
  min_time.fill(0.0);

  auto& clock = device_->soc().clock();
  for (int rep = 0; rep < repetitions; ++rep) {
    for (std::size_t k = 0; k < soc::kAllStreamKernels.size(); ++k) {
      const auto kernel = soc::kAllStreamKernels[k];
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(soc::stream_arrays_touched(kernel)) *
          elements_ * sizeof(float);
      const std::uint64_t t0 = clock.now();
      encode_kernel(kernel, functional);
      const auto dt = static_cast<double>(clock.now() - t0);
      const double gbs = util::gb_per_s(static_cast<double>(bytes), dt);
      best_gbs[k] = std::max(best_gbs[k], gbs);
      sum_gbs[k] += gbs;
      min_time[k] = min_time[k] == 0.0 ? dt : std::min(min_time[k], dt);
      result.kernels[k].kernel = kernel;
      result.kernels[k].bytes_per_pass = bytes;
    }
  }
  for (std::size_t k = 0; k < 4; ++k) {
    result.kernels[k].best_gbs = best_gbs[k];
    result.kernels[k].avg_gbs = sum_gbs[k] / repetitions;
    result.kernels[k].min_time_ns = min_time[k];
  }
  return result;
}

float GpuStream::validate() {
  filled_ = false;  // reset to the canonical initial values
  ensure_filled();
  auto* a = static_cast<float*>(a_->contents());
  auto* b = static_cast<float*>(b_->contents());
  auto* c = static_cast<float*>(c_->contents());

  for (const auto kernel : soc::kAllStreamKernels) {
    encode_kernel(kernel, /*functional=*/true);
  }
  // Expected after one pass: c=a(=1); b=3*c(=3); c=a+b(=4); a=b+3*c(=15).
  const float ea = 15.0f;
  const float eb = 3.0f;
  const float ec = 4.0f;
  float worst = 0.0f;
  for (std::size_t i = 0; i < elements_; ++i) {
    worst = std::max(worst, std::fabs(a[i] - ea));
    worst = std::max(worst, std::fabs(b[i] - eb));
    worst = std::max(worst, std::fabs(c[i] - ec));
  }
  return worst;
}

}  // namespace ao::stream
