#include "ane/neural_engine.hpp"

#include <algorithm>
#include <vector>

#include "amx/float16.hpp"
#include "soc/perf_model.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ao::ane {
namespace {

/// Core ML's model-compilation-and-dispatch overhead per prediction.
constexpr double kDispatchOverheadNs = 25e3;

/// Rows of C per pool task in gemm_fp32_accumulate (a multiple of the
/// kernel's 4-row tile).
constexpr std::size_t kRowBlock = 16;

double gemm_fp16_flops(std::size_t m, std::size_t n, std::size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
             static_cast<double>(k) -
         static_cast<double>(m) * static_cast<double>(n);
}

}  // namespace

void gemm_fp32_accumulate(std::size_t m, std::size_t n, std::size_t k,
                          const float* a, const float* b, float* c) {
  // Blocks of rows on the pool, each the shared k-order kernel: every
  // element sums its products in k order from 0.0f, the bits of an i-j-k
  // dot product.
  const std::size_t blocks = (m + kRowBlock - 1) / kRowBlock;
  util::global_pool().parallel_for(blocks, [&](std::size_t block) {
    const std::size_t i0 = block * kRowBlock;
    util::gemm_korder(std::min(kRowBlock, m - i0), n, k, a + i0 * k, k, b, n,
                      c + i0 * n, n);
  });
}

void gemm_fp16_host(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, const float* b, float* c) {
  std::vector<float> a16(m * k);
  std::vector<float> b16(k * n);
  for (std::size_t i = 0; i < m * k; ++i) {
    a16[i] = amx::round_to_half(a[i]);
  }
  for (std::size_t i = 0; i < k * n; ++i) {
    b16[i] = amx::round_to_half(b[i]);
  }
  gemm_fp32_accumulate(m, n, k, a16.data(), b16.data(), c);
}

NeuralEngine::NeuralEngine(soc::Soc& soc) : soc_(&soc) {}

double NeuralEngine::peak_int8_tops() const {
  // Apple's stated Neural Engine throughput per generation.
  switch (soc_->spec().model) {
    case soc::ChipModel::kM1:
      return 11.0;
    case soc::ChipModel::kM2:
      return 15.8;
    case soc::ChipModel::kM3:
      return 18.0;
    case soc::ChipModel::kM4:
      return 38.0;
  }
  return 0.0;
}

double NeuralEngine::active_power_watts() const {
  // The ANE runs tensor work at single-digit Watts across the series.
  switch (soc_->spec().model) {
    case soc::ChipModel::kM1:
      return 2.0;
    case soc::ChipModel::kM2:
      return 2.4;
    case soc::ChipModel::kM3:
      return 2.6;
    case soc::ChipModel::kM4:
      return 4.2;
  }
  return 0.0;
}

double NeuralEngine::run_gemm_fp16(std::size_t m, std::size_t n, std::size_t k,
                                   const float* a, const float* b, float* c,
                                   bool functional) {
  AO_REQUIRE(m > 0 && n > 0 && k > 0, "GEMM dimensions must be positive");
  if (functional) {
    AO_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
               "GEMM operands must not be null");
    // Inputs round through FP16 (the ANE datapath ingests half precision);
    // accumulation is FP32, as on the real unit.
    gemm_fp16_host(m, n, k, a, b, c);
  }

  const double time_ns =
      kDispatchOverheadNs +
      gemm_fp16_flops(m, n, k) / sustained_fp16_gflops();  // GFLOPS == FLOP/ns
  soc_->execute(soc::ComputeUnit::kNeuralEngine, time_ns, active_power_watts(),
                0.7);
  return time_ns;
}

std::string to_string(ComputeUnits units) {
  switch (units) {
    case ComputeUnits::kAll:
      return "MLComputeUnitsAll";
    case ComputeUnits::kCpuOnly:
      return "MLComputeUnitsCPUOnly";
    case ComputeUnits::kCpuAndGpu:
      return "MLComputeUnitsCPUAndGPU";
    case ComputeUnits::kCpuAndNeuralEngine:
      return "MLComputeUnitsCPUAndNeuralEngine";
  }
  return "unknown";
}

std::string to_string(DispatchTarget target) {
  switch (target) {
    case DispatchTarget::kNeuralEngine:
      return "NeuralEngine";
    case DispatchTarget::kGpu:
      return "GPU";
    case DispatchTarget::kCpu:
      return "CPU";
  }
  return "unknown";
}

CoreMLRuntime::CoreMLRuntime(soc::Soc& soc, ComputeUnits preference)
    : soc_(&soc), preference_(preference), engine_(soc) {}

DispatchTarget CoreMLRuntime::plan_gemm(std::size_t m, std::size_t n,
                                        std::size_t k) const {
  const bool ane_allowed = preference_ == ComputeUnits::kAll ||
                           preference_ == ComputeUnits::kCpuAndNeuralEngine;
  const bool ane_compatible =
      m % 16 == 0 && n % 16 == 0 && k % 16 == 0 && k <= 16384;
  if (ane_allowed && ane_compatible) {
    return DispatchTarget::kNeuralEngine;
  }
  const bool gpu_allowed = preference_ == ComputeUnits::kAll ||
                           preference_ == ComputeUnits::kCpuAndGpu;
  return gpu_allowed ? DispatchTarget::kGpu : DispatchTarget::kCpu;
}

Prediction CoreMLRuntime::predict_gemm(std::size_t m, std::size_t n,
                                       std::size_t k, const float* a,
                                       const float* b, float* c,
                                       bool functional) {
  Prediction p;
  p.target = plan_gemm(m, n, k);
  if (p.target == DispatchTarget::kNeuralEngine) {
    p.duration_ns = engine_.run_gemm_fp16(m, n, k, a, b, c, functional);
    p.watts = engine_.active_power_watts();
    p.gflops = gemm_fp16_flops(m, n, k) / p.duration_ns;  // FLOP/ns == GFLOPS
    return p;
  }

  AO_REQUIRE(m > 0 && n > 0 && k > 0, "GEMM dimensions must be positive");
  if (functional) {
    AO_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
               "GEMM operands must not be null");
    gemm_fp16_host(m, n, k, a, b, c);
  }
  // Fallback rates come from the calibrated GEMM model, with n standing in
  // for the square size: MPS at ~2x its FP32 rate for FP16, Accelerate at
  // its FP32 rate (AMX has no FP16 advantage on this path).
  const soc::PerfModel perf(*soc_);
  const bool gpu = p.target == DispatchTarget::kGpu;
  const auto impl =
      gpu ? soc::GemmImpl::kGpuMps : soc::GemmImpl::kCpuAccelerate;
  double gflops = perf.gemm_gflops(impl, n);
  if (gpu) {
    gflops *= 2.0;
  }
  p.duration_ns = kDispatchOverheadNs + gemm_fp16_flops(m, n, k) / gflops;
  p.watts = perf.gemm_power_watts(impl, n);
  p.gflops = gemm_fp16_flops(m, n, k) / p.duration_ns;
  soc_->execute(gpu ? soc::ComputeUnit::kGpu : soc::ComputeUnit::kCpuPCluster,
                p.duration_ns, p.watts, 0.7);
  return p;
}

}  // namespace ao::ane
