#pragma once

#include <cstddef>
#include <string>

#include "soc/soc.hpp"

namespace ao::ane {

/// m x n x k FP32 GEMM on the host (row-major, no alpha/beta): each element
/// of c sums its products one at a time in k order from 0.0f, the bits of a
/// plain FP32 dot product (util::gemm_korder). Blocks of rows of c run in
/// parallel on the shared pool.
/// This is the accumulate half of gemm_fp16_host() and the precision
/// study's FP32 row.
void gemm_fp32_accumulate(std::size_t m, std::size_t n, std::size_t k,
                          const float* a, const float* b, float* c);

/// The FP16-ingest / FP32-accumulate datapath of the ANE (and the AMX mixed
/// mode): a and b are rounded through FP16, then gemm_fp32_accumulate()
/// multiplies them. Every Core ML dispatch target and the precision study's
/// FP16 row compute this one result; what differs is where the simulated
/// time is charged.
void gemm_fp16_host(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, const float* b, float* c);

/// Model of the 16-core Apple Neural Engine.
///
/// The paper does not benchmark the ANE ("A large gap left behind in this
/// research is the lack of Neural Engine testing", Section 7) — this module
/// implements that named future-work item. The ANE supports FP16/INT8 only,
/// runs independently of CPU and GPU, and cannot be programmed directly:
/// work reaches it through Core ML, which "does not provide granular control
/// nor guarantees that the Neural Engine is used" (Section 2.3).
///
/// Throughput anchors are the publicly stated TOPS figures per generation
/// (INT8), with FP16 modeled at half rate.
class NeuralEngine {
 public:
  explicit NeuralEngine(soc::Soc& soc);

  int core_count() const { return soc_->spec().neural_engine_cores; }

  /// Peak INT8 tera-ops and FP16 TFLOPS of this generation.
  double peak_int8_tops() const;
  double peak_fp16_tflops() const { return peak_int8_tops() / 2.0; }

  /// Sustained FP16 GEMM throughput (GFLOPS) the dispatch model yields —
  /// tensor workloads reach ~70% of peak.
  double sustained_fp16_gflops() const { return peak_fp16_tflops() * 1e3 * 0.7; }

  /// Package power while running tensor work, Watts (ANE is the most
  /// efficient unit on the die).
  double active_power_watts() const;

  /// Executes an m x n x k FP16 matrix multiplication *functionally* on the
  /// host (inputs/outputs FP32, internally rounded through FP16 the way the
  /// ANE's mixed-precision datapath does) and charges the simulated time and
  /// energy to the SoC. Returns the simulated duration in ns. Model-only
  /// calls (`functional = false`) never touch the operands, which may then
  /// be null.
  double run_gemm_fp16(std::size_t m, std::size_t n, std::size_t k,
                       const float* a, const float* b, float* c,
                       bool functional = true);

 private:
  soc::Soc* soc_;
};

/// MLComputeUnits-style dispatch preference.
enum class ComputeUnits { kAll, kCpuOnly, kCpuAndGpu, kCpuAndNeuralEngine };

std::string to_string(ComputeUnits units);

/// Where a Core ML prediction actually executed.
enum class DispatchTarget { kNeuralEngine, kGpu, kCpu };

std::string to_string(DispatchTarget target);

/// Outcome of one CoreMLRuntime::predict_gemm dispatch.
struct Prediction {
  DispatchTarget target = DispatchTarget::kNeuralEngine;
  double duration_ns = 0.0;  ///< simulated, dispatch overhead included
  double watts = 0.0;        ///< active power of the unit that executed
  double gflops = 0.0;       ///< effective rate over the whole dispatch
};

/// Minimal Core ML-like runtime: compiles a GEMM "model" and dispatches
/// predictions. The placement rule reproduces the opacity the paper calls
/// out: the ANE is used only when the preference allows it AND the operator
/// shape is ANE-compatible; otherwise work silently falls back to GPU/CPU.
class CoreMLRuntime {
 public:
  explicit CoreMLRuntime(soc::Soc& soc, ComputeUnits preference = ComputeUnits::kAll);

  /// The placement the runtime would choose for an m x n x k FP16 GEMM.
  /// ANE compatibility: all dimensions multiples of 16 and k <= 16384
  /// (tiling constraint of the tensor DMA in this model).
  DispatchTarget plan_gemm(std::size_t m, std::size_t n, std::size_t k) const;

  /// Plans AND executes an m x n x k FP16 GEMM: the numeric result is the
  /// same FP16-ingest / FP32-accumulate datapath wherever it lands, but the
  /// simulated time and power are charged to the unit the plan selected —
  /// the ANE at the engine's sustained rate, the GPU at the MPS FP16 rate,
  /// the CPU at the Accelerate rate. This is the silent-fallback behavior
  /// the paper calls out: the caller learns the placement only afterwards.
  Prediction predict_gemm(std::size_t m, std::size_t n, std::size_t k,
                          const float* a, const float* b, float* c,
                          bool functional = true);

  ComputeUnits preference() const { return preference_; }
  NeuralEngine& engine() { return engine_; }

 private:
  soc::Soc* soc_;
  ComputeUnits preference_;
  NeuralEngine engine_;
};

}  // namespace ao::ane
