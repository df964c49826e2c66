#pragma once

#include <array>

#include "soc/benchmark_taxonomy.hpp"
#include "soc/chip_spec.hpp"
#include "soc/compute_unit.hpp"

namespace ao::soc {

/// Calibration anchors for the simulated SoCs.
///
/// This reproduction runs on non-Apple hardware, so reported performance comes
/// from an analytic model (ao::core::PerfModel) instead of wall-clock time.
/// The model's *anchor points* — peak sustained bandwidth per STREAM kernel,
/// peak GFLOPS and sustained package power per GEMM implementation — are
/// transcribed here from the paper's published measurements (Section 5,
/// Figures 1-4). Everything between the anchors (size dependence, launch
/// overheads, thread scaling, thermal effects) is produced by the model.
///
/// Keeping every quoted number in this one translation unit makes the
/// paper-vs-model mapping auditable: docs/benchmarks.md cross-references this
/// file per experiment.

/// STREAM anchors for one chip: sustained GB/s per kernel and agent.
struct StreamCalibration {
  /// Indexed by StreamKernel (Copy, Scale, Add, Triad).
  std::array<double, 4> cpu_gbs;
  std::array<double, 4> gpu_gbs;

  /// Thread-scaling time constant for the CPU sweep: effective bandwidth at
  /// t threads is peak * (1 - exp(-t / tau)). McCalpin STREAM on Apple
  /// Silicon saturates well before the core count.
  double cpu_thread_tau = 2.0;

  /// Fixed launch overhead per GPU STREAM kernel invocation (command buffer
  /// commit + scheduling), in nanoseconds. The Figure-1 anchors are
  /// end-to-end measurements, so the sized-to-spec STREAM arrays must
  /// amortize this almost completely.
  double gpu_launch_overhead_ns = 30e3;

  /// Sustained package draw while streaming (not reported by the paper;
  /// modeled in the same few-Watt band as its Figure 3 measurements).
  double cpu_stream_watts = 5.0;
  double gpu_stream_watts = 4.5;

  double cpu_peak_gbs() const;
  double gpu_peak_gbs() const;
};

/// GEMM performance/power anchors for one (chip, implementation) pair.
///
/// The reported GFLOPS curve over matrix size n is
///   t(n)      = overhead_ns + flops(n) / (peak * rise(n) * decay(n))
///   rise(n)   = 1 / (1 + (n_half / n)^rise_exponent)        — warm-up to peak
///   decay(n)  = n_decay == 0 ? 1
///             : 1 / (1 + (n / n_decay)^decay_exponent)      — cache fall-off
/// which yields the characteristic shapes of Figure 2: overhead-dominated GPU
/// curves at small n, the naive CPU path collapsing once the working set
/// leaves the L2, and saturation at the published peak for the tuned paths.
struct GemmCalibration {
  double peak_gflops = 0.0;     ///< published sustained peak (Figure 2)
  double n_half = 0.0;          ///< size reaching half the peak
  double rise_exponent = 1.7;
  double n_decay = 0.0;         ///< 0 = no decay
  double decay_exponent = 1.2;
  double overhead_ns = 0.0;     ///< fixed per-invocation overhead
  double power_watts = 0.0;     ///< sustained package draw at peak (Figure 3/4)
  ComputeUnit unit = ComputeUnit::kCpuPCluster;  ///< executing unit
};

/// Package idle power split the way powermetrics reports it.
struct IdlePower {
  double cpu_watts = 0.0;
  double gpu_watts = 0.0;
  double dram_watts = 0.0;
};

/// Full calibration record for one chip.
struct ChipCalibration {
  StreamCalibration stream;
  std::array<GemmCalibration, 6> gemm;  ///< indexed by GemmImpl
  IdlePower idle;
};

/// Returns the calibration anchors for `model`.
const ChipCalibration& calibration(ChipModel model);

/// Convenience accessor for one implementation's anchors.
const GemmCalibration& gemm_calibration(ChipModel model, GemmImpl impl);

}  // namespace ao::soc
