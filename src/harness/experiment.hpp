#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "gemm/gemm_interface.hpp"
#include "harness/matrix_workload.hpp"
#include "power/powermetrics.hpp"
#include "util/statistics.hpp"

namespace ao::harness {

/// One (chip, implementation, size) measurement — a point in Figures 2-4.
struct GemmMeasurement {
  soc::ChipModel chip{};
  soc::GemmImpl impl{};
  std::size_t n = 0;

  util::SampleSet time_ns;      ///< per repetition (simulated)
  double best_gflops = 0.0;     ///< from the fastest repetition
  double mean_gflops = 0.0;

  double power_mw = 0.0;        ///< powermetrics combined power over the run
  double cpu_power_mw = 0.0;
  double gpu_power_mw = 0.0;
  double gflops_per_watt = 0.0; ///< best_gflops / (power_mw / 1000)

  bool functional = false;      ///< numeric work actually executed
  bool verified = false;        ///< checked against the reference SGEMM
  float max_error = 0.0f;

  bool operator==(const GemmMeasurement&) const = default;
};

/// Reproduces the paper's measurement methodology (Sections 3.2-3.3 and 4):
///
///  - n x n matrices, page-aligned, uniform [0, 1) FP32;
///  - each experiment repeated five times, timed at ns granularity
///    (simulated clock here, std::chrono there);
///  - power measured by piggybacking powermetrics on the same run: start the
///    monitor, warm it up (~2 s), SIGINFO to reset, run, SIGINFO to capture,
///    stop, then parse the tool's text output;
///  - the slowest CPU paths skip n >= 8192 (paper_skips()).
///
/// The harness adds two reproduction-specific controls: functional execution
/// is limited to n <= functional threshold per implementation (above it the
/// model alone is charged) and results are verified against the reference
/// SGEMM up to verify_n_max.
class GemmExperiment {
 public:
  struct Options {
    int repetitions = 5;
    std::size_t verify_n_max = 256;
    bool use_powermetrics = true;
    double warmup_seconds = 2.0;
    /// Seed the operand matrices are generated from. Part of a measurement's
    /// identity: the orchestrator's ResultCache keys on it.
    std::uint64_t matrix_seed = 42;
    /// Per-impl functional ceilings (0 = never run functionally). Every
    /// default equals verify_n_max, so each product computed is also
    /// checked: above the ceiling the model alone is charged, and a product
    /// nothing verifies would only set the record's `functional` bit.
    std::map<soc::GemmImpl, std::size_t> functional_n_max = {
        {soc::GemmImpl::kCpuSingle, 256},  {soc::GemmImpl::kCpuOmp, 256},
        {soc::GemmImpl::kCpuAccelerate, 256}, {soc::GemmImpl::kGpuNaive, 256},
        {soc::GemmImpl::kGpuCutlass, 256}, {soc::GemmImpl::kGpuMps, 256},
    };
  };

  explicit GemmExperiment(gemm::GemmContext& context);
  GemmExperiment(gemm::GemmContext& context, Options options);

  /// Measures one implementation at one size, using (and clobbering the
  /// output matrix of) `matrices`.
  GemmMeasurement measure(gemm::IGemm& impl, MatrixSet& matrices);

  /// View form: timed measurement plus verification against the reference
  /// SGEMM (when functional and n <= verify_n_max).
  GemmMeasurement measure(gemm::IGemm& impl, const MatrixView& matrices);

  /// Timing + power only, no verification — the orchestrator verifies after
  /// releasing the simulated System, against a reference product it
  /// computes once per size. With `compute == false` every repetition runs
  /// model-only, charging the same simulated time, while the record's
  /// `functional` still reports functional_at(): the orchestrator computes
  /// each (impl, n) product once per campaign and shares it across chips.
  GemmMeasurement measure_timed(gemm::IGemm& impl, const MatrixView& matrices,
                                bool compute = true);

  /// Full sweep: every implementation over `sizes`, honoring paper_skips().
  /// Matrices are allocated once per size and shared across implementations.
  ///
  /// Routed through the orchestrator: each point is measured on a freshly
  /// booted simulated System of the bound context's chip model (the paper's
  /// reboot-and-idle protocol), NOT on the bound System itself — the
  /// caller's System is left untouched and its activity log stays empty.
  /// measure() still runs on the bound context for callers that
  /// pre-condition a System deliberately (e.g. the cooling ablation).
  std::vector<GemmMeasurement> run_suite(
      const std::vector<soc::GemmImpl>& impls,
      const std::vector<std::size_t>& sizes);

  const Options& options() const { return options_; }

 private:
  gemm::GemmContext* ctx_;
  Options options_;
};

/// True when `impl` at size `n` executes numerically under `options`
/// (it has a functional ceiling and n is within it). Pure policy — the
/// campaign expander uses it to decide which jobs need filled matrices.
bool functional_at(const GemmExperiment::Options& options, soc::GemmImpl impl,
                   std::size_t n);

/// True when `impl` at size `n` is functional and its output is checked
/// against the reference SGEMM (n <= verify_n_max).
bool verified_at(const GemmExperiment::Options& options, soc::GemmImpl impl,
                 std::size_t n);

/// Checks a functional measurement's output against the double-accumulating
/// reference SGEMM, filling `m.max_error` / `m.verified`. No-op for
/// non-functional measurements (nothing was computed). Needs only host
/// buffers, not a simulated System.
void verify_measurement(GemmMeasurement& m, const MatrixView& matrices);

/// verify_measurement() against a reference product the caller already
/// holds (`expected`, n x n, from accelerate::reference::sgemm over the same
/// operands) — the orchestrator computes it once per matrix size.
void verify_measurement(GemmMeasurement& m, const MatrixView& matrices,
                        const float* expected);

}  // namespace ao::harness
