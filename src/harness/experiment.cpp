#include "harness/experiment.hpp"

#include <vector>

#include "accelerate/reference_blas.hpp"
#include "orchestrator/campaign.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace ao::harness {

GemmExperiment::GemmExperiment(gemm::GemmContext& context)
    : GemmExperiment(context, Options{}) {}

GemmExperiment::GemmExperiment(gemm::GemmContext& context, Options options)
    : ctx_(&context), options_(std::move(options)) {
  AO_REQUIRE(options_.repetitions >= 1, "need at least one repetition");
}

bool functional_at(const GemmExperiment::Options& options, soc::GemmImpl impl,
                   std::size_t n) {
  const auto it = options.functional_n_max.find(impl);
  return it != options.functional_n_max.end() && n <= it->second;
}

bool verified_at(const GemmExperiment::Options& options, soc::GemmImpl impl,
                 std::size_t n) {
  return functional_at(options, impl, n) && n <= options.verify_n_max;
}

void verify_measurement(GemmMeasurement& m, const MatrixView& matrices) {
  if (!m.functional) {
    return;  // nothing was computed; there is nothing to check
  }
  const std::size_t n = matrices.n;
  std::vector<float> expected(n * n);
  accelerate::reference::sgemm(false, false, n, n, n, 1.0f, matrices.left, n,
                               matrices.right, n, 0.0f, expected.data(), n);
  verify_measurement(m, matrices, expected.data());
}

void verify_measurement(GemmMeasurement& m, const MatrixView& matrices,
                        const float* expected) {
  if (!m.functional) {
    return;
  }
  const std::size_t n = matrices.n;
  AO_REQUIRE(n == m.n, "verification matrices do not match the measurement");
  m.max_error =
      accelerate::reference::max_abs_diff(expected, matrices.out, n, n, n);
  m.verified = m.max_error <= accelerate::reference::gemm_tolerance(n);
}

GemmMeasurement GemmExperiment::measure(gemm::IGemm& impl, MatrixSet& matrices) {
  return measure(impl, matrices.view());
}

GemmMeasurement GemmExperiment::measure(gemm::IGemm& impl,
                                        const MatrixView& matrices) {
  GemmMeasurement m = measure_timed(impl, matrices);
  if (verified_at(options_, m.impl, m.n)) {
    verify_measurement(m, matrices);
  }
  return m;
}

GemmMeasurement GemmExperiment::measure_timed(gemm::IGemm& impl,
                                              const MatrixView& matrices,
                                              bool compute) {
  const std::size_t n = matrices.n;
  soc::Soc& soc = ctx_->soc;

  // The paper runs each test session from a cold, idle machine ("tests are
  // conducted after a system reboot, followed by an idle period until the
  // system is fully idle", Section 4). Restore the thermal state so one
  // measurement's heat soak does not throttle the next; the sustained-load
  // cooling ablation drives multiplications directly to study that effect.
  soc.thermal().reset();

  GemmMeasurement m;
  m.chip = soc.spec().model;
  m.impl = impl.kind();
  m.n = n;
  m.functional = functional_at(options_, impl.kind(), n);

  // Power monitor: started before the run, warmed up, reset via SIGINFO
  // (Section 3.3). The warm-up interval is simulated idle time.
  std::optional<power::PowerMetrics> monitor;
  if (options_.use_powermetrics) {
    monitor.emplace(soc, power::SamplerSet{true, true, true});
    monitor->start();
    soc.idle(options_.warmup_seconds * 1e9);
    monitor->siginfo();  // reset: discard the warm-up window
  }

  const double flops = soc::gemm_flops(n);
  for (int rep = 0; rep < options_.repetitions; ++rep) {
    // Functional execution only on the first repetition: the numeric result
    // cannot change across repetitions, while the modeled time may (thermal
    // drift), exactly what the repeated timing is for.
    const bool functional = compute && m.functional && rep == 0;
    const std::uint64_t t0 = soc.clock().now();
    impl.multiply(n, matrices.memory_length, matrices.left, matrices.right,
                  matrices.out, functional);
    const auto dt = static_cast<double>(soc.clock().now() - t0);
    m.time_ns.add(dt);
  }

  if (monitor.has_value()) {
    const power::PowerSample sample = monitor->siginfo();  // capture the run
    monitor->stop();
    // The paper parses the tool's text output rather than reading values
    // programmatically; round-trip through the same path.
    const auto parsed = power::parse_powermetrics_output(monitor->output_text());
    AO_REQUIRE(parsed.size() == 2, "expected warm-up + run samples");
    m.power_mw = parsed.back().combined_mw;
    m.cpu_power_mw = parsed.back().cpu_mw;
    m.gpu_power_mw = parsed.back().gpu_mw;
    (void)sample;
  }

  m.best_gflops = util::gflops(flops, m.time_ns.min());
  m.mean_gflops = util::gflops(flops, m.time_ns.mean());
  // Efficiency pairs the *mean* rate with the power sample: powermetrics
  // averages over the whole five-repetition window, so dividing the coolest
  // repetition's rate by the window-average power would overstate
  // GFLOPS/W whenever the package throttles mid-window.
  m.gflops_per_watt = util::gflops_per_watt(m.mean_gflops, m.power_mw);
  return m;
}

std::vector<GemmMeasurement> GemmExperiment::run_suite(
    const std::vector<soc::GemmImpl>& impls,
    const std::vector<std::size_t>& sizes) {
  // Route through the orchestrator: the campaign expands the same
  // (impl x size) grid into jobs, batches the per-size allocations exactly
  // as the old serial loop shared them, and — because each job runs on a
  // freshly reset simulated System — produces the measurement set the
  // serial loop produced. Serial callers keep their historical row order.
  orchestrator::Campaign campaign;
  campaign.chips({ctx_->soc.spec().model})
      .impls(impls)
      .sizes(sizes)
      .options(options_)
      .concurrency(1);
  return campaign.run().ordered(sizes, impls);
}

}  // namespace ao::harness
