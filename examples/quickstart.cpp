// Quickstart: create a simulated M4, multiply two matrices with Metal
// Performance Shaders, and read performance + power the way the paper does.
//
// Build & run:  ./build/examples/quickstart [chip] [n]

#include <iostream>

#include "core/ao.hpp"

int main(int argc, char** argv) {
  using namespace ao;

  const soc::ChipModel model =
      argc > 1 ? soc::chip_model_from_string(argv[1]) : soc::ChipModel::kM4;
  const std::size_t n = argc > 2 ? std::stoul(argv[2]) : 1024;

  // One fully wired simulated machine: SoC + unified memory + Metal device.
  core::System system(model);
  std::cout << "Device: " << system.device().name() << " ("
            << system.soc().device().device << ", "
            << system.soc().device().memory_gb << " GB unified memory)\n";

  // Page-aligned matrices, the paper's workload. The simulated time and
  // power depend on n alone and this walkthrough never reads the product,
  // so the multiply below is model-only and the operands stay unfilled
  // (untouched pages cost address space only).
  harness::MatrixSet matrices(n, /*fill=*/false);

  // powermetrics protocol: start, warm up, SIGINFO to reset.
  power::PowerMetrics monitor(system.soc(),
                              power::SamplerSet{true, true, true});
  monitor.start();
  system.soc().idle(2e9);
  monitor.siginfo();

  // The multiplication, via the GPU-MPS implementation (Listing 2's path).
  auto mps = gemm::create_gemm(soc::GemmImpl::kGpuMps, system.gemm_context());
  const auto t0 = system.soc().clock().now();
  mps->multiply(n, matrices.memory_length(), matrices.left(), matrices.right(),
                matrices.out(), /*functional=*/false);
  const auto elapsed_ns = static_cast<double>(system.soc().clock().now() - t0);

  // SIGINFO to capture, then stop and parse the text output.
  monitor.siginfo();
  monitor.stop();
  const auto samples = power::parse_powermetrics_output(monitor.output_text());

  const double gflops = util::gflops(soc::gemm_flops(n), elapsed_ns);
  const double watts = samples.back().combined_mw / 1e3;
  std::cout << "GEMM n=" << n << " via GPU-MPS:\n"
            << "  simulated time : " << util::format_fixed(elapsed_ns / 1e6, 3)
            << " ms\n"
            << "  performance    : " << util::format_fixed(gflops, 1)
            << " GFLOPS\n"
            << "  power          : " << util::format_fixed(watts, 2) << " W\n"
            << "  efficiency     : "
            << util::format_fixed(gflops / watts, 1) << " GFLOPS/W\n";
  return 0;
}
