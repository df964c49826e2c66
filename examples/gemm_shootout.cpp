// GEMM shoot-out: the paper's six implementations head to head on one chip,
// with verification, timing, power and efficiency per implementation.
//
// Usage: ./build/examples/gemm_shootout [chip] [n]

#include <iostream>

#include "core/ao.hpp"
#include "harness/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ao;

  const soc::ChipModel model =
      argc > 1 ? soc::chip_model_from_string(argv[1]) : soc::ChipModel::kM2;
  // The default size is the largest the default options compute and
  // verify; above it every implementation runs model-only.
  const std::size_t n = argc > 2 ? std::stoul(argv[2]) : 256;

  core::System system(model);
  harness::GemmExperiment::Options opts;
  opts.repetitions = 5;  // the paper's count
  harness::GemmExperiment experiment(system.gemm_context(), opts);

  std::cout << "GEMM shoot-out on " << system.device().name() << ", n=" << n
            << " (5 repetitions, powermetrics piggyback)\n\n";

  util::TablePrinter table({"Implementation", "GFLOPS (best)", "GFLOPS (mean)",
                            "Power (mW)", "GFLOPS/W", "Verified"});
  harness::MatrixSet matrices(n, /*fill=*/true);
  for (const auto kind : soc::kAllGemmImpls) {
    auto impl = gemm::create_gemm(kind, system.gemm_context());
    matrices.clear_out();
    const auto m = experiment.measure(*impl, matrices);
    table.add_row({impl->name(), util::format_fixed(m.best_gflops, 1),
                   util::format_fixed(m.mean_gflops, 1),
                   util::format_fixed(m.power_mw, 0),
                   util::format_fixed(m.gflops_per_watt, 1),
                   m.verified      ? "yes"
                   : m.functional  ? "unchecked"
                                   : "model-only"});
  }
  table.print(std::cout);

  std::cout << "\nThe ordering reproduces Figure 2 at this size; rerun with "
               "n=16384 to see MPS pull away (model-only above the "
               "verification threshold).\n";
  return 0;
}
