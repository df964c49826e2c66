#include "soc/chip_spec.hpp"

#include <algorithm>
#include <cctype>

#include "util/error.hpp"

namespace ao::soc {

std::string to_string(ChipModel model) {
  switch (model) {
    case ChipModel::kM1:
      return "M1";
    case ChipModel::kM2:
      return "M2";
    case ChipModel::kM3:
      return "M3";
    case ChipModel::kM4:
      return "M4";
  }
  return "unknown";
}

ChipModel chip_model_from_string(const std::string& name) {
  std::string lowered(name.size(), '\0');
  std::transform(name.begin(), name.end(), lowered.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lowered == "m1") return ChipModel::kM1;
  if (lowered == "m2") return ChipModel::kM2;
  if (lowered == "m3") return ChipModel::kM3;
  if (lowered == "m4") return ChipModel::kM4;
  throw util::InvalidArgument("unknown chip model: " + name);
}

namespace {

std::array<ChipSpec, 4> make_specs() {
  std::array<ChipSpec, 4> specs{};

  {
    ChipSpec& m1 = specs[0];
    m1.model = ChipModel::kM1;
    m1.name = "M1";
    m1.process_technology = "5";
    m1.cpu_architecture = "ARMv8.5-A";
    m1.p_core_name = "Firestorm";
    m1.e_core_name = "Icestorm";
    m1.performance_cores = 4;
    m1.efficiency_cores = 4;
    m1.p_clock_ghz = 3.2;
    m1.e_clock_ghz = 2.06;
    m1.vector_unit = "NEON";
    m1.vector_width_bits = 128;
    m1.l1_kb_per_p_core = 128;
    m1.l1_kb_per_e_core = 64;
    m1.l2_mb_p_cluster = 12;
    m1.l2_mb_e_cluster = 4;
    m1.amx_precisions = "FP16,32,64";
    m1.amx_is_sme = false;
    m1.gpu_cores_min = 7;
    m1.gpu_cores_max = 8;
    m1.gpu_clock_ghz = 1.27;
    m1.gpu_native_precisions = "FP32, FP16, INT8";
    m1.theoretical_fp32_tflops_min = 2.29;
    m1.theoretical_fp32_tflops_max = 2.61;
    m1.neural_engine_cores = 16;
    m1.memory_technology = "LPDDR4X";
    m1.unified_memory_gb_options = {8, 16};
    m1.memory_bandwidth_gbs = 67.0;
  }

  {
    ChipSpec& m2 = specs[1];
    m2.model = ChipModel::kM2;
    m2.name = "M2";
    m2.process_technology = "5/4";
    m2.cpu_architecture = "ARMv8.6-A";
    m2.p_core_name = "Avalanche";
    m2.e_core_name = "Blizzard";
    m2.performance_cores = 4;
    m2.efficiency_cores = 4;
    m2.p_clock_ghz = 3.5;
    m2.e_clock_ghz = 2.42;
    m2.vector_unit = "NEON";
    m2.vector_width_bits = 128;
    m2.l1_kb_per_p_core = 128;
    m2.l1_kb_per_e_core = 64;
    m2.l2_mb_p_cluster = 16;
    m2.l2_mb_e_cluster = 4;
    m2.amx_precisions = "FP16,32,64/BF16";
    m2.amx_is_sme = false;
    m2.gpu_cores_min = 8;
    m2.gpu_cores_max = 10;
    m2.gpu_clock_ghz = 1.39;
    m2.gpu_native_precisions = "FP32, FP16, INT8";
    m2.theoretical_fp32_tflops_min = 2.86;
    m2.theoretical_fp32_tflops_max = 3.57;
    m2.neural_engine_cores = 16;
    m2.memory_technology = "LPDDR5";
    m2.unified_memory_gb_options = {8, 16, 24};
    m2.memory_bandwidth_gbs = 100.0;
  }

  {
    ChipSpec& m3 = specs[2];
    m3.model = ChipModel::kM3;
    m3.name = "M3";
    m3.process_technology = "3";
    m3.cpu_architecture = "ARMv8.6-A";
    m3.p_core_name = "Everest-class";
    m3.e_core_name = "Sawtooth-class";
    m3.performance_cores = 4;
    m3.efficiency_cores = 4;
    m3.p_clock_ghz = 4.05;
    m3.e_clock_ghz = 2.75;
    m3.vector_unit = "NEON";
    m3.vector_width_bits = 128;
    m3.l1_kb_per_p_core = 128;
    m3.l1_kb_per_e_core = 64;
    m3.l2_mb_p_cluster = 16;
    m3.l2_mb_e_cluster = 4;
    m3.amx_precisions = "FP16,32,64/BF16";
    m3.amx_is_sme = false;
    m3.gpu_cores_min = 8;
    m3.gpu_cores_max = 10;
    m3.gpu_clock_ghz = 1.38;
    m3.gpu_native_precisions = "FP32, FP16, INT8";
    m3.theoretical_fp32_tflops_min = 2.82;
    m3.theoretical_fp32_tflops_max = 3.53;
    m3.neural_engine_cores = 16;
    m3.memory_technology = "LPDDR5";
    m3.unified_memory_gb_options = {8, 16, 24};
    m3.memory_bandwidth_gbs = 100.0;
  }

  {
    ChipSpec& m4 = specs[3];
    m4.model = ChipModel::kM4;
    m4.name = "M4";
    m4.process_technology = "3";
    m4.cpu_architecture = "ARMv9.2-A";
    m4.p_core_name = "P-core (ARMv9)";
    m4.e_core_name = "E-core (ARMv9)";
    m4.performance_cores = 4;
    m4.efficiency_cores = 6;
    m4.p_clock_ghz = 4.4;
    m4.e_clock_ghz = 2.85;
    m4.vector_unit = "NEON";
    m4.vector_width_bits = 128;
    m4.l1_kb_per_p_core = 128;
    m4.l1_kb_per_e_core = 64;
    m4.l2_mb_p_cluster = 16;
    m4.l2_mb_e_cluster = 4;
    m4.amx_precisions = "FP16,32,64/BF16";
    m4.amx_is_sme = true;  // M4 ships standardized ARM SME
    m4.gpu_cores_min = 8;
    m4.gpu_cores_max = 10;
    m4.gpu_clock_ghz = 1.47;
    m4.gpu_native_precisions = "FP32, FP16, INT8";
    m4.theoretical_fp32_tflops_min = 4.26;
    m4.theoretical_fp32_tflops_max = 4.26;
    m4.neural_engine_cores = 16;
    m4.memory_technology = "LPDDR5X";
    m4.unified_memory_gb_options = {16, 24, 32};
    m4.memory_bandwidth_gbs = 120.0;
  }

  return specs;
}

}  // namespace

const std::array<ChipSpec, 4>& all_chip_specs() {
  static const std::array<ChipSpec, 4> specs = make_specs();
  return specs;
}

const ChipSpec& chip_spec(ChipModel model) {
  return all_chip_specs()[static_cast<std::size_t>(model)];
}

}  // namespace ao::soc
