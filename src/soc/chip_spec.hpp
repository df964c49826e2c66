#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace ao::soc {

/// The four base M-series generations the paper evaluates (Table 1 covers the
/// base models; the devices in Table 3 all use the fully-enabled base chip).
enum class ChipModel { kM1, kM2, kM3, kM4 };

inline constexpr std::array<ChipModel, 4> kAllChipModels = {
    ChipModel::kM1, ChipModel::kM2, ChipModel::kM3, ChipModel::kM4};

std::string to_string(ChipModel model);

/// Parses "M1".."M4" (case-insensitive). Throws InvalidArgument otherwise.
ChipModel chip_model_from_string(const std::string& name);

/// Static architectural description of one chip — the contents of the paper's
/// Table 1 plus the derived quantities the performance model needs.
struct ChipSpec {
  ChipModel model{};
  std::string name;                 ///< "M1" ... "M4"
  std::string process_technology;   ///< e.g. "5", "5/4", "3" (nm)
  std::string cpu_architecture;     ///< e.g. "ARMv8.5-A"
  std::string p_core_name;          ///< e.g. "Firestorm"
  std::string e_core_name;          ///< e.g. "Icestorm"

  int performance_cores = 0;
  int efficiency_cores = 0;
  double p_clock_ghz = 0.0;
  double e_clock_ghz = 0.0;

  std::string vector_unit;          ///< "NEON"
  int vector_width_bits = 0;        ///< 128

  int l1_kb_per_p_core = 0;         ///< data+instruction budget per Table 1
  int l1_kb_per_e_core = 0;
  int l2_mb_p_cluster = 0;
  int l2_mb_e_cluster = 0;

  std::string amx_precisions;       ///< "FP16,32,64" (+ "/BF16" from M2)
  bool amx_is_sme = false;          ///< M4 ships standardized ARM SME

  int gpu_cores_min = 0;            ///< base-model binned range
  int gpu_cores_max = 0;
  double gpu_clock_ghz = 0.0;
  std::string gpu_native_precisions;  ///< "FP32, FP16, INT8"
  double theoretical_fp32_tflops_min = 0.0;
  double theoretical_fp32_tflops_max = 0.0;

  int neural_engine_cores = 0;

  std::string memory_technology;    ///< "LPDDR4X" ...
  std::vector<int> unified_memory_gb_options;
  double memory_bandwidth_gbs = 0.0;  ///< theoretical peak

  /// --- derived quantities -------------------------------------------------

  /// Theoretical FP32 peak of the GPU with the max core count, in GFLOPS.
  double gpu_peak_fp32_gflops() const {
    return theoretical_fp32_tflops_max * 1e3;
  }

  /// Total physical cores (the CPU STREAM thread sweep runs 1..this).
  int total_cpu_cores() const { return performance_cores + efficiency_cores; }

  /// Unified-memory page size, constant across the series.
  static constexpr std::size_t kPageSize = 16384;
};

/// Returns the immutable spec for `model` (data transcribed from Table 1).
const ChipSpec& chip_spec(ChipModel model);

/// All four specs in generation order.
const std::array<ChipSpec, 4>& all_chip_specs();

}  // namespace ao::soc
