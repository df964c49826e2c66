#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "soc/chip_spec.hpp"

namespace ao::precision {

/// The numeric formats the M-series exposes across its units (Table 1 and
/// Sections 2.1-2.3): FP64 on the CPU only, FP32 everywhere, FP16 on
/// GPU/ANE/AMX, plus double-single emulation as the GPU's FP64 workaround.
enum class Format {
  kFp64Cpu,        ///< native double (CPU / AMX)
  kFp64Emulated,   ///< double-single on the GPU
  kFp32,           ///< native FP32 (GPU / CPU / AMX)
  kFp16,           ///< half precision (GPU / ANE / AMX)
};

std::string to_string(Format format);

/// One row of the mixed-precision study: accuracy and modeled throughput of
/// a GEMM at one format — the experiment the paper names as future work
/// ("future studies could explore the impact of mixed-precision workloads on
/// computational efficiency and accuracy", Section 7).
struct StudyResult {
  Format format{};
  std::size_t n = 0;
  double max_abs_error = 0.0;     ///< vs the FP64 reference
  double mean_abs_error = 0.0;
  double significant_digits = 0.0;  ///< -log10(relative error)
  double modeled_gflops = 0.0;    ///< effective rate on the given chip
  std::string executing_unit;

  bool operator==(const StudyResult&) const = default;
};

/// Version of the numeric model behind gemm_accuracy_pass(). A study's cache
/// key is otherwise only (n, seed), so the key folds this in: rows a store
/// kept from an older model are never served. Bump it whenever a row's
/// result changes. Epoch 1 is the FP16 row as the ANE datapath (FP32
/// accumulation); keys from before it carried no epoch, and their FP16 row
/// rounded its accumulator to half after every add.
inline constexpr std::uint64_t kAccuracyModelEpoch = 1;

/// The FP64 reference GEMM (the ground truth of the study and of the
/// FP64-emulation record): n x n row-major, i-k-j, each element summed from
/// 0.0 in k order; rows run in parallel on the shared pool.
std::vector<double> gemm_fp64(const std::vector<double>& a,
                              const std::vector<double>& b, std::size_t n);

/// The chip-free half of the study: computes the FP64 reference once, then
/// each format's result functionally, on uniformly random [0,1) inputs. Rows
/// carry every field but `modeled_gflops` (0 here), so one pass serves every
/// chip.
std::vector<StudyResult> gemm_accuracy_pass(std::size_t n,
                                            std::uint64_t seed = 99);

/// The per-chip half: sets each row's `modeled_gflops` from `chip`'s
/// calibrated model.
void fill_modeled_gflops(std::vector<StudyResult>& rows, soc::ChipModel chip);

/// Runs the GEMM accuracy study at size n and attaches the modeled
/// throughput for `chip`: gemm_accuracy_pass() then fill_modeled_gflops().
std::vector<StudyResult> run_gemm_precision_study(soc::ChipModel chip,
                                                  std::size_t n,
                                                  std::uint64_t seed = 99);

}  // namespace ao::precision
