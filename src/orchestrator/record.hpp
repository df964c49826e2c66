#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "ane/neural_engine.hpp"
#include "harness/experiment.hpp"
#include "power/power_model.hpp"
#include "precision/precision_study.hpp"
#include "stream/stream_result.hpp"

namespace ao::orchestrator {

/// One STREAM measurement produced by a kStream / kGpuStream job.
struct StreamRecord {
  soc::ChipModel chip = soc::ChipModel::kM1;
  bool gpu = false;  ///< kGpuStream (threads in `run` are 0 for the GPU)
  stream::RunResult run;

  bool operator==(const StreamRecord&) const = default;
};

/// One mixed-precision GEMM study produced by a kPrecisionStudy job: the
/// full accuracy/throughput frontier (FP64, FP64-emulated, FP32, FP16) at
/// one size on one chip.
struct PrecisionRecord {
  soc::ChipModel chip = soc::ChipModel::kM1;
  std::size_t n = 0;
  std::uint64_t seed = 0;
  std::vector<precision::StudyResult> rows;

  bool operator==(const PrecisionRecord&) const = default;
};

/// One Core ML FP16 GEMM dispatch produced by a kAneInference job.
struct AneRecord {
  soc::ChipModel chip = soc::ChipModel::kM1;
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t k = 0;
  ane::DispatchTarget target = ane::DispatchTarget::kNeuralEngine;
  double duration_ns = 0.0;
  double gflops = 0.0;
  double gflops_per_watt = 0.0;
  /// Mean output element of the functional run (0 when model-only) — the
  /// same spot check bench_ext_neural_engine performs.
  double mean_output = 0.0;

  bool operator==(const AneRecord&) const = default;
};

/// One idle-floor power sample produced by a kPowerIdle job.
struct PowerRecord {
  soc::ChipModel chip = soc::ChipModel::kM1;
  power::PowerSample sample;

  bool operator==(const PowerRecord&) const = default;
};

/// One emulated-FP64 GEMM study produced by a kFp64Emulation job: the
/// double-single shader's accuracy against an FP64 reference at size n, and
/// the modeled throughput cost of the emulation (the paper's Section 1/7
/// "can be emulated" extension study).
struct Fp64EmuRecord {
  soc::ChipModel chip = soc::ChipModel::kM1;
  std::size_t n = 0;
  std::uint64_t seed = 0;
  double emu_max_abs_error = 0.0;   ///< double-single shader vs FP64 host
  double fp32_max_abs_error = 0.0;  ///< plain FP32 accumulation vs FP64 host
  double emulated_gflops = 0.0;     ///< effective FP64-emulated rate (modeled)
  double fp32_gflops = 0.0;         ///< native FP32 GPU-MPS rate (modeled)

  bool operator==(const Fp64EmuRecord&) const = default;
};

/// One SME GEMM run produced by a kSmeGemm job: the FMOPA-tiled SGEMM's
/// agreement with the AMX reference (the "fairly similar to the AMX unit at
/// its core" claim, Section 2.1) plus the modeled AMX-class throughput.
struct SmeRecord {
  soc::ChipModel chip = soc::ChipModel::kM1;
  std::size_t n = 0;
  std::uint64_t seed = 0;
  double max_abs_diff = 0.0;  ///< |sme - amx| over every output element
  bool matches_amx = false;   ///< bit-identical to amx_sgemm
  double mean_output = 0.0;   ///< mean C element (functional spot check)
  double modeled_gflops = 0.0;

  bool operator==(const SmeRecord&) const = default;
};

/// The result payload of any cacheable job kind. The ResultCache stores
/// these, the scheduler produces them, and the on-disk store serializes
/// them — one variant instead of a GEMM-only payload.
using MeasurementRecord =
    std::variant<harness::GemmMeasurement, StreamRecord, PrecisionRecord,
                 AneRecord, PowerRecord, Fp64EmuRecord, SmeRecord>;

/// Which alternative a MeasurementRecord holds, as a stable tag (the on-disk
/// format stores this, so the enumerator values are part of the format).
enum class RecordKind : std::uint8_t {
  kGemm = 0,
  kStream = 1,
  kPrecision = 2,
  kAne = 3,
  kPower = 4,
  kFp64Emu = 5,
  kSme = 6,
};

RecordKind record_kind(const MeasurementRecord& record);
std::string to_string(RecordKind kind);

/// Serializes a record to the space-separated token stream the on-disk
/// ResultCache stores (see docs/orchestrator.md for the layout). Numeric
/// fields are written as hexadecimal bit patterns, so floating-point values
/// round-trip exactly.
std::string serialize_record(const MeasurementRecord& record);

/// serialize_record() appended to `out` — the store entry writer builds a
/// whole line in one string this way.
void append_serialized_record(std::string& out, const MeasurementRecord& record);

/// Parses a token stream produced by serialize_record(). Returns nullopt on
/// any malformed input (wrong tag, missing or trailing tokens) — the cache
/// loader treats that as a corrupt entry and skips it.
std::optional<MeasurementRecord> deserialize_record(std::string_view tokens);

/// Upper bound on serialize_record(record).size(), computed without
/// formatting anything: token counts mirror the writers above (every
/// numeric token is at most a space plus 16 hex digits). Feeds the store
/// serializer's reserve path, so one allocation covers a whole snapshot.
std::size_t serialized_record_size_bound(const MeasurementRecord& record);

}  // namespace ao::orchestrator
