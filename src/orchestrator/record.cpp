#include "orchestrator/record.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"
#include "util/hex.hpp"

namespace ao::orchestrator {
namespace {

// Token stream primitives. Every numeric value is one lowercase-hex token of
// its bit pattern; strings are hex-encoded bytes ("-" when empty). The
// writer and reader below are the only code that knows this encoding — the
// entry framing (header, digest) lives in result_cache.cpp.

void put_u64(std::string& out, std::uint64_t value) {
  out += ' ';
  util::append_hex_u64(out, value);
}

void put_double(std::string& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

void put_float(std::string& out, float value) {
  put_u64(out, std::bit_cast<std::uint32_t>(value));
}

void put_string(std::string& out, const std::string& value) {
  if (value.empty()) {
    out += " -";
    return;
  }
  out += ' ';
  for (const char c : value) {
    constexpr char kHex[] = "0123456789abcdef";
    out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xf];
    out += kHex[static_cast<unsigned char>(c) & 0xf];
  }
}

/// Pull-parser over the token stream; any failure latches `ok = false` and
/// every subsequent read returns a zero value. Tokens are views into the
/// caller's buffer (util::next_token), so a record parses without a copy.
class TokenReader {
 public:
  explicit TokenReader(std::string_view tokens) : rest_(tokens) {}

  bool ok() const { return ok_; }

  /// True when the stream was fully consumed without errors.
  bool exhausted() { return ok_ && next().empty(); }

  std::string_view raw() {
    const std::string_view token = next();
    if (token.empty()) {
      ok_ = false;
    }
    return token;
  }

  std::uint64_t u64() {
    const std::string_view token = raw();
    std::uint64_t value = 0;
    if (!ok_ || !util::parse_hex_u64(token, value)) {
      ok_ = false;
      return 0;
    }
    return value;
  }

  double dbl() { return std::bit_cast<double>(u64()); }

  float flt() { return std::bit_cast<float>(static_cast<std::uint32_t>(u64())); }

  bool boolean() { return u64() != 0; }

  std::size_t size() { return static_cast<std::size_t>(u64()); }

  template <typename Enum>
  Enum enumerator(std::uint64_t max_value) {
    const std::uint64_t raw_value = u64();
    if (raw_value > max_value) {
      ok_ = false;
      return Enum{};
    }
    return static_cast<Enum>(raw_value);
  }

  std::string str() {
    const std::string_view token = raw();
    if (!ok_) {
      return {};
    }
    if (token == "-") {
      return {};
    }
    if (token.size() % 2 != 0) {
      ok_ = false;
      return {};
    }
    const auto nibble = [this](char c) -> unsigned {
      if (c >= '0' && c <= '9') {
        return static_cast<unsigned>(c - '0');
      }
      if (c >= 'a' && c <= 'f') {
        return static_cast<unsigned>(c - 'a' + 10);
      }
      ok_ = false;
      return 0;
    };
    std::string value;
    value.reserve(token.size() / 2);
    for (std::size_t i = 0; i < token.size(); i += 2) {
      value.push_back(static_cast<char>((nibble(token[i]) << 4) |
                                        nibble(token[i + 1])));
    }
    return value;
  }

 private:
  std::string_view next() { return util::next_token(rest_); }

  std::string_view rest_;
  bool ok_ = true;
};

constexpr std::uint64_t kMaxChip =
    static_cast<std::uint64_t>(soc::ChipModel::kM4);
constexpr std::uint64_t kMaxImpl =
    static_cast<std::uint64_t>(soc::GemmImpl::kGpuMps);
constexpr std::uint64_t kMaxKernel =
    static_cast<std::uint64_t>(soc::StreamKernel::kTriad);
constexpr std::uint64_t kMaxFormat =
    static_cast<std::uint64_t>(precision::Format::kFp16);
constexpr std::uint64_t kMaxTarget =
    static_cast<std::uint64_t>(ane::DispatchTarget::kCpu);

/// Caps for the variable-length sections, so a corrupt count can't make the
/// loader attempt a multi-gigabyte allocation.
constexpr std::size_t kMaxSamples = 1u << 16;
constexpr std::size_t kMaxRows = 1u << 10;

// ------------------------------------------------------------- writers -----

void write_gemm(std::string& out, const harness::GemmMeasurement& m) {
  put_u64(out, static_cast<std::uint64_t>(m.chip));
  put_u64(out, static_cast<std::uint64_t>(m.impl));
  put_u64(out, m.n);
  put_u64(out, m.time_ns.count());
  for (const double v : m.time_ns.values()) {
    put_double(out, v);
  }
  put_double(out, m.best_gflops);
  put_double(out, m.mean_gflops);
  put_double(out, m.power_mw);
  put_double(out, m.cpu_power_mw);
  put_double(out, m.gpu_power_mw);
  put_double(out, m.gflops_per_watt);
  put_u64(out, m.functional ? 1 : 0);
  put_u64(out, m.verified ? 1 : 0);
  put_float(out, m.max_error);
}

void write_stream(std::string& out, const StreamRecord& r) {
  put_u64(out, static_cast<std::uint64_t>(r.chip));
  put_u64(out, r.gpu ? 1 : 0);
  put_u64(out, static_cast<std::uint64_t>(r.run.threads));
  for (const auto& k : r.run.kernels) {
    put_u64(out, static_cast<std::uint64_t>(k.kernel));
    put_u64(out, k.bytes_per_pass);
    put_double(out, k.best_gbs);
    put_double(out, k.avg_gbs);
    put_double(out, k.min_time_ns);
  }
}

void write_precision(std::string& out, const PrecisionRecord& r) {
  put_u64(out, static_cast<std::uint64_t>(r.chip));
  put_u64(out, r.n);
  put_u64(out, r.seed);
  put_u64(out, r.rows.size());
  for (const auto& row : r.rows) {
    put_u64(out, static_cast<std::uint64_t>(row.format));
    put_u64(out, row.n);
    put_double(out, row.max_abs_error);
    put_double(out, row.mean_abs_error);
    put_double(out, row.significant_digits);
    put_double(out, row.modeled_gflops);
    put_string(out, row.executing_unit);
  }
}

void write_ane(std::string& out, const AneRecord& r) {
  put_u64(out, static_cast<std::uint64_t>(r.chip));
  put_u64(out, r.m);
  put_u64(out, r.n);
  put_u64(out, r.k);
  put_u64(out, static_cast<std::uint64_t>(r.target));
  put_double(out, r.duration_ns);
  put_double(out, r.gflops);
  put_double(out, r.gflops_per_watt);
  put_double(out, r.mean_output);
}

void write_power(std::string& out, const PowerRecord& r) {
  put_u64(out, static_cast<std::uint64_t>(r.chip));
  put_double(out, r.sample.window_seconds);
  put_double(out, r.sample.cpu_mw);
  put_double(out, r.sample.gpu_mw);
  put_double(out, r.sample.ane_mw);
  put_double(out, r.sample.dram_mw);
  put_double(out, r.sample.combined_mw);
}

void write_fp64emu(std::string& out, const Fp64EmuRecord& r) {
  put_u64(out, static_cast<std::uint64_t>(r.chip));
  put_u64(out, r.n);
  put_u64(out, r.seed);
  put_double(out, r.emu_max_abs_error);
  put_double(out, r.fp32_max_abs_error);
  put_double(out, r.emulated_gflops);
  put_double(out, r.fp32_gflops);
}

void write_sme(std::string& out, const SmeRecord& r) {
  put_u64(out, static_cast<std::uint64_t>(r.chip));
  put_u64(out, r.n);
  put_u64(out, r.seed);
  put_double(out, r.max_abs_diff);
  put_u64(out, r.matches_amx ? 1 : 0);
  put_double(out, r.mean_output);
  put_double(out, r.modeled_gflops);
}

// ------------------------------------------------------------- readers -----

std::optional<MeasurementRecord> read_gemm(TokenReader& in) {
  harness::GemmMeasurement m;
  m.chip = in.enumerator<soc::ChipModel>(kMaxChip);
  m.impl = in.enumerator<soc::GemmImpl>(kMaxImpl);
  m.n = in.size();
  const std::size_t samples = in.size();
  if (!in.ok() || samples > kMaxSamples) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < samples; ++i) {
    m.time_ns.add(in.dbl());
  }
  m.best_gflops = in.dbl();
  m.mean_gflops = in.dbl();
  m.power_mw = in.dbl();
  m.cpu_power_mw = in.dbl();
  m.gpu_power_mw = in.dbl();
  m.gflops_per_watt = in.dbl();
  m.functional = in.boolean();
  m.verified = in.boolean();
  m.max_error = in.flt();
  if (!in.exhausted()) {
    return std::nullopt;
  }
  return m;
}

std::optional<MeasurementRecord> read_stream(TokenReader& in) {
  StreamRecord r;
  r.chip = in.enumerator<soc::ChipModel>(kMaxChip);
  r.gpu = in.boolean();
  r.run.threads = static_cast<int>(in.u64());
  for (auto& k : r.run.kernels) {
    k.kernel = in.enumerator<soc::StreamKernel>(kMaxKernel);
    k.bytes_per_pass = in.u64();
    k.best_gbs = in.dbl();
    k.avg_gbs = in.dbl();
    k.min_time_ns = in.dbl();
  }
  if (!in.exhausted()) {
    return std::nullopt;
  }
  return r;
}

std::optional<MeasurementRecord> read_precision(TokenReader& in) {
  PrecisionRecord r;
  r.chip = in.enumerator<soc::ChipModel>(kMaxChip);
  r.n = in.size();
  r.seed = in.u64();
  const std::size_t rows = in.size();
  if (!in.ok() || rows > kMaxRows) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < rows; ++i) {
    precision::StudyResult row;
    row.format = in.enumerator<precision::Format>(kMaxFormat);
    row.n = in.size();
    row.max_abs_error = in.dbl();
    row.mean_abs_error = in.dbl();
    row.significant_digits = in.dbl();
    row.modeled_gflops = in.dbl();
    row.executing_unit = in.str();
    r.rows.push_back(std::move(row));
  }
  if (!in.exhausted()) {
    return std::nullopt;
  }
  return r;
}

std::optional<MeasurementRecord> read_ane(TokenReader& in) {
  AneRecord r;
  r.chip = in.enumerator<soc::ChipModel>(kMaxChip);
  r.m = in.size();
  r.n = in.size();
  r.k = in.size();
  r.target = in.enumerator<ane::DispatchTarget>(kMaxTarget);
  r.duration_ns = in.dbl();
  r.gflops = in.dbl();
  r.gflops_per_watt = in.dbl();
  r.mean_output = in.dbl();
  if (!in.exhausted()) {
    return std::nullopt;
  }
  return r;
}

std::optional<MeasurementRecord> read_power(TokenReader& in) {
  PowerRecord r;
  r.chip = in.enumerator<soc::ChipModel>(kMaxChip);
  r.sample.window_seconds = in.dbl();
  r.sample.cpu_mw = in.dbl();
  r.sample.gpu_mw = in.dbl();
  r.sample.ane_mw = in.dbl();
  r.sample.dram_mw = in.dbl();
  r.sample.combined_mw = in.dbl();
  if (!in.exhausted()) {
    return std::nullopt;
  }
  return r;
}

std::optional<MeasurementRecord> read_fp64emu(TokenReader& in) {
  Fp64EmuRecord r;
  r.chip = in.enumerator<soc::ChipModel>(kMaxChip);
  r.n = in.size();
  r.seed = in.u64();
  r.emu_max_abs_error = in.dbl();
  r.fp32_max_abs_error = in.dbl();
  r.emulated_gflops = in.dbl();
  r.fp32_gflops = in.dbl();
  if (!in.exhausted()) {
    return std::nullopt;
  }
  return r;
}

std::optional<MeasurementRecord> read_sme(TokenReader& in) {
  SmeRecord r;
  r.chip = in.enumerator<soc::ChipModel>(kMaxChip);
  r.n = in.size();
  r.seed = in.u64();
  r.max_abs_diff = in.dbl();
  r.matches_amx = in.boolean();
  r.mean_output = in.dbl();
  r.modeled_gflops = in.dbl();
  if (!in.exhausted()) {
    return std::nullopt;
  }
  return r;
}

}  // namespace

RecordKind record_kind(const MeasurementRecord& record) {
  return static_cast<RecordKind>(record.index());
}

std::string to_string(RecordKind kind) {
  switch (kind) {
    case RecordKind::kGemm:
      return "gemm";
    case RecordKind::kStream:
      return "stream";
    case RecordKind::kPrecision:
      return "precision";
    case RecordKind::kAne:
      return "ane";
    case RecordKind::kPower:
      return "power";
    case RecordKind::kFp64Emu:
      return "fp64emu";
    case RecordKind::kSme:
      return "sme";
  }
  throw util::InvalidArgument("unknown RecordKind");
}

void append_serialized_record(std::string& out,
                              const MeasurementRecord& record) {
  out += to_string(record_kind(record));
  std::visit(
      [&out](const auto& value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, harness::GemmMeasurement>) {
          write_gemm(out, value);
        } else if constexpr (std::is_same_v<T, StreamRecord>) {
          write_stream(out, value);
        } else if constexpr (std::is_same_v<T, PrecisionRecord>) {
          write_precision(out, value);
        } else if constexpr (std::is_same_v<T, AneRecord>) {
          write_ane(out, value);
        } else if constexpr (std::is_same_v<T, PowerRecord>) {
          write_power(out, value);
        } else if constexpr (std::is_same_v<T, Fp64EmuRecord>) {
          write_fp64emu(out, value);
        } else {
          write_sme(out, value);
        }
      },
      record);
}

std::string serialize_record(const MeasurementRecord& record) {
  std::string out;
  out.reserve(serialized_record_size_bound(record));
  append_serialized_record(out, record);
  return out;
}

std::size_t serialized_record_size_bound(const MeasurementRecord& record) {
  // Every numeric token put_u64/put_double/put_float emits is a space plus
  // at most 16 hex digits; a string token is a space plus two hex bytes per
  // character (or " -" when empty). The counts below mirror the write_*
  // functions token for token — a new field there must be counted here.
  constexpr std::size_t kNumericToken = 17;
  const std::size_t tokens = std::visit(
      [](const auto& value) -> std::size_t {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, harness::GemmMeasurement>) {
          return 13 + value.time_ns.values().size();
        } else if constexpr (std::is_same_v<T, StreamRecord>) {
          return 3 + value.run.kernels.size() * 5;
        } else if constexpr (std::is_same_v<T, PrecisionRecord>) {
          std::size_t count = 4 + value.rows.size() * 6;
          std::size_t string_bytes = 0;
          for (const auto& row : value.rows) {
            string_bytes += 1 + std::max<std::size_t>(
                                    1, 2 * row.executing_unit.size());
          }
          // Fold the string bytes into whole numeric-token units, rounding
          // up, so one multiply below covers both shapes.
          return count + (string_bytes + kNumericToken - 1) / kNumericToken;
        } else if constexpr (std::is_same_v<T, AneRecord>) {
          return 9;
        } else if constexpr (std::is_same_v<T, PowerRecord>) {
          return 7;
        } else if constexpr (std::is_same_v<T, Fp64EmuRecord>) {
          return 7;
        } else {
          return 7;  // SmeRecord
        }
      },
      record);
  return to_string(record_kind(record)).size() + tokens * kNumericToken;
}

std::optional<MeasurementRecord> deserialize_record(std::string_view tokens) {
  TokenReader in(tokens);
  const std::string_view tag = in.raw();
  if (!in.ok()) {
    return std::nullopt;
  }
  std::optional<MeasurementRecord> record;
  if (tag == "gemm") {
    record = read_gemm(in);
  } else if (tag == "stream") {
    record = read_stream(in);
  } else if (tag == "precision") {
    record = read_precision(in);
  } else if (tag == "ane") {
    record = read_ane(in);
  } else if (tag == "power") {
    record = read_power(in);
  } else if (tag == "fp64emu") {
    record = read_fp64emu(in);
  } else if (tag == "sme") {
    record = read_sme(in);
  } else {
    return std::nullopt;
  }
  if (!record.has_value() || !in.ok()) {
    return std::nullopt;
  }
  return record;
}

}  // namespace ao::orchestrator
