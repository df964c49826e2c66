#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "amx/float16.hpp"
#include "util/error.hpp"

namespace ao::amx {

/// Functional emulator of one Apple AMX coprocessor register file and its
/// core instructions.
///
/// AMX is undocumented; this model follows the community reverse engineering
/// (register geometry and the fp32 outer-product layout): a pool of eight
/// 64-byte X registers, eight 64-byte Y registers, and a 64 x 64-byte Z
/// accumulator grid. `fma32` computes a 16 x 16 FP32 outer product
/// z[j][i] += x[i] * y[j], with the j-th product row landing in Z row
/// j * 4 + z_offset — the interleaving real AMX uses so four independent
/// fp32 accumulators coexist in Z (z_offset 0..3).
///
/// The unit must be enabled with set() before use and released with clr(),
/// mirroring the AMX_SET / AMX_CLR instructions that bracket every real AMX
/// sequence.
class AmxUnit {
 public:
  static constexpr std::size_t kRegBytes = 64;
  static constexpr std::size_t kXRegs = 8;
  static constexpr std::size_t kYRegs = 8;
  static constexpr std::size_t kZRows = 64;
  static constexpr std::size_t kLanesF32 = kRegBytes / sizeof(float);   // 16
  static constexpr std::size_t kLanesF16 = kRegBytes / sizeof(Half);    // 32

  /// AMX_SET: powers the unit on and zeroes all registers.
  void set();
  /// AMX_CLR: powers the unit off.
  void clr();
  bool enabled() const { return enabled_; }

  /// AMX_LDX / AMX_LDY: load 64 bytes into X/Y register `reg`.
  void ldx(std::size_t reg, const void* src);
  void ldy(std::size_t reg, const void* src);

  /// AMX_LDZ / AMX_STZ: load/store one 64-byte Z row.
  void ldz(std::size_t row, const void* src);
  void stz(std::size_t row, void* dst) const;

  /// Zeroes the whole Z grid (emitted before a fresh accumulation).
  void zero_z();

  /// AMX_FMA32: 16 x 16 FP32 outer product of X[x_reg] and Y[y_reg]
  /// accumulated into Z with row interleave 4 starting at `z_offset` (0..3).
  /// With `accumulate` false the products overwrite instead (FMA32 with the
  /// skip-Z-input flag).
  void fma32(std::size_t x_reg, std::size_t y_reg, std::size_t z_offset = 0,
             bool accumulate = true);

  /// AMX_FMA16: 32 x 32 FP16 outer product accumulating into FP32 Z lanes,
  /// interleave 2 (half the rows of the fp32 layout carry 32 lanes each).
  /// Model simplification: products are computed in FP32 after converting
  /// the FP16 inputs (matching AMX's mixed-precision accumulate mode).
  void fma16(std::size_t x_reg, std::size_t y_reg, std::size_t z_offset = 0,
             bool accumulate = true);

  /// Typed views for testing and the GEMM driver.
  std::span<const float> x_f32(std::size_t reg) const;
  std::span<const float> y_f32(std::size_t reg) const;
  std::span<const float> z_row_f32(std::size_t row) const;

  /// Total MAC operations executed since set() — the driver uses this to
  /// report arithmetic volume.
  std::uint64_t mac_count() const { return mac_count_; }

 private:
  void require_enabled() const {
    if (!enabled_) {
      throw util::StateError("AMX instruction issued before AMX_SET");
    }
  }

  bool enabled_ = false;
  alignas(64) std::array<std::byte, kXRegs * kRegBytes> x_{};
  alignas(64) std::array<std::byte, kYRegs * kRegBytes> y_{};
  alignas(64) std::array<std::byte, kZRows * kRegBytes> z_{};
  std::uint64_t mac_count_ = 0;
};

}  // namespace ao::amx
