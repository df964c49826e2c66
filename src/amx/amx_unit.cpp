#include "amx/amx_unit.hpp"

#include <cstring>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace ao::amx {

void AmxUnit::set() {
  enabled_ = true;
  x_.fill(std::byte{0});
  y_.fill(std::byte{0});
  z_.fill(std::byte{0});
  mac_count_ = 0;
}

void AmxUnit::clr() { enabled_ = false; }

void AmxUnit::ldx(std::size_t reg, const void* src) {
  require_enabled();
  AO_REQUIRE(reg < kXRegs, "X register index out of range");
  AO_REQUIRE(src != nullptr, "ldx source is null");
  std::memcpy(x_.data() + reg * kRegBytes, src, kRegBytes);
}

void AmxUnit::ldy(std::size_t reg, const void* src) {
  require_enabled();
  AO_REQUIRE(reg < kYRegs, "Y register index out of range");
  AO_REQUIRE(src != nullptr, "ldy source is null");
  std::memcpy(y_.data() + reg * kRegBytes, src, kRegBytes);
}

void AmxUnit::ldz(std::size_t row, const void* src) {
  require_enabled();
  AO_REQUIRE(row < kZRows, "Z row index out of range");
  AO_REQUIRE(src != nullptr, "ldz source is null");
  std::memcpy(z_.data() + row * kRegBytes, src, kRegBytes);
}

void AmxUnit::stz(std::size_t row, void* dst) const {
  require_enabled();
  AO_REQUIRE(row < kZRows, "Z row index out of range");
  AO_REQUIRE(dst != nullptr, "stz destination is null");
  std::memcpy(dst, z_.data() + row * kRegBytes, kRegBytes);
}

void AmxUnit::zero_z() {
  require_enabled();
  z_.fill(std::byte{0});
}

AO_SIMD_CLONES
void AmxUnit::fma32(std::size_t x_reg, std::size_t y_reg, std::size_t z_offset,
                    bool accumulate) {
  require_enabled();
  AO_REQUIRE(x_reg < kXRegs, "X register index out of range");
  AO_REQUIRE(y_reg < kYRegs, "Y register index out of range");
  AO_REQUIRE(z_offset < 4, "fp32 Z offset must be 0..3");

  // X in a local copy and each Z row through a restrict pointer, so the
  // compiler sees no aliasing and runs the lanes as vectors. Each lane is
  // still one multiply, then one add. The lane loop stays rolled: fully
  // unrolled, it is not vectorised.
  alignas(64) float x[kLanesF32];
  std::memcpy(x, x_.data() + x_reg * kRegBytes, kRegBytes);
  const auto* y = reinterpret_cast<const float*>(y_.data() + y_reg * kRegBytes);
  for (std::size_t j = 0; j < kLanesF32; ++j) {
    float* __restrict z_row =
        reinterpret_cast<float*>(z_.data() + (j * 4 + z_offset) * kRegBytes);
    const float yj = y[j];
    if (accumulate) {
#pragma GCC unroll 1
      for (std::size_t i = 0; i < kLanesF32; ++i) {
        z_row[i] = z_row[i] + x[i] * yj;
      }
    } else {
#pragma GCC unroll 1
      for (std::size_t i = 0; i < kLanesF32; ++i) {
        z_row[i] = x[i] * yj;
      }
    }
  }
  mac_count_ += kLanesF32 * kLanesF32;
}

void AmxUnit::fma16(std::size_t x_reg, std::size_t y_reg, std::size_t z_offset,
                    bool accumulate) {
  require_enabled();
  AO_REQUIRE(x_reg < kXRegs, "X register index out of range");
  AO_REQUIRE(y_reg < kYRegs, "Y register index out of range");
  AO_REQUIRE(z_offset < 2, "fp16 Z offset must be 0..1");

  const auto* x = reinterpret_cast<const Half*>(x_.data() + x_reg * kRegBytes);
  const auto* y = reinterpret_cast<const Half*>(y_.data() + y_reg * kRegBytes);
  // 32 x 32 outer product; each Z row holds 32 FP32 lanes across two
  // interleaved 64-byte rows (modeled as consecutive float lanes here).
  for (std::size_t j = 0; j < kLanesF16; ++j) {
    auto* z_row = reinterpret_cast<float*>(
        z_.data() + ((j % kZRows / 2) * 2 + z_offset) * kRegBytes);
    const float yj = half_to_float(y[j]);
    for (std::size_t i = 0; i < kLanesF32; ++i) {
      // Only 16 FP32 lanes fit one Z row; the upper 16 products of each
      // row-pair fold into the next row in real hardware. The model keeps
      // the first 16 lanes, which is what the fp16 GEMM driver consumes.
      const float prod = half_to_float(x[i]) * yj;
      z_row[i] = accumulate ? z_row[i] + prod : prod;
    }
  }
  mac_count_ += kLanesF16 * kLanesF32;
}

std::span<const float> AmxUnit::x_f32(std::size_t reg) const {
  AO_REQUIRE(reg < kXRegs, "X register index out of range");
  return {reinterpret_cast<const float*>(x_.data() + reg * kRegBytes), kLanesF32};
}

std::span<const float> AmxUnit::y_f32(std::size_t reg) const {
  AO_REQUIRE(reg < kYRegs, "Y register index out of range");
  return {reinterpret_cast<const float*>(y_.data() + reg * kRegBytes), kLanesF32};
}

std::span<const float> AmxUnit::z_row_f32(std::size_t row) const {
  AO_REQUIRE(row < kZRows, "Z row index out of range");
  return {reinterpret_cast<const float*>(z_.data() + row * kRegBytes), kLanesF32};
}

}  // namespace ao::amx
