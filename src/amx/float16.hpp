#pragma once

#include <bit>
#include <cstdint>

namespace ao::amx {

/// IEEE 754 binary16 stored as raw bits. The AMX fp16 path and the Neural
/// Engine model both compute through this software half type (the host is
/// x86 and portable C++20 has no native half).
struct Half {
  std::uint16_t bits = 0;
};

/// FP32 -> FP16 with round-to-nearest-even, handling subnormals, infinities
/// and NaN.
Half float_to_half(float value);

/// FP16 -> FP32 (exact).
float half_to_float(Half value);

/// FP32 -> FP16 -> FP32 in one step: bit-identical to
/// half_to_float(float_to_half(value)) for every input. The FP16 datapath
/// (ane::gemm_fp16_host) rounds its operands through this per element.
inline float round_to_half(float value) {
  std::uint32_t u = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t exponent = (u >> 23) & 0xFFu;
  // FP32 exponents 113..142 are exactly the normal FP16 range (1..30): drop
  // the 13 low mantissa bits, round to nearest even. A carry into exponent
  // 143 overflows FP16 and takes the slow path to infinity.
  if (exponent >= 113 && exponent <= 142) {
    u += 0xFFFu + ((u >> 13) & 1u);
    u &= ~0x1FFFu;
    if (((u >> 23) & 0xFFu) <= 142) {
      return std::bit_cast<float>(u);
    }
  }
  return half_to_float(float_to_half(value));
}

}  // namespace ao::amx
