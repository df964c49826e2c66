#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "util/error.hpp"

namespace ao::amx {

/// Functional model of the ARM Scalable Matrix Extension as the M4 ships it
/// (Section 2.1: "in the latest M4, standardized ARM SME is equipped, which
/// is later proved to be fairly similar to the AMX unit at its core" [17]).
///
/// Geometry for SVL = 512 bits (the M4's streaming vector length):
///  - Z vector registers: 32 x 64 bytes (16 FP32 lanes each);
///  - ZA storage: 64 x 64 bytes, viewed for FP32 as four 16 x 16 tiles
///    (ZA0.S - ZA3.S).
///
/// The instruction set modeled is the SGEMM working set from the "Hello
/// SME!" kernel generators: SMSTART/SMSTOP, ZERO {za.tile}, LD1W, FMOPA
/// (non-widening FP32 outer product accumulate), and ST1W of tile rows.
/// State rules follow the architecture: everything except smstart()/smstop()
/// traps unless streaming mode is active.
class SmeEngine {
 public:
  static constexpr std::size_t kSvlBits = 512;
  static constexpr std::size_t kLanesF32 = kSvlBits / 32;  // 16
  static constexpr std::size_t kZRegs = 32;
  static constexpr std::size_t kZaTilesF32 = 4;  // ZA0.S .. ZA3.S

  /// SMSTART: enters streaming mode with ZA enabled; zeroes all state.
  void smstart();
  /// SMSTOP: leaves streaming mode.
  void smstop();
  bool streaming() const { return streaming_; }

  /// ZERO {zaN.s}: clears one FP32 ZA tile.
  void zero_za(std::size_t tile);

  /// LD1W {zN.s}, [ptr]: loads 16 FP32 lanes into a Z register. `active`
  /// lanes below 16 emulate a whilelt predicate (remaining lanes zeroed).
  /// Inline, so an unpredicated load compiles to one fixed-size copy.
  void ld1w(std::size_t reg, const float* src,
            std::size_t active = kLanesF32) {
    require_streaming();
    AO_REQUIRE(reg < kZRegs, "Z register index out of range");
    AO_REQUIRE(src != nullptr, "ld1w source is null");
    AO_REQUIRE(active <= kLanesF32, "predicate exceeds vector length");
    float* dst = z_.data() + reg * kLanesF32;
    std::memcpy(dst, src, active * sizeof(float));
    std::fill(dst + active, dst + kLanesF32, 0.0f);  // inactive lanes read 0
  }

  /// FMOPA zaT.s, pn/m, pm/m, zn.s, zm.s — FP32 sum-of-outer-products:
  ///   za[r][c] += zn[r] * zm[c]   for r < rows_active, c < cols_active.
  void fmopa(std::size_t tile, std::size_t zn, std::size_t zm,
             std::size_t rows_active = kLanesF32,
             std::size_t cols_active = kLanesF32);

  /// ST1W of one ZA tile row (horizontal slice) to memory.
  void st1w_row(std::size_t tile, std::size_t row, float* dst,
                std::size_t active = kLanesF32) const;

  /// Typed views for tests.
  std::span<const float> z_reg(std::size_t reg) const;
  float za_at(std::size_t tile, std::size_t row, std::size_t col) const;

  /// FP32 multiply-accumulates retired since smstart().
  std::uint64_t mac_count() const { return mac_count_; }

 private:
  void require_streaming() const {
    if (!streaming_) {
      throw util::StateError(
          "SME instruction outside streaming mode (SMSTART)");
    }
  }

  bool streaming_ = false;
  alignas(64) std::array<float, kZRegs * kLanesF32> z_{};
  alignas(64) std::array<float, kZaTilesF32 * kLanesF32 * kLanesF32> za_{};
  std::uint64_t mac_count_ = 0;
};

/// FP32 GEMM through the SME engine: C = A * B (row-major, beta = 0),
/// tiled 16 x 16 with fmopa accumulation — the "Hello SME!" kernel shape:
/// each 16-row block of A is packed column-major once, so every k step
/// loads zn and zm with one ld1w each, straight from the packed A and from
/// B (predicated on ragged tiles).
/// Must produce results identical to amx_sgemm for the same inputs, which is
/// exactly the [17] claim the paper cites.
void sme_sgemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t lda, const float* b, std::size_t ldb, float* c,
               std::size_t ldc);

}  // namespace ao::amx
