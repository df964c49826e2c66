#include "amx/sme_engine.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace ao::amx {

void SmeEngine::smstart() {
  streaming_ = true;
  z_.fill(0.0f);
  za_.fill(0.0f);
  mac_count_ = 0;
}

void SmeEngine::smstop() { streaming_ = false; }

void SmeEngine::zero_za(std::size_t tile) {
  require_streaming();
  AO_REQUIRE(tile < kZaTilesF32, "ZA tile index out of range");
  std::fill_n(za_.begin() + tile * kLanesF32 * kLanesF32, kLanesF32 * kLanesF32,
              0.0f);
}

AO_SIMD_CLONES
void SmeEngine::fmopa(std::size_t tile, std::size_t zn, std::size_t zm,
                      std::size_t rows_active, std::size_t cols_active) {
  require_streaming();
  AO_REQUIRE(tile < kZaTilesF32, "ZA tile index out of range");
  AO_REQUIRE(zn < kZRegs && zm < kZRegs, "Z register index out of range");
  AO_REQUIRE(rows_active <= kLanesF32 && cols_active <= kLanesF32,
             "predicate exceeds vector length");
  // zm in a local copy and each ZA row through a restrict pointer, as in
  // AmxUnit::fma32, so the lanes run as vectors; a full row has a constant
  // trip count. Each lane is still one multiply, then one add.
  alignas(64) float vm[kLanesF32];
  std::memcpy(vm, z_.data() + zm * kLanesF32, sizeof(vm));
  const float* vn = z_.data() + zn * kLanesF32;
  float* za = za_.data() + tile * kLanesF32 * kLanesF32;
  for (std::size_t r = 0; r < rows_active; ++r) {
    const float nr = vn[r];
    float* __restrict row = za + r * kLanesF32;
    if (cols_active == kLanesF32) {
#pragma GCC unroll 1
      for (std::size_t c = 0; c < kLanesF32; ++c) {
        row[c] += nr * vm[c];
      }
    } else {
      for (std::size_t c = 0; c < cols_active; ++c) {
        row[c] += nr * vm[c];
      }
    }
  }
  mac_count_ += rows_active * cols_active;
}

void SmeEngine::st1w_row(std::size_t tile, std::size_t row, float* dst,
                         std::size_t active) const {
  require_streaming();
  AO_REQUIRE(tile < kZaTilesF32, "ZA tile index out of range");
  AO_REQUIRE(row < kLanesF32, "ZA row out of range");
  AO_REQUIRE(dst != nullptr, "st1w destination is null");
  AO_REQUIRE(active <= kLanesF32, "predicate exceeds vector length");
  std::memcpy(dst, za_.data() + (tile * kLanesF32 + row) * kLanesF32,
              active * sizeof(float));
}

std::span<const float> SmeEngine::z_reg(std::size_t reg) const {
  AO_REQUIRE(reg < kZRegs, "Z register index out of range");
  return {z_.data() + reg * kLanesF32, kLanesF32};
}

float SmeEngine::za_at(std::size_t tile, std::size_t row, std::size_t col) const {
  AO_REQUIRE(tile < kZaTilesF32 && row < kLanesF32 && col < kLanesF32,
             "ZA coordinates out of range");
  return za_[(tile * kLanesF32 + row) * kLanesF32 + col];
}

void sme_sgemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
               std::size_t lda, const float* b, std::size_t ldb, float* c,
               std::size_t ldc) {
  AO_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
             "sme_sgemm operands must not be null");
  AO_REQUIRE(lda >= k && ldb >= n && ldc >= n,
             "leading dimensions too small for row-major operands");
  constexpr std::size_t T = SmeEngine::kLanesF32;

  SmeEngine sme;
  sme.smstart();

  // The row block's A panel, column-major: column kk at a_panel + kk * T.
  std::vector<float> a_panel(T * k);
  for (std::size_t i0 = 0; i0 < m; i0 += T) {
    const std::size_t mi = std::min(T, m - i0);
    for (std::size_t r = 0; r < mi; ++r) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        a_panel[kk * T + r] = a[(i0 + r) * lda + kk];
      }
    }
    for (std::size_t j0 = 0; j0 < n; j0 += T) {
      const std::size_t nj = std::min(T, n - j0);
      sme.zero_za(0);
      if (mi == T && nj == T) {
        for (std::size_t kk = 0; kk < k; ++kk) {
          sme.ld1w(0, a_panel.data() + kk * T);  // zn <- column of A
          sme.ld1w(1, b + kk * ldb + j0);        // zm <- row segment of B
          sme.fmopa(0, 0, 1);
        }
      } else {
        for (std::size_t kk = 0; kk < k; ++kk) {
          sme.ld1w(0, a_panel.data() + kk * T, mi);
          sme.ld1w(1, b + kk * ldb + j0, nj);
          sme.fmopa(0, 0, 1, mi, nj);
        }
      }
      for (std::size_t r = 0; r < mi; ++r) {
        sme.st1w_row(0, r, c + (i0 + r) * ldc + j0, nj);
      }
    }
  }
  sme.smstop();
}

}  // namespace ao::amx
