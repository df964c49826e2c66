#include "amx/amx_gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "amx/amx_unit.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace ao::amx {
namespace {

constexpr std::size_t kTile = AmxUnit::kLanesF32;  // 16

/// Computes one 16 x 16 C tile (rows [i0, i0+mi), cols [j0, j0+nj)) on `unit`.
void compute_tile(AmxUnit& unit, std::size_t i0, std::size_t j0, std::size_t mi,
                  std::size_t nj, std::size_t k, float alpha, const float* a,
                  std::size_t lda, const float* b, std::size_t ldb, float beta,
                  float* c, std::size_t ldc) {
  unit.zero_z();

  alignas(64) float x_buf[kTile];
  alignas(64) float y_buf[kTile];

  // A full tile reads X straight from the B row and fills every Y lane; a
  // partial one stages both zero-padded, so no load reads past the operands.
  const bool full = mi == kTile && nj == kTile;
  if (!full) {
    std::memset(x_buf, 0, sizeof(x_buf));
    std::memset(y_buf, 0, sizeof(y_buf));
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    // X register <- B row segment  (b[kk][j0 .. j0+nj)).
    const float* b_row = b + kk * ldb + j0;
    if (full) {
      unit.ldx(0, b_row);
    } else {
      std::memcpy(x_buf, b_row, nj * sizeof(float));
      unit.ldx(0, x_buf);
    }
    // Y register <- A column segment (a[i0 .. i0+mi)[kk]), gathered.
    for (std::size_t ii = 0; ii < mi; ++ii) {
      y_buf[ii] = a[(i0 + ii) * lda + kk];
    }
    unit.ldy(0, y_buf);
    // z[j][i] += x[i] * y[j]  =>  z[row=ii][col=jj] += B[kk][j0+jj]*A[i0+ii][kk]
    unit.fma32(0, 0, /*z_offset=*/0, /*accumulate=*/true);
  }

  // Drain Z rows into C with alpha/beta.
  alignas(64) float z_buf[kTile];
  for (std::size_t ii = 0; ii < mi; ++ii) {
    unit.stz(ii * 4, z_buf);  // fp32 rows live at interleave 4
    float* c_row = c + (i0 + ii) * ldc + j0;
    for (std::size_t jj = 0; jj < nj; ++jj) {
      const float updated = alpha * z_buf[jj];
      c_row[jj] = beta == 0.0f ? updated : beta * c_row[jj] + updated;
    }
  }
}

}  // namespace

void amx_sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const float* a, std::size_t lda, const float* b, std::size_t ldb,
               float beta, float* c, std::size_t ldc, int threads) {
  AO_REQUIRE(a != nullptr && b != nullptr && c != nullptr,
             "amx_sgemm operands must not be null");
  AO_REQUIRE(lda >= k && ldb >= n && ldc >= n,
             "leading dimensions too small for row-major operands");
  if (m == 0 || n == 0) {
    return;
  }
  if (k == 0 || alpha == 0.0f) {
    // Degenerate: C = beta * C.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        c[i * ldc + j] *= beta;
      }
    }
    return;
  }

  const std::size_t tile_rows = (m + kTile - 1) / kTile;
  const std::size_t tile_cols = (n + kTile - 1) / kTile;
  const std::size_t tiles = tile_rows * tile_cols;

  auto run_tile = [&](AmxUnit& unit, std::size_t t) {
    const std::size_t ti = t / tile_cols;
    const std::size_t tj = t % tile_cols;
    const std::size_t i0 = ti * kTile;
    const std::size_t j0 = tj * kTile;
    const std::size_t mi = std::min(kTile, m - i0);
    const std::size_t nj = std::min(kTile, n - j0);
    compute_tile(unit, i0, j0, mi, nj, k, alpha, a, lda, b, ldb, beta, c, ldc);
  };

  if (threads == 1 || tiles == 1) {
    AmxUnit unit;
    unit.set();
    for (std::size_t t = 0; t < tiles; ++t) {
      run_tile(unit, t);
    }
    unit.clr();
    return;
  }

  // One AMX unit per worker thread (each core drives its own coprocessor
  // port). thread_local keeps the unit alive across tasks on one worker.
  util::global_pool().parallel_for(tiles, [&](std::size_t t) {
    thread_local AmxUnit unit;
    if (!unit.enabled()) {
      unit.set();
    }
    run_tile(unit, t);
  });
}

}  // namespace ao::amx
