#include "util/simd.hpp"

namespace ao::util {

AO_SIMD_CLONES
void axpy(std::size_t n, float a, const float* __restrict x,
          float* __restrict y) {
  for (std::size_t j = 0; j < n; ++j) {
    y[j] += a * x[j];
  }
}

namespace {

/// One R x J tile of C = A * B in accumulators of type TC. With R and J
/// constant the compiler keeps `acc` in vector registers across the k loop
/// (16 zmm for the widest shapes at AVX-512). Always inlined, so it runs at
/// the ISA of the cloned shape function that calls it.
template <typename TC, std::size_t R, std::size_t J, typename TA>
__attribute__((always_inline)) inline void korder_tile(
    std::size_t k, const TA* __restrict a, std::size_t lda,
    const TA* __restrict b, std::size_t ldb, TC* __restrict c,
    std::size_t ldc) {
  TC acc[R][J] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    const TA* b_row = b + kk * ldb;
    for (std::size_t r = 0; r < R; ++r) {
      const auto a_rk = static_cast<TC>(a[r * lda + kk]);
      for (std::size_t j = 0; j < J; ++j) {
        acc[r][j] += a_rk * static_cast<TC>(b_row[j]);
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t j = 0; j < J; ++j) {
      c[r * ldc + j] = acc[r][j];
    }
  }
}

template <typename TA, typename TC>
using TileFn = void (*)(std::size_t, const TA*, std::size_t, const TA*,
                        std::size_t, TC*, std::size_t);

/// One cloned function per tile shape (see AO_SIMD_CLONES).
#define AO_KORDER_TILE(name, TA, TC, R, J)                                  \
  AO_SIMD_CLONES void name(std::size_t k, const TA* a, std::size_t lda,     \
                           const TA* b, std::size_t ldb, TC* c,             \
                           std::size_t ldc) {                               \
    korder_tile<TC, R, J>(k, a, lda, b, ldb, c, ldc);                       \
  }

AO_KORDER_TILE(korder_tile_f32_4x64, float, float, 4, 64)
AO_KORDER_TILE(korder_tile_f32_1x64, float, float, 1, 64)
AO_KORDER_TILE(korder_tile_f32_1x8, float, float, 1, 8)
AO_KORDER_TILE(korder_tile_f32_1x1, float, float, 1, 1)

AO_KORDER_TILE(korder_tile_f64_4x32, double, double, 4, 32)
AO_KORDER_TILE(korder_tile_f64_1x32, double, double, 1, 32)
AO_KORDER_TILE(korder_tile_f64_1x8, double, double, 1, 8)
AO_KORDER_TILE(korder_tile_f64_1x1, double, double, 1, 1)

AO_KORDER_TILE(korder_tile_f32f64_4x32, float, double, 4, 32)
AO_KORDER_TILE(korder_tile_f32f64_1x32, float, double, 1, 32)
AO_KORDER_TILE(korder_tile_f32f64_1x8, float, double, 1, 8)
AO_KORDER_TILE(korder_tile_f32f64_1x1, float, double, 1, 1)

#undef AO_KORDER_TILE

/// The tile shapes of one operand/accumulator pair.
template <typename TA, typename TC>
struct TileShapes {
  std::size_t wide;             ///< columns of the wide shapes
  TileFn<TA, TC> four_by_wide;  ///< 4 x wide
  TileFn<TA, TC> one_by_wide;   ///< 1 x wide
  TileFn<TA, TC> one_by_8;      ///< 1 x 8
  TileFn<TA, TC> one_by_1;      ///< 1 x 1
};

/// Rows go in fours while four are left; full-width column blocks take a
/// 4 x wide tile, and the columns left over run row by row in 8- and
/// 1-column tiles. (A 4 x 8 shape in this plain-loop form gets its k loop
/// vectorised instead of its columns: 4 rows of 1 x 8 tiles are ~5x faster
/// at AVX-512.)
template <typename TA, typename TC>
void korder_tiles(const TileShapes<TA, TC>& shapes, std::size_t m,
                  std::size_t n, std::size_t k, const TA* a, std::size_t lda,
                  const TA* b, std::size_t ldb, TC* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m;) {
    const std::size_t rows = m - i >= 4 ? 4 : 1;
    const TileFn<TA, TC> wide = rows == 4 ? shapes.four_by_wide
                                          : shapes.one_by_wide;
    std::size_t j0 = 0;
    for (; n - j0 >= shapes.wide; j0 += shapes.wide) {
      wide(k, a + i * lda, lda, b + j0, ldb, c + i * ldc + j0, ldc);
    }
    for (std::size_t r = i; r < i + rows; ++r) {
      const TA* a_row = a + r * lda;
      TC* c_row = c + r * ldc;
      std::size_t j = j0;
      for (; n - j >= 8; j += 8) {
        shapes.one_by_8(k, a_row, lda, b + j, ldb, c_row + j, ldc);
      }
      for (; j < n; ++j) {
        shapes.one_by_1(k, a_row, lda, b + j, ldb, c_row + j, ldc);
      }
    }
    i += rows;
  }
}

}  // namespace

void gemm_korder(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 std::size_t lda, const float* b, std::size_t ldb, float* c,
                 std::size_t ldc) {
  static constexpr TileShapes<float, float> kShapes{
      64, korder_tile_f32_4x64, korder_tile_f32_1x64, korder_tile_f32_1x8,
      korder_tile_f32_1x1};
  korder_tiles(kShapes, m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_korder(std::size_t m, std::size_t n, std::size_t k, const double* a,
                 std::size_t lda, const double* b, std::size_t ldb, double* c,
                 std::size_t ldc) {
  static constexpr TileShapes<double, double> kShapes{
      32, korder_tile_f64_4x32, korder_tile_f64_1x32, korder_tile_f64_1x8,
      korder_tile_f64_1x1};
  korder_tiles(kShapes, m, n, k, a, lda, b, ldb, c, ldc);
}

void gemm_korder(std::size_t m, std::size_t n, std::size_t k, const float* a,
                 std::size_t lda, const float* b, std::size_t ldb, double* c,
                 std::size_t ldc) {
  static constexpr TileShapes<float, double> kShapes{
      32, korder_tile_f32f64_4x32, korder_tile_f32f64_1x32,
      korder_tile_f32f64_1x8, korder_tile_f32f64_1x1};
  korder_tiles(kShapes, m, n, k, a, lda, b, ldb, c, ldc);
}

}  // namespace ao::util
