#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "accelerate/reference_blas.hpp"
#include "amx/amx_gemm.hpp"
#include "amx/amx_unit.hpp"
#include "amx/float16.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ao::amx {
namespace {

// ------------------------------------------------------------ float16 ------

TEST(Float16, ExactValuesRoundTrip) {
  for (const float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f}) {
    EXPECT_EQ(half_to_float(float_to_half(v)), v) << v;
  }
}

TEST(Float16, RoundingErrorBounded) {
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.next_float();  // [0, 1)
    const float rt = half_to_float(float_to_half(v));
    // FP16 has 11 significand bits: relative error < 2^-11.
    EXPECT_NEAR(rt, v, std::max(std::fabs(v), 1e-4f) * 0x1.0p-10f);
  }
}

TEST(Float16, OverflowToInfinity) {
  const Half h = float_to_half(100000.0f);  // > 65504 (fp16 max)
  EXPECT_TRUE(std::isinf(half_to_float(h)));
  EXPECT_GT(half_to_float(h), 0.0f);
  EXPECT_TRUE(std::isinf(half_to_float(float_to_half(-1e9f))));
  EXPECT_LT(half_to_float(float_to_half(-1e9f)), 0.0f);
}

TEST(Float16, SubnormalsPreserved) {
  const float tiny = 1e-5f;  // subnormal in fp16 (min normal ~6.1e-5)
  const float rt = half_to_float(float_to_half(tiny));
  EXPECT_GT(rt, 0.0f);
  EXPECT_NEAR(rt, tiny, 1e-6f);
}

TEST(Float16, NanPropagates) {
  EXPECT_TRUE(std::isnan(half_to_float(float_to_half(NAN))));
}

TEST(Float16, UnderflowToZero) {
  EXPECT_EQ(half_to_float(float_to_half(1e-12f)), 0.0f);
}

/// round_to_half must be bit-identical to the two-step round trip.
bool same_round_trip(std::uint32_t bits) {
  const float value = std::bit_cast<float>(bits);
  return std::bit_cast<std::uint32_t>(round_to_half(value)) ==
         std::bit_cast<std::uint32_t>(half_to_float(float_to_half(value)));
}

TEST(Float16, RoundToHalfMatchesRoundTripAcrossTheFastPathBoundaries) {
  // Every float with a biased exponent in [112, 143], both signs: the
  // FP16-subnormal edge below the fast path, all of it, and the overflow
  // edge above it.
  std::vector<std::uint32_t> first_mismatch(2 * 32, 0);
  std::vector<std::size_t> mismatches(2 * 32, 0);
  util::global_pool().parallel_for(2 * 32, [&](std::size_t task) {
    const std::uint32_t sign = task < 32 ? 0u : 0x80000000u;
    const std::uint32_t exponent = 112u + static_cast<std::uint32_t>(task % 32);
    const std::uint32_t base = sign | (exponent << 23);
    for (std::uint32_t mantissa = 0; mantissa < (1u << 23); ++mantissa) {
      if (!same_round_trip(base | mantissa) && mismatches[task]++ == 0) {
        first_mismatch[task] = base | mantissa;
      }
    }
  });
  for (std::size_t task = 0; task < mismatches.size(); ++task) {
    EXPECT_EQ(mismatches[task], 0u)
        << "first mismatch at bits 0x" << std::hex << first_mismatch[task];
  }
}

TEST(Float16, RoundToHalfMatchesRoundTripOnSpecialValues) {
  const float specials[] = {
      0.0f, -0.0f, INFINITY, -INFINITY, NAN, -NAN,
      65504.0f, -65504.0f,             // FP16 max
      65519.996f, 65520.0f, -65520.0f,  // last value that rounds down; first
                                        // that rounds to infinity
      0x1.0p-14f, 0x1.ff8p-15f,         // smallest normal, largest subnormal
      0x1.ffcp-15f, 0x1.ffep-15f,       // the tie between them; above it
      0x1.0p-24f, 0x1.0p-25f, 0x1.000002p-25f,  // smallest subnormal; the
                                                // tie to zero and just above
      1e-30f, std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::max()};
  for (const float v : specials) {
    EXPECT_TRUE(same_round_trip(std::bit_cast<std::uint32_t>(v))) << v;
  }
  EXPECT_TRUE(std::isnan(round_to_half(NAN)));
  EXPECT_EQ(round_to_half(65504.0f), 65504.0f);
  EXPECT_EQ(round_to_half(65520.0f), INFINITY);
  EXPECT_EQ(round_to_half(-65520.0f), -INFINITY);
}

// ------------------------------------------------------------ AmxUnit ------

TEST(AmxUnit, RequiresSet) {
  AmxUnit unit;
  float data[16] = {};
  EXPECT_THROW(unit.ldx(0, data), util::StateError);
  EXPECT_THROW(unit.fma32(0, 0), util::StateError);
  unit.set();
  EXPECT_NO_THROW(unit.ldx(0, data));
  unit.clr();
  EXPECT_THROW(unit.ldx(0, data), util::StateError);
}

TEST(AmxUnit, RegisterGeometry) {
  EXPECT_EQ(AmxUnit::kRegBytes, 64u);
  EXPECT_EQ(AmxUnit::kXRegs, 8u);
  EXPECT_EQ(AmxUnit::kYRegs, 8u);
  EXPECT_EQ(AmxUnit::kZRows, 64u);
  EXPECT_EQ(AmxUnit::kLanesF32, 16u);
}

TEST(AmxUnit, LoadStoreRoundTrip) {
  AmxUnit unit;
  unit.set();
  alignas(64) float in[16];
  for (int i = 0; i < 16; ++i) {
    in[i] = static_cast<float>(i) * 1.5f;
  }
  unit.ldx(3, in);
  const auto x = unit.x_f32(3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(x[i], in[i]);
  }
  unit.ldz(10, in);
  alignas(64) float out[16] = {};
  unit.stz(10, out);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(out[i], in[i]);
  }
}

TEST(AmxUnit, BoundsChecked) {
  AmxUnit unit;
  unit.set();
  float data[16] = {};
  EXPECT_THROW(unit.ldx(8, data), util::InvalidArgument);
  EXPECT_THROW(unit.ldy(8, data), util::InvalidArgument);
  EXPECT_THROW(unit.ldz(64, data), util::InvalidArgument);
  EXPECT_THROW(unit.fma32(0, 0, 4), util::InvalidArgument);  // z_offset > 3
}

TEST(AmxUnit, Fma32IsOuterProduct) {
  AmxUnit unit;
  unit.set();
  alignas(64) float x[16];
  alignas(64) float y[16];
  for (int i = 0; i < 16; ++i) {
    x[i] = static_cast<float>(i + 1);
    y[i] = static_cast<float>(2 * i + 1);
  }
  unit.ldx(0, x);
  unit.ldy(0, y);
  unit.fma32(0, 0);
  // z[j*4][i] == x[i] * y[j] (fp32 interleave-4 layout).
  for (int j = 0; j < 16; ++j) {
    const auto z = unit.z_row_f32(j * 4);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(z[i], x[i] * y[j]) << "i=" << i << " j=" << j;
    }
  }
  EXPECT_EQ(unit.mac_count(), 256u);
}

TEST(AmxUnit, Fma32Accumulates) {
  AmxUnit unit;
  unit.set();
  alignas(64) float ones[16];
  for (auto& v : ones) {
    v = 1.0f;
  }
  unit.ldx(0, ones);
  unit.ldy(0, ones);
  unit.fma32(0, 0);
  unit.fma32(0, 0);
  EXPECT_EQ(unit.z_row_f32(0)[0], 2.0f);
  // Overwrite mode resets instead.
  unit.fma32(0, 0, 0, /*accumulate=*/false);
  EXPECT_EQ(unit.z_row_f32(0)[0], 1.0f);
}

TEST(AmxUnit, ZOffsetsAreIndependentAccumulators) {
  AmxUnit unit;
  unit.set();
  alignas(64) float ones[16];
  for (auto& v : ones) {
    v = 1.0f;
  }
  unit.ldx(0, ones);
  unit.ldy(0, ones);
  unit.fma32(0, 0, 0);
  unit.fma32(0, 0, 1);
  unit.fma32(0, 0, 1);
  EXPECT_EQ(unit.z_row_f32(0)[0], 1.0f);  // offset 0: one product
  EXPECT_EQ(unit.z_row_f32(1)[0], 2.0f);  // offset 1: two products
}

// fma32 against a scalar oracle, bit for bit: for every Z offset, in both
// accumulate and overwrite mode, on a Z grid preloaded with values of mixed
// sign and magnitude (so every add rounds), and the rows the instruction does
// not address keep their bits.
TEST(AmxUnit, Fma32MatchesAScalarOracleBitForBit) {
  util::Xoshiro256 rng(2024);
  auto next = [&rng] {
    const float magnitude = std::ldexp(
        rng.next_float(), static_cast<int>(rng.next_below(16)) - 8);
    return rng.next_below(2) == 0 ? magnitude : -magnitude;
  };
  for (std::size_t z_offset = 0; z_offset < 4; ++z_offset) {
    for (const bool accumulate : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "z_offset=" << z_offset
                                        << " accumulate=" << accumulate);
      AmxUnit unit;
      unit.set();
      alignas(64) float z[AmxUnit::kZRows][16];
      for (std::size_t row = 0; row < AmxUnit::kZRows; ++row) {
        for (float& v : z[row]) {
          v = next();
        }
        unit.ldz(row, z[row]);
      }
      alignas(64) float x[16];
      alignas(64) float y[16];
      for (std::size_t i = 0; i < 16; ++i) {
        x[i] = next();
        y[i] = next();
      }
      unit.ldx(3, x);
      unit.ldy(5, y);
      unit.fma32(3, 5, z_offset, accumulate);

      for (std::size_t j = 0; j < 16; ++j) {
        float* row = z[j * 4 + z_offset];
        for (std::size_t i = 0; i < 16; ++i) {
          const float prod = x[i] * y[j];
          row[i] = accumulate ? row[i] + prod : prod;
        }
      }
      for (std::size_t row = 0; row < AmxUnit::kZRows; ++row) {
        alignas(64) float got[16];
        unit.stz(row, got);
        ASSERT_EQ(std::memcmp(got, z[row], sizeof(got)), 0) << "Z row " << row;
      }
    }
  }
}

TEST(AmxUnit, SetZeroesState) {
  AmxUnit unit;
  unit.set();
  alignas(64) float ones[16];
  for (auto& v : ones) {
    v = 1.0f;
  }
  unit.ldx(0, ones);
  unit.ldy(0, ones);
  unit.fma32(0, 0);
  unit.set();  // re-arm
  EXPECT_EQ(unit.z_row_f32(0)[0], 0.0f);
  EXPECT_EQ(unit.mac_count(), 0u);
}

TEST(AmxUnit, Fma16ComputesThroughHalf) {
  AmxUnit unit;
  unit.set();
  alignas(64) Half x[32];
  alignas(64) Half y[32];
  for (int i = 0; i < 32; ++i) {
    x[i] = float_to_half(0.5f);
    y[i] = float_to_half(2.0f);
  }
  unit.ldx(0, x);
  unit.ldy(0, y);
  unit.fma16(0, 0);
  // First lane of the first row pair: 0.5 * 2.0 accumulated at least once.
  EXPECT_GT(unit.z_row_f32(0)[0], 0.0f);
}

// ----------------------------------------------------------- amx_sgemm -----

void check_amx_sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
                     float beta, int threads) {
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  std::vector<float> c(m * n, 0.5f);
  std::vector<float> expected = c;
  util::fill_uniform(std::span<float>(a), 100 + m);
  util::fill_uniform(std::span<float>(b), 200 + n);

  amx_sgemm(m, n, k, alpha, a.data(), k, b.data(), n, beta, c.data(), n,
            threads);
  accelerate::reference::sgemm(false, false, m, n, k, alpha, a.data(), k,
                               b.data(), n, beta, expected.data(), n);
  EXPECT_LE(
      accelerate::reference::max_abs_diff(expected.data(), c.data(), m, n, n),
      accelerate::reference::gemm_tolerance(k))
      << "m=" << m << " n=" << n << " k=" << k;
}

TEST(AmxGemm, TileMultiples) { check_amx_sgemm(64, 64, 64, 1.0f, 0.0f, 1); }

TEST(AmxGemm, RaggedEdges) {
  check_amx_sgemm(17, 23, 31, 1.0f, 0.0f, 1);
  check_amx_sgemm(15, 16, 17, 1.0f, 0.0f, 1);
  check_amx_sgemm(1, 1, 1, 1.0f, 0.0f, 1);
}

TEST(AmxGemm, NonSquare) {
  check_amx_sgemm(96, 32, 128, 1.0f, 0.0f, 1);
  check_amx_sgemm(32, 128, 16, 1.0f, 0.0f, 1);
}

TEST(AmxGemm, AlphaBeta) {
  check_amx_sgemm(48, 48, 48, 2.5f, 1.5f, 1);
  check_amx_sgemm(48, 48, 48, 0.0f, 2.0f, 1);  // alpha=0 -> C = beta*C
}

TEST(AmxGemm, ParallelMatchesSerial) {
  const std::size_t n = 160;
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  util::fill_uniform(std::span<float>(a), 1);
  util::fill_uniform(std::span<float>(b), 2);
  std::vector<float> serial(n * n, 0.0f);
  std::vector<float> parallel(n * n, 0.0f);
  amx_sgemm(n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, serial.data(), n, 1);
  amx_sgemm(n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, parallel.data(), n,
            0);
  // Tiles are independent: parallel execution must be bit-identical.
  for (std::size_t i = 0; i < n * n; ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << i;
  }
}

TEST(AmxGemm, LeadingDimensions) {
  // Operate on a 20x20 sub-matrix inside 32-wide storage.
  const std::size_t n = 20;
  const std::size_t ld = 32;
  std::vector<float> a(n * ld);
  std::vector<float> b(n * ld);
  std::vector<float> c(n * ld, 0.0f);
  std::vector<float> expected(n * ld, 0.0f);
  util::fill_uniform(std::span<float>(a), 9);
  util::fill_uniform(std::span<float>(b), 10);
  amx_sgemm(n, n, n, 1.0f, a.data(), ld, b.data(), ld, 0.0f, c.data(), ld, 1);
  accelerate::reference::sgemm(false, false, n, n, n, 1.0f, a.data(), ld,
                               b.data(), ld, 0.0f, expected.data(), ld);
  EXPECT_LE(
      accelerate::reference::max_abs_diff(expected.data(), c.data(), n, n, ld),
      accelerate::reference::gemm_tolerance(n));
}

/// C = A * B with each element summed in k order from 0.0f in FP32: the
/// bits every AMX tile must produce at alpha = 1, beta = 0.
std::vector<float> k_order_product(std::size_t m, std::size_t n, std::size_t k,
                                   const std::vector<float>& a,
                                   const std::vector<float>& b) {
  std::vector<float> c(m * n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float sum = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        sum += a[i * k + kk] * b[kk * n + j];
      }
      c[i * n + j] = sum;
    }
  }
  return c;
}

TEST(AmxGemm, RaggedSizesMatchAKOrderOracleBitForBit) {
  // Full 16-wide tiles load X straight from B, partial ones stage it; the
  // operands are exactly m x k and k x n, so a load past B's end is an
  // out-of-bounds read the sanitizer builds catch.
  const std::size_t sizes[] = {1, 15, 17, 33, 40};
  for (const std::size_t m : sizes) {
    for (const std::size_t n : sizes) {
      for (const std::size_t k : sizes) {
        std::vector<float> a(m * k);
        std::vector<float> b(k * n);
        util::fill_uniform(std::span<float>(a), 300 + m + k);
        util::fill_uniform(std::span<float>(b), 400 + n + k);
        const std::vector<float> expected = k_order_product(m, n, k, a, b);
        for (const int threads : {1, 0}) {
          std::vector<float> c(m * n, -1.0f);
          amx_sgemm(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
                    n, threads);
          ASSERT_EQ(std::memcmp(c.data(), expected.data(),
                                c.size() * sizeof(float)),
                    0)
              << "m=" << m << " n=" << n << " k=" << k
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(AmxGemm, RejectsNullAndBadLd) {
  std::vector<float> buf(16);
  EXPECT_THROW(
      amx_sgemm(4, 4, 4, 1.0f, nullptr, 4, buf.data(), 4, 0.0f, buf.data(), 4),
      util::InvalidArgument);
  EXPECT_THROW(amx_sgemm(4, 4, 8, 1.0f, buf.data(), 4 /* < k */, buf.data(), 4,
                         0.0f, buf.data(), 4),
               util::InvalidArgument);
}

}  // namespace
}  // namespace ao::amx
