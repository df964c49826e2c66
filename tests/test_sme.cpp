#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "accelerate/reference_blas.hpp"
#include "amx/amx_gemm.hpp"
#include "amx/amx_unit.hpp"
#include "amx/sme_engine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ao::amx {
namespace {

// -------------------------------------------------------- state machine ----

TEST(SmeEngine, RequiresStreamingMode) {
  SmeEngine sme;
  float data[16] = {};
  EXPECT_THROW(sme.ld1w(0, data), util::StateError);
  EXPECT_THROW(sme.fmopa(0, 0, 1), util::StateError);
  EXPECT_THROW(sme.zero_za(0), util::StateError);
  sme.smstart();
  EXPECT_TRUE(sme.streaming());
  EXPECT_NO_THROW(sme.ld1w(0, data));
  sme.smstop();
  EXPECT_FALSE(sme.streaming());
  EXPECT_THROW(sme.ld1w(0, data), util::StateError);
}

TEST(SmeEngine, GeometryMatchesM4Svl) {
  // SVL = 512 bits -> 16 FP32 lanes, four ZA FP32 tiles.
  EXPECT_EQ(SmeEngine::kSvlBits, 512u);
  EXPECT_EQ(SmeEngine::kLanesF32, 16u);
  EXPECT_EQ(SmeEngine::kZaTilesF32, 4u);
  EXPECT_EQ(SmeEngine::kZRegs, 32u);
}

TEST(SmeEngine, PredicatedLoadZeroesInactiveLanes) {
  SmeEngine sme;
  sme.smstart();
  float data[16];
  for (int i = 0; i < 16; ++i) {
    data[i] = static_cast<float>(i + 1);
  }
  sme.ld1w(5, data, /*active=*/3);  // whilelt p0.s, #0, #3
  const auto z = sme.z_reg(5);
  EXPECT_EQ(z[0], 1.0f);
  EXPECT_EQ(z[2], 3.0f);
  EXPECT_EQ(z[3], 0.0f);
  EXPECT_EQ(z[15], 0.0f);
}

TEST(SmeEngine, BoundsChecked) {
  SmeEngine sme;
  sme.smstart();
  float data[16] = {};
  EXPECT_THROW(sme.ld1w(32, data), util::InvalidArgument);
  EXPECT_THROW(sme.fmopa(4, 0, 1), util::InvalidArgument);
  EXPECT_THROW(sme.ld1w(0, data, 17), util::InvalidArgument);
  EXPECT_THROW(sme.st1w_row(0, 16, data), util::InvalidArgument);
}

// ------------------------------------------------------------ fmopa --------

TEST(SmeEngine, FmopaIsSumOfOuterProducts) {
  SmeEngine sme;
  sme.smstart();
  float zn[16];
  float zm[16];
  for (int i = 0; i < 16; ++i) {
    zn[i] = static_cast<float>(i + 1);
    zm[i] = static_cast<float>(2 * i);
  }
  sme.ld1w(0, zn);
  sme.ld1w(1, zm);
  sme.zero_za(2);
  sme.fmopa(2, 0, 1);
  sme.fmopa(2, 0, 1);  // accumulate twice
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 16; ++c) {
      ASSERT_EQ(sme.za_at(2, r, c), 2.0f * zn[r] * zm[c]);
    }
  }
  EXPECT_EQ(sme.mac_count(), 512u);
}

TEST(SmeEngine, PredicatedFmopaLeavesTailUntouched) {
  SmeEngine sme;
  sme.smstart();
  float ones[16];
  std::fill(ones, ones + 16, 1.0f);
  sme.ld1w(0, ones);
  sme.ld1w(1, ones);
  sme.fmopa(0, 0, 1, /*rows_active=*/2, /*cols_active=*/3);
  EXPECT_EQ(sme.za_at(0, 1, 2), 1.0f);
  EXPECT_EQ(sme.za_at(0, 2, 0), 0.0f);  // beyond row predicate
  EXPECT_EQ(sme.za_at(0, 0, 3), 0.0f);  // beyond col predicate
}

TEST(SmeEngine, TilesAreIndependent) {
  SmeEngine sme;
  sme.smstart();
  float ones[16];
  std::fill(ones, ones + 16, 1.0f);
  sme.ld1w(0, ones);
  sme.ld1w(1, ones);
  sme.fmopa(0, 0, 1);
  sme.fmopa(3, 0, 1);
  sme.fmopa(3, 0, 1);
  EXPECT_EQ(sme.za_at(0, 0, 0), 1.0f);
  EXPECT_EQ(sme.za_at(3, 0, 0), 2.0f);
  EXPECT_EQ(sme.za_at(1, 0, 0), 0.0f);
}

// ------------------------------------------------------------ sgemm --------

TEST(SmeGemm, MatchesReference) {
  for (const std::size_t n : {16u, 48u, 100u}) {
    std::vector<float> a(n * n);
    std::vector<float> b(n * n);
    std::vector<float> c(n * n, -5.0f);
    std::vector<float> expected(n * n);
    util::fill_uniform(std::span<float>(a), 61 + n);
    util::fill_uniform(std::span<float>(b), 62 + n);
    sme_sgemm(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    accelerate::reference::sgemm(false, false, n, n, n, 1.0f, a.data(), n,
                                 b.data(), n, 0.0f, expected.data(), n);
    EXPECT_LE(accelerate::reference::max_abs_diff(expected.data(), c.data(), n,
                                                  n, n),
              accelerate::reference::gemm_tolerance(n))
        << "n=" << n;
  }
}

TEST(SmeGemm, BitIdenticalToAmx) {
  // The paper cites [17]: SME on M4 "is fairly similar to the AMX unit at
  // its core". In this model both engines perform the same 16-wide FP32
  // outer-product accumulation in the same order, so their SGEMM results
  // must agree bit-for-bit.
  const std::size_t n = 80;
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  util::fill_uniform(std::span<float>(a), 71);
  util::fill_uniform(std::span<float>(b), 72);
  std::vector<float> via_sme(n * n, 0.0f);
  std::vector<float> via_amx(n * n, 0.0f);
  sme_sgemm(n, n, n, a.data(), n, b.data(), n, via_sme.data(), n);
  amx_sgemm(n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, via_amx.data(), n,
            /*threads=*/1);
  for (std::size_t i = 0; i < n * n; ++i) {
    ASSERT_EQ(via_sme[i], via_amx[i]) << "element " << i;
  }
}

TEST(SmeGemm, OuterProductEquivalenceWithAmxUnit) {
  // One fmopa against one fma32: same 16x16 rank-1 update.
  float x[16];
  float y[16];
  for (int i = 0; i < 16; ++i) {
    x[i] = 0.25f * static_cast<float>(i + 1);
    y[i] = 1.5f - 0.1f * static_cast<float>(i);
  }

  SmeEngine sme;
  sme.smstart();
  sme.ld1w(0, y);  // rows
  sme.ld1w(1, x);  // cols
  sme.fmopa(0, 0, 1);

  AmxUnit amx;
  amx.set();
  amx.ldx(0, x);
  amx.ldy(0, y);
  amx.fma32(0, 0);

  for (int r = 0; r < 16; ++r) {
    const auto z = amx.z_row_f32(static_cast<std::size_t>(r) * 4);
    for (int c = 0; c < 16; ++c) {
      ASSERT_EQ(sme.za_at(0, r, c), z[c]) << "r=" << r << " c=" << c;
    }
  }
}

TEST(SmeGemm, RaggedSizesMatchAKOrderOracleBitForBit) {
  // Every element summed in k order from 0.0f in FP32, over full and
  // predicated (partial) tiles alike.
  const std::size_t sizes[] = {1, 15, 17, 33, 40};
  for (const std::size_t m : sizes) {
    for (const std::size_t n : sizes) {
      for (const std::size_t k : sizes) {
        std::vector<float> a(m * k);
        std::vector<float> b(k * n);
        util::fill_uniform(std::span<float>(a), 500 + m + k);
        util::fill_uniform(std::span<float>(b), 600 + n + k);
        std::vector<float> expected(m * n);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            float sum = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) {
              sum += a[i * k + kk] * b[kk * n + j];
            }
            expected[i * n + j] = sum;
          }
        }
        std::vector<float> c(m * n, -1.0f);
        sme_sgemm(m, n, k, a.data(), k, b.data(), n, c.data(), n);
        ASSERT_EQ(std::memcmp(c.data(), expected.data(),
                              c.size() * sizeof(float)),
                  0)
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(SmeGemm, RejectsBadOperands) {
  std::vector<float> buf(64);
  EXPECT_THROW(
      sme_sgemm(4, 4, 4, nullptr, 4, buf.data(), 4, buf.data(), 4),
      util::InvalidArgument);
  EXPECT_THROW(sme_sgemm(4, 4, 8, buf.data(), 4 /* < k */, buf.data(), 8,
                         buf.data(), 4),
               util::InvalidArgument);
}

}  // namespace
}  // namespace ao::amx
