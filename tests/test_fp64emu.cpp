#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/system.hpp"
#include "fp64emu/double_single.hpp"
#include "fp64emu/gemm_fp64_shader.hpp"
#include "metal/compute_command_encoder.hpp"
#include "util/rng.hpp"

namespace ao::fp64emu {
namespace {

// ------------------------------------------------ error-free transforms ----

TEST(DoubleSingle, TwoSumIsErrorFree) {
  // a + b = s + e exactly, even when the small addend is absorbed.
  const float a = 1.0f;
  const float b = 1e-8f;  // absorbed in FP32: a + b == a
  const DoubleSingle r = two_sum(a, b);
  EXPECT_EQ(r.hi, 1.0f);
  EXPECT_EQ(r.lo, 1e-8f);  // recovered exactly
  EXPECT_DOUBLE_EQ(static_cast<double>(r.hi) + r.lo,
                   static_cast<double>(a) + b);
}

TEST(DoubleSingle, TwoProdIsErrorFree) {
  // Choose factors whose product needs 48 bits: (2^12+1) * (2^12+3).
  const float a = 4097.0f;
  const float b = 4099.0f;
  const DoubleSingle r = two_prod(a, b);
  const double exact = static_cast<double>(a) * b;
  EXPECT_DOUBLE_EQ(static_cast<double>(r.hi) + r.lo, exact);
}

TEST(DoubleSingle, SplitRoundTrip) {
  for (const double v : {0.0, 1.0, -1.0, 3.141592653589793, 1e-7, 12345.6789}) {
    const DoubleSingle ds = DoubleSingle::from_double(v);
    // 49 bits of significand: relative error < 2^-48 for these magnitudes.
    EXPECT_NEAR(ds.to_double(), v, std::fabs(v) * 0x1.0p-45 + 1e-300);
  }
}

TEST(DoubleSingle, AddMulAccuracy) {
  util::Xoshiro256 rng(13);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.next_double();
    const double y = rng.next_double();
    const DoubleSingle dx = DoubleSingle::from_double(x);
    const DoubleSingle dy = DoubleSingle::from_double(y);
    EXPECT_NEAR(ds_add(dx, dy).to_double(), x + y, (x + y) * 0x1.0p-44);
    EXPECT_NEAR(ds_mul(dx, dy).to_double(), x * y,
                std::max(x * y, 1e-30) * 0x1.0p-42);
    EXPECT_NEAR(ds_sub(dx, dy).to_double(), x - y,
                std::max(std::fabs(x - y), 1.0) * 0x1.0p-42);
  }
}

TEST(DoubleSingle, LongSummationBeatsFp32ByOrders) {
  // Summing 1e6 values of ~1e-6: FP32 loses ~3 digits, ds keeps ~10.
  constexpr int kCount = 1'000'000;
  float f32 = 0.0f;
  DoubleSingle ds;
  double exact = 0.0;
  util::Xoshiro256 rng(17);
  for (int i = 0; i < kCount; ++i) {
    const float v = rng.next_float() * 1e-6f;
    f32 += v;
    ds = ds_add(ds, DoubleSingle::from_float(v));
    exact += v;
  }
  const double f32_err = std::fabs(f32 - exact);
  const double ds_err = std::fabs(ds.to_double() - exact);
  EXPECT_LT(ds_err, f32_err / 1e3);
}

TEST(DoubleSingle, FmaMatchesMulThenAdd) {
  const DoubleSingle a = DoubleSingle::from_double(1.0 / 3.0);
  const DoubleSingle b = DoubleSingle::from_double(3.0);
  const DoubleSingle c = DoubleSingle::from_double(-1.0);
  const double r = ds_fma(a, b, c).to_double();
  EXPECT_NEAR(r, 1.0 / 3.0 * 3.0 - 1.0, 1e-12);
}

// -------------------------------------------------- matrix split / join ----

TEST(MatrixSplit, RoundTripPreserves48Bits) {
  std::vector<double> src(256);
  util::fill_uniform(std::span<double>(src), 21);
  std::vector<float> hi(src.size());
  std::vector<float> lo(src.size());
  std::vector<double> back(src.size());
  split_matrix(src.data(), hi.data(), lo.data(), src.size());
  join_matrix(hi.data(), lo.data(), back.data(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_NEAR(back[i], src[i], std::fabs(src[i]) * 0x1.0p-45);
  }
}

// ------------------------------------------------------ ds_gemm_block -----

/// The row-by-row double-single block loop ds_gemm_block's tiles replace:
/// k outer, each step splits the B row segment once, then advances every
/// row's ds_fma chains by one product.
void ds_gemm_rows(std::size_t rows, std::size_t cols, std::size_t depth,
                  const float* a_hi, const float* a_lo, std::size_t lda,
                  const float* b_hi, const float* b_lo, std::size_t ldb,
                  float* c_hi, float* c_lo, std::size_t ldc) {
  for (std::size_t r = 0; r < rows; ++r) {
    std::fill_n(c_hi + r * ldc, cols, 0.0f);
    std::fill_n(c_lo + r * ldc, cols, 0.0f);
  }
  std::vector<detail::Split> sb(cols);
  for (std::size_t kk = 0; kk < depth; ++kk) {
    for (std::size_t j = 0; j < cols; ++j) {
      sb[j] = detail::split(b_hi[kk * ldb + j]);
    }
    for (std::size_t r = 0; r < rows; ++r) {
      const DoubleSingle a{a_hi[r * lda + kk], a_lo[r * lda + kk]};
      const detail::Split sa = detail::split(a.hi);
      for (std::size_t j = 0; j < cols; ++j) {
        const DoubleSingle sum =
            ds_fma(a, sa, {b_hi[kk * ldb + j], b_lo[kk * ldb + j]}, sb[j],
                   {c_hi[r * ldc + j], c_lo[r * ldc + j]});
        c_hi[r * ldc + j] = sum.hi;
        c_lo[r * ldc + j] = sum.lo;
      }
    }
  }
}

/// Split hi/lo planes of a seeded `count`-element operand.
struct SplitPlanes {
  std::vector<float> hi;
  std::vector<float> lo;
  SplitPlanes(std::size_t count, std::uint64_t seed) : hi(count), lo(count) {
    std::vector<double> x(count);
    util::fill_uniform(std::span<double>(x), seed);
    for (std::size_t i = 0; i < count; i += 3) {
      x[i] = -x[i];  // mixed signs, so chains cancel
    }
    split_matrix(x.data(), hi.data(), lo.data(), count);
  }
};

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// Every block shape from 1 x 1 to 9 x 40 (all tile shapes and tails) at
// depths 1, 7, 64 and 129, on operands with strides wider than the block:
// C's planes, padding included, keep the row loop's bits.
TEST(DsGemmBlock, TilesMatchTheRowLoopBitForBit) {
  constexpr std::size_t kRows = 9;
  constexpr std::size_t kCols = 40;
  constexpr std::size_t kMaxDepth = 129;
  const std::size_t lda = kMaxDepth + 2;
  const std::size_t ldb = kCols + 3;
  const std::size_t ldc = kCols + 5;
  const SplitPlanes a(kRows * lda, 71);
  const SplitPlanes b(kMaxDepth * ldb, 72);
  for (const std::size_t depth : {1, 7, 64, 129}) {
    for (std::size_t rows = 1; rows <= kRows; ++rows) {
      for (std::size_t cols = 1; cols <= kCols; ++cols) {
        std::vector<float> want_hi(kRows * ldc, -2.0f);
        std::vector<float> want_lo(kRows * ldc, -3.0f);
        std::vector<float> got_hi = want_hi;
        std::vector<float> got_lo = want_lo;
        ds_gemm_rows(rows, cols, depth, a.hi.data(), a.lo.data(), lda,
                     b.hi.data(), b.lo.data(), ldb, want_hi.data(),
                     want_lo.data(), ldc);
        ds_gemm_block(rows, cols, depth, a.hi.data(), a.lo.data(), lda,
                      b.hi.data(), b.lo.data(), ldb, got_hi.data(),
                      got_lo.data(), ldc);
        ASSERT_TRUE(same_bits(got_hi, want_hi) && same_bits(got_lo, want_lo))
            << "rows=" << rows << " cols=" << cols << " depth=" << depth;
      }
    }
  }
}

// The shader's {8,8} group: an 8 x 8 block at offsets inside an n = 37
// matrix (row and column offsets 0, 8 and 29, the last a partial-group
// origin), everything outside the block untouched.
TEST(DsGemmBlock, ShaderGroupInsideALargerStrideMatchesTheRowLoop) {
  constexpr std::size_t n = 37;
  const SplitPlanes a(n * n, 81);
  const SplitPlanes b(n * n, 82);
  for (const std::size_t row0 : {0, 8, 29}) {
    for (const std::size_t col0 : {0, 8, 29}) {
      const std::size_t rows = std::min<std::size_t>(8, n - row0);
      const std::size_t cols = std::min<std::size_t>(8, n - col0);
      std::vector<float> want_hi(n * n, 5.0f);
      std::vector<float> want_lo(n * n, 6.0f);
      std::vector<float> got_hi = want_hi;
      std::vector<float> got_lo = want_lo;
      const std::size_t c0 = row0 * n + col0;
      ds_gemm_rows(rows, cols, n, a.hi.data() + row0 * n,
                   a.lo.data() + row0 * n, n, b.hi.data() + col0,
                   b.lo.data() + col0, n, want_hi.data() + c0,
                   want_lo.data() + c0, n);
      ds_gemm_block(rows, cols, n, a.hi.data() + row0 * n,
                    a.lo.data() + row0 * n, n, b.hi.data() + col0,
                    b.lo.data() + col0, n, got_hi.data() + c0,
                    got_lo.data() + c0, n);
      ASSERT_TRUE(same_bits(got_hi, want_hi) && same_bits(got_lo, want_lo))
          << "row0=" << row0 << " col0=" << col0;
    }
  }
}

// ------------------------------------------------------- GPU shader --------

class Fp64ShaderTest : public ::testing::Test {
 protected:
  core::System system_{soc::ChipModel::kM3};

  /// C's hi and lo planes, as the shader leaves them.
  struct Planes {
    std::vector<float> hi;
    std::vector<float> lo;
  };

  /// Runs the emulated-FP64 GEMM shader and returns the FP64 result.
  std::vector<double> run(const std::vector<double>& a,
                          const std::vector<double>& b, std::uint32_t n) {
    const Planes c = run_planes(a, b, n, {8, 8, 1});
    std::vector<double> joined(c.hi.size());
    join_matrix(c.hi.data(), c.lo.data(), joined.data(), joined.size());
    return joined;
  }

  /// Runs the shader with threadgroups of `group` threads and returns C's
  /// hi/lo planes.
  Planes run_planes(const std::vector<double>& a, const std::vector<double>& b,
                    std::uint32_t n, metal::UInt3 group) {
    auto& device = system_.device();
    const std::size_t bytes = static_cast<std::size_t>(n) * n * sizeof(float);
    auto make = [&](const double* src) {
      auto hi = device.new_buffer(bytes, mem::StorageMode::kShared);
      auto lo = device.new_buffer(bytes, mem::StorageMode::kShared);
      if (src != nullptr) {
        split_matrix(src, static_cast<float*>(hi->contents()),
                     static_cast<float*>(lo->contents()),
                     static_cast<std::size_t>(n) * n);
      }
      return std::pair{hi, lo};
    };
    auto [a_hi, a_lo] = make(a.data());
    auto [b_hi, b_lo] = make(b.data());
    auto [c_hi, c_lo] = make(nullptr);

    auto pipeline =
        device.new_compute_pipeline_state(make_gemm_fp64_emulated());
    auto queue = device.new_command_queue();
    auto cmd = queue->command_buffer();
    auto enc = cmd->compute_command_encoder();
    enc->set_compute_pipeline_state(pipeline);
    enc->set_buffer(a_hi.get(), 0, 0);
    enc->set_buffer(a_lo.get(), 0, 1);
    enc->set_buffer(b_hi.get(), 0, 2);
    enc->set_buffer(b_lo.get(), 0, 3);
    enc->set_buffer(c_hi.get(), 0, 4);
    enc->set_buffer(c_lo.get(), 0, 5);
    enc->set_value<std::uint32_t>(n, 6);
    enc->dispatch_threads({n, n, 1}, group);
    enc->end_encoding();
    cmd->commit();
    cmd->wait_until_completed();

    const auto* hi = static_cast<const float*>(c_hi->contents());
    const auto* lo = static_cast<const float*>(c_lo->contents());
    const std::size_t count = static_cast<std::size_t>(n) * n;
    return {{hi, hi + count}, {lo, lo + count}};
  }
};

// The shader against the MSL original's per-thread loop, bit for bit: one
// ds_fma chain per C element, from zero in k order, on sizes that leave
// partial threadgroups and on threadgroups that are not square.
TEST_F(Fp64ShaderTest, MatchesThePerThreadLoopBitForBit) {
  for (const std::uint32_t n : {1u, 7u, 33u, 100u, 130u}) {
    std::vector<double> a(static_cast<std::size_t>(n) * n);
    std::vector<double> b(a.size());
    util::fill_uniform(std::span<double>(a), 40 + n);
    util::fill_uniform(std::span<double>(b), 41 + n);
    std::vector<float> a_hi(a.size()), a_lo(a.size());
    std::vector<float> b_hi(b.size()), b_lo(b.size());
    split_matrix(a.data(), a_hi.data(), a_lo.data(), a.size());
    split_matrix(b.data(), b_hi.data(), b_lo.data(), b.size());
    Planes oracle{std::vector<float>(a.size()), std::vector<float>(a.size())};
    for (std::uint32_t row = 0; row < n; ++row) {
      for (std::uint32_t col = 0; col < n; ++col) {
        DoubleSingle acc;
        for (std::uint32_t kk = 0; kk < n; ++kk) {
          const std::size_t ai = static_cast<std::size_t>(row) * n + kk;
          const std::size_t bi = static_cast<std::size_t>(kk) * n + col;
          acc = ds_fma({a_hi[ai], a_lo[ai]}, {b_hi[bi], b_lo[bi]}, acc);
        }
        oracle.hi[static_cast<std::size_t>(row) * n + col] = acc.hi;
        oracle.lo[static_cast<std::size_t>(row) * n + col] = acc.lo;
      }
    }
    for (const metal::UInt3 group :
         {metal::UInt3{8, 8, 1}, metal::UInt3{16, 4, 1},
          metal::UInt3{3, 5, 1}}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " group=" << group.x
                                        << "x" << group.y);
      const Planes got = run_planes(a, b, n, group);
      ASSERT_EQ(std::memcmp(got.hi.data(), oracle.hi.data(),
                            oracle.hi.size() * sizeof(float)),
                0);
      ASSERT_EQ(std::memcmp(got.lo.data(), oracle.lo.data(),
                            oracle.lo.size() * sizeof(float)),
                0);
    }
  }
}

TEST_F(Fp64ShaderTest, BeatsFp32ByManyDigits) {
  const std::uint32_t n = 64;
  std::vector<double> a(n * n);
  std::vector<double> b(n * n);
  util::fill_uniform(std::span<double>(a), 31);
  util::fill_uniform(std::span<double>(b), 32);

  // FP64 reference.
  std::vector<double> expected(n * n, 0.0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t kk = 0; kk < n; ++kk) {
      for (std::uint32_t j = 0; j < n; ++j) {
        expected[i * n + j] += a[i * n + kk] * b[kk * n + j];
      }
    }
  }

  const auto got = run(a, b, n);

  // Also compute in plain FP32 for comparison.
  double fp32_worst = 0.0;
  double emu_worst = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      float acc32 = 0.0f;
      for (std::uint32_t kk = 0; kk < n; ++kk) {
        acc32 += static_cast<float>(a[i * n + kk]) *
                 static_cast<float>(b[kk * n + j]);
      }
      fp32_worst = std::max(
          fp32_worst, std::fabs(expected[i * n + j] - acc32));
      emu_worst = std::max(
          emu_worst, std::fabs(expected[i * n + j] - got[i * n + j]));
    }
  }
  EXPECT_LT(emu_worst, 1e-9);              // ~49-bit accuracy
  EXPECT_LT(emu_worst, fp32_worst / 1e4);  // orders better than FP32
}

TEST_F(Fp64ShaderTest, ChargedTheDoubleSinglePenalty) {
  // The emulated path's compute time must exceed an FP32 kernel of the same
  // shape (same roofline efficiency, same traffic) by the ds_fma ops ratio,
  // kFlopsPerDsFma / 2 = 10.5x.
  const std::uint32_t n = 128;
  std::vector<double> a(n * n, 0.5);
  std::vector<double> b(n * n, 0.5);

  auto& soc = system_.soc();
  const auto t0 = soc.clock().now();
  run(a, b, n);
  const auto emu_ns = static_cast<double>(soc.clock().now() - t0);

  soc::PerfModel perf(soc);
  const double nd = n;
  const double fp32_equiv_ns = perf.gpu_kernel_time_ns(
      2.0 * nd * nd * nd, 6.0 * nd * nd * sizeof(float), 0.15);
  const double overhead = soc.calib().stream.gpu_launch_overhead_ns;
  const double ratio = (emu_ns - overhead) / (fp32_equiv_ns - overhead);
  EXPECT_NEAR(ratio, fp64emu::kFlopsPerDsFma / 2.0, 1.0);
}

}  // namespace
}  // namespace ao::fp64emu
