#include <gtest/gtest.h>

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
