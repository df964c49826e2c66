#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "accelerate/reference_blas.hpp"
#include "mem/unified_memory.hpp"
#include "metal/compute_command_encoder.hpp"
#include "metal/device.hpp"
#include "shaders/default_library.hpp"
#include "shaders/gemm_shaders.hpp"
#include "shaders/stream_kernels.hpp"
#include "util/rng.hpp"

namespace ao::shaders {
namespace {

using metal::ArgumentTable;
using metal::GroupContext;
using metal::ThreadContext;

/// gemm_naive as it ran before the lockstep rewrite: one ThreadKernelFn
/// call per thread, walking a column of B. The bit-exact oracle for it.
metal::Kernel per_thread_naive_gemm() {
  metal::Kernel k = make_gemm_naive();
  k.name = "gemm_naive_per_thread";
  k.body = metal::ThreadKernelFn(
      [](const ArgumentTable& args, const ThreadContext& ctx) {
        const auto n = args.value<std::uint32_t>(3);
        const std::uint32_t col = ctx.thread_position_in_grid.x;
        const std::uint32_t row = ctx.thread_position_in_grid.y;
        if (row >= n || col >= n) {
          return;
        }
        const float* a = args.buffer_data<float>(0);
        const float* b = args.buffer_data<float>(1);
        float* c = args.buffer_data<float>(2);
        float acc = 0.0f;
        for (std::uint32_t kk = 0; kk < n; ++kk) {
          acc += a[static_cast<std::size_t>(row) * n + kk] *
                 b[static_cast<std::size_t>(kk) * n + col];
        }
        c[static_cast<std::size_t>(row) * n + col] = acc;
      });
  return k;
}

/// gemm_tiled as it ran before the k-outer rewrite: per-thread 4x4
/// accumulator micro-tiles, each walking k. The bit-exact oracle for it.
metal::Kernel micro_tile_tiled_gemm() {
  metal::Kernel k = make_gemm_tiled();
  k.name = "gemm_tiled_micro_tiles";
  k.body = metal::GroupKernelFn([](const ArgumentTable& args,
                                   const GroupContext& ctx) {
    const auto n = args.value<std::uint32_t>(3);
    const float* a = args.buffer_data<float>(0);
    const float* b = args.buffer_data<float>(1);
    float* c = args.buffer_data<float>(2);
    constexpr std::uint32_t T = kGemmTile;
    constexpr std::uint32_t G = kGemmGroupEdge;
    constexpr std::uint32_t M = kGemmMicroTile;
    auto scratch = ctx.threadgroup_span<float>();
    float* tile_a = scratch.data();
    float* tile_b = scratch.data() + T * T;
    const std::uint32_t tile_row0 = ctx.threadgroup_position_in_grid.y * T;
    const std::uint32_t tile_col0 = ctx.threadgroup_position_in_grid.x * T;
    if (tile_row0 >= n || tile_col0 >= n) {
      return;
    }
    float acc[G][G][M][M] = {};
    for (std::uint32_t k0 = 0; k0 < n; k0 += T) {
      for (std::uint32_t idx = 0; idx < T * T; ++idx) {
        const std::uint32_t r = idx / T;
        const std::uint32_t col = idx % T;
        const std::uint32_t ga_r = tile_row0 + r;
        const std::uint32_t ga_c = k0 + col;
        tile_a[idx] = (ga_r < n && ga_c < n)
                          ? a[static_cast<std::size_t>(ga_r) * n + ga_c]
                          : 0.0f;
        const std::uint32_t gb_r = k0 + r;
        const std::uint32_t gb_c = tile_col0 + col;
        tile_b[idx] = (gb_r < n && gb_c < n)
                          ? b[static_cast<std::size_t>(gb_r) * n + gb_c]
                          : 0.0f;
      }
      const std::uint32_t k_lim = std::min(T, n - k0);
      for (std::uint32_t ty = 0; ty < G; ++ty) {
        for (std::uint32_t tx = 0; tx < G; ++tx) {
          for (std::uint32_t kk = 0; kk < k_lim; ++kk) {
            for (std::uint32_t mi = 0; mi < M; ++mi) {
              const float a_val = tile_a[(ty * M + mi) * T + kk];
              for (std::uint32_t mj = 0; mj < M; ++mj) {
                acc[ty][tx][mi][mj] += a_val * tile_b[kk * T + tx * M + mj];
              }
            }
          }
        }
      }
    }
    for (std::uint32_t ty = 0; ty < G; ++ty) {
      for (std::uint32_t tx = 0; tx < G; ++tx) {
        for (std::uint32_t mi = 0; mi < M; ++mi) {
          for (std::uint32_t mj = 0; mj < M; ++mj) {
            const std::uint32_t row = tile_row0 + ty * M + mi;
            const std::uint32_t col = tile_col0 + tx * M + mj;
            if (row < n && col < n) {
              c[static_cast<std::size_t>(row) * n + col] = acc[ty][tx][mi][mj];
            }
          }
        }
      }
    }
  });
  return k;
}

class ShaderTest : public ::testing::Test {
 protected:
  soc::Soc soc_{soc::ChipModel::kM3};
  mem::UnifiedMemory memory_{soc_};
  metal::Device device_{soc_, memory_};
  metal::CommandQueuePtr queue_ = device_.new_command_queue();

  metal::BufferPtr make_buffer(std::size_t floats) {
    return device_.new_buffer(floats * sizeof(float), mem::StorageMode::kShared);
  }

  void run_stream(const std::string& kernel, metal::Buffer* a, metal::Buffer* b,
                  metal::Buffer* c, std::uint32_t n, float scalar) {
    auto pipeline =
        device_.new_compute_pipeline_state(default_library(), kernel);
    auto cmd = queue_->command_buffer();
    auto enc = cmd->compute_command_encoder();
    enc->set_compute_pipeline_state(pipeline);
    enc->set_buffer(a, 0, 0);
    enc->set_buffer(b, 0, 1);
    enc->set_buffer(c, 0, 2);
    enc->set_value<std::uint32_t>(n, 3);
    enc->set_value<float>(scalar, 4);
    enc->dispatch_threads({n, 1, 1}, {256, 1, 1});
    enc->end_encoding();
    cmd->commit();
    cmd->wait_until_completed();
  }

  /// Runs one of the GEMM shaders functionally and returns C.
  std::vector<float> run_gemm(const std::string& kernel, std::uint32_t n,
                              const std::vector<float>& a,
                              const std::vector<float>& b) {
    return run_gemm(default_library().function(kernel), n, a, b, {8, 8, 1});
  }

  /// Runs `kernel` functionally: the tiled layout when it takes threadgroup
  /// memory, else one thread per C element in `threads_per_group` groups.
  std::vector<float> run_gemm(const metal::Kernel& kernel, std::uint32_t n,
                              const std::vector<float>& a,
                              const std::vector<float>& b,
                              metal::UInt3 threads_per_group) {
    auto buf_a = make_buffer(n * n);
    auto buf_b = make_buffer(n * n);
    auto buf_c = make_buffer(n * n);
    std::copy(a.begin(), a.end(), static_cast<float*>(buf_a->contents()));
    std::copy(b.begin(), b.end(), static_cast<float*>(buf_b->contents()));
    std::fill_n(static_cast<float*>(buf_c->contents()), n * n, -1.0f);

    auto pipeline = device_.new_compute_pipeline_state(kernel);
    auto cmd = queue_->command_buffer();
    auto enc = cmd->compute_command_encoder();
    enc->set_compute_pipeline_state(pipeline);
    enc->set_buffer(buf_a.get(), 0, 0);
    enc->set_buffer(buf_b.get(), 0, 1);
    enc->set_buffer(buf_c.get(), 0, 2);
    enc->set_value<std::uint32_t>(n, 3);
    if (kernel.name.starts_with("gemm_tiled")) {
      enc->set_threadgroup_memory_length(kGemmTiledScratchBytes);
      const auto groups = (n + kGemmTile - 1) / kGemmTile;
      enc->dispatch_threadgroups({groups, groups, 1},
                                 {kGemmGroupEdge, kGemmGroupEdge, 1});
    } else {
      enc->dispatch_threads({n, n, 1}, threads_per_group);
    }
    enc->end_encoding();
    cmd->commit();
    cmd->wait_until_completed();

    const auto* out = static_cast<const float*>(buf_c->contents());
    return {out, out + n * n};
  }

  /// Runs `kernel` and `oracle` on the same operands; C must match bit for
  /// bit.
  void expect_bit_identical(const metal::Kernel& kernel,
                            const metal::Kernel& oracle, std::uint32_t n,
                            metal::UInt3 threads_per_group) {
    std::vector<float> a(n * n);
    std::vector<float> b(n * n);
    util::fill_uniform(std::span<float>(a), 31);
    util::fill_uniform(std::span<float>(b), 32);
    const auto got = run_gemm(kernel, n, a, b, threads_per_group);
    const auto want = run_gemm(oracle, n, a, b, threads_per_group);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << kernel.name << " n=" << n << " threads " << threads_per_group.x
        << "x" << threads_per_group.y;
  }

  void check_gemm_against_reference(const std::string& kernel,
                                    std::uint32_t n) {
    std::vector<float> a(n * n);
    std::vector<float> b(n * n);
    util::fill_uniform(std::span<float>(a), 11);
    util::fill_uniform(std::span<float>(b), 22);
    const auto got = run_gemm(kernel, n, a, b);
    std::vector<float> expected(n * n);
    accelerate::reference::sgemm(false, false, n, n, n, 1.0f, a.data(), n,
                                 b.data(), n, 0.0f, expected.data(), n);
    const float err = accelerate::reference::max_abs_diff(
        expected.data(), got.data(), n, n, n);
    EXPECT_LE(err, accelerate::reference::gemm_tolerance(n))
        << kernel << " n=" << n;
  }
};

// --------------------------------------------------------- library ---------

TEST_F(ShaderTest, DefaultLibraryContainsAllKernels) {
  const auto& lib = default_library();
  EXPECT_EQ(lib.size(), 6u);
  for (const auto& name : {"stream_copy", "stream_scale", "stream_add",
                           "stream_triad", "gemm_naive", "gemm_tiled"}) {
    EXPECT_TRUE(lib.contains(name)) << name;
  }
}

TEST_F(ShaderTest, KernelNameHelpers) {
  EXPECT_EQ(stream_kernel_name(soc::StreamKernel::kCopy), "stream_copy");
  EXPECT_EQ(stream_kernel_name(soc::StreamKernel::kTriad), "stream_triad");
}

// ----------------------------------------------------- STREAM kernels ------

TEST_F(ShaderTest, CopyKernel) {
  const std::uint32_t n = 5000;
  auto a = make_buffer(n);
  auto b = make_buffer(n);
  auto c = make_buffer(n);
  auto* pa = static_cast<float*>(a->contents());
  for (std::uint32_t i = 0; i < n; ++i) {
    pa[i] = static_cast<float>(i) * 0.5f;
  }
  run_stream("stream_copy", a.get(), b.get(), c.get(), n, 0.0f);
  const auto* pc = static_cast<const float*>(c->contents());
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(pc[i], static_cast<float>(i) * 0.5f);
  }
}

TEST_F(ShaderTest, ScaleKernel) {
  const std::uint32_t n = 4096;
  auto a = make_buffer(n);
  auto b = make_buffer(n);
  auto c = make_buffer(n);
  auto* pc = static_cast<float*>(c->contents());
  std::fill(pc, pc + n, 2.0f);
  run_stream("stream_scale", a.get(), b.get(), c.get(), n, 3.0f);
  const auto* pb = static_cast<const float*>(b->contents());
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(pb[i], 6.0f);
  }
}

TEST_F(ShaderTest, AddKernel) {
  const std::uint32_t n = 3000;
  auto a = make_buffer(n);
  auto b = make_buffer(n);
  auto c = make_buffer(n);
  auto* pa = static_cast<float*>(a->contents());
  auto* pb = static_cast<float*>(b->contents());
  std::fill(pa, pa + n, 1.5f);
  std::fill(pb, pb + n, 2.5f);
  run_stream("stream_add", a.get(), b.get(), c.get(), n, 0.0f);
  const auto* pc = static_cast<const float*>(c->contents());
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(pc[i], 4.0f);
  }
}

TEST_F(ShaderTest, TriadKernel) {
  const std::uint32_t n = 2048;
  auto a = make_buffer(n);
  auto b = make_buffer(n);
  auto c = make_buffer(n);
  auto* pb = static_cast<float*>(b->contents());
  auto* pc = static_cast<float*>(c->contents());
  std::fill(pb, pb + n, 2.0f);
  std::fill(pc, pc + n, 4.0f);
  run_stream("stream_triad", a.get(), b.get(), c.get(), n, 3.0f);
  const auto* pa = static_cast<const float*>(a->contents());
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(pa[i], 14.0f);  // 2 + 3*4
  }
}

TEST_F(ShaderTest, StreamEstimatorUsesStreamTiming) {
  // A STREAM dispatch must charge the calibrated bandwidth, not the generic
  // roofline: 3 arrays * n * 4 B at the M3 GPU-Add anchor (90 GB/s).
  const std::uint32_t n = 1u << 20;
  auto a = make_buffer(n);
  auto b = make_buffer(n);
  auto c = make_buffer(n);
  const auto t0 = soc_.clock().now();
  run_stream("stream_add", a.get(), b.get(), c.get(), n, 0.0f);
  const auto dt = static_cast<double>(soc_.clock().now() - t0);
  const double bytes = 3.0 * n * sizeof(float);
  const double expected_ns =
      bytes / 90.0 + soc_.calib().stream.gpu_launch_overhead_ns;
  EXPECT_NEAR(dt, expected_ns, expected_ns * 0.01);
}

// ------------------------------------------------------- GEMM kernels ------

TEST_F(ShaderTest, NaiveGemmMatchesReferencePowerOfTwo) {
  check_gemm_against_reference("gemm_naive", 64);
  check_gemm_against_reference("gemm_naive", 128);
}

TEST_F(ShaderTest, NaiveGemmHandlesRaggedSizes) {
  // Not a multiple of the 8x8 threadgroup: bounds checks must hold.
  check_gemm_against_reference("gemm_naive", 33);
  check_gemm_against_reference("gemm_naive", 100);
}

TEST_F(ShaderTest, TiledGemmMatchesReferenceTileMultiples) {
  check_gemm_against_reference("gemm_tiled", 32);
  check_gemm_against_reference("gemm_tiled", 64);
  check_gemm_against_reference("gemm_tiled", 128);
}

TEST_F(ShaderTest, TiledGemmHandlesRaggedSizes) {
  // Partial edge tiles: 100 = 3*32 + 4; 48 = 32 + 16.
  check_gemm_against_reference("gemm_tiled", 48);
  check_gemm_against_reference("gemm_tiled", 100);
}

TEST_F(ShaderTest, NaiveGemmIsBitIdenticalToPerThreadLoop) {
  const metal::Kernel naive = make_gemm_naive();
  const metal::Kernel oracle = per_thread_naive_gemm();
  for (const std::uint32_t n : {33u, 100u, 128u}) {
    for (const metal::UInt3 group : {metal::UInt3{8, 8, 1},
                                     metal::UInt3{16, 4, 1},
                                     metal::UInt3{3, 5, 1}}) {
      expect_bit_identical(naive, oracle, n, group);
    }
  }
}

TEST_F(ShaderTest, TiledGemmIsBitIdenticalToMicroTileLoop) {
  const metal::Kernel tiled = make_gemm_tiled();
  const metal::Kernel oracle = micro_tile_tiled_gemm();
  for (const std::uint32_t n : {32u, 48u, 100u}) {
    expect_bit_identical(tiled, oracle, n, {kGemmGroupEdge, kGemmGroupEdge, 1});
  }
}

TEST_F(ShaderTest, TiledAndNaiveAgree) {
  const std::uint32_t n = 96;
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  util::fill_uniform(std::span<float>(a), 5);
  util::fill_uniform(std::span<float>(b), 6);
  const auto naive = run_gemm("gemm_naive", n, a, b);
  const auto tiled = run_gemm("gemm_tiled", n, a, b);
  const float err = accelerate::reference::max_abs_diff(
      naive.data(), tiled.data(), n, n, n);
  EXPECT_LE(err, accelerate::reference::gemm_tolerance(n));
}

TEST_F(ShaderTest, GemmEstimatorsReportCorrectImplClass) {
  // Charged times must follow the per-implementation anchors: the naive
  // shader is *faster* than the tiled one at the same size on M3 (450 vs
  // 270 GFLOPS peak), reproducing the paper's inversion.
  const std::uint32_t n = 128;
  std::vector<float> a(n * n, 0.0f);
  std::vector<float> b(n * n, 0.0f);

  const auto t0 = soc_.clock().now();
  run_gemm("gemm_naive", n, a, b);
  const auto naive_ns = static_cast<double>(soc_.clock().now() - t0);

  const auto t1 = soc_.clock().now();
  run_gemm("gemm_tiled", n, a, b);
  const auto tiled_ns = static_cast<double>(soc_.clock().now() - t1);

  soc::PerfModel perf(soc_);
  EXPECT_NEAR(naive_ns, perf.gemm_time_ns(soc::GemmImpl::kGpuNaive, n),
              naive_ns * 0.05);
  EXPECT_NEAR(tiled_ns, perf.gemm_time_ns(soc::GemmImpl::kGpuCutlass, n),
              tiled_ns * 0.05);
}

}  // namespace
}  // namespace ao::shaders
