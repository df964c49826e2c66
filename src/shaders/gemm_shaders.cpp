#include "shaders/gemm_shaders.hpp"

#include <algorithm>
#include <array>

#include "metal/compute_pipeline.hpp"
#include "util/simd.hpp"

namespace ao::shaders {
namespace {

using metal::ArgumentTable;
using metal::DispatchShape;
using metal::GroupContext;
using metal::WorkEstimate;

/// gemm_naive's threadgroup body: the rows x cols threads at A row block
/// `a` and B column block `b` (row stride n) sum their products into
/// `acc`, thread (tx, ty) into acc[ty * cols + tx]. A named function, not
/// the kernel lambda, so it carries AO_SIMD_CLONES.
AO_SIMD_CLONES
void naive_lockstep(const float* __restrict a, const float* __restrict b,
                    float* __restrict acc, std::uint32_t rows,
                    std::uint32_t cols, std::uint32_t n) {
  const std::size_t stride = n;
  std::fill_n(acc, rows * cols, 0.0f);
  // K lockstep steps from k0: each accumulator is read and written once
  // per K products, which it still adds one at a time in k order.
  auto steps = [&]<std::uint32_t K>(std::uint32_t k0) {
    for (std::uint32_t ty = 0; ty < rows; ++ty) {
      const float* a_k = a + ty * stride + k0;
      float* acc_row = acc + ty * cols;
      for (std::uint32_t tx = 0; tx < cols; ++tx) {
        float sum = acc_row[tx];
        for (std::uint32_t j = 0; j < K; ++j) {
          sum += a_k[j] * b[(k0 + j) * stride + tx];
        }
        acc_row[tx] = sum;
      }
    }
  };
  constexpr std::uint32_t kSteps = 8;
  std::uint32_t kk = 0;
  for (; kk + kSteps <= n; kk += kSteps) {
    steps.template operator()<kSteps>(kk);
  }
  for (; kk < n; ++kk) {
    steps.template operator()<1>(kk);
  }
}

/// gemm_tiled's multiply phase over one staged k tile (k_lim valid steps):
/// a row of the C tile is one row of G threads' micro-tiles; they run in
/// lockstep over k, so the inner loop is a full row of tile_b. Each
/// accumulator still adds its products in k order. Cloned like
/// naive_lockstep.
AO_SIMD_CLONES
void tiled_multiply(const float* __restrict tile_a,
                    const float* __restrict tile_b,
                    float (*__restrict acc)[kGemmTile], std::uint32_t k_lim) {
  constexpr std::uint32_t T = kGemmTile;
  for (std::uint32_t r = 0; r < T; ++r) {
    float* acc_row = acc[r];
    for (std::uint32_t kk = 0; kk < k_lim; ++kk) {
      const float a_val = tile_a[r * T + kk];
      const float* b_row = tile_b + kk * T;
      for (std::uint32_t col = 0; col < T; ++col) {
        acc_row[col] += a_val * b_row[col];
      }
    }
  }
}

metal::WorkEstimator gemm_estimator(soc::GemmImpl impl) {
  return [impl](const ArgumentTable& args, const DispatchShape&) {
    return WorkEstimate::gemm(impl, args.value<std::uint32_t>(3));
  };
}

}  // namespace

metal::Kernel make_gemm_naive() {
  metal::Kernel k;
  k.name = "gemm_naive";
  // The MSL original is one thread per C element:
  //
  //   uint col = gid.x, row = gid.y;
  //   if (row >= n || col >= n) return;
  //   float acc = 0.0f;
  //   for (uint k = 0; k < n; ++k) acc += a[row * n + k] * b[k * n + col];
  //   c[row * n + col] = acc;
  //
  // On the host, the threadgroup's threads run in lockstep, the way a
  // SIMD-group does: k is the outer loop, and each row of the group's
  // per-thread accumulators is an inner loop that reads along rows of B.
  // Every thread still sums its own products in k order from 0.0f, so C
  // keeps every bit. Threads that differ only in z compute the same element.
  k.body = metal::GroupKernelFn([](const ArgumentTable& args,
                                   const GroupContext& ctx) {
    const auto n = args.value<std::uint32_t>(3);
    const metal::UInt3 tpg = ctx.threads_per_threadgroup;
    const std::uint32_t col0 = ctx.threadgroup_position_in_grid.x * tpg.x;
    const std::uint32_t row0 = ctx.threadgroup_position_in_grid.y * tpg.y;
    if (row0 >= n || col0 >= n) {
      return;
    }
    const std::uint32_t cols = std::min(tpg.x, n - col0);
    const std::uint32_t rows = std::min(tpg.y, n - row0);
    const std::size_t stride = n;
    const float* a = args.buffer_data<float>(0) + row0 * stride;
    const float* b = args.buffer_data<float>(1) + col0;
    float* c = args.buffer_data<float>(2) + row0 * stride + col0;

    // `acc` of thread (tx, ty) is acc[ty * cols + tx].
    std::array<float,
               metal::ComputePipelineState::kMaxTotalThreadsPerThreadgroup>
        acc;
    naive_lockstep(a, b, acc.data(), rows, cols, n);
    for (std::uint32_t ty = 0; ty < rows; ++ty) {
      std::copy_n(acc.begin() + ty * cols, cols, c + ty * stride);
    }
  });
  k.estimator = gemm_estimator(soc::GemmImpl::kGpuNaive);
  return k;
}

metal::Kernel make_gemm_tiled() {
  metal::Kernel k;
  k.name = "gemm_tiled";
  k.body = metal::GroupKernelFn([](const ArgumentTable& args,
                                   const GroupContext& ctx) {
    const auto n = args.value<std::uint32_t>(3);
    const float* a = args.buffer_data<float>(0);
    const float* b = args.buffer_data<float>(1);
    float* c = args.buffer_data<float>(2);

    constexpr std::uint32_t T = kGemmTile;
    constexpr std::uint32_t G = kGemmGroupEdge;
    constexpr std::uint32_t M = kGemmMicroTile;

    // threadgroup float tile_a[T][T]; threadgroup float tile_b[T][T];
    auto scratch = ctx.threadgroup_span<float>();
    float* tile_a = scratch.data();
    float* tile_b = scratch.data() + T * T;

    const std::uint32_t tile_row0 = ctx.threadgroup_position_in_grid.y * T;
    const std::uint32_t tile_col0 = ctx.threadgroup_position_in_grid.x * T;
    if (tile_row0 >= n || tile_col0 >= n) {
      return;
    }

    // The accumulators of all G x G threads' M x M micro-tiles (the
    // "registers" of the Cutlass layout), laid out as the C tile: thread
    // (ty, tx) owns acc[ty * M + mi][tx * M + mj].
    float acc[T][T] = {};

    const std::uint32_t k_tiles = (n + T - 1) / T;
    for (std::uint32_t kt = 0; kt < k_tiles; ++kt) {
      const std::uint32_t k0 = kt * T;

      // ---- load phase: all threads cooperatively stage A and B tiles ----
      // (threadgroup_barrier(mem_threadgroup) follows in the MSL original.)
      // On the host the tiles are staged a row at a time: the in-range part
      // is one contiguous copy and the rest is zero-filled.
      const std::uint32_t k_lim = std::min(T, n - k0);
      const std::uint32_t col_lim = std::min(T, n - tile_col0);
      for (std::uint32_t r = 0; r < T; ++r) {
        float* a_dst = tile_a + r * T;
        float* a_end = a_dst;
        if (tile_row0 + r < n) {
          a_end = std::copy_n(
              a + static_cast<std::size_t>(tile_row0 + r) * n + k0, k_lim,
              a_dst);
        }
        std::fill(a_end, a_dst + T, 0.0f);
        float* b_dst = tile_b + r * T;
        float* b_end = b_dst;
        if (k0 + r < n) {
          b_end = std::copy_n(
              b + static_cast<std::size_t>(k0 + r) * n + tile_col0, col_lim,
              b_dst);
        }
        std::fill(b_end, b_dst + T, 0.0f);
      }

      // ---- multiply phase: every thread updates its 4x4 micro-tile ----
      // (second threadgroup_barrier in the MSL original.)
      tiled_multiply(tile_a, tile_b, acc, k_lim);
    }

    // ---- epilogue: write the C tile ----
    for (std::uint32_t ty = 0; ty < G; ++ty) {
      for (std::uint32_t tx = 0; tx < G; ++tx) {
        for (std::uint32_t mi = 0; mi < M; ++mi) {
          const std::uint32_t row = tile_row0 + ty * M + mi;
          if (row >= n) {
            continue;
          }
          for (std::uint32_t mj = 0; mj < M; ++mj) {
            const std::uint32_t col = tile_col0 + tx * M + mj;
            if (col >= n) {
              continue;
            }
            c[static_cast<std::size_t>(row) * n + col] =
                acc[ty * M + mi][tx * M + mj];
          }
        }
      }
    }
  });
  k.estimator = gemm_estimator(soc::GemmImpl::kGpuCutlass);
  return k;
}

}  // namespace ao::shaders
