#include "fp64emu/gemm_fp64_shader.hpp"

#include <algorithm>

#include "fp64emu/double_single.hpp"
#include "metal/compute_command_encoder.hpp"
#include "metal/device.hpp"
#include "util/simd.hpp"

namespace ao::fp64emu {
namespace {

/// One R x J tile of a double-single block product, its hi/lo accumulators
/// held in registers across the whole k loop. Each k step splits the tile's
/// B segment once and each A element once, then advances every element's
/// ds_fma chain by one product. Always inlined, so it runs at the ISA of the
/// cloned shape function that calls it.
template <std::size_t R, std::size_t J>
__attribute__((always_inline)) inline void ds_tile(
    std::size_t depth, const float* __restrict a_hi,
    const float* __restrict a_lo, std::size_t lda,
    const float* __restrict b_hi, const float* __restrict b_lo,
    std::size_t ldb, float* __restrict c_hi, float* __restrict c_lo,
    std::size_t ldc) {
  float acc_hi[R][J] = {};
  float acc_lo[R][J] = {};
  for (std::size_t kk = 0; kk < depth; ++kk) {
    float bh[J];
    float bl[J];
    float sb_hi[J];
    float sb_lo[J];
    for (std::size_t j = 0; j < J; ++j) {
      bh[j] = b_hi[kk * ldb + j];
      bl[j] = b_lo[kk * ldb + j];
      const detail::Split s = detail::split(bh[j]);
      sb_hi[j] = s.hi;
      sb_lo[j] = s.lo;
    }
    for (std::size_t r = 0; r < R; ++r) {
      const DoubleSingle a{a_hi[r * lda + kk], a_lo[r * lda + kk]};
      const detail::Split sa = detail::split(a.hi);
      for (std::size_t j = 0; j < J; ++j) {
        const DoubleSingle sum =
            ds_fma(a, sa, {bh[j], bl[j]}, {sb_hi[j], sb_lo[j]},
                   {acc_hi[r][j], acc_lo[r][j]});
        acc_hi[r][j] = sum.hi;
        acc_lo[r][j] = sum.lo;
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t j = 0; j < J; ++j) {
      c_hi[r * ldc + j] = acc_hi[r][j];
      c_lo[r * ldc + j] = acc_lo[r][j];
    }
  }
}

/// One cloned function per tile shape (see AO_SIMD_CLONES).
#define AO_DS_TILE(name, R, J)                                                \
  AO_SIMD_CLONES void name(std::size_t depth, const float* a_hi,              \
                           const float* a_lo, std::size_t lda,                \
                           const float* b_hi, const float* b_lo,              \
                           std::size_t ldb, float* c_hi, float* c_lo,         \
                           std::size_t ldc) {                                 \
    ds_tile<R, J>(depth, a_hi, a_lo, lda, b_hi, b_lo, ldb, c_hi, c_lo, ldc);  \
  }

AO_DS_TILE(ds_tile_4x16, 4, 16)
AO_DS_TILE(ds_tile_4x8, 4, 8)
AO_DS_TILE(ds_tile_1x16, 1, 16)
AO_DS_TILE(ds_tile_1x8, 1, 8)
AO_DS_TILE(ds_tile_1x1, 1, 1)

#undef AO_DS_TILE

}  // namespace

void ds_gemm_block(std::size_t rows, std::size_t cols, std::size_t depth,
                   const float* a_hi, const float* a_lo, std::size_t lda,
                   const float* b_hi, const float* b_lo, std::size_t ldb,
                   float* c_hi, float* c_lo, std::size_t ldc) {
  // Rows in fours while four are left; columns in 16s, then 8s, then ones.
  auto run = [&](auto* tile, std::size_t r, std::size_t j) {
    tile(depth, a_hi + r * lda, a_lo + r * lda, lda, b_hi + j, b_lo + j, ldb,
         c_hi + r * ldc + j, c_lo + r * ldc + j, ldc);
  };
  for (std::size_t i = 0; i < rows;) {
    const std::size_t tile_rows = rows - i >= 4 ? 4 : 1;
    std::size_t j = 0;
    for (; cols - j >= 16; j += 16) {
      run(tile_rows == 4 ? ds_tile_4x16 : ds_tile_1x16, i, j);
    }
    for (; cols - j >= 8; j += 8) {
      run(tile_rows == 4 ? ds_tile_4x8 : ds_tile_1x8, i, j);
    }
    for (; j < cols; ++j) {
      for (std::size_t r = i; r < i + tile_rows; ++r) {
        run(ds_tile_1x1, r, j);
      }
    }
    i += tile_rows;
  }
}

metal::Kernel make_gemm_fp64_emulated() {
  metal::Kernel k;
  k.name = "gemm_fp64_emulated";
  // The MSL original is one thread per C element:
  //
  //   uint col = gid.x, row = gid.y;
  //   if (row >= n || col >= n) return;
  //   ds acc = {0, 0};
  //   for (uint k = 0; k < n; ++k) acc = ds_fma(a[row][k], b[k][col], acc);
  //   c[row][col] = acc;
  //
  // On the host the threadgroup's threads run in lockstep, as in
  // gemm_naive: ds_gemm_block() runs the group's tile as register tiles
  // (an {8,8} group is two 4 x 8 tiles), and every thread's chain still
  // starts from zero and runs in k order, so C keeps every bit. Threads
  // that differ only in z compute the same element.
  k.body = metal::GroupKernelFn([](const metal::ArgumentTable& args,
                                   const metal::GroupContext& ctx) {
    const auto n = args.value<std::uint32_t>(6);
    const metal::UInt3 tpg = ctx.threads_per_threadgroup;
    const std::uint32_t col0 = ctx.threadgroup_position_in_grid.x * tpg.x;
    const std::uint32_t row0 = ctx.threadgroup_position_in_grid.y * tpg.y;
    if (row0 >= n || col0 >= n) {
      return;
    }
    const std::size_t stride = n;
    const std::size_t a0 = row0 * stride;
    const std::size_t c0 = a0 + col0;
    ds_gemm_block(std::min(tpg.y, n - row0), std::min(tpg.x, n - col0), n,
                  args.buffer_data<float>(0) + a0,
                  args.buffer_data<float>(1) + a0, stride,
                  args.buffer_data<float>(2) + col0,
                  args.buffer_data<float>(3) + col0, stride,
                  args.buffer_data<float>(4) + c0,
                  args.buffer_data<float>(5) + c0, stride);
  });
  k.estimator = [](const metal::ArgumentTable& args, const metal::DispatchShape&) {
    const auto n = args.value<std::uint32_t>(6);
    const double nd = static_cast<double>(n);
    // n^3 emulated FMAs, each kFlopsPerDsFma FP32 ops; six FP32 planes of
    // traffic. Compute efficiency mirrors the naive FP32 shader's (~0.15 of
    // peak), since the access pattern is identical.
    return metal::WorkEstimate::generic(nd * nd * nd * kFlopsPerDsFma,
                                        6.0 * nd * nd * sizeof(float),
                                        /*efficiency=*/0.15);
  };
  return k;
}

void split_matrix(const double* src, float* hi, float* lo, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const DoubleSingle ds = DoubleSingle::from_double(src[i]);
    hi[i] = ds.hi;
    lo[i] = ds.lo;
  }
}

void join_matrix(const float* hi, const float* lo, double* dst,
                 std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = DoubleSingle{hi[i], lo[i]}.to_double();
  }
}

std::vector<double> run_emulated_gemm(metal::Device& device, const double* a,
                                      const double* b, std::uint32_t n) {
  const std::size_t count = static_cast<std::size_t>(n) * n;
  const std::size_t bytes = count * sizeof(float);
  auto mk = [&] { return device.new_buffer(bytes, mem::StorageMode::kShared); };
  auto a_hi = mk(), a_lo = mk(), b_hi = mk(), b_lo = mk(), c_hi = mk(),
       c_lo = mk();
  split_matrix(a, static_cast<float*>(a_hi->contents()),
               static_cast<float*>(a_lo->contents()), count);
  split_matrix(b, static_cast<float*>(b_hi->contents()),
               static_cast<float*>(b_lo->contents()), count);

  auto pipeline = device.new_compute_pipeline_state(make_gemm_fp64_emulated());
  auto queue = device.new_command_queue();
  auto cmd = queue->command_buffer();
  auto enc = cmd->compute_command_encoder();
  enc->set_compute_pipeline_state(pipeline);
  metal::Buffer* bufs[] = {a_hi.get(), a_lo.get(), b_hi.get(),
                           b_lo.get(), c_hi.get(), c_lo.get()};
  for (std::size_t s = 0; s < 6; ++s) {
    enc->set_buffer(bufs[s], 0, s);
  }
  enc->set_value<std::uint32_t>(n, 6);
  enc->dispatch_threads({n, n, 1}, {8, 8, 1});
  enc->end_encoding();
  cmd->commit();
  cmd->wait_until_completed();

  std::vector<double> result(count);
  join_matrix(static_cast<const float*>(c_hi->contents()),
              static_cast<const float*>(c_lo->contents()), result.data(),
              count);
  return result;
}

}  // namespace ao::fp64emu
