#include "mps/mps_gemm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "metal/compute_command_encoder.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace ao::mps {
namespace detail {

void sgemm_block(bool transpose_a, bool transpose_b, std::size_t row_begin,
                 std::size_t row_end, std::size_t n_cols, std::size_t k_dim,
                 float alpha, const float* a, std::size_t lda, const float* b,
                 std::size_t ldb, float beta, float* c, std::size_t ldc) {
  constexpr std::size_t kBlockK = 256;  // keep the A/B panels L1/L2-resident
  constexpr std::size_t kBlockJ = 512;

  auto a_at = [&](std::size_t i, std::size_t k) {
    return transpose_a ? a[k * lda + i] : a[i * lda + k];
  };

  // Scale C by beta once up front.
  for (std::size_t i = row_begin; i < row_end; ++i) {
    float* c_row = c + i * ldc;
    if (beta == 0.0f) {
      std::fill(c_row, c_row + n_cols, 0.0f);
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n_cols; ++j) {
        c_row[j] *= beta;
      }
    }
  }

  for (std::size_t k0 = 0; k0 < k_dim; k0 += kBlockK) {
    const std::size_t k1 = std::min(k0 + kBlockK, k_dim);
    for (std::size_t j0 = 0; j0 < n_cols; j0 += kBlockJ) {
      const std::size_t j1 = std::min(j0 + kBlockJ, n_cols);
      for (std::size_t i = row_begin; i < row_end; ++i) {
        float* c_row = c + i * ldc;
        for (std::size_t k = k0; k < k1; ++k) {
          const float a_ik = alpha * a_at(i, k);
          if (a_ik == 0.0f) {
            continue;
          }
          // The hot loop: with B not transposed it walks a row of B and of
          // C, and util::axpy runs it at the host's widest vector ISA.
          if (!transpose_b) {
            util::axpy(j1 - j0, a_ik, b + k * ldb + j0, c_row + j0);
          } else {
            for (std::size_t j = j0; j < j1; ++j) {
              c_row[j] += a_ik * b[j * ldb + k];
            }
          }
        }
      }
    }
  }
}

}  // namespace detail

namespace {

/// Builds the internal MPS kernel: a GroupKernel whose groups each own a
/// block of C rows. Geometry: grid = (1, row_blocks, 1).
metal::Kernel make_mps_kernel(bool transpose_left, bool transpose_right,
                              std::size_t result_rows, std::size_t result_columns,
                              std::size_t interior_columns, float alpha,
                              float beta) {
  metal::Kernel k;
  k.name = "mps_matrix_multiplication";
  k.body = metal::GroupKernelFn([=](const metal::ArgumentTable& args,
                                    const metal::GroupContext& ctx) {
    const auto lda = args.value<std::uint32_t>(3);
    const auto ldb = args.value<std::uint32_t>(4);
    const auto ldc = args.value<std::uint32_t>(5);
    const float* a = args.buffer_data<float>(0);
    const float* b = args.buffer_data<float>(1);
    float* c = args.buffer_data<float>(2);

    const std::size_t blocks = ctx.threadgroups_per_grid.y;
    const std::size_t rows_per_block = (result_rows + blocks - 1) / blocks;
    const std::size_t row_begin =
        ctx.threadgroup_position_in_grid.y * rows_per_block;
    const std::size_t row_end =
        std::min(row_begin + rows_per_block, result_rows);
    if (row_begin >= row_end) {
      return;
    }
    detail::sgemm_block(transpose_left, transpose_right, row_begin, row_end,
                        result_columns, interior_columns, alpha, a, lda, b, ldb,
                        beta, c, ldc);
  });
  k.estimator = [result_rows, result_columns, interior_columns](
                    const metal::ArgumentTable&, const metal::DispatchShape&) {
    // Map the (possibly non-square) problem onto the square-size calibration
    // curve via its FLOP volume: flops = 2*M*N*K - M*N == n^2 (2n - 1) at
    // M = N = K = n.
    const double flops = 2.0 * static_cast<double>(result_rows) *
                             static_cast<double>(result_columns) *
                             static_cast<double>(interior_columns) -
                         static_cast<double>(result_rows) *
                             static_cast<double>(result_columns);
    const auto n_eff = static_cast<std::size_t>(
        std::max(1.0, std::cbrt(std::max(flops, 1.0) / 2.0)));
    return metal::WorkEstimate::gemm(soc::GemmImpl::kGpuMps, n_eff);
  };
  return k;
}

}  // namespace

MatrixMultiplication::MatrixMultiplication(metal::Device& device,
                                           std::size_t result_rows,
                                           std::size_t result_columns,
                                           std::size_t interior_columns)
    : MatrixMultiplication(device, false, false, result_rows, result_columns,
                           interior_columns, 1.0, 0.0) {}

MatrixMultiplication::MatrixMultiplication(
    metal::Device& device, bool transpose_left, bool transpose_right,
    std::size_t result_rows, std::size_t result_columns,
    std::size_t interior_columns, double alpha, double beta)
    : device_(&device),
      transpose_left_(transpose_left),
      transpose_right_(transpose_right),
      result_rows_(result_rows),
      result_columns_(result_columns),
      interior_columns_(interior_columns),
      alpha_(alpha),
      beta_(beta) {
  AO_REQUIRE(result_rows > 0 && result_columns > 0 && interior_columns > 0,
             "matrix multiplication dimensions must be positive");
  pipeline_ = device.new_compute_pipeline_state(make_mps_kernel(
      transpose_left, transpose_right, result_rows, result_columns,
      interior_columns, static_cast<float>(alpha), static_cast<float>(beta)));
}

void MatrixMultiplication::encode_to_command_buffer(
    metal::CommandBuffer& command_buffer, Matrix& left, Matrix& right,
    Matrix& result) {
  // Shape validation, as MPS performs when encoding.
  const std::size_t a_rows = transpose_left_ ? left.columns() : left.rows();
  const std::size_t a_cols = transpose_left_ ? left.rows() : left.columns();
  const std::size_t b_rows = transpose_right_ ? right.columns() : right.rows();
  const std::size_t b_cols = transpose_right_ ? right.rows() : right.columns();
  AO_REQUIRE(a_rows == result_rows_, "left matrix rows mismatch");
  AO_REQUIRE(a_cols == interior_columns_, "left matrix columns mismatch");
  AO_REQUIRE(b_rows == interior_columns_, "right matrix rows mismatch");
  AO_REQUIRE(b_cols == result_columns_, "right matrix columns mismatch");
  AO_REQUIRE(result.rows() == result_rows_ && result.columns() == result_columns_,
             "result matrix shape mismatch");
  AO_REQUIRE(left.descriptor().data_type() == DataType::kFloat32 &&
                 right.descriptor().data_type() == DataType::kFloat32 &&
                 result.descriptor().data_type() == DataType::kFloat32,
             "MPS GEMM simulation supports FP32 (MPSDataTypeFloat32)");

  auto encoder = command_buffer.compute_command_encoder();
  encoder->set_compute_pipeline_state(pipeline_);
  encoder->set_buffer(left.buffer(), 0, 0);
  encoder->set_buffer(right.buffer(), 0, 1);
  encoder->set_buffer(result.buffer(), 0, 2);
  encoder->set_value<std::uint32_t>(
      static_cast<std::uint32_t>(left.stride_f32()), 3);
  encoder->set_value<std::uint32_t>(
      static_cast<std::uint32_t>(right.stride_f32()), 4);
  encoder->set_value<std::uint32_t>(
      static_cast<std::uint32_t>(result.stride_f32()), 5);
  encoder->set_functional_execution(functional_);

  // One threadgroup per block of C rows; the block count tracks the GPU core
  // count so the simulated execution parallelizes like the real kernel.
  const auto blocks = static_cast<std::uint32_t>(std::min<std::size_t>(
      result_rows_, static_cast<std::size_t>(device_->gpu_core_count()) * 4));
  encoder->dispatch_threadgroups({1, blocks, 1}, {1, 1, 1});
  encoder->end_encoding();
}

}  // namespace ao::mps
