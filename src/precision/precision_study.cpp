#include "precision/precision_study.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ane/neural_engine.hpp"
#include "fp64emu/double_single.hpp"
#include "fp64emu/gemm_fp64_shader.hpp"
#include "soc/calibration.hpp"
#include "soc/perf_model.hpp"
#include "soc/soc.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace ao::precision {

std::string to_string(Format format) {
  switch (format) {
    case Format::kFp64Cpu:
      return "FP64 (CPU native)";
    case Format::kFp64Emulated:
      return "FP64 (GPU emulated, double-single)";
    case Format::kFp32:
      return "FP32 (native)";
    case Format::kFp16:
      return "FP16 (GPU/ANE)";
  }
  return "unknown";
}

namespace {

/// GEMM in double-single arithmetic (the GPU emulation path, bit-faithful):
/// the emulated shader's kernel over blocks of kRowBlock rows on the pool.
std::vector<double> gemm_double_single(const std::vector<double>& a,
                                       const std::vector<double>& b,
                                       std::size_t n) {
  constexpr std::size_t kRowBlock = 8;
  std::vector<float> a_hi(n * n);
  std::vector<float> a_lo(n * n);
  std::vector<float> b_hi(n * n);
  std::vector<float> b_lo(n * n);
  fp64emu::split_matrix(a.data(), a_hi.data(), a_lo.data(), n * n);
  fp64emu::split_matrix(b.data(), b_hi.data(), b_lo.data(), n * n);
  std::vector<double> c(n * n);
  const std::size_t blocks = (n + kRowBlock - 1) / kRowBlock;
  util::global_pool().parallel_for(blocks, [&](std::size_t block) {
    const std::size_t row0 = block * kRowBlock;
    const std::size_t rows = std::min(kRowBlock, n - row0);
    std::vector<float> c_hi(rows * n);
    std::vector<float> c_lo(rows * n);
    fp64emu::ds_gemm_block(rows, n, n, a_hi.data() + row0 * n,
                           a_lo.data() + row0 * n, n, b_hi.data(),
                           b_lo.data(), n, c_hi.data(), c_lo.data(), n);
    fp64emu::join_matrix(c_hi.data(), c_lo.data(), c.data() + row0 * n,
                         rows * n);
  });
  return c;
}

/// `value` is the format's product, double or float (widened exactly).
template <typename T>
StudyResult make_result(Format format, std::size_t n,
                        const std::vector<double>& reference,
                        const std::vector<T>& value) {
  StudyResult r;
  r.format = format;
  r.n = n;
  double worst = 0.0;
  double sum = 0.0;
  double ref_scale = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double err = std::fabs(reference[i] - value[i]);
    worst = std::max(worst, err);
    sum += err;
    ref_scale = std::max(ref_scale, std::fabs(reference[i]));
  }
  r.max_abs_error = worst;
  r.mean_abs_error = sum / static_cast<double>(reference.size());
  const double rel = worst / std::max(ref_scale, 1e-300);
  r.significant_digits = rel > 0.0 ? -std::log10(rel) : 16.0;
  return r;
}

}  // namespace

std::vector<double> gemm_fp64(const std::vector<double>& a,
                              const std::vector<double>& b, std::size_t n) {
  constexpr std::size_t kRowBlock = 16;
  std::vector<double> c(n * n);
  const std::size_t blocks = (n + kRowBlock - 1) / kRowBlock;
  util::global_pool().parallel_for(blocks, [&](std::size_t block) {
    const std::size_t i0 = block * kRowBlock;
    util::gemm_korder(std::min(kRowBlock, n - i0), n, n, a.data() + i0 * n,
                      n, b.data(), n, c.data() + i0 * n, n);
  });
  return c;
}

std::vector<StudyResult> gemm_accuracy_pass(std::size_t n, std::uint64_t seed) {
  AO_REQUIRE(n >= 8 && n <= 1024, "study sizes are functional: keep n small");
  std::vector<double> a(n * n);
  std::vector<double> b(n * n);
  util::fill_uniform(std::span<double>(a), seed);
  util::fill_uniform(std::span<double>(b), seed + 1);

  const std::vector<double> reference = gemm_fp64(a, b, n);

  std::vector<StudyResult> results;
  results.push_back(make_result(Format::kFp64Cpu, n, reference, reference));
  results.back().executing_unit = "CPU/AMX";
  results.push_back(make_result(Format::kFp64Emulated, n, reference,
                                gemm_double_single(a, b, n)));
  results.back().executing_unit = "GPU (double-single)";
  // Both FP32-accumulating rows take the operands as FP32; the FP16 row is
  // the ANE's FP16-ingest / FP32-accumulate datapath, which rounds them
  // through half first.
  const std::vector<float> a32(a.begin(), a.end());
  const std::vector<float> b32(b.begin(), b.end());
  std::vector<float> c32(n * n);
  ane::gemm_fp32_accumulate(n, n, n, a32.data(), b32.data(), c32.data());
  results.push_back(make_result(Format::kFp32, n, reference, c32));
  results.back().executing_unit = "GPU (MPS)";
  ane::gemm_fp16_host(n, n, n, a32.data(), b32.data(), c32.data());
  results.push_back(make_result(Format::kFp16, n, reference, c32));
  results.back().executing_unit = "GPU/ANE (FP16)";
  return results;
}

void fill_modeled_gflops(std::vector<StudyResult>& rows, soc::ChipModel chip) {
  soc::Soc soc(chip);
  soc::PerfModel perf(soc);
  const double fp32_gflops = perf.gemm_gflops(soc::GemmImpl::kGpuMps, 4096);
  for (StudyResult& r : rows) {
    switch (r.format) {
      case Format::kFp64Cpu:
        // FP64 runs on the CPU at roughly half the AMX FP32 rate.
        r.modeled_gflops =
            soc::gemm_calibration(chip, soc::GemmImpl::kCpuAccelerate)
                .peak_gflops /
            2.0;
        break;
      case Format::kFp64Emulated:
        // Each emulated FMA costs kFlopsPerDsFma FP32 ops on the GPU.
        r.modeled_gflops = fp32_gflops / fp64emu::kFlopsPerDsFma * 2.0;
        break;
      case Format::kFp32:
        r.modeled_gflops = fp32_gflops;
        break;
      case Format::kFp16:
        r.modeled_gflops = fp32_gflops * 2.0;  // FP16 runs ~2x FP32 on the GPU
        break;
    }
  }
}

std::vector<StudyResult> run_gemm_precision_study(soc::ChipModel chip,
                                                  std::size_t n,
                                                  std::uint64_t seed) {
  std::vector<StudyResult> rows = gemm_accuracy_pass(n, seed);
  fill_modeled_gflops(rows, chip);
  return rows;
}

}  // namespace ao::precision
