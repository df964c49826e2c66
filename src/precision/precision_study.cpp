#include "precision/precision_study.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "amx/float16.hpp"
#include "fp64emu/double_single.hpp"
#include "soc/calibration.hpp"
#include "soc/perf_model.hpp"
#include "soc/soc.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
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

/// FP64 reference GEMM (the ground truth).
std::vector<double> gemm_fp64(const std::vector<double>& a,
                              const std::vector<double>& b, std::size_t n) {
  std::vector<double> c(n * n, 0.0);
  util::global_pool().parallel_for(n, [&](std::size_t i) {
    for (std::size_t kk = 0; kk < n; ++kk) {
      const double a_ik = a[i * n + kk];
      for (std::size_t j = 0; j < n; ++j) {
        c[i * n + j] += a_ik * b[kk * n + j];
      }
    }
  });
  return c;
}

/// GEMM with inputs/arithmetic rounded through a per-element quantizer.
template <typename Quantize>
std::vector<double> gemm_quantized(const std::vector<double>& a,
                                   const std::vector<double>& b, std::size_t n,
                                   Quantize quantize) {
  std::vector<double> qa(n * n);
  std::vector<double> qb(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    qa[i] = quantize(a[i]);
    qb[i] = quantize(b[i]);
  }
  std::vector<double> c(n * n, 0.0);
  util::global_pool().parallel_for(n, [&](std::size_t i) {
    // i-k-j: row i of c holds the running sums, quantized after every add
    // to model the format's accumulator. Each element still accumulates its
    // own products in k order (the result is bit-identical to an i-j-k dot
    // product) while B is read row by row.
    double* acc = c.data() + i * n;
    for (std::size_t kk = 0; kk < n; ++kk) {
      const double a_ik = qa[i * n + kk];
      const double* b_row = qb.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) {
        acc[j] = quantize(acc[j] + quantize(a_ik * b_row[j]));
      }
    }
  });
  return c;
}

/// GEMM in double-single arithmetic (the GPU emulation path, bit-faithful).
std::vector<double> gemm_double_single(const std::vector<double>& a,
                                       const std::vector<double>& b,
                                       std::size_t n) {
  using fp64emu::DoubleSingle;
  std::vector<DoubleSingle> dsa(n * n);
  std::vector<DoubleSingle> dsb(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    dsa[i] = DoubleSingle::from_double(a[i]);
    dsb[i] = DoubleSingle::from_double(b[i]);
  }
  std::vector<double> c(n * n);
  util::global_pool().parallel_for(n, [&](std::size_t i) {
    // i-k-j with a row of ds accumulators; per element the ds_fma chain runs
    // in k order exactly as an i-j-k loop would.
    std::vector<DoubleSingle> acc(n);
    for (std::size_t kk = 0; kk < n; ++kk) {
      const DoubleSingle a_ik = dsa[i * n + kk];
      const DoubleSingle* b_row = dsb.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) {
        acc[j] = fp64emu::ds_fma(a_ik, b_row[j], acc[j]);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      c[i * n + j] = acc[j].to_double();
    }
  });
  return c;
}

StudyResult make_result(Format format, std::size_t n,
                        const std::vector<double>& reference,
                        const std::vector<double>& value) {
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
  results.push_back(make_result(
      Format::kFp32, n, reference, gemm_quantized(a, b, n, [](double v) {
        return static_cast<double>(static_cast<float>(v));
      })));
  results.back().executing_unit = "GPU (MPS)";
  results.push_back(make_result(
      Format::kFp16, n, reference, gemm_quantized(a, b, n, [](double v) {
        // FP16 storage, FP32 accumulate (the ANE/AMX mixed mode): quantize
        // products, keep the running sum in FP32.
        return static_cast<double>(amx::round_to_half(static_cast<float>(v)));
      })));
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
