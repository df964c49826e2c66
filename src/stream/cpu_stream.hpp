#pragma once

#include <vector>

#include "soc/perf_model.hpp"
#include "soc/soc.hpp"
#include "stream/stream_result.hpp"

namespace ao::stream {

/// CPU STREAM — a port of John D. McCalpin's stream.c, "which utilizes
/// OpenMP to control the CPU threads used in the benchmark" (Section 3.1).
///
/// FP64 arrays (as in stream.c), the canonical kernel sequence
/// Copy/Scale/Add/Triad with scalar = 3.0, and the validation pass from the
/// original. The paper's methodology: run with OMP_NUM_THREADS from 1 to the
/// physical core count, repeat 10 times, keep the maximum bandwidth.
///
/// Functional execution really moves the bytes on the host, one contiguous
/// chunk per thread on util::global_pool() (OpenMP's static schedule);
/// reported time always comes from the calibrated model via the SoC clock.
class CpuStream {
 public:
  /// 2^23 doubles = 64 MiB per array satisfies STREAM's "4x the last-level
  /// cache" sizing rule for every chip in Table 1.
  static constexpr std::size_t kDefaultElements = 1u << 23;

  /// `elements` per array. The arrays themselves are allocated lazily, on
  /// the first functional pass — model-only runs (the orchestrator's bulk
  /// case) never touch host memory.
  explicit CpuStream(soc::Soc& soc, std::size_t elements = kDefaultElements);

  /// One configuration: `threads` threads (OMP_NUM_THREADS in stream.c),
  /// `repetitions` passes of the four-kernel sequence.
  RunResult run(int threads, int repetitions, bool functional = false);

  /// The paper's full methodology: sweep 1..total_cpu_cores threads at 10
  /// repetitions each, return per-kernel maxima.
  SweepResult sweep(int repetitions = 10, bool functional = false);

  /// stream.c's validation: after `passes` functional four-kernel sequences
  /// starting from a=1, b=2, c=0, checks all three arrays against the
  /// closed-form expected values. Returns the worst relative error.
  double validate(int passes = 3, int threads = 0);

  std::size_t elements() const { return elements_; }
  std::uint64_t array_bytes() const { return elements_ * sizeof(double); }
  static constexpr double kScalar = 3.0;

 private:
  void kernel_pass(soc::StreamKernel kernel, int threads, bool functional);
  void ensure_arrays();

  soc::Soc* soc_;
  soc::PerfModel perf_;
  std::size_t elements_;
  std::vector<double> a_;
  std::vector<double> b_;
  std::vector<double> c_;
};

}  // namespace ao::stream
