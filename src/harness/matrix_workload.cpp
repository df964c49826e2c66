#include "harness/matrix_workload.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ao::harness {

const std::vector<std::size_t>& paper_sizes() {
  static const std::vector<std::size_t> sizes = {32,  64,   128,  256,  512,
                                                 1024, 2048, 4096, 8192, 16384};
  return sizes;
}

const std::vector<std::size_t>& figure2_sizes() {
  static const std::vector<std::size_t> sizes = {256,  512,  1024, 2048,
                                                 4096, 8192, 16384};
  return sizes;
}

const std::vector<std::size_t>& figure34_sizes() {
  static const std::vector<std::size_t> sizes = {2048, 4096, 8192, 16384};
  return sizes;
}

bool paper_skips(soc::GemmImpl impl, std::size_t n) {
  const bool slow_cpu_path = impl == soc::GemmImpl::kCpuSingle ||
                             impl == soc::GemmImpl::kCpuOmp;
  return slow_cpu_path && n >= 8192;
}

MatrixSet::MatrixSet(std::size_t n, bool fill, std::uint64_t seed)
    : n_(n),
      left_(n * n * sizeof(float)),
      right_(n * n * sizeof(float)),
      out_(n * n * sizeof(float)) {
  if (fill) {
    fill_left_operand(left(), n, seed);
    fill_right_operand(right(), n, seed);
  }
}

void MatrixSet::clear_out() { out_.clear(); }

void fill_left_operand(float* data, std::size_t n, std::uint64_t seed) {
  parallel_fill_uniform(data, n * n, seed);
}

void fill_right_operand(float* data, std::size_t n, std::uint64_t seed) {
  parallel_fill_uniform(data, n * n, seed + 1);
}

void parallel_fill_uniform(float* data, std::size_t count, std::uint64_t seed) {
  constexpr std::size_t kChunk = 1u << 20;
  const std::size_t chunks = (count + kChunk - 1) / kChunk;
  if (chunks <= 1) {
    util::fill_uniform({data, count}, seed);
    return;
  }
  util::global_pool().parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * kChunk;
    const std::size_t end = std::min(begin + kChunk, count);
    // Chunk-indexed seeds keep the fill deterministic regardless of the
    // worker schedule.
    util::fill_uniform({data + begin, end - begin}, seed ^ (c * 0x9e3779b9ull));
  });
}

}  // namespace ao::harness
