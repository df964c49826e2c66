#include "util/simd.hpp"

namespace ao::util {

AO_SIMD_CLONES
void axpy(std::size_t n, float a, const float* __restrict x,
          float* __restrict y) {
  for (std::size_t j = 0; j < n; ++j) {
    y[j] += a * x[j];
  }
}

AO_SIMD_CLONES
void axpy(std::size_t n, double a, const double* __restrict x,
          double* __restrict y) {
  for (std::size_t j = 0; j < n; ++j) {
    y[j] += a * x[j];
  }
}

}  // namespace ao::util
