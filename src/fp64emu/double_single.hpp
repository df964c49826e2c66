#pragma once

namespace ao::fp64emu {

/// Double-single ("float-float") arithmetic: an unevaluated sum of two FP32
/// values carrying ~49 bits of significand — the standard way to emulate
/// double precision on FP32-only GPUs, which is how the paper's Section 1
/// footnotes that the M-series GPUs' missing FP64 "can be emulated".
///
/// The algorithms are the classical error-free transformations (Knuth's
/// TwoSum, Dekker's split/TwoProd), written FMA-free because Metal's FP32
/// fma contraction cannot be relied on across all GPU generations. They are
/// defined inline so GEMM inner loops (the precision study, the emulated
/// FP64 shader) run them without a call per operation.
struct DoubleSingle {
  float hi = 0.0f;  ///< leading component
  float lo = 0.0f;  ///< trailing error term, |lo| <= ulp(hi)/2

  constexpr DoubleSingle() = default;
  constexpr DoubleSingle(float h, float l) : hi(h), lo(l) {}

  /// Splits a double into hi + lo FP32 components (exact for the top 48
  /// mantissa bits).
  static DoubleSingle from_double(double value) {
    const auto hi = static_cast<float>(value);
    const auto lo = static_cast<float>(value - static_cast<double>(hi));
    return {hi, lo};
  }

  double to_double() const { return static_cast<double>(hi) + lo; }

  static DoubleSingle from_float(float value) { return {value, 0.0f}; }
};

namespace detail {

/// Dekker's splitter for FP32: 2^12 + 1 cleaves a 24-bit significand into
/// two 12-bit halves whose products are exact in FP32.
inline constexpr float kSplit = 4097.0f;

struct Split {
  float hi;
  float lo;
};

inline Split split(float a) {
  const float t = kSplit * a;
  const float hi = t - (t - a);
  return {hi, a - hi};
}

}  // namespace detail

/// Error-free sum: a + b = s + e exactly (Knuth TwoSum, no branch).
inline DoubleSingle two_sum(float a, float b) {
  const float s = a + b;
  const float v = s - a;
  const float e = (a - (s - v)) + (b - v);
  return {s, e};
}

/// Error-free product: a * b = p + e exactly (Dekker split TwoProd), with
/// the splits of a and b supplied, so a GEMM splits each operand once.
inline DoubleSingle two_prod(float a, detail::Split sa, float b,
                             detail::Split sb) {
  const float p = a * b;
  const float e = ((sa.hi * sb.hi - p) + sa.hi * sb.lo + sa.lo * sb.hi) +
                  sa.lo * sb.lo;
  return {p, e};
}

inline DoubleSingle two_prod(float a, float b) {
  return two_prod(a, detail::split(a), b, detail::split(b));
}

/// ds arithmetic. Results are accurate to ~2 ulps of the 49-bit format.
inline DoubleSingle ds_add(DoubleSingle a, DoubleSingle b) {
  DoubleSingle s = two_sum(a.hi, b.hi);
  s.lo += a.lo + b.lo;
  // Renormalize: fold the accumulated error back into a canonical pair.
  return two_sum(s.hi, s.lo);
}

inline DoubleSingle ds_sub(DoubleSingle a, DoubleSingle b) {
  return ds_add(a, {-b.hi, -b.lo});
}

/// `sa` and `sb` are detail::split(a.hi) and detail::split(b.hi).
inline DoubleSingle ds_mul(DoubleSingle a, detail::Split sa, DoubleSingle b,
                           detail::Split sb) {
  DoubleSingle p = two_prod(a.hi, sa, b.hi, sb);
  p.lo += a.hi * b.lo + a.lo * b.hi;
  return two_sum(p.hi, p.lo);
}

inline DoubleSingle ds_mul(DoubleSingle a, DoubleSingle b) {
  return ds_mul(a, detail::split(a.hi), b, detail::split(b.hi));
}

/// Fused a*b + c in ds arithmetic (the GEMM inner-loop operation).
inline DoubleSingle ds_fma(DoubleSingle a, detail::Split sa, DoubleSingle b,
                           detail::Split sb, DoubleSingle c) {
  return ds_add(ds_mul(a, sa, b, sb), c);
}

inline DoubleSingle ds_fma(DoubleSingle a, DoubleSingle b, DoubleSingle c) {
  return ds_fma(a, detail::split(a.hi), b, detail::split(b.hi), c);
}

/// FP32 operation count of one ds_fma — the cost model's basis for the
/// emulated-FP64 GEMM (ds_mul ~ 10 ops + ds_add ~ 11 ops).
inline constexpr double kFlopsPerDsFma = 21.0;

}  // namespace ao::fp64emu
