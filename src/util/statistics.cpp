#include "util/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ao::util {

void SampleSet::add(double value) { values_.push_back(value); }

void SampleSet::reset() { values_.clear(); }

double SampleSet::min() const {
  AO_REQUIRE(!values_.empty(), "min of empty SampleSet");
  return *std::min_element(values_.begin(), values_.end());
}

double SampleSet::max() const {
  AO_REQUIRE(!values_.empty(), "max of empty SampleSet");
  return *std::max_element(values_.begin(), values_.end());
}

double SampleSet::mean() const {
  AO_REQUIRE(!values_.empty(), "mean of empty SampleSet");
  double sum = 0.0;
  for (double v : values_) {
    sum += v;
  }
  return sum / static_cast<double>(values_.size());
}

double SampleSet::median() const { return percentile(50.0); }

double SampleSet::stddev() const {
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) {
    acc += (v - m) * (v - m);
  }
  return std::sqrt(acc / static_cast<double>(values_.size()));
}

double SampleSet::percentile(double p) const {
  AO_REQUIRE(!values_.empty(), "percentile of empty SampleSet");
  AO_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p must be in [0, 100]");
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) {
    return sorted.front();
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace ao::util
