#pragma once

#include <cstddef>
#include <vector>

namespace ao::util {

/// Order statistics over a retained sample set. The STREAM methodology keeps
/// the *maximum* bandwidth across repetitions; GEMM keeps all five samples.
class SampleSet {
 public:
  void add(double value);
  void reset();

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const std::vector<double>& values() const { return values_; }

  double min() const;
  double max() const;
  double mean() const;
  double median() const;
  double stddev() const;
  /// Linear-interpolated percentile, p in [0, 100].
  double percentile(double p) const;

  bool operator==(const SampleSet&) const = default;

 private:
  std::vector<double> values_;
};

}  // namespace ao::util
