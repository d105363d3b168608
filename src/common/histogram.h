// Lightweight statistics helpers used by the benchmark harnesses and the
// metrics layer: an exact-quantile reservoir-free histogram (we keep all
// samples; experiment sizes are modest).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dvp {

/// Collects numeric samples and reports count/mean/percentiles. Stores all
/// samples; intended for simulation-scale data (≤ millions of points).
class Histogram {
 public:
  void Add(double v);
  void Merge(const Histogram& other);
  void Clear();

  size_t count() const { return samples_.size(); }
  double sum() const { return sum_; }
  double mean() const;
  /// Running extrema maintained by Add/Merge — O(1), safe to call from
  /// per-row report loops (0 when empty).
  double min() const { return samples_.empty() ? 0.0 : min_; }
  double max() const { return samples_.empty() ? 0.0 : max_; }
  /// Exact quantile by sorting on demand (q in [0,1]).
  double Percentile(double q) const;
  double Median() const { return Percentile(0.5); }
  double P99() const { return Percentile(0.99); }
  double P999() const { return Percentile(0.999); }
  double StdDev() const;

  /// One-line summary: "n=... mean=... p50=... p99=... p999=... max=...",
  /// or just "n=0" when empty — an empty histogram has no extrema to report.
  std::string Summary() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace dvp
