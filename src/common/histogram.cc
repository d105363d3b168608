#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace dvp {

void Histogram::Add(double v) {
  if (samples_.empty()) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  samples_.push_back(v);
  sum_ += v;
  sorted_ = false;
}

void Histogram::Merge(const Histogram& other) {
  if (other.samples_.empty()) return;
  if (samples_.empty()) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sum_ += other.sum_;
  sorted_ = false;
}

void Histogram::Clear() {
  samples_.clear();
  sum_ = 0;
  min_ = 0;
  max_ = 0;
  sorted_ = true;
}

double Histogram::mean() const {
  return samples_.empty() ? 0.0 : sum_ / double(samples_.size());
}

double Histogram::Percentile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (q <= 0) return samples_.front();
  if (q >= 1) return samples_.back();
  double pos = q * double(samples_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  double frac = pos - double(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

double Histogram::StdDev() const {
  if (samples_.size() < 2) return 0.0;
  double m = mean();
  double acc = 0;
  for (double v : samples_) acc += (v - m) * (v - m);
  return std::sqrt(acc / double(samples_.size() - 1));
}

std::string Histogram::Summary() const {
  // An empty histogram has no extrema or quantiles; printing the accessors'
  // 0.0 placeholders would fabricate a sample that never existed.
  if (samples_.empty()) return "n=0";
  std::ostringstream os;
  os << "n=" << count() << " mean=" << mean() << " p50=" << Median()
     << " p99=" << P99() << " p999=" << P999() << " max=" << max();
  return os.str();
}

}  // namespace dvp
