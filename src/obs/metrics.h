// Typed metrics registry: the one place a site counts. A component resolves
// its handles ONCE at construction — the hot path is then a single pointer
// increment, with no string hashing and no map lookup — and every reader
// (AggregateCounters(), the chaos digest, tests, benches) sees the same
// dotted names. Every component that counts takes a registry; none may be
// null.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "common/histogram.h"

namespace dvp::obs {

/// Monotone counter handle. Stable address for the registry's lifetime.
class Counter {
 public:
  void Inc(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  uint64_t value_ = 0;
};

/// Last-value / high-water gauge handle.
class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  /// High-water update: keeps the maximum ever Set or NoteMax'd.
  void NoteMax(int64_t v) { value_ = std::max(value_, v); }
  int64_t value() const { return value_; }

 private:
  friend class MetricsRegistry;
  int64_t value_ = 0;
};

class JsonWriter;

/// Register-or-get registry of typed counters, gauges and histograms keyed
/// by the legacy dotted names. Handles are stable pointers (map nodes).
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name) { return &counters_[name]; }
  Gauge* gauge(const std::string& name) { return &gauges_[name]; }
  Histogram* histogram(const std::string& name) { return &histograms_[name]; }

  /// Convenience read of a counter's value (0 when never registered).
  uint64_t Get(const std::string& name) const;
  /// Gauge read; 0 when never registered.
  int64_t GetGauge(const std::string& name) const;

  /// Every registered counter by name, zero-valued ones included.
  const std::map<std::string, Counter>& counters() const { return counters_; }

  /// Adds each of `other`'s counters that has counted something into the
  /// counter of the same name here. Zero-valued handles are skipped, so a
  /// name only exists in the sum once incremented somewhere: digests and
  /// dumps stay free of registration-order noise.
  void AddCounters(const MetricsRegistry& other);

  /// Dumps every counter, gauge and histogram into the shared JSON sink
  /// (counters under `prefix + name`, histograms via SetHistogram).
  void DumpJson(JsonWriter* out, const std::string& prefix = "") const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace dvp::obs
