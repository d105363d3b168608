#include "obs/metrics.h"

#include "obs/json.h"

namespace dvp::obs {

uint64_t MetricsRegistry::Get(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

int64_t MetricsRegistry::GetGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second.value();
}

void MetricsRegistry::AddCounters(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    if (c.value() != 0) counters_[name].Inc(c.value());
  }
}

void MetricsRegistry::DumpJson(JsonWriter* out, const std::string& prefix) const {
  for (const auto& [name, c] : counters_) out->Set(prefix + name, c.value());
  for (const auto& [name, g] : gauges_) out->Set(prefix + name, g.value());
  for (const auto& [name, h] : histograms_) {
    out->SetHistogram(prefix + name, h);
  }
}

}  // namespace dvp::obs
