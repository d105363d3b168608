// Traditional baseline: primary-copy. Each item lives at a designated
// primary site; every transaction on it is forwarded there and executed as a
// local, single-site transaction. Non-blocking (the primary decides alone)
// but availability collapses to "can you reach the primary": a partition
// makes the item unusable for every other group, and a primary crash makes
// it unusable for everyone (no election protocol — §2.2's "a primary copy
// site fails" caveat).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "dvpcore/catalog.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/kernel.h"
#include "txn/txn.h"
#include "wal/stable_storage.h"

namespace dvp::baseline {

struct PrimaryCopyOptions {
  uint32_t num_sites = 4;
  uint64_t seed = 42;
  net::LinkParams link;
  /// Origin-side patience for the primary's reply.
  SimTime request_timeout_us = 300'000;
};

class PrimaryCopyCluster {
 public:
  PrimaryCopyCluster(const core::Catalog* catalog, PrimaryCopyOptions options);
  ~PrimaryCopyCluster();

  /// Installs initial values at each item's primary.
  void Bootstrap();

  /// Primary of an item: round-robin by id.
  SiteId PrimaryOf(ItemId item) const {
    return SiteId(item.value() % options_.num_sites);
  }

  /// Submits at `at`; ops are forwarded to the primary. All items of one
  /// transaction must share a primary (cross-primary transactions would need
  /// 2PC, which is the other baseline).
  StatusOr<TxnId> Submit(SiteId at, const txn::TxnSpec& spec,
                         txn::TxnCallback cb);

  void RunFor(SimTime us);
  SimTime Now() const;
  Status Partition(const std::vector<std::vector<SiteId>>& groups);
  void Heal();
  void CrashSite(SiteId s);
  void RecoverSite(SiteId s);

  core::Value PrimaryValue(ItemId item) const;
  /// Sum of every site's non-zero counters (MetricsRegistry::AddCounters).
  obs::MetricsRegistry AggregateCounters() const;
  const Histogram& decision_latency() const { return decision_latency_; }
  uint32_t num_sites() const { return options_.num_sites; }
  sim::Kernel& kernel() { return kernel_; }
  net::Network& network() { return *network_; }

 private:
  struct SiteState;

  const core::Catalog* catalog_;
  PrimaryCopyOptions options_;
  sim::Kernel kernel_;
  Rng rng_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<wal::StableStorage>> storages_;
  std::vector<std::unique_ptr<SiteState>> sites_;
  Histogram decision_latency_;
};

}  // namespace dvp::baseline
