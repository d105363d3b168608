// Public facade: a complete DvP system — n sites, a fault-modelled network,
// stable storage per site — plus fault-injection and measurement hooks. This
// is the API the examples and benchmarks program against.
//
// Typical use (the paper's §3 airline example):
//
//   core::Catalog catalog;
//   ItemId flight_a = catalog.AddItem("flightA", core::CountDomain::Instance(), 100);
//   system::ClusterOptions opts;
//   opts.num_sites = 4;
//   system::Cluster cluster(&catalog, opts);
//   cluster.BootstrapEven();                       // 25 seats per site
//   cluster.Submit(SiteId(0), reserve_3_seats, cb);
//   cluster.RunFor(1'000'000);
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "dvpcore/catalog.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/kernel.h"
#include "site/site.h"
#include "verify/conservation.h"
#include "wal/stable_storage.h"

namespace dvp::system {

struct ClusterOptions {
  uint32_t num_sites = 4;
  uint64_t seed = 42;
  net::LinkParams link;
  site::SiteOptions site;
  /// Schedule perturbation (chaos runs search interleavings with this);
  /// disabled by default — see sim::PerturbOptions.
  sim::PerturbOptions perturb;

  /// Convenience: configure for Conc2 (strict 2PL + ordered broadcast).
  /// Forces synchronous, loss-free FIFO links — Conc2's stated environment.
  ClusterOptions& UseConc2() {
    site.txn.scheme = cc::CcScheme::kConc2;
    link = net::LinkParams::Synchronous(link.base_delay_us);
    return *this;
  }
};

class Cluster {
 public:
  Cluster(const core::Catalog* catalog, ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // ---- Initial allocation ---------------------------------------------------

  /// Splits every item's initial total evenly across sites (remainder to the
  /// lowest site ids) and boots every site.
  void BootstrapEven();

  /// Boots with an explicit per-item, per-site allocation. Each vector must
  /// have num_sites entries summing to the item's initial total.
  Status Bootstrap(const std::map<ItemId, std::vector<core::Value>>& alloc);

  /// Boots with item i's FULL initial total at its home site (i mod
  /// num_sites) and nothing anywhere else. O(items) setup where an explicit
  /// Bootstrap allocation is O(items × sites) — the difference between a
  /// million-item cluster booting instantly and building 10⁸ map entries.
  /// Placement starts maximally skewed, which is exactly the regime the
  /// redistribution machinery is measured under.
  void BootstrapHomed();

  // ---- Work -----------------------------------------------------------------

  /// Submits a transaction at `at`. Fails fast if the site is down.
  StatusOr<TxnId> Submit(SiteId at, const txn::TxnSpec& spec,
                         txn::TxnCallback cb);

  /// Advances virtual time by `us`.
  void RunFor(SimTime us);
  /// Runs until the event queue drains or `max_us` elapses.
  void RunUntilQuiescent(SimTime max_us);
  SimTime Now() const;

  // ---- Fault injection --------------------------------------------------------

  Status Partition(const std::vector<std::vector<SiteId>>& groups);
  void Heal();
  void CrashSite(SiteId s);
  void RecoverSite(SiteId s);

  // ---- Introspection ----------------------------------------------------------

  uint32_t num_sites() const { return options_.num_sites; }
  site::Site& site(SiteId s) { return *sites_[s.value()]; }
  const site::Site& site(SiteId s) const { return *sites_[s.value()]; }
  wal::StableStorage& storage(SiteId s) { return *storages_[s.value()]; }
  sim::Kernel& kernel() { return kernel_; }
  net::Network& network() { return *network_; }
  const core::Catalog& catalog() const { return *catalog_; }

  /// Every site's stable storage, for the auditors.
  std::vector<const wal::StableStorage*> Storages() const;

  /// Durable conservation breakdown for one item.
  verify::ConservationBreakdown Audit(ItemId item) const;
  /// Checks the durable conservation invariant for all items (one log pass
  /// per site; see verify::AuditAll).
  Status AuditAll() const;

  /// Checks conservation in *both* views: the durable one and the volatile
  /// one, where every up site contributes its live in-memory fragment
  /// instead of its durable rebuild. Catches cache/WAL divergence that the
  /// stable-storage audit alone cannot see.
  Status AuditAllVolatile() const;

  /// The live-value accessor the volatile audit uses (up sites only).
  verify::LiveValueFn LiveView() const;

  /// Current durable item total (fragments + in-flight).
  core::Value TotalOf(ItemId item) const { return Audit(item).total(); }

  /// Sum of all sites' counters (AddCounters: non-zero ones only) plus the
  /// eight net.* network statistics, which are present even at 0.
  obs::MetricsRegistry AggregateCounters() const;

 private:
  const core::Catalog* catalog_;
  ClusterOptions options_;
  sim::Kernel kernel_;
  Rng rng_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<wal::StableStorage>> storages_;
  std::vector<std::unique_ptr<site::Site>> sites_;
  bool booted_ = false;
};

/// Splits `total` into `n` non-negative shares, remainder to low indices.
std::vector<core::Value> SplitEven(core::Value total, uint32_t n);

}  // namespace dvp::system
