// E12 — scale: the performance study the paper defers ("we have not
// addressed the issues of performance", §8–9), at the scale that makes it
// interesting: up to 10⁶ items × 100 sites.
//
// Claim: because DvP commits value-bounded updates against the local
// fragment with a single log force and zero remote steps (§5's write-only /
// locally-satisfiable fast path), committed throughput stays flat as
// items × sites grows four orders of magnitude — and the hot-path state
// (placement cache, advert ring, fragment store) stays O(active items), not
// O(items) or O(sites × items).
//
// Setup: open-loop driver — Poisson admission at a fixed offered rate from
// an unbounded simulated-user population (each arrival is an independent
// user drawn Zipf over two million ids), Zipfian item skew (θ = 0.99, the
// YCSB default) and Zipfian site skew for where work lands. Mix: mostly
// decrements submitted at the item's home site (the deliberately-partitioned
// regime the paper's airline example assumes), a slice of increments landing
// on Zipf-skewed sites (write-only: always local), and a small misdirected
// slice — decrements submitted where the value is NOT — to keep the gather /
// hint / rebalance machinery honest under the big catalog. Reads are left
// out: the full-read drain is a broadcast-scale protocol priced in E5, and
// at 100 sites it would swamp the fast-path signal this bench pins.
//
// Three scale points at the SAME offered rate; the committed/sec column is
// the claim. BENCH_scale.json pins the figures for CI's perf-smoke gate.
#include <unordered_set>

#include "bench/bench_common.h"
#include "net/message.h"

namespace dvp::bench {
namespace {

using txn::TxnOp;
using txn::TxnOutcome;
using txn::TxnSpec;

constexpr SimTime kRun = 2'000'000;    // admission window (virtual)
constexpr SimTime kDrain = 1'000'000;  // gathers/timeouts settle
constexpr double kRate = 2'000.0;      // offered txns/sec at EVERY point
constexpr core::Value kPerItem = 100;  // initial total per item
constexpr double kThetaItems = 0.99;   // YCSB-style item skew
constexpr double kThetaSites = 0.80;   // site skew for non-home submissions
constexpr uint64_t kUsers = 2'000'000;
constexpr double kThetaUsers = 0.60;
constexpr double kPIncrement = 0.28;   // Zipf-site increments (write-only)
constexpr double kPMisdirect = 0.03;   // decrements submitted off-home

struct ScalePoint {
  const char* label;
  uint32_t items;
  uint32_t sites;
};
constexpr ScalePoint kPoints[] = {
    {"s10k_x10", 10'000, 10},
    {"s100k_x32", 100'000, 32},
    {"s1m_x100", 1'000'000, 100},
};

struct Outcome {
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t timeouts = 0;
  uint64_t local_commits = 0;
  uint64_t distinct_users = 0;
  double committed_per_sec = 0;
  double timeout_rate = 0;
  double local_fraction = 0;
  double bytes_per_txn = 0;
  double msgs_per_txn = 0;
  // Peak-RSS proxies, summed over sites: the O(active) claim, measurable.
  uint64_t resident_fragments = 0;
  uint64_t cache_entries_peak = 0;
  uint64_t advert_ring = 0;
  uint64_t dense_equivalent = 0;  ///< what cache_[site][item] would hold
  // Envelope pool behavior across this point (deltas of the process pool).
  uint64_t pool_envelopes = 0;
  uint64_t pool_upstream_allocs = 0;
};

Outcome RunPoint(const ScalePoint& p) {
  core::Catalog catalog = MakeCountCatalog(p.items, kPerItem, nullptr);
  system::ClusterOptions opts;
  opts.num_sites = p.sites;
  opts.seed = 11'011;
  opts.site.txn.targeting = txn::TargetPolicy::kSurplus;
  // Bounded fan-out: blind full-cluster asks are O(sites) messages per
  // gather — at 100 sites that is the scaling bug, not a workload.
  opts.site.txn.request_fanout = 4;
  opts.site.txn.gather_retry_us = 60'000;
  opts.site.placement.hints_per_frame = 4;
  opts.site.placement.rebalance = true;
  // Coalesced frames + group commit: the amortisation layers E10/E10b
  // price, on so the frame-building encode-once path is actually exercised.
  opts.site.transport.coalesce = true;
  opts.site.group_commit.enabled = true;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapHomed();

  net::EnvelopePoolStats pool_before = net::PoolStats();

  Rng rng(opts.seed * 7 + 5);
  ZipfGenerator item_zipf(p.items, kThetaItems);
  ZipfGenerator site_zipf(p.sites, kThetaSites);
  ZipfGenerator user_zipf(kUsers, kThetaUsers);

  Outcome out;
  std::unordered_set<uint64_t> users;
  // Open loop: the whole arrival schedule is fixed up front; admission never
  // waits on completions (a closed loop would hide slowdowns by backing off).
  SimTime t = 0;
  while (true) {
    t += SimTime(rng.NextExponential(1e6 / kRate)) + 1;
    if (t >= kRun) break;
    users.insert(user_zipf.Next(rng));
    ItemId item(static_cast<uint32_t>(item_zipf.Next(rng)));
    SiteId home(item.value() % p.sites);
    SiteId skewed(static_cast<uint32_t>(site_zipf.Next(rng)));
    core::Value amount = rng.NextInt(1, 3);
    double roll = rng.NextDouble();

    TxnSpec spec;
    SiteId at = home;
    if (roll < kPIncrement) {
      spec.ops = {TxnOp::Increment(item, amount)};
      at = skewed;  // write-only: local wherever it lands
    } else if (roll < kPIncrement + kPMisdirect) {
      spec.ops = {TxnOp::Decrement(item, amount)};
      at = skewed;  // off-home: gather via hints or time out
    } else {
      spec.ops = {TxnOp::Decrement(item, amount)};
    }
    cluster.kernel().ScheduleAt(t, [&cluster, &out, at, spec]() {
      ++out.submitted;
      (void)cluster.Submit(at, spec, [&out](const txn::TxnResult& r) {
        if (r.committed()) {
          ++out.committed;
          if (r.rounds == 0) ++out.local_commits;
        } else if (r.outcome == TxnOutcome::kAbortTimeout) {
          ++out.timeouts;
        }
      });
    });
  }
  cluster.RunFor(kRun + kDrain);

  out.distinct_users = users.size();
  out.committed_per_sec = double(out.committed) * 1e6 / double(kRun);
  out.timeout_rate =
      double(out.timeouts) / double(std::max<uint64_t>(1, out.submitted));
  double commits = double(std::max<uint64_t>(1, out.committed));
  out.local_fraction = double(out.local_commits) / commits;
  const net::NetworkStats& ns = cluster.network().stats();
  out.bytes_per_txn = double(ns.bytes_sent) / commits;
  out.msgs_per_txn = double(ns.packets_sent) / commits;

  for (uint32_t s = 0; s < p.sites; ++s) {
    site::Site& site = cluster.site(SiteId(s));
    out.resident_fragments += site.store()->resident_count();
    out.cache_entries_peak += site.placement()->cache_entries_peak();
    out.advert_ring += site.placement()->advert_ring_size();
  }
  out.dense_equivalent = uint64_t(p.items) * p.sites;

  net::EnvelopePoolStats pool_after = net::PoolStats();
  out.pool_envelopes = pool_after.envelopes - pool_before.envelopes;
  out.pool_upstream_allocs =
      pool_after.upstream_allocations - pool_before.upstream_allocations;

  Status audit = cluster.AuditAll();
  if (!audit.ok()) {
    std::cout << "CONSERVATION VIOLATION (" << p.label
              << "): " << audit.ToString() << "\n";
    std::exit(1);
  }
  return out;
}

void Main(const std::string& json_path) {
  PrintHeader("E12",
              "scale: committed txn/s stays flat from 10k items x 10 sites "
              "to 1M items x 100 sites at fixed offered load; hot-path "
              "state stays O(active items)");
  JsonMetrics metrics;
  workload::TablePrinter table({"scale", "committed/s", "timeout %",
                                "local %", "bytes/txn", "msgs/txn",
                                "cache peak", "dense equiv", "resident"});
  std::vector<Outcome> outcomes;
  for (const ScalePoint& p : kPoints) {
    Outcome o = RunPoint(p);
    outcomes.push_back(o);
    table.AddRow(p.label, o.committed_per_sec, Pct(o.timeout_rate),
                 Pct(o.local_fraction), o.bytes_per_txn, o.msgs_per_txn,
                 o.cache_entries_peak, o.dense_equivalent,
                 o.resident_fragments);
    std::string k = "scale." + std::string(p.label) + ".";
    metrics.Set(k + "submitted", o.submitted);
    metrics.Set(k + "committed", o.committed);
    metrics.Set(k + "committed_per_sec", o.committed_per_sec);
    metrics.Set(k + "timeout_abort_rate", o.timeout_rate);
    metrics.Set(k + "local_commit_fraction", o.local_fraction);
    metrics.Set(k + "bytes_per_txn", o.bytes_per_txn);
    metrics.Set(k + "msgs_per_txn", o.msgs_per_txn);
    metrics.Set(k + "distinct_users", o.distinct_users);
    metrics.Set(k + "placement_cache_entries_peak", o.cache_entries_peak);
    metrics.Set(k + "placement_dense_equivalent", o.dense_equivalent);
    metrics.Set(k + "advert_ring", o.advert_ring);
    metrics.Set(k + "resident_fragments", o.resident_fragments);
    metrics.Set(k + "pool_envelopes", o.pool_envelopes);
    metrics.Set(k + "pool_upstream_allocs", o.pool_upstream_allocs);
  }
  table.Print();

  const Outcome& small = outcomes.front();
  const Outcome& large = outcomes.back();
  double flatness = small.committed_per_sec > 0
                        ? large.committed_per_sec / small.committed_per_sec
                        : 0;
  // The dense cache would be 10⁸ entries at the large point; the sparse one
  // must be orders of magnitude under it (<1%), or the rewrite regressed.
  double cache_fill = double(large.cache_entries_peak) /
                      double(std::max<uint64_t>(1, large.dense_equivalent));
  bool pool_recycles = large.pool_envelopes > large.pool_upstream_allocs;
  metrics.Set("scale.throughput_flatness", flatness);
  metrics.Set("scale.large_cache_fill", cache_fill);
  metrics.Set("scale.pool_recycles", uint64_t(pool_recycles ? 1 : 0));
  metrics.WriteTo(json_path);

  std::cout << "\nthroughput flatness (1M×100 vs 10k×10): " << flatness
            << "; large-point cache fill " << Pct(cache_fill)
            << "% of dense; pool " << large.pool_envelopes << " envelopes / "
            << large.pool_upstream_allocs << " heap refills.\n";
  bool all_committed = true;
  for (const Outcome& o : outcomes) all_committed &= o.committed > 0;
  std::cout << "CHECK committed>0: " << (all_committed ? "PASS" : "FAIL")
            << "  CHECK flat>=0.8: " << (flatness >= 0.8 ? "PASS" : "FAIL")
            << "  CHECK cache_fill<1%: "
            << (cache_fill < 0.01 ? "PASS" : "FAIL")
            << "  CHECK pool_recycles: " << (pool_recycles ? "PASS" : "FAIL")
            << "\n";
  if (!all_committed || flatness < 0.8 || cache_fill >= 0.01 ||
      !pool_recycles) {
    std::exit(1);
  }
}

}  // namespace
}  // namespace dvp::bench

int main(int argc, char** argv) {
  dvp::bench::Main(dvp::bench::JsonPathFromArgs(argc, argv));
}
