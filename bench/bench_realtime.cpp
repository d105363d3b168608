// bench_realtime — the real-runtime driver (CI's realtime-smoke leg).
//
// Three phases:
//
//  1. Smoke (correctness gate): the same E4-style hot-counter op list runs
//     on runtime::Real and on the sim kernel; the real run must settle
//     >= 99% commits, the sim must commit everything, both must pass the
//     durable conservation audit.
//
//  2. E14 (wall-clock latency): an open-loop driver — Poisson admission at a
//     target rate, Zipfian item skew from the E12 generators — runs on the
//     real runtime's wire path (reused encode buffers, shared broadcast
//     tails, batched sendmmsg/recvmmsg). It reports p50/p99/p999 commit
//     latency, txns/sec, syscalls/txn, and frame-buffer growths/txn, and
//     gates in-binary on absolute ceilings: <= 0.05 frame-buffer growths and
//     <= 5.5 syscalls per txn.
//
//  3. E14 under loss: the same protocol configuration with injected datagram
//     drops; it must settle, retransmit, and pass the conservation audit. It
//     also reports how lost gathers were recovered: round-1 re-asks at the
//     round-trip deadline, and outstanding grants the donors resent.
//
// `--json <path>` writes the strict-JSON report CI pins (deterministic
// fields) and bounds (timing fields).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/histogram.h"
#include "system/real_cluster.h"

namespace dvp::bench {
namespace {

constexpr uint32_t kNumSites = 4;
constexpr uint32_t kNumTxns = 1000;
constexpr core::Value kInitial = 1'000'000;  // conflicts, never drain
constexpr SimTime kPaceUs = 500;             // one submission per 500 us
constexpr SimTime kSettleDeadlineUs = 30'000'000;

// E14 open-loop parameters. Totals are kept small on purpose: each item is
// decremented at one site and incremented at the next, so the decrement site
// runs dry almost immediately and every later decrement must pull value over
// the wire (the paper's redistribution path) — that sustained cross-site
// traffic is what the wire-path costs are measured on.
constexpr uint32_t kOpenTxns = 4000;
constexpr uint32_t kOpenItems = 64;
constexpr core::Value kOpenTotal = 8;       // per item, split across 4 sites
constexpr double kOpenZipfTheta = 0.8;
constexpr double kOpenRatePerSec = 2000.0;  // Poisson admission target

// E14 in-binary ceilings on the clean run (frame-buffer growths and
// send + recv syscalls, each per decided txn).
constexpr double kMaxAllocsPerTxn = 0.05;
constexpr double kMaxSyscallsPerTxn = 5.5;

struct Op {
  SiteId at;
  bool down;            // decrement vs increment
  core::Value amount;   // 1..3
  SimTime submit_us;    // offset from run start
};

std::vector<Op> MakeOps(uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(kNumTxns);
  SimTime t = 0;
  for (uint32_t i = 0; i < kNumTxns; ++i) {
    t += kPaceUs;
    ops.push_back(Op{SiteId(rng.NextInt(0, kNumSites - 1)),
                     rng.NextBool(0.5), rng.NextInt(1, 3), t});
  }
  return ops;
}

txn::TxnSpec SpecFor(const Op& op, ItemId item) {
  txn::TxnSpec spec;
  txn::TxnOp top;
  top.item = item;
  top.kind =
      op.down ? txn::TxnOp::Kind::kDecrement : txn::TxnOp::Kind::kIncrement;
  top.amount = op.amount;
  spec.ops.push_back(top);
  spec.label = "smoke";
  return spec;
}

struct Tally {
  uint64_t committed = 0;
  uint64_t decided = 0;
  bool audit_ok = false;
};

Tally RunReal(const std::vector<Op>& ops, uint64_t seed) {
  std::vector<ItemId> items;
  core::Catalog catalog = MakeCountCatalog(1, kInitial, &items);
  system::RealClusterOptions opts;
  opts.num_sites = kNumSites;
  opts.seed = seed;
  system::RealCluster cluster(&catalog, opts);
  cluster.BootstrapEven();
  cluster.Start();

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> decided{0};
  auto start = std::chrono::steady_clock::now();
  for (const Op& op : ops) {
    std::this_thread::sleep_until(start +
                                  std::chrono::microseconds(op.submit_us));
    cluster.Submit(op.at, SpecFor(op, items[0]),
                   [&committed, &decided](const txn::TxnResult& r) {
                     if (r.committed()) {
                       committed.fetch_add(1, std::memory_order_relaxed);
                     }
                     decided.fetch_add(1, std::memory_order_relaxed);
                   });
  }
  auto deadline = start + std::chrono::microseconds(kSettleDeadlineUs);
  while (decided.load(std::memory_order_relaxed) < kNumTxns &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.Stop();

  Tally tally;
  tally.committed = committed.load();
  tally.decided = decided.load();
  tally.audit_ok = cluster.AuditAll().ok();
  return tally;
}

Tally RunSim(const std::vector<Op>& ops, uint64_t seed) {
  std::vector<ItemId> items;
  core::Catalog catalog = MakeCountCatalog(1, kInitial, &items);
  system::ClusterOptions opts;
  opts.num_sites = kNumSites;
  opts.seed = seed;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  Tally tally;
  for (const Op& op : ops) {
    cluster.kernel().ScheduleAt(op.submit_us, [&cluster, &tally, op]() {
      auto id = cluster.Submit(SiteId(op.at), SpecFor(op, ItemId(0)),
                               [&tally](const txn::TxnResult& r) {
                                 if (r.committed()) ++tally.committed;
                                 ++tally.decided;
                               });
      (void)id;
    });
  }
  cluster.RunUntilQuiescent(kSettleDeadlineUs);
  tally.audit_ok = cluster.AuditAll().ok();
  return tally;
}

// ---- E14: open-loop wall-clock latency ------------------------------------

struct OpenLoopResult {
  uint32_t submitted = 0;
  uint64_t decided = 0;
  uint64_t committed = 0;
  bool audit_ok = false;
  Histogram commit_us;       // wall-clock submit->decision latency
  double elapsed_s = 0;      // admission start to last decision (or deadline)
  runtime::UdpConduit::Stats udp;
  uint64_t envelope_allocs = 0;  // pool envelopes consumed by this run
  uint64_t retransmissions = 0;  // summed over sites' transports
  /// Round-1 gathers re-asked at the round-trip deadline, and outstanding
  /// grants donors resent in answer, summed over sites.
  uint64_t loss_reasks = 0;
  uint64_t resent_outstanding = 0;
};

/// One open-loop run: Poisson arrivals at `rate_per_sec`, Zipf item skew.
/// `drop_one_in` injects datagram loss (0 = clean) so retransmissions
/// actually occur.
OpenLoopResult RunOpenLoop(uint64_t seed, uint32_t txns, uint64_t drop_one_in,
                           double rate_per_sec) {
  std::vector<ItemId> items;
  core::Catalog catalog = MakeCountCatalog(kOpenItems, kOpenTotal, &items);
  system::RealClusterOptions opts;
  opts.num_sites = kNumSites;
  opts.seed = seed;
  opts.runtime.net.drop_one_in = drop_one_in;
  // Paced gather retries: the workload keeps decrement sites permanently
  // short, so a single-round ask that lands while the donor is locked (hot
  // item, concurrent increments) would otherwise sit out the whole 300 ms
  // timeout.
  opts.site.txn.gather_retry_us = 5'000;
  // Surplus hints steer re-asks at the sites that actually hold value.
  opts.site.placement.hints_per_frame = 2;
  system::RealCluster cluster(&catalog, opts);
  cluster.BootstrapEven();
  cluster.Start();

  OpenLoopResult res;
  res.submitted = txns;
  res.envelope_allocs = net::PoolStats().envelopes;

  std::mutex mu;
  Histogram commit_us;
  std::atomic<uint64_t> decided{0};
  std::atomic<uint64_t> committed{0};

  Rng rng(seed * 7919 + 17);
  ZipfGenerator zipf(kOpenItems, kOpenZipfTheta);
  // Per-item increment/decrement alternation keeps every global total within
  // one unit of its initial value (no drift aborts) while the site split —
  // decrements at item%n, increments at the next site — keeps the decrement
  // side permanently short of local value, so redistribution never idles.
  std::vector<uint8_t> toggle(kOpenItems, 0);
  using ClockT = std::chrono::steady_clock;
  auto start = ClockT::now();
  double next_us = 0;
  for (uint32_t i = 0; i < txns; ++i) {
    next_us += rng.NextExponential(1e6 / rate_per_sec);
    auto due = start + std::chrono::microseconds(
                           static_cast<int64_t>(next_us));
    std::this_thread::sleep_until(due);
    uint64_t k = zipf.Next(rng);
    bool down = (toggle[k] ^= 1) != 0;  // first touch decrements
    uint32_t site = down ? uint32_t(k) % kNumSites
                         : (uint32_t(k) + 1) % kNumSites;
    Op op{SiteId(site), down, /*amount=*/1, 0};
    ItemId item = items[k];
    auto submitted = ClockT::now();
    cluster.Submit(
        op.at, SpecFor(op, item),
        [&mu, &commit_us, &decided, &committed,
         submitted](const txn::TxnResult& r) {
          double us = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          ClockT::now() - submitted)
                          .count() /
                      1000.0;
          {
            std::lock_guard<std::mutex> lock(mu);
            commit_us.Add(us);
          }
          if (r.committed()) {
            committed.fetch_add(1, std::memory_order_relaxed);
          }
          decided.fetch_add(1, std::memory_order_relaxed);
        });
  }
  auto deadline = ClockT::now() + std::chrono::microseconds(kSettleDeadlineUs);
  while (decided.load(std::memory_order_relaxed) < txns &&
         ClockT::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  res.elapsed_s = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      ClockT::now() - start)
                      .count() /
                  1e9;
  res.udp = cluster.runtime().conduit().stats();
  // Surface the conduit counters through the obs registry (satellite: the
  // split error counters are pull-exported, not pushed per event).
  cluster.runtime().conduit().ExportStats(&cluster.site(SiteId(0)).metrics());
  cluster.Stop();

  // Loop threads are joined; per-site transport counters are safe to read.
  for (uint32_t s = 0; s < kNumSites; ++s) {
    net::Transport* t = cluster.site(SiteId(s)).transport();
    res.retransmissions += t->retransmissions();
    const obs::MetricsRegistry& m = cluster.site(SiteId(s)).metrics();
    res.loss_reasks += m.Get("txn.gather.loss_reask");
    res.resent_outstanding += m.Get("req.resent_outstanding");
  }
  res.decided = decided.load();
  res.committed = committed.load();
  res.audit_ok = cluster.AuditAll().ok();
  {
    std::lock_guard<std::mutex> lock(mu);
    res.commit_us = commit_us;
  }
  res.envelope_allocs = net::PoolStats().envelopes - res.envelope_allocs;
  return res;
}

double PerTxn(uint64_t count, uint64_t txns) {
  return txns == 0 ? 0.0 : static_cast<double>(count) / double(txns);
}

void ReportMode(const char* name, const OpenLoopResult& r, JsonMetrics* json) {
  double syscalls_per_txn =
      PerTxn(r.udp.send_syscalls + r.udp.recv_syscalls, r.decided);
  double allocs_per_txn = PerTxn(r.udp.frame_buffer_allocs, r.decided);
  double datagrams_per_txn = PerTxn(r.udp.datagrams_sent, r.decided);
  double tput = r.elapsed_s > 0 ? double(r.decided) / r.elapsed_s : 0.0;
  std::printf(
      "  %-8s decided %llu/%u commit %.1f%%  p50 %.0fus p99 %.0fus "
      "p999 %.0fus  %.0f txn/s  syscalls/txn %.2f  allocs/txn %.3f\n",
      name, static_cast<unsigned long long>(r.decided), r.submitted,
      100.0 * PerTxn(r.committed, r.decided), r.commit_us.Median(),
      r.commit_us.P99(), r.commit_us.P999(), tput, syscalls_per_txn,
      allocs_per_txn);
  std::string p = std::string("e14.") + name;
  json->Set(p + ".decided", r.decided);
  json->Set(p + ".committed", r.committed);
  json->Set(p + ".audit_ok", r.audit_ok);
  json->Set(p + ".p50_commit_us", r.commit_us.Median());
  json->Set(p + ".p99_commit_us", r.commit_us.P99());
  json->Set(p + ".p999_commit_us", r.commit_us.P999());
  json->Set(p + ".txns_per_sec", tput);
  json->Set(p + ".syscalls_per_txn", syscalls_per_txn);
  json->Set(p + ".allocs_per_txn", allocs_per_txn);
  json->Set(p + ".datagrams_per_txn", datagrams_per_txn);
  json->Set(p + ".envelope_allocs_per_txn",
            PerTxn(r.envelope_allocs, r.decided));
  json->Set(p + ".frames_encoded", r.udp.frames_encoded);
  json->Set(p + ".send_syscalls", r.udp.send_syscalls);
  json->Set(p + ".recv_syscalls", r.udp.recv_syscalls);
  json->Set(p + ".send_errors", r.udp.send_errors);
  json->Set(p + ".send_soft_errors", r.udp.send_soft_errors);
  json->Set(p + ".oversize_frames", r.udp.oversize_frames);
}

int Main(int argc, char** argv) {
  constexpr uint64_t kSeed = 20260808;
  JsonMetrics json;
  std::string json_path = JsonPathFromArgs(argc, argv);

  // ---- Phase 1: smoke cross-check -----------------------------------------
  std::vector<Op> ops = MakeOps(kSeed);
  std::printf("bench_realtime: %u txns, %u sites, hot counter, pace %lld us\n",
              kNumTxns, kNumSites, static_cast<long long>(kPaceUs));
  Tally real = RunReal(ops, kSeed);
  Tally sim = RunSim(ops, kSeed);

  std::printf("  real: decided %llu/%u, committed %llu, conservation %s\n",
              static_cast<unsigned long long>(real.decided), kNumTxns,
              static_cast<unsigned long long>(real.committed),
              real.audit_ok ? "OK" : "VIOLATED");
  std::printf("  sim:  decided %llu/%u, committed %llu, conservation %s\n",
              static_cast<unsigned long long>(sim.decided), kNumTxns,
              static_cast<unsigned long long>(sim.committed),
              sim.audit_ok ? "OK" : "VIOLATED");

  bool ok = true;
  if (real.committed * 100 < uint64_t{kNumTxns} * 99) {
    std::printf("FAIL: real runtime committed < 99%%\n");
    ok = false;
  }
  if (sim.committed != kNumTxns) {
    std::printf("FAIL: sim oracle did not commit every transaction\n");
    ok = false;
  }
  if (!real.audit_ok || !sim.audit_ok) {
    std::printf("FAIL: conservation audit\n");
    ok = false;
  }
  json.Set("smoke.real_decided", real.decided);
  json.Set("smoke.sim_decided", sim.decided);
  json.Set("smoke.sim_committed", sim.committed);
  json.Set("smoke.ok", ok);

  // ---- Phase 2: E14 open-loop latency ------------------------------------
  std::printf(
      "E14: open loop, %u txns @ %.0f/s Poisson, %u items zipf %.2f, "
      "%u sites\n",
      kOpenTxns, kOpenRatePerSec, kOpenItems, kOpenZipfTheta, kNumSites);
  OpenLoopResult clean =
      RunOpenLoop(kSeed, kOpenTxns, /*drop_one_in=*/0, kOpenRatePerSec);
  ReportMode("clean", clean, &json);

  json.Set("e14.sites", uint64_t{kNumSites});
  json.Set("e14.txns", uint64_t{kOpenTxns});
  json.Set("e14.items", uint64_t{kOpenItems});
  json.Set("e14.zipf_theta", kOpenZipfTheta);
  json.Set("e14.target_rate_per_s", kOpenRatePerSec);
  json.Set("e14.seed", kSeed);

  auto check = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::printf("FAIL: %s\n", what);
      ok = false;
    }
    return cond;
  };
  bool settled = check(clean.decided == kOpenTxns, "clean run settled");
  check(clean.audit_ok, "E14 conservation audit");
  // Looser than the smoke gate on purpose: E14 runs hot items permanently
  // short of local value, so a few timeout aborts under scheduler jitter are
  // expected — correctness is the smoke phase's gate, this phase gates perf.
  check(PerTxn(clean.committed, clean.decided) >= 0.95,
        "E14 commit rate >= 95%");

  double allocs = PerTxn(clean.udp.frame_buffer_allocs, clean.decided);
  double syscalls = PerTxn(clean.udp.send_syscalls + clean.udp.recv_syscalls,
                           clean.decided);
  bool alloc_ok = settled && allocs <= kMaxAllocsPerTxn;
  bool syscall_ok = settled && syscalls <= kMaxSyscallsPerTxn;
  check(alloc_ok, "frame-buffer growths/txn <= 0.05");
  check(syscall_ok, "syscalls/txn <= 5.5");
  json.Set("e14.alloc_ceiling_ok", alloc_ok);
  json.Set("e14.syscall_ceiling_ok", syscall_ok);

  // ---- Phase 3: E14 under loss --------------------------------------------
  // A clean loopback run never retransmits. Inject datagram loss so the
  // transport's retransmission and dedup path runs on the real wire, and
  // check that exactly-once delivery still settles every txn.
  constexpr uint32_t kLossyTxns = 400;
  std::printf("E14-loss: %u txns @ %.0f/s, drop 1-in-16\n", kLossyTxns,
              kOpenRatePerSec / 10);
  OpenLoopResult lossy = RunOpenLoop(kSeed + 1, kLossyTxns,
                                     /*drop_one_in=*/16, kOpenRatePerSec / 10);
  ReportMode("lossy", lossy, &json);
  check(lossy.decided == kLossyTxns, "lossy run settled");
  check(lossy.audit_ok, "lossy conservation audit");
  check(lossy.retransmissions > 0, "loss actually forced retransmissions");
  std::printf(
      "  lossy: %llu injected drops, %llu retransmits, %llu round-trip "
      "re-asks, %llu outstanding grants resent\n",
      static_cast<unsigned long long>(lossy.udp.datagrams_dropped_injected),
      static_cast<unsigned long long>(lossy.retransmissions),
      static_cast<unsigned long long>(lossy.loss_reasks),
      static_cast<unsigned long long>(lossy.resent_outstanding));
  json.Set("e14.lossy.injected_drops", lossy.udp.datagrams_dropped_injected);
  json.Set("e14.lossy.retransmissions", lossy.retransmissions);
  json.Set("e14.lossy.loss_reasks", lossy.loss_reasks);
  json.Set("e14.lossy.resent_outstanding", lossy.resent_outstanding);
  json.Set("e14.ok", ok);

  if (!json_path.empty()) json.WriteTo(json_path);
  if (ok) std::printf("bench_realtime: PASS\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dvp::bench

int main(int argc, char** argv) { return dvp::bench::Main(argc, argv); }
