#include "chaos/harness.h"

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "dvpcore/catalog.h"
#include "system/cluster.h"
#include "verify/serializability.h"
#include "vm/vm_manager.h"
#include "wal/record.h"

namespace dvp::chaos {

namespace {

std::string U64(uint64_t v) { return std::to_string(v); }

/// One precomputed workload action. Everything random about the workload is
/// drawn here, before the clock starts, so the action stream is identical
/// across replays regardless of how faults perturb the interleaving.
struct Action {
  enum Kind { kTxn, kSend, kPrefetch };
  enum Multi : uint8_t { kSingle = 0, kTransfer = 1, kOrder = 2 };
  SimTime at = 0;
  Kind kind = kTxn;
  uint32_t site = 0;
  uint32_t dst = 0;
  uint32_t item = 0;
  int64_t amount = 1;
  bool is_read = false;
  bool is_snapshot = false;
  bool is_decrement = false;
  /// Multi-item atomic set: item is the decrement leg, item2 the increment.
  Multi multi = kSingle;
  uint32_t item2 = 0;
};

std::vector<Action> PrecomputeWorkload(const ChaosCase& c) {
  const WorkloadSpec& w = c.workload;
  Rng rng(c.seed * 0x51a1d + 11);
  std::vector<Action> actions;
  actions.reserve(w.txns);
  SimTime t = 0;
  for (uint32_t i = 0; i < w.txns; ++i) {
    t += rng.NextInt(1, std::max<SimTime>(2, 2 * w.gap_us));
    Action a;
    a.at = t;
    a.site = w.submit_site != kAnySite
                 ? w.submit_site
                 : static_cast<uint32_t>(rng.NextBounded(w.sites));
    a.dst = static_cast<uint32_t>(rng.NextBounded(w.sites));
    a.item = static_cast<uint32_t>(rng.NextBounded(std::max(1u, w.items)));
    a.amount = rng.NextInt(1, std::max<int64_t>(1, w.max_amount));
    uint64_t roll = rng.NextBounded(1000);
    if (roll < w.redist_permille) {
      a.kind = rng.NextBool(0.5) ? Action::kSend : Action::kPrefetch;
      a.amount = rng.NextInt(1, 5);
    } else {
      a.kind = Action::kTxn;
      // Multi-op draws are gated on the knobs so every pre-existing seed
      // consumes exactly the RNG stream it always did.
      uint32_t mp = w.transfer_permille + w.order_permille;
      if (mp > 0 && w.items >= 2) {
        uint64_t mroll = rng.NextBounded(1000);
        if (mroll < mp) {
          a.multi = mroll < w.transfer_permille ? Action::kTransfer
                                                : Action::kOrder;
          do {
            a.item2 = static_cast<uint32_t>(rng.NextBounded(w.items));
          } while (a.item2 == a.item);
        }
      }
      if (a.multi == Action::kSingle) {
        a.is_read = rng.NextBounded(1000) < w.read_permille;
        a.is_decrement = rng.NextBool(0.5);
        // Gated on the knob: seeds with snapshot_permille == 0 draw nothing
        // extra and keep their exact action stream.
        if (w.snapshot_permille > 0 && !a.is_read) {
          a.is_snapshot = rng.NextBounded(1000) < w.snapshot_permille;
        }
      }
    }
    actions.push_back(a);
  }
  return actions;
}

void Fail(RunResult* r, SimTime now, const std::string& what) {
  if (!r->ok) return;  // first violation wins
  r->ok = false;
  r->violation = what;
  r->violation_time = now;
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t FnvStr(uint64_t h, const std::string& s) {
  for (char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::string ChaosCase::ToLiteral() const {
  const WorkloadSpec& w = workload;
  std::string out = "chaos::ChaosCase{" + U64(seed) + ", " + U64(perturb_seed) +
                    ", " + std::to_string(max_jitter_us) + ", ";
  out += "{" + U64(w.sites) + ", " + U64(w.items) + ", " +
         std::to_string(w.total) + ", " + U64(w.txns) + ", " +
         std::to_string(w.gap_us) + ", " +
         (w.submit_site == kAnySite ? std::string("chaos::kAnySite")
                                    : U64(w.submit_site)) +
         ", " + U64(w.read_permille) + ", " + U64(w.redist_permille) + ", " +
         std::to_string(w.max_amount) + ", " + std::to_string(w.timeout_us) +
         ", " + U64(w.loss_permille) + ", " + U64(w.dup_permille) + ", " +
         U64(w.group_commit_records) + ", " +
         std::to_string(w.group_commit_delay_us) + ", " + U64(w.coalesce) +
         ", " + U64(w.surplus_hints) + ", " + U64(w.rebalance) + ", " +
         U64(w.transfer_permille) + ", " + U64(w.order_permille) + ", " +
         U64(w.snapshot_permille) + "}, ";
  out += plan.ToLiteral() + "}";
  return out;
}

RunResult RunCase(const ChaosCase& c, const RunOptions& opts) {
  const WorkloadSpec& w = c.workload;
  RunResult result;

  core::Catalog catalog;
  std::vector<ItemId> items;
  for (uint32_t i = 0; i < std::max(1u, w.items); ++i) {
    items.push_back(catalog.AddItem("item" + std::to_string(i),
                                    core::CountDomain::Instance(),
                                    w.total + 17 * i));
  }

  system::ClusterOptions copts;
  copts.num_sites = w.sites;
  copts.seed = c.seed;
  copts.link.loss_prob = w.loss_permille / 1000.0;
  copts.link.duplicate_prob = w.dup_permille / 1000.0;
  copts.site.txn.timeout_us = w.timeout_us;
  if (w.group_commit_records >= 2) {
    copts.site.group_commit.enabled = true;
    copts.site.group_commit.max_records = w.group_commit_records;
    copts.site.group_commit.max_delay_us = w.group_commit_delay_us;
  }
  copts.site.transport.coalesce = w.coalesce != 0;
  // Chaos defaults to randomized fan-out (first-k-by-id is a test-only mode
  // that starves high-id sites); surplus_hints upgrades it to hint-directed
  // targeting with gather-retry rounds inside the unchanged timeout budget.
  copts.site.txn.targeting = w.surplus_hints != 0
                                 ? txn::TargetPolicy::kSurplus
                                 : txn::TargetPolicy::kRandom;
  if (w.surplus_hints != 0) {
    copts.site.placement.hints_per_frame = 4;
    copts.site.txn.gather_retry_us = std::max<SimTime>(w.timeout_us / 3, 1);
  }
  if (w.rebalance != 0) {
    copts.site.placement.rebalance = true;
  }
  copts.site.trace = opts.trace;
  if (c.perturb_seed != 0) {
    copts.perturb.seed = c.perturb_seed;
    copts.perturb.shuffle_ties = true;
    copts.perturb.max_jitter_us = c.max_jitter_us;
  }
  system::Cluster cluster(&catalog, copts);
  cluster.BootstrapEven();

  auto trace = [&](const std::string& line) {
    if (opts.record_trace && result.trace.size() < 256) {
      result.trace.push_back("t=" + std::to_string(cluster.Now()) + " " + line);
    }
  };

  if (opts.audit_every_event) {
    cluster.kernel().set_post_event_hook([&]() {
      if (!result.ok) return;
      Status s = cluster.AuditAll();
      if (!s.ok()) {
        Fail(&result, cluster.Now(), "post-event audit: " + s.message());
      }
    });
  }

  // ---- The non-blocking bound this run must honour ------------------------
  uint64_t max_skew_permille = 1000;
  for (const FaultEvent& e : c.plan.events) {
    if (e.kind == FaultKind::kTimeoutSkew) {
      max_skew_permille = std::max(max_skew_permille, e.arg);
    }
  }
  // Group commit defers the commit-point force by up to the batch timer, and
  // the force that makes the *reply* visible can lag one more timer period.
  result.latency_bound_us =
      static_cast<SimTime>(w.timeout_us * max_skew_permille / 1000) +
      2 * c.max_jitter_us + 2 * w.group_commit_delay_us + 1'000;

  // ---- Workload ------------------------------------------------------------
  // With snapshot reads in the mix the run also keeps a committed history:
  // every committed write plus every committed snapshot read, so the windowed
  // consistent-cut oracle can reject a torn cut at finalize. Recording is
  // passive (no kernel events, no RNG), so digests are unaffected.
  verify::HistoryChecker checker(&catalog);
  const bool check_cuts = w.snapshot_permille > 0;
  std::vector<Action> actions = PrecomputeWorkload(c);
  SimTime last_submit = actions.empty() ? 0 : actions.back().at;
  for (const Action& a : actions) {
    cluster.kernel().ScheduleAt(a.at, [&, a]() {
      // Resolve the acting site against liveness at fire time.
      uint32_t s = a.site;
      if (w.submit_site == kAnySite) {
        for (uint32_t k = 0; k < w.sites; ++k) {
          uint32_t cand = (a.site + k) % w.sites;
          if (cluster.site(SiteId(cand)).IsUp()) {
            s = cand;
            break;
          }
        }
      }
      if (!cluster.site(SiteId(s)).IsUp()) {
        ++result.skipped;
        return;
      }
      ItemId item = items[a.item];
      if (a.kind == Action::kSend) {
        (void)cluster.site(SiteId(s)).SendValue(SiteId(a.dst), item, a.amount);
        return;
      }
      if (a.kind == Action::kPrefetch) {
        cluster.site(SiteId(s)).Prefetch(item, a.amount);
        return;
      }
      txn::TxnSpec spec;
      if (a.multi == Action::kTransfer) {
        spec = txn::MakeTransfer(item, items[a.item2], a.amount);
      } else if (a.multi == Action::kOrder) {
        spec = txn::MakeOrder(item, items[a.item2], a.amount);
      } else if (a.is_read) {
        spec.ops = {txn::TxnOp::ReadFull(item)};
      } else if (a.is_snapshot) {
        spec.ops = {txn::TxnOp::ReadSnapshot(item)};
      } else {
        spec.ops = {a.is_decrement ? txn::TxnOp::Decrement(item, a.amount)
                                   : txn::TxnOp::Increment(item, a.amount)};
      }
      auto ok = cluster.Submit(
          SiteId(s), spec, [&, spec](const txn::TxnResult& r) {
            ++result.decided;
            if (r.committed()) {
              ++result.committed;
              if (check_cuts) {
                // A crash reports forced-committed transactions with a fresh
                // result that carries no read values; such a read has no cut
                // to validate, so it is excluded from the history. Everything
                // else committed — writes and answered reads — goes in.
                bool read_lost = false;
                for (const txn::TxnOp& op : spec.ops) {
                  if ((op.kind == txn::TxnOp::Kind::kReadFull ||
                       op.kind == txn::TxnOp::Kind::kReadSnapshot) &&
                      !r.read_values.contains(op.item)) {
                    read_lost = true;
                  }
                }
                if (!read_lost) {
                  checker.RecordCommitAt(cluster.Now(), r.id, spec, r);
                }
              }
            }
            result.max_latency_us =
                std::max(result.max_latency_us, r.latency_us);
          });
      if (ok.ok()) {
        ++result.submitted;
      } else {
        ++result.skipped;
      }
    });
  }

  // ---- Fault plan ----------------------------------------------------------
  net::LinkParams shadow = copts.link;  // current all-links fault model
  SimTime plan_end = 0;
  for (const FaultEvent& e : c.plan.events) {
    plan_end = std::max(plan_end, e.at);
    cluster.kernel().ScheduleAt(e.at, [&, e]() {
      switch (e.kind) {
        case FaultKind::kCrash:
          if (e.site < w.sites && cluster.site(SiteId(e.site)).IsUp()) {
            cluster.CrashSite(SiteId(e.site));
            trace("crash site " + U64(e.site));
          }
          break;
        case FaultKind::kRecover:
          if (e.site < w.sites && !cluster.site(SiteId(e.site)).IsUp() &&
              !cluster.site(SiteId(e.site)).IsRecovering()) {
            cluster.RecoverSite(SiteId(e.site));
            trace("recover site " + U64(e.site));
          }
          break;
        case FaultKind::kPartition: {
          std::vector<SiteId> g0, g1;
          for (uint32_t s = 0; s < w.sites; ++s) {
            ((e.site >> s) & 1 ? g1 : g0).push_back(SiteId(s));
          }
          if (g0.empty() || g1.empty()) {
            cluster.Heal();
          } else {
            (void)cluster.Partition({g0, g1});
          }
          trace("partition mask=" + U64(e.site));
          break;
        }
        case FaultKind::kHeal:
          cluster.Heal();
          trace("heal");
          break;
        case FaultKind::kLinkLoss:
          shadow.loss_prob = e.arg / 1000.0;
          cluster.network().SetAllLinkParams(shadow);
          trace("link loss -> " + U64(e.arg) + "/1000");
          break;
        case FaultKind::kLinkDelay:
          shadow.base_delay_us = static_cast<SimTime>(e.arg);
          shadow.jitter_mean_us = e.arg / 2.0;
          cluster.network().SetAllLinkParams(shadow);
          trace("link delay -> " + U64(e.arg) + "us");
          break;
        case FaultKind::kLinkDup:
          shadow.duplicate_prob = e.arg / 1000.0;
          cluster.network().SetAllLinkParams(shadow);
          trace("link dup -> " + U64(e.arg) + "/1000");
          break;
        case FaultKind::kLinkLossOne: {
          uint32_t src = e.site / w.sites, dst = e.site % w.sites;
          net::LinkParams p = shadow;
          p.loss_prob = e.arg / 1000.0;
          cluster.network().SetLinkParams(SiteId(src), SiteId(dst), p);
          trace("link " + U64(src) + "->" + U64(dst) + " loss " + U64(e.arg) +
                "/1000");
          break;
        }
        case FaultKind::kTimeoutSkew:
          if (e.site < w.sites && cluster.site(SiteId(e.site)).IsUp()) {
            cluster.site(SiteId(e.site))
                .txns()
                ->set_timeout_skew_permille(static_cast<uint32_t>(e.arg));
            trace("timeout skew site " + U64(e.site) + " -> " + U64(e.arg) +
                  "/1000");
          }
          break;
      }
    });
  }

  // ---- Planted violation (debug hook) -------------------------------------
  if (opts.planted_violation_at_us > 0) {
    cluster.kernel().ScheduleAt(opts.planted_violation_at_us, [&]() {
      // A Vm that was never debited anywhere: +1 in-flight out of thin air.
      // Every conservation probe from here on must flag it.
      core::Value durable = cluster.site(SiteId(0)).DurableValue(items[0]);
      wal::VmCreateRec rec;
      rec.vm = vm::MakeVmId(SiteId(0), (uint64_t{1} << 40) + 1);
      rec.dst = SiteId(0);
      rec.item = items[0];
      rec.amount = 1;
      rec.write = wal::FragmentWrite{items[0], durable, 0, 0};
      cluster.storage(SiteId(0)).Append(wal::LogRecord(rec));
      trace("planted conservation violation");
    });
  }

  // ---- Mid-flight oracle probes -------------------------------------------
  SimTime active_end =
      std::max({last_submit + result.latency_bound_us + 100'000,
                plan_end + 100'000,
                opts.planted_violation_at_us + 50'000});
  Rng probe_rng(c.seed * 0x0bac1e + 29);
  std::vector<SimTime> probe_times;
  for (uint32_t i = 0; i < opts.probes; ++i) {
    probe_times.push_back(static_cast<SimTime>(
        probe_rng.NextBounded(static_cast<uint64_t>(active_end) + 1)));
  }
  auto run_oracles = [&](const char* where) {
    if (!result.ok) return;
    Status s = CheckInvariants(cluster, opts.oracles);
    if (!s.ok()) {
      Fail(&result, cluster.Now(), std::string(where) + ": " + s.message());
      trace(std::string("ORACLE VIOLATION (") + where + "): " + s.message());
      if (result.explanation.empty()) {
        result.explanation = ExplainViolation(cluster.Storages(), opts.trace);
      }
    } else if (result.max_latency_us > result.latency_bound_us) {
      Fail(&result, cluster.Now(),
           std::string(where) + ": non-blocking bound exceeded: latency " +
               std::to_string(result.max_latency_us) + "us > bound " +
               std::to_string(result.latency_bound_us) + "us");
    }
  };
  for (SimTime pt : probe_times) {
    cluster.kernel().ScheduleAt(pt, [&, pt]() {
      run_oracles("probe");
      if (opts.record_trace && result.ok) trace("probe ok");
      (void)pt;
    });
  }

  // ---- Drive ---------------------------------------------------------------
  cluster.RunFor(active_end + 1);

  if (opts.finalize) {
    // Clear every standing fault, bring everyone back, and let the system
    // drain: all in-flight value must reach a fragment.
    cluster.Heal();
    net::LinkParams clean;
    clean.loss_prob = 0;
    clean.duplicate_prob = 0;
    cluster.network().SetAllLinkParams(clean);
    for (int sweep = 0; sweep < 64; ++sweep) {
      bool all_up = true;
      for (uint32_t s = 0; s < w.sites; ++s) {
        site::Site& site = cluster.site(SiteId(s));
        if (!site.IsUp() && !site.IsRecovering()) site.Recover();
        if (!site.IsUp()) all_up = false;
      }
      if (all_up) break;
      cluster.RunFor(500'000);
    }
    cluster.RunUntilQuiescent(opts.drain_us);
  }

  // ---- Final oracle suite --------------------------------------------------
  run_oracles("final");
  if (result.ok && result.decided != result.submitted) {
    Fail(&result, cluster.Now(),
         "non-blocking violated: " +
             std::to_string(result.submitted - result.decided) +
             " of " + std::to_string(result.submitted) +
             " transactions never decided");
  }
  if (result.ok && check_cuts) {
    Status s = checker.CheckSnapshotCuts();
    if (!s.ok()) {
      Fail(&result, cluster.Now(), "snapshot cut oracle: " + s.message());
    }
  }
  if (result.ok && opts.finalize) {
    for (ItemId item : items) {
      auto b = cluster.Audit(item);
      if (b.in_flight != 0) {
        Fail(&result, cluster.Now(),
             "liveness: item " + item.ToString() + " retains " +
                 std::to_string(b.in_flight) + " in-flight value (" +
                 std::to_string(b.live_vms) + " live Vm) after drain");
        break;
      }
    }
  }

  // ---- Digest --------------------------------------------------------------
  result.events_executed = cluster.kernel().events_executed();
  uint64_t h = 0xcbf29ce484222325ull;
  h = Fnv1a(h, result.submitted);
  h = Fnv1a(h, result.decided);
  h = Fnv1a(h, result.committed);
  h = Fnv1a(h, result.skipped);
  h = Fnv1a(h, static_cast<uint64_t>(result.max_latency_us));
  h = Fnv1a(h, result.events_executed);
  h = Fnv1a(h, result.ok ? 1 : 0);
  for (ItemId item : items) {
    auto b = cluster.Audit(item);
    h = Fnv1a(h, static_cast<uint64_t>(b.site_total));
    h = Fnv1a(h, static_cast<uint64_t>(b.in_flight));
    h = Fnv1a(h, static_cast<uint64_t>(b.committed_delta));
  }
  obs::MetricsRegistry counters = cluster.AggregateCounters();
  for (const auto& [name, c] : counters.counters()) {
    h = FnvStr(h, name);
    h = Fnv1a(h, c.value());
  }
  result.digest = h;
  return result;
}

ChaosCase MakeSwarmCase(uint64_t seed) {
  Rng rng(seed ^ 0x5a9a);
  ChaosCase c;
  c.seed = seed;
  WorkloadSpec& w = c.workload;
  w.sites = 3 + static_cast<uint32_t>(rng.NextBounded(3));
  w.items = 1 + static_cast<uint32_t>(rng.NextBounded(2));
  w.total = 240;
  w.txns = 40 + static_cast<uint32_t>(rng.NextBounded(81));
  w.gap_us = 10'000 + static_cast<SimTime>(rng.NextBounded(20'001));
  w.read_permille = rng.NextBool(0.3) ? 100 : 0;
  w.redist_permille = static_cast<uint32_t>(rng.NextBounded(300));
  w.loss_permille =
      rng.NextBool(0.5) ? static_cast<uint32_t>(rng.NextBounded(120)) : 0;
  w.dup_permille =
      rng.NextBool(0.3) ? static_cast<uint32_t>(rng.NextBounded(100)) : 0;
  // Half the swarm runs with group commit on (so crashes land mid-batch and
  // must drop exactly the unforced suffix); coalescing toggles independently.
  if (rng.NextBool(0.5)) {
    w.group_commit_records = 2 + static_cast<uint32_t>(rng.NextBounded(15));
    w.group_commit_delay_us = 200 + static_cast<SimTime>(rng.NextBounded(4801));
  }
  w.coalesce = rng.NextBool(0.5) ? 1 : 0;
  // Half the swarm exercises the placement layer (hint-directed gathers and
  // retry rounds), and half of that runs the rebalancer too — its pushes are
  // ordinary Vm transfers, so the conservation and exactly-once oracles
  // police them like any other traffic.
  w.surplus_hints = rng.NextBool(0.5) ? 1 : 0;
  w.rebalance = (w.surplus_hints != 0 && rng.NextBool(0.5)) ? 1 : 0;
  if (rng.NextBool(0.7)) {
    c.perturb_seed = seed * 31 + 7;
    c.max_jitter_us =
        rng.NextBool(0.5) ? static_cast<SimTime>(rng.NextBounded(301)) : 0;
  }
  // A third of the swarm mixes in multi-item atomic sets, so transfers and
  // orders meet crashes, partitions and loss with the cross-item oracles
  // live. Drawn last: pre-existing draws keep their stream positions.
  if (rng.NextBool(0.33)) {
    if (w.items < 2) w.items = 2;
    w.transfer_permille = 50 + static_cast<uint32_t>(rng.NextBounded(301));
    w.order_permille =
        rng.NextBool(0.5) ? static_cast<uint32_t>(rng.NextBounded(201)) : 0;
  }
  // A third of the swarm mixes in stamped snapshot reads, so balance
  // certificates meet loss, dup, partitions and crashes with the windowed
  // cut oracle live. Drawn last for the same stream-position reason.
  if (rng.NextBool(0.33)) {
    w.snapshot_permille = 100 + static_cast<uint32_t>(rng.NextBounded(301));
  }
  PlanSpec ps;
  ps.num_sites = w.sites;
  ps.horizon_us = static_cast<SimTime>(w.txns) * w.gap_us * 2;
  ps.max_events = 16;
  c.plan = GeneratePlan(seed, ps);
  return c;
}

}  // namespace dvp::chaos
