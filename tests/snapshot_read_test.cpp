// The stamped snapshot-read path (ReadMode::kSnapshot): a reader assembles
// Σ resident fragments + Σ in-flight value from per-site stamped replies,
// terminating when the Vm ledgers balance (Σ created == Σ accepted, counts
// and values). The properties at stake: the cut is EXACT (telescoping ledger
// identity), no value moves and no remote lock is taken, and every committed
// snapshot passes the windowed consistent-cut oracle even under loss,
// duplication, reordering and crashes.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "system/cluster.h"
#include "verify/serializability.h"

namespace dvp {
namespace {

using core::CountDomain;
using txn::TxnOp;
using txn::TxnOutcome;
using txn::TxnResult;
using txn::TxnSpec;

class SnapshotReadTest : public ::testing::Test {
 protected:
  void Build(system::ClusterOptions opts, core::Value total = 400) {
    catalog_ = std::make_unique<core::Catalog>();
    item_ = catalog_->AddItem("pool", CountDomain::Instance(), total);
    cluster_ = std::make_unique<system::Cluster>(catalog_.get(), opts);
    cluster_->BootstrapEven();
  }

  TxnResult SubmitAndRun(SiteId at, const TxnSpec& spec,
                         SimTime run_us = 4'000'000) {
    TxnResult out;
    bool done = false;
    auto ok = cluster_->Submit(at, spec, [&](const TxnResult& r) {
      out = r;
      done = true;
    });
    EXPECT_TRUE(ok.ok());
    cluster_->RunFor(run_us);
    EXPECT_TRUE(done);
    return out;
  }

  TxnResult Snapshot(SiteId at, SimTime run_us = 4'000'000) {
    TxnSpec spec;
    spec.ops = {TxnOp::ReadSnapshot(item_)};
    return SubmitAndRun(at, spec, run_us);
  }

  uint64_t Counter(const std::string& name) {
    return cluster_->AggregateCounters().Get(name);
  }

  std::unique_ptr<core::Catalog> catalog_;
  ItemId item_;
  std::unique_ptr<system::Cluster> cluster_;
};

TEST_F(SnapshotReadTest, QuiescentSnapshotIsExactAndMovesNothing) {
  Build({});
  TxnResult r = Snapshot(SiteId(2));
  ASSERT_EQ(r.outcome, TxnOutcome::kCommitted) << r.status.ToString();
  EXPECT_EQ(r.read_values.at(item_), 400);
  // Unlike the full-read drain, every fragment stays exactly where it was.
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster_->site(SiteId(s)).LocalValue(item_), 100);
  }
  // One request per remote site, each answered, and the first round's
  // certificate balanced: no retry rounds at quiescence.
  EXPECT_EQ(Counter("snapshot.req.sent"), 3u);
  EXPECT_EQ(Counter("snapshot.reply.received"), 3u);
  EXPECT_EQ(Counter("snapshot.rounds.unbalanced"), 0u);
  EXPECT_EQ(r.rounds, 1u);  // the dispatch round; no retry rounds
}

TEST_F(SnapshotReadTest, SingleSiteFastPathIsLocal) {
  system::ClusterOptions opts;
  opts.num_sites = 1;
  Build(opts);
  TxnResult r = Snapshot(SiteId(0), 100'000);
  ASSERT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r.read_values.at(item_), 400);
  EXPECT_EQ(Counter("snapshot.req.sent"), 0u);
}

TEST_F(SnapshotReadTest, SnapshotAfterUpdatesSeesCommittedTotal) {
  Build({});
  TxnSpec d;
  d.ops = {TxnOp::Decrement(item_, 37)};
  ASSERT_EQ(SubmitAndRun(SiteId(1), d).outcome, TxnOutcome::kCommitted);
  TxnSpec i;
  i.ops = {TxnOp::Increment(item_, 12)};
  ASSERT_EQ(SubmitAndRun(SiteId(3), i).outcome, TxnOutcome::kCommitted);
  // No Conc1 read gate to trip (a snapshot takes no locks and stamps no
  // fragments), so the first attempt commits — no client retry loop.
  TxnResult r = Snapshot(SiteId(0));
  ASSERT_EQ(r.outcome, TxnOutcome::kCommitted) << r.status.ToString();
  EXPECT_EQ(r.read_values.at(item_), 375);
}

TEST_F(SnapshotReadTest, SnapshotRacingInFlightVmStillExact) {
  // Start a transfer between two non-reader sites, then snapshot while its
  // Vm is in flight. The sender's created-ledger counts the departed value
  // before any receiver accepts it, so the cut never misses moving value —
  // without refusing or delaying the read the way the full drain must.
  system::ClusterOptions opts;
  opts.link.base_delay_us = 10'000;  // slow links: wide race window
  opts.link.jitter_mean_us = 5'000;
  Build(opts);
  ASSERT_TRUE(cluster_->site(SiteId(1)).SendValue(SiteId(3), item_, 40).ok());
  TxnResult r = Snapshot(SiteId(0), 8'000'000);
  ASSERT_EQ(r.outcome, TxnOutcome::kCommitted) << r.status.ToString();
  EXPECT_EQ(r.read_values.at(item_), 400);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(SnapshotReadTest, SnapshotDuringPartitionAbortsCleanly) {
  Build({});
  ASSERT_TRUE(cluster_->Partition({{SiteId(0), SiteId(1)},
                                   {SiteId(2), SiteId(3)}})
                  .ok());
  TxnResult r = Snapshot(SiteId(0));
  EXPECT_EQ(r.outcome, TxnOutcome::kAbortTimeout);
  // Nothing moved and nothing leaked: the snapshot held no value hostage.
  EXPECT_TRUE(cluster_->AuditAll().ok());
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(cluster_->site(SiteId(s)).LocalValue(item_), 100);
  }
}

TEST_F(SnapshotReadTest, RemoteCrashMidSnapshotRecoversAndCommits) {
  system::ClusterOptions opts;
  opts.link.base_delay_us = 10'000;
  opts.site.txn.timeout_us = 5'000'000;  // survive the outage
  Build(opts, 300);
  TxnResult out;
  bool done = false;
  TxnSpec spec;
  spec.ops = {TxnOp::ReadSnapshot(item_)};
  ASSERT_TRUE(cluster_->Submit(SiteId(0), spec, [&](const TxnResult& r) {
                        out = r;
                        done = true;
                      })
                  .ok());
  cluster_->RunFor(5'000);  // requests in flight
  cluster_->CrashSite(SiteId(2));
  cluster_->RunFor(100'000);
  EXPECT_FALSE(done) << "read terminated without site 2's reply";
  cluster_->RecoverSite(SiteId(2));
  cluster_->RunFor(6'000'000);
  ASSERT_TRUE(done);
  // The recovered site rebuilt its ledger from the durable log, so the
  // balance certificate still closes on the exact total.
  ASSERT_EQ(out.outcome, TxnOutcome::kCommitted) << out.status.ToString();
  EXPECT_EQ(out.read_values.at(item_), 300);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(SnapshotReadTest, ReaderCrashMidSnapshotGetsVerdict) {
  system::ClusterOptions opts;
  opts.link.base_delay_us = 10'000;
  Build(opts);
  TxnResult out;
  bool done = false;
  TxnSpec spec;
  spec.ops = {TxnOp::ReadSnapshot(item_)};
  ASSERT_TRUE(cluster_->Submit(SiteId(0), spec, [&](const TxnResult& r) {
                        out = r;
                        done = true;
                      })
                  .ok());
  cluster_->RunFor(5'000);
  cluster_->CrashSite(SiteId(0));
  // Non-blocking: the crash delivers the verdict immediately, and a pure
  // read has no commit record, so that verdict is an abort.
  ASSERT_TRUE(done);
  EXPECT_NE(out.outcome, TxnOutcome::kCommitted);
  cluster_->RecoverSite(SiteId(0));
  cluster_->RunFor(3'000'000);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// Property sweep: snapshot reads interleaved with concurrent updates under
// lossy, duplicating, reordering links. Every committed snapshot must pass
// the windowed consistent-cut check (it serialises at its capture points),
// writes replay exactly, and the final totals must match — the full checker
// plus the snapshot-only oracle.
class SnapshotRaceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotRaceTest, ConcurrentSnapshotsAreConsistentCuts) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("pool", CountDomain::Instance(), 500);
  system::ClusterOptions opts;
  opts.num_sites = 4;
  opts.seed = GetParam();
  opts.link.loss_prob = 0.12;
  opts.link.duplicate_prob = 0.10;
  opts.link.jitter_mean_us = 3'000;  // reordering
  opts.site.txn.timeout_us = 800'000;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  Rng rng(GetParam() * 29 + 3);
  verify::HistoryChecker checker(&catalog);
  int snaps_committed = 0;

  for (int step = 0; step < 60; ++step) {
    SiteId at(static_cast<uint32_t>(rng.NextBounded(4)));
    double roll = rng.NextDouble();
    TxnSpec spec;
    if (roll < 0.3) {
      spec.ops = {TxnOp::ReadSnapshot(item)};
    } else {
      core::Value amount = rng.NextInt(1, 10);
      spec.ops = {rng.NextBool(0.5) ? TxnOp::Decrement(item, amount)
                                    : TxnOp::Increment(item, amount)};
    }
    (void)cluster.Submit(at, spec, [&, spec](const TxnResult& r) {
      if (!r.committed()) return;
      if (!r.read_values.empty()) ++snaps_committed;
      checker.RecordCommitAt(cluster.Now(), r.id, spec, r);
    });
    cluster.RunFor(rng.NextInt(10'000, 120'000));
  }
  cluster.RunFor(8'000'000);

  // Snapshots take no locks and trip no CC gate: under this mix the balance
  // certificate is the only thing between them and commit, so plenty land.
  EXPECT_GT(snaps_committed, 0) << "no snapshot committed under chaos";

  std::map<ItemId, core::Value> final_totals{{item, cluster.TotalOf(item)}};
  Status check = checker.Check(verify::HistoryChecker::Order::kTimestamp,
                               &final_totals);
  EXPECT_TRUE(check.ok()) << check.ToString();
  Status cuts = checker.CheckSnapshotCuts();
  EXPECT_TRUE(cuts.ok()) << cuts.ToString();
  EXPECT_TRUE(cluster.AuditAll().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotRaceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- The oracle must REJECT a torn cut -----------------------------------------
//
// A checker that cannot fail a doctored history proves nothing. Plant a
// snapshot that observed only one leg of an atomic transfer — each item's
// value is individually reachable, so only the JOINT windowed check (whole
// transactions as the unit of visibility) can catch it.

class TornCutTest : public ::testing::Test {
 protected:
  TornCutTest() {
    a_ = catalog_.AddItem("a", CountDomain::Instance(), 100);
    b_ = catalog_.AddItem("b", CountDomain::Instance(), 117);
  }

  // One committed atomic transfer a->b of 10, commit at t=50us.
  void RecordTransfer(verify::HistoryChecker* checker) {
    TxnSpec spec = txn::MakeTransfer(a_, b_, 10);
    TxnResult r;
    r.id = TxnId(Timestamp(10, SiteId(1)).packed());
    r.outcome = TxnOutcome::kCommitted;
    r.latency_us = 10;
    checker->RecordCommitAt(50, r.id, spec, r);
  }

  // One committed two-item snapshot spanning [0, 100]us observing the given
  // values.
  void RecordSnapshot(verify::HistoryChecker* checker, core::Value va,
                      core::Value vb) {
    TxnSpec spec;
    spec.ops = {TxnOp::ReadSnapshot(a_), TxnOp::ReadSnapshot(b_)};
    TxnResult r;
    r.id = TxnId(Timestamp(20, SiteId(0)).packed());
    r.outcome = TxnOutcome::kCommitted;
    r.latency_us = 100;
    r.read_values = {{a_, va}, {b_, vb}};
    checker->RecordCommitAt(100, r.id, spec, r);
  }

  core::Catalog catalog_;
  ItemId a_, b_;
};

TEST_F(TornCutTest, ConsistentCutsAccepted) {
  for (auto [va, vb] : {std::pair<core::Value, core::Value>{100, 117},
                        std::pair<core::Value, core::Value>{90, 127}}) {
    verify::HistoryChecker checker(&catalog_);
    RecordTransfer(&checker);
    RecordSnapshot(&checker, va, vb);
    EXPECT_TRUE(checker.CheckSnapshotCuts().ok()) << va << "/" << vb;
    EXPECT_TRUE(
        checker.Check(verify::HistoryChecker::Order::kTimestamp, nullptr)
            .ok())
        << va << "/" << vb;
  }
}

TEST_F(TornCutTest, TornCutRejectedByBothOracles) {
  // Saw the transfer's debit on a but not its credit on b: torn.
  verify::HistoryChecker checker(&catalog_);
  RecordTransfer(&checker);
  RecordSnapshot(&checker, 90, 117);
  Status cuts = checker.CheckSnapshotCuts();
  ASSERT_FALSE(cuts.ok());
  EXPECT_NE(cuts.ToString().find("jointly unreachable"), std::string::npos)
      << cuts.ToString();
  EXPECT_FALSE(
      checker.Check(verify::HistoryChecker::Order::kTimestamp, nullptr).ok());
  EXPECT_FALSE(
      checker.Check(verify::HistoryChecker::Order::kCommitOrder, nullptr)
          .ok());
}

TEST_F(TornCutTest, MissingReadValueRejected) {
  verify::HistoryChecker checker(&catalog_);
  TxnSpec spec;
  spec.ops = {TxnOp::ReadSnapshot(a_)};
  TxnResult r;
  r.id = TxnId(Timestamp(30, SiteId(0)).packed());
  r.outcome = TxnOutcome::kCommitted;
  r.latency_us = 10;  // read_values left empty
  checker.RecordCommitAt(40, r.id, spec, r);
  Status cuts = checker.CheckSnapshotCuts();
  ASSERT_FALSE(cuts.ok());
  EXPECT_NE(cuts.ToString().find("read value missing"), std::string::npos);
}

}  // namespace
}  // namespace dvp
