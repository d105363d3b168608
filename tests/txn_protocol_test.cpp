// Transaction-protocol tests beyond the basic airline scenarios: spec
// validation, concurrency-control outcomes, Conc2 mode, compute windows,
// gauge-domain behaviour, fan-out options.
#include <gtest/gtest.h>

#include "proto/wire.h"
#include "system/cluster.h"

namespace dvp {
namespace {

using core::CountDomain;
using core::GaugeDomain;
using txn::TxnOp;
using txn::TxnOutcome;
using txn::TxnResult;
using txn::TxnSpec;

class TxnProtocolTest : public ::testing::Test {
 protected:
  void Build(system::ClusterOptions opts, core::Value total = 400) {
    catalog_ = std::make_unique<core::Catalog>();
    item_ = catalog_->AddItem("pool", CountDomain::Instance(), total);
    gauge_ = catalog_->AddItem("net", GaugeDomain::Instance(), 0);
    cluster_ = std::make_unique<system::Cluster>(catalog_.get(), opts);
    cluster_->BootstrapEven();
  }

  TxnResult SubmitAndRun(SiteId at, const TxnSpec& spec,
                         SimTime run_us = 2'000'000) {
    TxnResult out;
    bool done = false;
    auto submitted = cluster_->Submit(at, spec, [&](const TxnResult& r) {
      out = r;
      done = true;
    });
    EXPECT_TRUE(submitted.ok());
    cluster_->RunFor(run_us);
    EXPECT_TRUE(done);
    return out;
  }

  std::unique_ptr<core::Catalog> catalog_;
  ItemId item_;
  ItemId gauge_;
  std::unique_ptr<system::Cluster> cluster_;
};

TEST_F(TxnProtocolTest, EmptySpecIsInvalid) {
  Build({});
  TxnSpec spec;
  EXPECT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kAbortInvalid);
}

TEST_F(TxnProtocolTest, NonPositiveAmountIsInvalid) {
  Build({});
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 0)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kAbortInvalid);
  spec.ops = {TxnOp::Increment(item_, -3)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kAbortInvalid);
}

TEST_F(TxnProtocolTest, UnknownItemIsInvalid) {
  Build({});
  TxnSpec spec;
  spec.ops = {TxnOp::Increment(ItemId(42), 1)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kAbortInvalid);
}

TEST_F(TxnProtocolTest, DuplicateItemIsInvalid) {
  Build({});
  TxnSpec spec;
  spec.ops = {TxnOp::Increment(item_, 1), TxnOp::Decrement(item_, 1)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kAbortInvalid);
}

TEST_F(TxnProtocolTest, SubmitToDownSiteFailsFast) {
  Build({});
  cluster_->CrashSite(SiteId(0));
  TxnSpec spec;
  spec.ops = {TxnOp::Increment(item_, 1)};
  auto submitted = cluster_->Submit(SiteId(0), spec, nullptr);
  EXPECT_FALSE(submitted.ok());
  EXPECT_TRUE(submitted.status().IsUnavailable());
}

TEST_F(TxnProtocolTest, LockConflictAbortsImmediately) {
  system::ClusterOptions opts;
  opts.site.txn.local_compute_us = 50'000;  // first txn holds the lock 50ms
  Build(opts);
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 1)};
  bool first_done = false, second_done = false;
  TxnResult second;
  ASSERT_TRUE(cluster_
                  ->Submit(SiteId(0), spec,
                           [&](const TxnResult&) { first_done = true; })
                  .ok());
  ASSERT_TRUE(cluster_
                  ->Submit(SiteId(0), spec,
                           [&](const TxnResult& r) {
                             second = r;
                             second_done = true;
                           })
                  .ok());
  // The conflicting submission decides instantly, before any time passes.
  EXPECT_TRUE(second_done);
  EXPECT_EQ(second.outcome, TxnOutcome::kAbortLockConflict);
  EXPECT_EQ(second.latency_us, 0);
  cluster_->RunFor(200'000);
  EXPECT_TRUE(first_done);
}

TEST_F(TxnProtocolTest, ComputeWindowDelaysCommitButCommits) {
  system::ClusterOptions opts;
  opts.site.txn.local_compute_us = 30'000;
  Build(opts);
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 1)};
  TxnResult r = SubmitAndRun(SiteId(0), spec);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_GE(r.latency_us, 30'000);
}

TEST_F(TxnProtocolTest, GaugeDecrementNeverNeedsRedistribution) {
  Build({});
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(gauge_, 1000)};
  TxnResult r = SubmitAndRun(SiteId(0), spec);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r.rounds, 0u);
  EXPECT_EQ(cluster_->site(SiteId(0)).LocalValue(gauge_), -1000);
  EXPECT_EQ(cluster_->TotalOf(gauge_), -1000);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(TxnProtocolTest, MixedDomainTransaction) {
  Build({});
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 5), TxnOp::Increment(gauge_, 5)};
  TxnResult r = SubmitAndRun(SiteId(1), spec);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster_->TotalOf(item_), 395);
  EXPECT_EQ(cluster_->TotalOf(gauge_), 5);
}

TEST_F(TxnProtocolTest, MultiItemShortfallGathersBoth) {
  Build({});
  // Drain site 0 on the count item.
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);
  // Needs 60 more than the (now empty) local fragment.
  TxnSpec both;
  both.ops = {TxnOp::Decrement(item_, 60), TxnOp::Increment(gauge_, 1)};
  TxnResult r = SubmitAndRun(SiteId(0), both);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(cluster_->TotalOf(item_), 240);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// An emergent invariant worth pinning down: a *local* Begin can never fail
// the Conc1 gate, because every stamp on a local fragment was either issued
// by the local clock or accompanied by an Observe of the stamping timestamp.
// Conc1's conservatism therefore bites only at the remote-honor gate, where
// a requester with a lagging clock is refused — and the CcNack carries the
// refuser's clock so a retry succeeds (§7's "bump-up").
TEST_F(TxnProtocolTest, Conc1StaleRequesterRefusedThenNackEnablesRetry) {
  Build({});
  // Artificially age every remote fragment's lock timestamp far beyond
  // site 0's clock (as heavy traffic among sites 1..3 would).
  for (uint32_t s = 1; s < 4; ++s) {
    cluster_->site(SiteId(s)).store()->SetTs(item_,
                                             Timestamp(1000, SiteId(s)));
  }
  // Drain site 0 locally, then demand more than its fragment: the gather
  // requests carry a tiny timestamp and every remote site refuses.
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 50)};
  TxnResult r = SubmitAndRun(SiteId(0), need);
  EXPECT_EQ(r.outcome, TxnOutcome::kAbortTimeout);
  EXPECT_GE(cluster_->AggregateCounters().Get("req.ignored.cc"), 3u);
  // The refusals carried clock NACKs; site 0's clock has caught up and the
  // retry's timestamp dominates the stamps.
  EXPECT_GE(cluster_->AggregateCounters().Get("req.nack_received"), 1u);
  // gather_retry_us == 0 means a single round: the NACKs bump the clock but
  // never re-ask.
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_EQ(cluster_->AggregateCounters().Get("txn.gather.nack_reask"), 0u);
  TxnResult retry = SubmitAndRun(SiteId(0), need);
  EXPECT_EQ(retry.outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// With paced gather rounds on, the same refusal no longer costs the client a
// retry, nor the transaction a timer interval: the first CcNack re-asks the
// shortfall at once under a timestamp that beats the refusing stamp, and the
// SAME transaction commits one round trip later.
TEST_F(TxnProtocolTest, Conc1NackReasksTheGatherWithoutWaitingForTheTimer) {
  system::ClusterOptions opts;
  opts.site.txn.gather_retry_us = 100'000;
  Build(opts);
  for (uint32_t s = 1; s < 4; ++s) {
    cluster_->site(SiteId(s)).store()->SetTs(item_,
                                             Timestamp(1000, SiteId(s)));
  }
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 50)};
  TxnResult r = SubmitAndRun(SiteId(0), need);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_LT(r.latency_us, opts.site.txn.gather_retry_us);
  obs::MetricsRegistry counters = cluster_->AggregateCounters();
  EXPECT_EQ(counters.Get("req.ignored.cc"), 3u);
  EXPECT_EQ(counters.Get("req.nack_received"), 3u);
  // Three donors refused round 1; only the first NACK re-asked.
  EXPECT_EQ(counters.Get("txn.gather.nack_reask"), 1u);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// A lost NACK costs exactly the timer round it used to: the gather-retry
// timer re-asks (still under the lagging clock, so it is refused again), and
// that round's NACK — now delivered — re-asks at once.
TEST_F(TxnProtocolTest, DroppedConc1NackFallsBackToTheTimerRound) {
  system::ClusterOptions opts;
  opts.site.txn.gather_retry_us = 100'000;
  Build(opts);
  for (uint32_t s = 1; s < 4; ++s) {
    cluster_->site(SiteId(s)).store()->SetTs(item_,
                                             Timestamp(1000, SiteId(s)));
  }
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);
  // Every path back to site 0 drops packets while round 1 is refused.
  net::LinkParams lossy = opts.link;
  lossy.loss_prob = 1.0;
  for (uint32_t s = 1; s < 4; ++s) {
    cluster_->network().SetLinkParams(SiteId(s), SiteId(0), lossy);
  }
  TxnResult r;
  bool done = false;
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 50)};
  ASSERT_TRUE(cluster_
                  ->Submit(SiteId(0), need,
                           [&](const TxnResult& res) {
                             r = res;
                             done = true;
                           })
                  .ok());
  cluster_->RunFor(50'000);
  EXPECT_FALSE(done);
  EXPECT_EQ(cluster_->AggregateCounters().Get("req.ignored.cc"), 3u);
  EXPECT_EQ(cluster_->AggregateCounters().Get("req.nack_received"), 0u);
  for (uint32_t s = 1; s < 4; ++s) {
    cluster_->network().SetLinkParams(SiteId(s), SiteId(0), opts.link);
  }
  cluster_->RunFor(2'000'000);
  ASSERT_TRUE(done);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  // Round 2 came from the timer, round 3 from round 2's NACK.
  EXPECT_EQ(r.rounds, 3u);
  EXPECT_GE(r.latency_us, opts.site.txn.gather_retry_us);
  EXPECT_LT(r.latency_us, 2 * opts.site.txn.gather_retry_us);
  EXPECT_EQ(cluster_->AggregateCounters().Get("txn.gather.nack_reask"), 1u);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// Only a NACK naming the round a still-short gather is in re-asks: one for
// another round, another transaction, or a gather whose commit is already
// scheduled sends no request.
TEST_F(TxnProtocolTest, Conc1NackForAnotherRoundOrAScheduledCommitSendsNothing) {
  system::ClusterOptions opts;
  opts.site.txn.gather_retry_us = 100'000;
  opts.site.txn.local_compute_us = 30'000;
  Build(opts);
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);
  txn::TxnManager* txns = cluster_->site(SiteId(0)).txns();
  auto nack_for = [](TxnId txn, uint32_t round) {
    proto::CcNackMsg m;
    m.from = SiteId(1);
    m.ts_packed = Timestamp(5, SiteId(1)).packed();
    m.txn = txn;
    m.round = round;
    return m;
  };
  auto req_msgs = [&]() {
    return cluster_->AggregateCounters().Get("req.msgs");
  };

  // A gather stuck in round 1: the partition swallows every reply.
  ASSERT_TRUE(cluster_->Partition({{SiteId(0)}, {SiteId(1), SiteId(2),
                                                 SiteId(3)}})
                  .ok());
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 50)};
  TxnResult r;
  bool done = false;
  StatusOr<TxnId> id = cluster_->Submit(SiteId(0), need,
                                        [&](const TxnResult& res) {
                                          r = res;
                                          done = true;
                                        });
  ASSERT_TRUE(id.ok());
  cluster_->RunFor(10'000);
  uint64_t sent = req_msgs();
  ASSERT_EQ(sent, 3u);
  txns->OnCcNack(nack_for(*id, 0));
  txns->OnCcNack(nack_for(*id, 2));
  txns->OnCcNack(nack_for(TxnId(id->value() + 1), 1));
  EXPECT_EQ(req_msgs(), sent);
  // The current round re-asks once; a second NACK for it is now stale.
  txns->OnCcNack(nack_for(*id, 1));
  EXPECT_EQ(req_msgs(), sent + 3);
  txns->OnCcNack(nack_for(*id, 1));
  EXPECT_EQ(req_msgs(), sent + 3);

  // Round 2 was lost to the partition. Heal; the timer's round 3 is granted
  // and the commit is scheduled into the 30 ms compute window, where no
  // NACK may re-ask.
  cluster_->Heal();
  while (!done && cluster_->site(SiteId(0)).LocalValue(item_) < 50) {
    cluster_->RunFor(1'000);
  }
  ASSERT_FALSE(done);
  sent = req_msgs();
  uint64_t reasks =
      cluster_->AggregateCounters().Get("txn.gather.nack_reask");
  for (uint32_t round = 0; round < 5; ++round) {
    txns->OnCcNack(nack_for(*id, round));
  }
  EXPECT_EQ(req_msgs(), sent);
  EXPECT_EQ(cluster_->AggregateCounters().Get("txn.gather.nack_reask"),
            reasks);
  cluster_->RunFor(100'000);
  ASSERT_TRUE(done);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// ---- Loss recovery: the round-trip-scaled first re-ask --------------------
//
// Two sites on synchronous 1 ms links, so every gather round trip is exactly
// 2 ms. A warm-up gather gives site 0's estimator its one sample (SRTT 2 ms,
// RTTVAR 1 ms: round 1 re-asks after 6 ms); then one direction drops
// everything while a gather's round 1 crosses it.
class GatherLossTest : public TxnProtocolTest {
 protected:
  static constexpr SimTime kPacedUs = 100'000;

  void BuildTwoSites(SimTime gather_retry_us, bool warm) {
    system::ClusterOptions opts;
    opts.num_sites = 2;
    opts.link = net::LinkParams::Synchronous(1'000);
    opts.site.txn.gather_retry_us = gather_retry_us;
    link_ = opts.link;
    Build(opts);  // 200 units per site
    TxnSpec drain;
    drain.ops = {TxnOp::Decrement(item_, 200)};
    ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);
    if (warm) {
      TxnResult w = SubmitAndRun(SiteId(0), Need());
      ASSERT_EQ(w.outcome, TxnOutcome::kCommitted);
      ASSERT_EQ(w.rounds, 1u);
      ASSERT_EQ(w.latency_us, 2'000);
    }
  }

  TxnSpec Need() const {
    TxnSpec need;
    need.ops = {TxnOp::Decrement(item_, 10)};
    return need;
  }

  /// Submits Need() at site 0 with the `from -> to` link dropping every
  /// packet for the first `cut_us`, then runs until decided.
  TxnResult RunWithCut(SiteId from, SiteId to, SimTime cut_us) {
    net::LinkParams lossy = link_;
    lossy.loss_prob = 1.0;
    cluster_->network().SetLinkParams(from, to, lossy);
    TxnResult r;
    bool done = false;
    EXPECT_TRUE(cluster_
                    ->Submit(SiteId(0), Need(),
                             [&](const TxnResult& res) {
                               r = res;
                               done = true;
                             })
                    .ok());
    cluster_->RunFor(cut_us);
    cluster_->network().SetLinkParams(from, to, link_);
    cluster_->RunFor(2'000'000);
    EXPECT_TRUE(done);
    return r;
  }

  uint64_t Count(const char* name) {
    return cluster_->AggregateCounters().Get(name);
  }

  net::LinkParams link_;
};

// A lost round-1 request: the gather re-asks one estimated round trip after
// it (6 ms), not at the 100 ms paced interval.
TEST_F(GatherLossTest, DroppedRequestIsReaskedAtTheRoundTripDeadline) {
  BuildTwoSites(kPacedUs, /*warm=*/true);
  TxnResult r = RunWithCut(SiteId(0), SiteId(1), 500);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_EQ(r.latency_us, 6'000 + 2'000);
  EXPECT_LT(r.latency_us, kPacedUs);
  EXPECT_EQ(Count("txn.gather.loss_reask"), 1u);
  EXPECT_EQ(Count("txn.gather.nack_reask"), 0u);
  EXPECT_EQ(Count("req.resent_outstanding"), 0u);  // nothing was granted
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// A lost grant: the re-ask reaches the donor while its Vm is still
// outstanding, so the donor retransmits that Vm instead of shipping again.
// The value moves once, under one VmId.
TEST_F(GatherLossTest, DroppedGrantIsRecoveredByResendingTheSameVm) {
  BuildTwoSites(kPacedUs, /*warm=*/true);
  core::Value donor_before = cluster_->site(SiteId(1)).LocalValue(item_);
  uint64_t created_before = Count("vm.created");
  uint64_t accepted_before = Count("vm.accepted");
  // The grant leaves site 1 at t+1 ms; the cut swallows it.
  TxnResult r = RunWithCut(SiteId(1), SiteId(0), 1'500);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r.rounds, 2u);
  // Re-ask at 6 ms, resend at 7 ms, lands at 8 ms.
  EXPECT_EQ(r.latency_us, 8'000);
  EXPECT_EQ(Count("txn.gather.loss_reask"), 1u);
  EXPECT_EQ(Count("req.resent_outstanding"), 1u);
  EXPECT_EQ(Count("vm.created") - created_before, 1u);  // one VmId
  EXPECT_EQ(Count("vm.accepted") - accepted_before, 1u);
  EXPECT_EQ(Count("vm.duplicate"), 0u);
  // The donor's fragment was debited once, by the ask's 10 units.
  EXPECT_EQ(cluster_->site(SiteId(1)).LocalValue(item_), donor_before - 10);
  EXPECT_EQ(cluster_->site(SiteId(0)).LocalValue(item_), 0);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// Without a sample the estimator has nothing to scale by: the re-ask waits
// for the paced timer, as before.
TEST_F(GatherLossTest, WithoutASampleTheReaskComesFromTheTimer) {
  BuildTwoSites(kPacedUs, /*warm=*/false);
  TxnResult r = RunWithCut(SiteId(0), SiteId(1), 500);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r.rounds, 2u);
  EXPECT_EQ(r.latency_us, kPacedUs + 2'000);
  EXPECT_EQ(Count("txn.gather.loss_reask"), 0u);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

// gather_retry_us == 0 keeps the gather to one round even with a sample: the
// lost request costs the transaction its timeout.
TEST_F(GatherLossTest, ZeroGatherRetryStaysSingleRound) {
  BuildTwoSites(0, /*warm=*/true);
  TxnResult r = RunWithCut(SiteId(0), SiteId(1), 500);
  EXPECT_EQ(r.outcome, TxnOutcome::kAbortTimeout);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_EQ(Count("txn.gather.loss_reask"), 0u);
  EXPECT_EQ(Count("req.msgs"), 2u);  // warm-up + the one lost ask
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(TxnProtocolTest, Conc2CommitsWhereConc1WouldReject) {
  system::ClusterOptions opts;
  opts.UseConc2();
  Build(opts);
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 1)};
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(SubmitAndRun(SiteId(1), spec).outcome, TxnOutcome::kCommitted);
  }
  TxnSpec big;
  big.ops = {TxnOp::Decrement(item_, 99)};
  ASSERT_EQ(SubmitAndRun(SiteId(1), big).outcome, TxnOutcome::kCommitted);
  TxnSpec local;
  local.ops = {TxnOp::Increment(item_, 1)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), local).outcome, TxnOutcome::kCommitted);
}

TEST_F(TxnProtocolTest, Conc2RedistributionViaBroadcast) {
  system::ClusterOptions opts;
  opts.UseConc2();
  Build(opts);
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(2), drain).outcome, TxnOutcome::kCommitted);
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 50)};
  TxnResult r = SubmitAndRun(SiteId(2), need);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(TxnProtocolTest, FanoutOneStillGathersFromSingleTarget) {
  system::ClusterOptions opts;
  opts.site.txn.request_fanout = 1;
  Build(opts);
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 50)};
  // Fan-out 1 asks exactly one site for 50; that site holds 100: success.
  TxnResult r = SubmitAndRun(SiteId(0), need);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_LE(cluster_->AggregateCounters().Get("req.msgs"), 2u);
}

TEST_F(TxnProtocolTest, DivideShortfallSpreadsTheAsk) {
  system::ClusterOptions opts;
  opts.site.txn.divide_shortfall = true;
  Build(opts);
  TxnSpec drain;
  drain.ops = {TxnOp::Decrement(item_, 100)};
  ASSERT_EQ(SubmitAndRun(SiteId(0), drain).outcome, TxnOutcome::kCommitted);
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 60)};
  TxnResult r = SubmitAndRun(SiteId(0), need);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  // Each of 3 targets was asked for ceil(60/3) = 20; little over-shipping.
  EXPECT_LE(cluster_->site(SiteId(0)).LocalValue(item_), 10);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(TxnProtocolTest, TimeoutLatencyEqualsConfiguredBound) {
  system::ClusterOptions opts;
  opts.site.txn.timeout_us = 123'000;
  Build(opts);
  ASSERT_TRUE(cluster_->Partition({{SiteId(0)}, {SiteId(1), SiteId(2),
                                                 SiteId(3)}})
                  .ok());
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 101)};  // local 100 insufficient
  TxnResult r = SubmitAndRun(SiteId(0), need);
  EXPECT_EQ(r.outcome, TxnOutcome::kAbortTimeout);
  EXPECT_EQ(r.latency_us, 123'000);
}

TEST_F(TxnProtocolTest, SingleSiteClusterWorks) {
  system::ClusterOptions opts;
  opts.num_sites = 1;
  Build(opts);
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 10)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), spec).outcome, TxnOutcome::kCommitted);
  // Reads are trivially local.
  TxnSpec read;
  read.ops = {TxnOp::ReadFull(item_)};
  TxnResult r = SubmitAndRun(SiteId(0), read);
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(r.read_values.at(item_), 390);
  // Insufficient value has nobody to ask: bounded timeout abort.
  TxnSpec huge;
  huge.ops = {TxnOp::Decrement(item_, 1000)};
  EXPECT_EQ(SubmitAndRun(SiteId(0), huge).outcome, TxnOutcome::kAbortTimeout);
}

TEST_F(TxnProtocolTest, AbortedGatherLeavesValueRedistributedNotLost) {
  Build({});
  ASSERT_TRUE(cluster_->Partition({{SiteId(0), SiteId(1)},
                                   {SiteId(2), SiteId(3)}})
                  .ok());
  TxnSpec need;
  need.ops = {TxnOp::Decrement(item_, 180)};  // group holds 200 total
  TxnResult r = SubmitAndRun(SiteId(0), need);
  // Site 1's 100 flowed to site 0 even though the txn aborted (§6: aborted
  // transactions are Rds transactions).
  EXPECT_EQ(r.outcome, TxnOutcome::kCommitted);  // 100+100 = 200 >= 180!
  // Redo with an amount beyond the group's reach:
  TxnSpec over;
  over.ops = {TxnOp::Decrement(item_, 100)};  // only 20 left in the group
  TxnResult r2 = SubmitAndRun(SiteId(0), over);
  EXPECT_EQ(r2.outcome, TxnOutcome::kAbortTimeout);
  EXPECT_EQ(cluster_->TotalOf(item_), 220);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

}  // namespace
}  // namespace dvp
