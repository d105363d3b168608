// Tests for the Virtual Message layer: exactly-once value transfer under
// loss, duplication, crashes; outbox/accepted-set reconstruction; the §5
// full-read gate on outstanding Vm.
#include <gtest/gtest.h>

#include "system/cluster.h"
#include "vm/vm_manager.h"

namespace dvp {
namespace {

using core::CountDomain;

TEST(VmIdTest, PackUnpackRoundTrip) {
  VmId id = vm::MakeVmId(SiteId(5), 123456);
  EXPECT_EQ(vm::VmIdSite(id), SiteId(5));
  EXPECT_EQ(vm::VmIdCounter(id), 123456u);
  EXPECT_NE(vm::MakeVmId(SiteId(1), 7), vm::MakeVmId(SiteId(2), 7));
}

class VmFixture : public ::testing::Test {
 protected:
  VmFixture() { Build(net::LinkParams{}); }

  void Build(net::LinkParams link) {
    catalog_ = std::make_unique<core::Catalog>();
    item_ = catalog_->AddItem("pool", CountDomain::Instance(), 100);
    system::ClusterOptions opts;
    opts.num_sites = 2;
    opts.seed = 77;
    opts.link = link;
    cluster_ = std::make_unique<system::Cluster>(catalog_.get(), opts);
    cluster_->BootstrapEven();
  }

  std::unique_ptr<core::Catalog> catalog_;
  ItemId item_;
  std::unique_ptr<system::Cluster> cluster_;
};

TEST_F(VmFixture, SendValueMovesValueExactlyOnce) {
  ASSERT_TRUE(cluster_->site(SiteId(0)).SendValue(SiteId(1), item_, 20).ok());
  // The instant the Vm is created, the sender's fragment is debited.
  EXPECT_EQ(cluster_->site(SiteId(0)).LocalValue(item_), 30);
  auto audit = cluster_->Audit(item_);
  EXPECT_EQ(audit.in_flight, 20);
  EXPECT_EQ(audit.total(), 100);

  cluster_->RunFor(1'000'000);
  EXPECT_EQ(cluster_->site(SiteId(1)).LocalValue(item_), 70);
  audit = cluster_->Audit(item_);
  EXPECT_EQ(audit.in_flight, 0);
  EXPECT_EQ(audit.live_vms, 0u);
  EXPECT_EQ(audit.total(), 100);
}

TEST_F(VmFixture, SendValueValidatesArguments) {
  auto& site = cluster_->site(SiteId(0));
  EXPECT_EQ(site.SendValue(SiteId(1), item_, 0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(site.SendValue(SiteId(1), item_, -5).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(site.SendValue(SiteId(1), item_, 51).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(site.SendValue(SiteId(1), ItemId(99), 5).code(),
            StatusCode::kNotFound);
}

TEST_F(VmFixture, SurvivesHeavyLossAndDuplication) {
  net::LinkParams nasty;
  nasty.loss_prob = 0.7;
  nasty.duplicate_prob = 0.3;
  Build(nasty);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster_->site(SiteId(0)).SendValue(SiteId(1), item_, 2).ok());
  }
  cluster_->RunFor(60'000'000);  // many RTOs
  EXPECT_EQ(cluster_->site(SiteId(1)).LocalValue(item_), 70);
  EXPECT_EQ(cluster_->site(SiteId(0)).LocalValue(item_), 30);
  auto audit = cluster_->Audit(item_);
  EXPECT_EQ(audit.total(), 100);
  EXPECT_EQ(audit.live_vms, 0u);
  // Duplicates were recognised, not double-credited.
  obs::MetricsRegistry counters = cluster_->AggregateCounters();
  EXPECT_EQ(counters.Get("vm.accepted"), 10u);
}

TEST_F(VmFixture, ValueParkedInFlightDuringPartitionThenDelivered) {
  ASSERT_TRUE(cluster_->Partition({{SiteId(0)}, {SiteId(1)}}).ok());
  ASSERT_TRUE(cluster_->site(SiteId(0)).SendValue(SiteId(1), item_, 15).ok());
  cluster_->RunFor(5'000'000);
  // Not delivered, not lost: the Vm holds the value.
  EXPECT_EQ(cluster_->site(SiteId(1)).LocalValue(item_), 50);
  auto audit = cluster_->Audit(item_);
  EXPECT_EQ(audit.in_flight, 15);
  EXPECT_EQ(audit.total(), 100);

  cluster_->Heal();
  cluster_->RunFor(5'000'000);
  EXPECT_EQ(cluster_->site(SiteId(1)).LocalValue(item_), 65);
  EXPECT_EQ(cluster_->Audit(item_).in_flight, 0);
}

TEST_F(VmFixture, SenderCrashDoesNotLoseInFlightValue) {
  ASSERT_TRUE(cluster_->Partition({{SiteId(0)}, {SiteId(1)}}).ok());
  ASSERT_TRUE(cluster_->site(SiteId(0)).SendValue(SiteId(1), item_, 15).ok());
  cluster_->CrashSite(SiteId(0));
  cluster_->Heal();
  cluster_->RunFor(1'000'000);
  // Receiver got nothing (sender's transport died before any delivery).
  EXPECT_EQ(cluster_->site(SiteId(1)).LocalValue(item_), 50);
  EXPECT_EQ(cluster_->Audit(item_).in_flight, 15);

  // Recovery re-arms the outstanding Vm from the log; delivery completes.
  cluster_->RecoverSite(SiteId(0));
  cluster_->RunFor(5'000'000);
  EXPECT_EQ(cluster_->site(SiteId(1)).LocalValue(item_), 65);
  EXPECT_EQ(cluster_->Audit(item_).total(), 100);
}

TEST_F(VmFixture, ReceiverCrashAfterAcceptDeduplicatesRetransmission) {
  // Lossy ack path: force the sender to keep retransmitting, then crash the
  // receiver after it accepted. On recovery, the accepted-set is rebuilt
  // from the log, so the retransmissions are recognised as duplicates.
  net::LinkParams link;
  Build(link);
  ASSERT_TRUE(cluster_->site(SiteId(0)).SendValue(SiteId(1), item_, 10).ok());
  cluster_->RunFor(10'000);  // transfer delivered & accepted; ack in flight
  EXPECT_EQ(cluster_->site(SiteId(1)).LocalValue(item_), 60);

  cluster_->CrashSite(SiteId(1));
  cluster_->RecoverSite(SiteId(1));
  cluster_->RunFor(5'000'000);
  // Value credited exactly once despite crash + any retransmissions.
  EXPECT_EQ(cluster_->site(SiteId(1)).LocalValue(item_), 60);
  EXPECT_EQ(cluster_->Audit(item_).total(), 100);
  EXPECT_EQ(cluster_->Audit(item_).live_vms, 0u);
}

TEST_F(VmFixture, ExactlyOnceUnderLossDupReorderAndCrashRestart) {
  // The full gauntlet: lossy, duplicating, reordering links, with both sites
  // crashing and restarting mid-stream. Conservation and exactly-once must
  // hold unconditionally.
  net::LinkParams nasty;
  nasty.loss_prob = 0.4;
  nasty.duplicate_prob = 0.25;
  nasty.jitter_mean_us = 2'000;  // reorders packets
  Build(nasty);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster_->site(SiteId(0)).SendValue(SiteId(1), item_, 3).ok());
  }
  cluster_->RunFor(2'000'000);
  cluster_->CrashSite(SiteId(1));  // receiver dies mid-stream
  cluster_->RecoverSite(SiteId(1));
  cluster_->RunFor(2'000'000);  // recovery is asynchronous; let it finish
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster_->site(SiteId(1)).SendValue(SiteId(0), item_, 1).ok());
  }
  cluster_->RunFor(2'000'000);
  cluster_->CrashSite(SiteId(0));  // sender dies with acks in flight
  cluster_->RecoverSite(SiteId(0));
  cluster_->RunFor(120'000'000);  // covers recovery + every backoff round

  auto audit = cluster_->Audit(item_);
  EXPECT_EQ(audit.total(), 100);
  EXPECT_EQ(audit.in_flight, 0);
  EXPECT_EQ(audit.live_vms, 0u);
  // 50 - 8*3 + 4*1 = 30 / 50 + 24 - 4 = 70: every Vm credited exactly once.
  EXPECT_EQ(cluster_->site(SiteId(0)).LocalValue(item_), 30);
  EXPECT_EQ(cluster_->site(SiteId(1)).LocalValue(item_), 70);
  // Lifetime accept counts survive the crashes (rebuilt from the log)...
  EXPECT_EQ(cluster_->site(SiteId(1)).vm()->accept_count(), 8u);
  EXPECT_EQ(cluster_->site(SiteId(0)).vm()->accept_count(), 4u);
  // ...while the in-memory dedup set stays a bounded window, not a lifetime
  // archive.
  EXPECT_LE(cluster_->site(SiteId(1)).vm()->accepted_entries(), 8u);
  EXPECT_LE(cluster_->site(SiteId(0)).vm()->accepted_entries(), 4u);
}

TEST_F(VmFixture, AcceptedSetStaysBoundedOnceAcked) {
  // A long ping-pong stream: each transfer's piggybacked closed_below
  // watermark lets the receiver prune counters below it, so the accepted-set
  // footprint is O(outstanding), not O(lifetime).
  const int kRounds = 50;
  for (int i = 0; i < kRounds; ++i) {
    SiteId src = SiteId(uint32_t(i % 2));
    SiteId dst = SiteId(uint32_t(1 - i % 2));
    ASSERT_TRUE(cluster_->site(src).SendValue(dst, item_, 1).ok());
    cluster_->RunFor(1'000'000);
    EXPECT_LE(cluster_->site(dst).vm()->accepted_entries(), 4u);
  }
  EXPECT_EQ(cluster_->site(SiteId(0)).vm()->accept_count() +
                cluster_->site(SiteId(1)).vm()->accept_count(),
            uint64_t(kRounds));
  EXPECT_LE(cluster_->site(SiteId(0)).vm()->accepted_entries_peak(), 8u);
  EXPECT_LE(cluster_->site(SiteId(1)).vm()->accepted_entries_peak(), 8u);
  EXPECT_EQ(cluster_->Audit(item_).total(), 100);
}

TEST_F(VmFixture, OutstandingVmBlocksFullReadHonor) {
  // Site 0 has an unacked Vm for the item (receiver partitioned away), so it
  // must refuse read requests for it (§5's N_M = 0 gate).
  ASSERT_TRUE(cluster_->Partition({{SiteId(0)}, {SiteId(1)}}).ok());
  ASSERT_TRUE(cluster_->site(SiteId(0)).SendValue(SiteId(1), item_, 5).ok());
  EXPECT_TRUE(cluster_->site(SiteId(0)).vm()->HasOutstandingFor(item_));

  cluster_->Heal();
  cluster_->RunFor(5'000'000);
  EXPECT_FALSE(cluster_->site(SiteId(0)).vm()->HasOutstandingFor(item_));
}

TEST_F(VmFixture, PrefetchRedistributesWithoutLocks) {
  cluster_->site(SiteId(0)).Prefetch(item_, 30);
  cluster_->RunFor(2'000'000);
  // Both other... the single other site shipped what was asked.
  EXPECT_GE(cluster_->site(SiteId(0)).LocalValue(item_), 80);
  EXPECT_EQ(cluster_->Audit(item_).total(), 100);
  EXPECT_EQ(cluster_->AggregateCounters().Get("req.prefetch"), 1u);
}

TEST_F(VmFixture, ZeroValuePrefetchIsIgnored) {
  cluster_->site(SiteId(0)).Prefetch(item_, 0);
  cluster_->RunFor(1'000'000);
  EXPECT_EQ(cluster_->AggregateCounters().Get("req.prefetch"), 0u);
}

}  // namespace
}  // namespace dvp
