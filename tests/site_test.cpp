// Site-level lifecycle tests: bootstrap, crash/recover edges, checkpoint
// timers, durable reads while down, and redistribution APIs on a down site.
#include <gtest/gtest.h>

#include "system/cluster.h"

namespace dvp {
namespace {

using core::CountDomain;
using txn::TxnOp;
using txn::TxnOutcome;
using txn::TxnResult;
using txn::TxnSpec;

class SiteTest : public ::testing::Test {
 protected:
  void Build(site::SiteOptions site_opts = {}) {
    catalog_ = std::make_unique<core::Catalog>();
    item_ = catalog_->AddItem("pool", CountDomain::Instance(), 200);
    system::ClusterOptions opts;
    opts.num_sites = 2;
    opts.seed = 71;
    opts.site = site_opts;
    cluster_ = std::make_unique<system::Cluster>(catalog_.get(), opts);
    cluster_->BootstrapEven();
  }

  std::unique_ptr<core::Catalog> catalog_;
  ItemId item_;
  std::unique_ptr<system::Cluster> cluster_;
};

TEST_F(SiteTest, CrashIsIdempotent) {
  Build();
  cluster_->CrashSite(SiteId(0));
  cluster_->CrashSite(SiteId(0));  // no-op, no crash
  EXPECT_FALSE(cluster_->site(SiteId(0)).IsUp());
  EXPECT_EQ(cluster_->site(SiteId(0)).metrics().Get("site.crashes"), 1u);
}

TEST_F(SiteTest, DurableValueReadableWhileDown) {
  Build();
  TxnSpec spec;
  spec.ops = {TxnOp::Decrement(item_, 25)};
  bool done = false;
  (void)cluster_->Submit(SiteId(0), spec,
                         [&](const TxnResult&) { done = true; });
  cluster_->RunFor(500'000);
  ASSERT_TRUE(done);
  cluster_->CrashSite(SiteId(0));
  EXPECT_EQ(cluster_->site(SiteId(0)).DurableValue(item_), 75);
}

TEST_F(SiteTest, PrefetchAndSendValueOnDownSiteAreSafe) {
  Build();
  cluster_->CrashSite(SiteId(0));
  cluster_->site(SiteId(0)).Prefetch(item_, 10);  // silently ignored
  Status s = cluster_->site(SiteId(0)).SendValue(SiteId(1), item_, 10);
  EXPECT_TRUE(s.IsUnavailable());
  cluster_->RunFor(200'000);
  EXPECT_TRUE(cluster_->AuditAll().ok());
}

TEST_F(SiteTest, PeriodicCheckpointAdvancesWatermark) {
  site::SiteOptions site_opts;
  site_opts.checkpoint_interval_us = 100'000;
  Build(site_opts);
  TxnSpec spec;
  spec.ops = {TxnOp::Increment(item_, 1)};
  for (int i = 0; i < 5; ++i) {
    (void)cluster_->Submit(SiteId(0), spec, nullptr);
    cluster_->RunFor(120'000);
  }
  const wal::StableStorage& storage = cluster_->storage(SiteId(0));
  EXPECT_GT(storage.checkpoint_upto(), 0u);
  EXPECT_GE(cluster_->site(SiteId(0)).metrics().Get("site.checkpoints"), 4u);
  // The image reflects the committed state.
  EXPECT_EQ(storage.image().at(item_).value,
            cluster_->site(SiteId(0)).LocalValue(item_));
}

TEST_F(SiteTest, CheckpointTimerStopsAcrossCrash) {
  site::SiteOptions site_opts;
  site_opts.checkpoint_interval_us = 100'000;
  Build(site_opts);
  cluster_->RunFor(250'000);
  uint64_t before = cluster_->site(SiteId(0)).metrics().Get("site.checkpoints");
  cluster_->CrashSite(SiteId(0));
  cluster_->RunFor(500'000);
  // No checkpoints while down.
  EXPECT_EQ(cluster_->site(SiteId(0)).metrics().Get("site.checkpoints"),
            before);
  cluster_->RecoverSite(SiteId(0));
  cluster_->RunFor(500'000);
  EXPECT_GT(cluster_->site(SiteId(0)).metrics().Get("site.checkpoints"),
            before);
}

TEST_F(SiteTest, IncarnationGrowsWithEachRecovery) {
  Build();
  EXPECT_EQ(cluster_->storage(SiteId(0)).incarnation(), 0u);
  for (uint64_t round = 1; round <= 3; ++round) {
    cluster_->CrashSite(SiteId(0));
    cluster_->RecoverSite(SiteId(0));
    cluster_->RunFor(500'000);
    EXPECT_EQ(cluster_->storage(SiteId(0)).incarnation(), round);
  }
}

TEST_F(SiteTest, RecoveryLogsARecoveryRecord) {
  Build();
  cluster_->CrashSite(SiteId(1));
  cluster_->RecoverSite(SiteId(1));
  cluster_->RunFor(500'000);
  bool found = false;
  ASSERT_TRUE(cluster_->storage(SiteId(1))
                  .Scan(0,
                        [&](Lsn, const wal::LogRecord& rec) {
                          if (std::holds_alternative<wal::RecoveryRec>(rec)) {
                            found = true;
                          }
                        })
                  .ok());
  EXPECT_TRUE(found);
}

// A deliberately larger configuration: 16 sites, multiple items, mixed load
// with a rolling crash/recover wave and two partition episodes — the "does
// it hold together at scale" integration test.
TEST(ScaleTest, SixteenSitesRollingFailures) {
  core::Catalog catalog;
  std::vector<ItemId> items;
  for (int i = 0; i < 6; ++i) {
    items.push_back(catalog.AddItem("item" + std::to_string(i),
                                    CountDomain::Instance(), 16'000));
  }
  system::ClusterOptions opts;
  opts.num_sites = 16;
  opts.seed = 2026;
  opts.link.loss_prob = 0.05;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();

  // Rolling crash wave: site k down during [k, k+2) seconds.
  for (uint32_t k = 0; k < 8; ++k) {
    cluster.kernel().ScheduleAt(SimTime(k + 1) * 1'000'000, [&cluster, k]() {
      cluster.CrashSite(SiteId(k));
    });
    cluster.kernel().ScheduleAt(SimTime(k + 3) * 1'000'000, [&cluster, k]() {
      cluster.RecoverSite(SiteId(k));
    });
  }
  // Two partition episodes.
  cluster.kernel().ScheduleAt(4'000'000, [&cluster]() {
    std::vector<SiteId> a, b;
    for (uint32_t s = 0; s < 16; ++s) (s % 2 ? a : b).push_back(SiteId(s));
    (void)cluster.Partition({a, b});
  });
  cluster.kernel().ScheduleAt(6'000'000, [&cluster]() { cluster.Heal(); });
  cluster.kernel().ScheduleAt(8'000'000, [&cluster]() {
    std::vector<SiteId> a, b;
    for (uint32_t s = 0; s < 16; ++s) (s < 4 ? a : b).push_back(SiteId(s));
    (void)cluster.Partition({a, b});
  });
  cluster.kernel().ScheduleAt(10'000'000, [&cluster]() { cluster.Heal(); });

  // Load.
  Rng rng(404);
  uint64_t submitted = 0, decided = 0, committed = 0;
  for (int i = 0; i < 2'000; ++i) {
    SiteId at(static_cast<uint32_t>(rng.NextBounded(16)));
    if (!cluster.site(at).IsUp()) continue;
    TxnSpec spec;
    ItemId item = items[rng.NextBounded(items.size())];
    core::Value amount = rng.NextInt(1, 6);
    spec.ops = {rng.NextBool(0.5) ? TxnOp::Decrement(item, amount)
                                  : TxnOp::Increment(item, amount)};
    ++submitted;
    (void)cluster.Submit(at, spec, [&](const TxnResult& r) {
      ++decided;
      if (r.committed()) ++committed;
    });
    cluster.RunFor(rng.NextInt(2'000, 10'000));
  }
  // Recover any stragglers and drain.
  for (uint32_t s = 0; s < 16; ++s) {
    if (!cluster.site(SiteId(s)).IsUp()) cluster.RecoverSite(SiteId(s));
  }
  cluster.Heal();
  cluster.RunFor(5'000'000);

  EXPECT_EQ(decided, submitted) << "a transaction never decided at scale";
  EXPECT_GT(double(committed) / double(submitted), 0.9);
  EXPECT_TRUE(cluster.AuditAll().ok());
  for (ItemId item : items) {
    EXPECT_EQ(cluster.Audit(item).in_flight, 0)
        << "Vm failed to drain for item " << item.value();
  }
}

}  // namespace
}  // namespace dvp
