// Tests for the workload generator, the system adapters, and the table
// printer used by the experiment harnesses.
#include <gtest/gtest.h>

#include <sstream>

#include "system/cluster.h"
#include "workload/adapter.h"
#include "workload/generator.h"
#include "workload/table.h"

namespace dvp::workload {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() {
    items_.push_back(catalog_.AddItem("a", core::CountDomain::Instance(),
                                      100'000));
    items_.push_back(catalog_.AddItem("b", core::CountDomain::Instance(),
                                      100'000));
    system::ClusterOptions opts;
    opts.num_sites = 4;
    opts.seed = 3;
    cluster_ = std::make_unique<system::Cluster>(&catalog_, opts);
    cluster_->BootstrapEven();
    adapter_ = std::make_unique<DvpAdapter>(cluster_.get());
  }

  core::Catalog catalog_;
  std::vector<ItemId> items_;
  std::unique_ptr<system::Cluster> cluster_;
  std::unique_ptr<DvpAdapter> adapter_;
};

TEST_F(WorkloadTest, MixProportionsAreRespected) {
  WorkloadOptions w;
  w.p_decrement = 0.6;
  w.p_increment = 0.3;
  w.p_read = 0.1;
  w.seed = 5;
  WorkloadDriver driver(adapter_.get(), items_, w);
  Rng rng(5);
  int dec = 0, inc = 0, read = 0, snapshot = 0;
  for (int i = 0; i < 20'000; ++i) {
    txn::TxnSpec spec = driver.MakeSpec(rng);
    switch (spec.ops.front().kind) {
      case txn::TxnOp::Kind::kDecrement:
        ++dec;
        break;
      case txn::TxnOp::Kind::kIncrement:
        ++inc;
        break;
      case txn::TxnOp::Kind::kReadFull:
        ++read;
        break;
      case txn::TxnOp::Kind::kReadSnapshot:
        ++snapshot;
        break;
    }
  }
  EXPECT_NEAR(dec / 20'000.0, 0.6, 0.02);
  EXPECT_NEAR(inc / 20'000.0, 0.3, 0.02);
  EXPECT_NEAR(read / 20'000.0, 0.1, 0.02);
  EXPECT_EQ(snapshot, 0) << "p_snapshot defaults to 0";
}

TEST_F(WorkloadTest, AmountsStayInRange) {
  WorkloadOptions w;
  w.amount_min = 2;
  w.amount_max = 9;
  w.p_read = 0;
  WorkloadDriver driver(adapter_.get(), items_, w);
  Rng rng(7);
  for (int i = 0; i < 5'000; ++i) {
    txn::TxnSpec spec = driver.MakeSpec(rng);
    EXPECT_GE(spec.ops.front().amount, 2);
    EXPECT_LE(spec.ops.front().amount, 9);
  }
}

TEST_F(WorkloadTest, SiteSkewConcentratesDecrementsOnly) {
  WorkloadOptions w;
  w.p_decrement = 0.5;
  w.p_increment = 0.5;
  w.p_read = 0;
  w.site_zipf_theta = 1.5;
  w.increment_site_zipf_theta = 0.0;
  WorkloadDriver driver(adapter_.get(), items_, w);
  Rng rng(11);
  int dec_site0 = 0, decs = 0, inc_site0 = 0, incs = 0;
  for (int i = 0; i < 20'000; ++i) {
    txn::TxnSpec spec = driver.MakeSpec(rng);
    SiteId at = driver.PickSite(rng, spec);
    if (spec.ops.front().kind == txn::TxnOp::Kind::kDecrement) {
      ++decs;
      dec_site0 += at == SiteId(0);
    } else {
      ++incs;
      inc_site0 += at == SiteId(0);
    }
  }
  EXPECT_GT(double(dec_site0) / decs, 0.5);   // heavily skewed
  EXPECT_NEAR(double(inc_site0) / incs, 0.25, 0.03);  // uniform
}

TEST_F(WorkloadTest, RunProducesDecisionsAndThroughput) {
  WorkloadOptions w;
  w.arrivals_per_sec = 200;
  w.p_read = 0;
  w.seed = 13;
  WorkloadDriver driver(adapter_.get(), items_, w);
  WorkloadResults r = driver.Run(5'000'000, 1'000'000);
  EXPECT_NEAR(double(r.submitted), 1000.0, 150.0);  // Poisson(200/s * 5s)
  EXPECT_EQ(r.decided(), r.submitted);
  EXPECT_GT(r.commit_rate(), 0.95);
  EXPECT_GT(r.throughput_per_sec(5'000'000), 150.0);
}

TEST_F(WorkloadTest, HooksSeeEveryCommitAndDecision) {
  WorkloadOptions w;
  w.arrivals_per_sec = 100;
  w.p_read = 0;
  w.seed = 17;
  WorkloadDriver driver(adapter_.get(), items_, w);
  uint64_t commits = 0, decisions = 0;
  driver.set_on_commit([&](TxnId, const txn::TxnSpec&, const txn::TxnResult&) {
    ++commits;
  });
  driver.set_on_decision(
      [&](SiteId, const txn::TxnSpec&, const txn::TxnResult&) {
        ++decisions;
      });
  WorkloadResults r = driver.Run(3'000'000);
  EXPECT_EQ(commits, r.committed());
  EXPECT_EQ(decisions, r.decided());
}

TEST_F(WorkloadTest, DeterministicAcrossRuns) {
  auto run_once = [this]() {
    system::ClusterOptions opts;
    opts.num_sites = 4;
    opts.seed = 3;
    system::Cluster cluster(&catalog_, opts);
    cluster.BootstrapEven();
    DvpAdapter adapter(&cluster);
    WorkloadOptions w;
    w.arrivals_per_sec = 150;
    w.seed = 23;
    WorkloadDriver driver(&adapter, items_, w);
    WorkloadResults r = driver.Run(3'000'000);
    return std::make_pair(r.submitted, r.committed());
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a, b) << "same seeds must reproduce the identical run";
}

TEST(TablePrinterTest, AlignsColumnsAndFormatsCells) {
  TablePrinter table({"name", "value"});
  table.AddRow("x", 1.234567);
  table.AddRow(std::string("longer-name"), uint64_t{42});
  std::ostringstream os;
  table.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| name        | value |"), std::string::npos) << out;
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  // Four lines: header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

}  // namespace
}  // namespace dvp::workload
