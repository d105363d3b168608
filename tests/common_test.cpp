// Unit tests for src/common: Status/StatusOr, strong ids, Lamport
// timestamps, histograms and counters.
#include <gtest/gtest.h>

#include "common/histogram.h"
#include "common/status.h"
#include "common/types.h"

namespace dvp {
namespace {

// ---- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
  EXPECT_EQ(Status::Timeout("x").code(), StatusCode::kTimeout);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Conflict("x").code(), StatusCode::kConflict);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Aborted("why").message(), "why");
}

TEST(StatusTest, PredicatesMatchCodes) {
  EXPECT_TRUE(Status::Aborted("").IsAborted());
  EXPECT_TRUE(Status::Timeout("").IsTimeout());
  EXPECT_TRUE(Status::Conflict("").IsConflict());
  EXPECT_TRUE(Status::NotFound("").IsNotFound());
  EXPECT_TRUE(Status::Unavailable("").IsUnavailable());
  EXPECT_FALSE(Status::OK().IsAborted());
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::Timeout("late").ToString(), "Timeout: late");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Aborted("a"), Status::Aborted("a"));
  EXPECT_FALSE(Status::Aborted("a") == Status::Aborted("b"));
  EXPECT_FALSE(Status::Aborted("a") == Status::Timeout("a"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::Internal("boom");
  Status b = a;  // shares state
  EXPECT_EQ(b.message(), "boom");
  EXPECT_EQ(a, b);
}

// ---- StatusOr ---------------------------------------------------------------

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string("payload"));
  std::string out = std::move(v).value();
  EXPECT_EQ(out, "payload");
}

namespace {
Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}
Status UseMacro(int x) {
  DVP_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}
StatusOr<int> Doubled(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return 2 * x;
}
Status UseAssign(int x, int* out) {
  DVP_ASSIGN_OR_RETURN(*out, Doubled(x));
  return Status::OK();
}
}  // namespace

TEST(StatusOrTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UseMacro(1).ok());
  EXPECT_EQ(UseMacro(-1).code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssign(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_FALSE(UseAssign(-1, &out).ok());
}

// ---- Strong ids -------------------------------------------------------------

TEST(StrongIdTest, DefaultIsInvalid) {
  SiteId s;
  EXPECT_FALSE(s.valid());
  EXPECT_EQ(s, SiteId::Invalid());
  EXPECT_EQ(s.ToString(), "<invalid>");
}

TEST(StrongIdTest, ValueRoundTrips) {
  ItemId i(7);
  EXPECT_TRUE(i.valid());
  EXPECT_EQ(i.value(), 7u);
  EXPECT_EQ(i.ToString(), "7");
}

TEST(StrongIdTest, Ordering) {
  EXPECT_LT(TxnId(1), TxnId(2));
  EXPECT_EQ(TxnId(3), TxnId(3));
  EXPECT_NE(TxnId(3), TxnId(4));
}

TEST(StrongIdTest, Hashable) {
  std::unordered_map<ItemId, int> m;
  m[ItemId(1)] = 10;
  m[ItemId(2)] = 20;
  EXPECT_EQ(m.at(ItemId(1)), 10);
  EXPECT_EQ(m.at(ItemId(2)), 20);
}

// ---- Timestamp / LamportClock -------------------------------------------------

TEST(TimestampTest, PacksCounterAndSite) {
  Timestamp ts(123, SiteId(5));
  EXPECT_EQ(ts.counter(), 123u);
  EXPECT_EQ(ts.site(), SiteId(5));
  EXPECT_EQ(Timestamp::FromPacked(ts.packed()), ts);
}

TEST(TimestampTest, OrderIsCounterThenSite) {
  EXPECT_LT(Timestamp(1, SiteId(9)), Timestamp(2, SiteId(0)));
  EXPECT_LT(Timestamp(2, SiteId(0)), Timestamp(2, SiteId(1)));
  EXPECT_EQ(Timestamp::Zero(), Timestamp(0, SiteId(0)));
}

TEST(TimestampTest, UniqueAcrossSitesAtSameCounter) {
  EXPECT_NE(Timestamp(7, SiteId(1)), Timestamp(7, SiteId(2)));
}

TEST(LamportClockTest, NextIsMonotoneAndStampsSite) {
  LamportClock clock(SiteId(3));
  Timestamp a = clock.Next();
  Timestamp b = clock.Next();
  EXPECT_LT(a, b);
  EXPECT_EQ(a.site(), SiteId(3));
}

TEST(LamportClockTest, ObserveBumpsPastRemote) {
  LamportClock clock(SiteId(0));
  clock.Observe(Timestamp(100, SiteId(1)));
  EXPECT_GT(clock.Next(), Timestamp(100, SiteId(1)));
}

TEST(LamportClockTest, ObserveOlderIsNoOp) {
  LamportClock clock(SiteId(0));
  clock.Next();
  clock.Next();
  Timestamp before = clock.Peek();
  clock.Observe(Timestamp(1, SiteId(1)));
  EXPECT_EQ(clock.Peek(), before);
}

TEST(LamportClockTest, ResetThenObserveRepairs) {
  LamportClock clock(SiteId(0));
  for (int i = 0; i < 50; ++i) clock.Next();
  clock.Reset(10);  // stale restore after a crash
  EXPECT_EQ(clock.Peek().counter(), 10u);
  clock.Observe(Timestamp(49, SiteId(2)));
  EXPECT_GE(clock.Next().counter(), 50u);
}

// ---- Histogram ----------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.Add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.Median(), 3.0);
}

TEST(HistogramTest, PercentileInterpolates) {
  Histogram h;
  h.Add(0.0);
  h.Add(10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 10.0);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(1.0);
  b.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(HistogramTest, StdDevOfConstantIsZero) {
  Histogram h;
  h.Add(4.0);
  h.Add(4.0);
  h.Add(4.0);
  EXPECT_DOUBLE_EQ(h.StdDev(), 0.0);
}

TEST(HistogramTest, AddAfterPercentileStaysCorrect) {
  Histogram h;
  h.Add(5.0);
  EXPECT_DOUBLE_EQ(h.Median(), 5.0);
  h.Add(1.0);  // must re-sort lazily
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Median(), 3.0);
}

}  // namespace
}  // namespace dvp
