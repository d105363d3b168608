// Transport observability under scripted faults: the retransmit, dup-drop,
// pure-ack, piggyback-ack and window-drop counters must tell the true story
// of what the window protocol did — they are what the chaos runner's digests
// and the E3/E10 experiments report — and keep telling it across a site's
// crash and recovery.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "net/link.h"
#include "net/message.h"
#include "net/network.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "sim/kernel.h"
#include "system/cluster.h"

namespace dvp {
namespace {

struct TestPayload : net::Envelope {
  explicit TestPayload(uint64_t n) : n(n) {}
  std::string_view Tag() const override { return "TestPayload"; }
  uint64_t n;
};

/// Two transports on a two-site network with controllable links.
struct Pair {
  sim::Kernel kernel;
  net::Network network;
  obs::MetricsRegistry c0, c1;
  net::Transport t0, t1;
  uint64_t delivered_at_1 = 0;

  explicit Pair(net::LinkParams link,
                net::Transport::Options opts = {})
      : network(&kernel, 2, link, Rng(7)),
        t0(&kernel, &network, SiteId(0), &c0, opts),
        t1(&kernel, &network, SiteId(1), &c1, opts) {
    network.RegisterEndpoint(
        SiteId(0), [this](const net::Packet& p) { t0.OnPacket(p); },
        []() { return true; });
    network.RegisterEndpoint(
        SiteId(1), [this](const net::Packet& p) { t1.OnPacket(p); },
        []() { return true; });
    t0.set_deliver_fn([this](SiteId, net::EnvelopePtr) {
      ++delivered_at_1;  // t0's deliveries are unused; reuse for simplicity
      return true;
    });
    t1.set_deliver_fn([this](SiteId, net::EnvelopePtr) {
      ++delivered_at_1;
      return true;
    });
  }
};

TEST(TransportCounters, RetransmitUnderScriptedLoss) {
  // Loss-free at first, then the 0→1 direction drops everything for a
  // while: every pending payload must be retried and counted.
  net::LinkParams clean = net::LinkParams::Synchronous(1'000);
  Pair p(clean);

  net::LinkParams dead = clean;
  dead.loss_prob = 1.0;
  p.network.SetLinkParams(SiteId(0), SiteId(1), dead);

  for (uint64_t i = 0; i < 4; ++i) {
    p.t0.SendReliable(SiteId(1), 100 + i,
                      std::make_shared<TestPayload>(i));
  }
  p.kernel.Run(400'000);
  EXPECT_EQ(p.delivered_at_1, 0u);
  uint64_t retx_during_loss = p.c0.Get("transport.retransmit");
  EXPECT_GT(retx_during_loss, 0u) << "silence must trigger retransmission";
  EXPECT_EQ(p.t0.outstanding(), 4u);

  // Heal the link: everything drains, each payload exactly once.
  p.network.SetLinkParams(SiteId(0), SiteId(1), clean);
  p.kernel.Run(4'000'000);
  EXPECT_EQ(p.delivered_at_1, 4u);
  EXPECT_EQ(p.t0.outstanding(), 0u);
  EXPECT_EQ(p.c0.Get("transport.retransmit"), p.t0.retransmissions());
}

TEST(TransportCounters, DupDropUnderDuplicatingLink) {
  net::LinkParams dupy = net::LinkParams::Synchronous(1'000);
  dupy.duplicate_prob = 0.8;
  Pair p(dupy);

  for (uint64_t i = 0; i < 10; ++i) {
    p.t0.SendReliable(SiteId(1), 200 + i,
                      std::make_shared<TestPayload>(i));
  }
  p.kernel.Run(5'000'000);
  EXPECT_EQ(p.delivered_at_1, 10u) << "dedup must not lose originals";
  EXPECT_GT(p.c1.Get("transport.dup_drop"), 0u)
      << "an 80% duplicating link must produce dropped duplicates";
  EXPECT_EQ(p.c1.Get("transport.dup_drop"), p.t1.dup_drops());
}

TEST(TransportCounters, PureAckCoversQuietReverseChannel) {
  // One-directional traffic: site 1 never sends payloads, so its cumulative
  // acks can't piggyback — the delayed pure ack must fire instead, and the
  // sender must then stop retransmitting.
  net::LinkParams clean = net::LinkParams::Synchronous(1'000);
  Pair p(clean);

  p.t0.SendReliable(SiteId(1), 300, std::make_shared<TestPayload>(1));
  p.kernel.Run(2'000'000);
  EXPECT_EQ(p.delivered_at_1, 1u);
  EXPECT_EQ(p.t0.outstanding(), 0u) << "the ack must complete the send";
  EXPECT_GT(p.c1.Get("transport.ack_pure"), 0u);
  EXPECT_EQ(p.c0.Get("transport.retransmit"), 0u)
      << "a healthy link with working acks needs no retransmission";
}

TEST(TransportCounters, PiggybackAckRidesReverseTraffic) {
  net::LinkParams clean = net::LinkParams::Synchronous(1'000);
  Pair p(clean);

  // Forward payloads arrive at ~1 ms; the reverse payloads go out at 5 ms —
  // inside the 10 ms delayed-ack window — so the owed acks must ride them.
  for (uint64_t i = 0; i < 6; ++i) {
    p.t0.SendReliable(SiteId(1), 400 + i, std::make_shared<TestPayload>(i));
  }
  p.kernel.ScheduleAt(5'000, [&p]() {
    for (uint64_t i = 0; i < 6; ++i) {
      p.t1.SendReliable(SiteId(0), 500 + i, std::make_shared<TestPayload>(i));
    }
  });
  p.kernel.Run(2'000'000);
  EXPECT_EQ(p.delivered_at_1, 12u);
  EXPECT_GT(p.c0.Get("transport.ack_piggyback") +
                p.c1.Get("transport.ack_piggyback"),
            0u);
}

TEST(TransportCounters, WindowDropBoundsOutOfOrderState) {
  // A tiny receive window plus a one-way block: release the first packet
  // late so everything beyond the window lands out of order and is dropped
  // (then recovered by retransmission).
  net::LinkParams clean = net::LinkParams::Synchronous(1'000);
  net::Transport::Options opts;
  opts.recv_window = 2;
  opts.rto_us = 30'000;
  Pair p(clean, opts);

  // First payload delayed enormously on 0→1; the rest go through fast.
  net::LinkParams slow = clean;
  slow.base_delay_us = 200'000;
  p.network.SetLinkParams(SiteId(0), SiteId(1), slow);
  p.t0.SendReliable(SiteId(1), 600, std::make_shared<TestPayload>(0));
  p.network.SetLinkParams(SiteId(0), SiteId(1), clean);
  for (uint64_t i = 1; i < 8; ++i) {
    p.t0.SendReliable(SiteId(1), 600 + i, std::make_shared<TestPayload>(i));
  }
  p.kernel.Run(5'000'000);
  EXPECT_EQ(p.delivered_at_1, 8u) << "window drops must heal via retry";
  EXPECT_EQ(p.t0.outstanding(), 0u);
  EXPECT_GT(p.c1.Get("transport.window_drop"), 0u)
      << "seqs far beyond the watermark must be refused";
}

// A site's Crash destroys its Transport and recovery builds a new one, but
// the accessors read the site's registry handles: the count is per site and
// carries across the crash instead of restarting at 0.
TEST(TransportCounters, RetransmitCountSurvivesCrashRecover) {
  core::Catalog catalog;
  ItemId item = catalog.AddItem("pool", core::CountDomain::Instance(), 100);
  system::ClusterOptions opts;
  opts.num_sites = 2;
  opts.seed = 5;
  system::Cluster cluster(&catalog, opts);
  cluster.BootstrapEven();
  site::Site& site0 = cluster.site(SiteId(0));

  // Every frame 0→1 is lost, so the Vm transfer is retransmitted until the
  // crash, and again (re-driven from the log) after recovery.
  net::LinkParams dead = opts.link;
  dead.loss_prob = 1.0;
  cluster.network().SetLinkParams(SiteId(0), SiteId(1), dead);
  ASSERT_TRUE(site0.SendValue(SiteId(1), item, 10).ok());
  cluster.RunFor(2'000'000);
  uint64_t before_crash = site0.transport()->retransmissions();
  ASSERT_GT(before_crash, 0u);

  cluster.CrashSite(SiteId(0));
  cluster.RunFor(100'000);
  cluster.RecoverSite(SiteId(0));
  cluster.RunFor(2'000'000);
  EXPECT_GT(site0.transport()->retransmissions(), before_crash);
  EXPECT_EQ(site0.transport()->retransmissions(),
            site0.metrics().Get("transport.retransmit"));
}

}  // namespace
}  // namespace dvp
