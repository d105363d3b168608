// The simulated network: routes packets between registered endpoints over
// per-pair Link fault models, subject to the PartitionOracle. Delivery is an
// event on the simulation kernel; connectivity is (re)checked at delivery
// time, so a split that happens while a packet is in flight destroys it —
// the pessimistic fault model of §2.2.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "net/conduit.h"
#include "net/link.h"
#include "net/message.h"
#include "net/partition.h"
#include "sim/kernel.h"

namespace dvp::net {

/// Statistics the network gathers for the experiment harness.
struct NetworkStats {
  uint64_t packets_sent = 0;
  uint64_t packets_delivered = 0;
  uint64_t packets_lost_link = 0;       ///< dropped by the link fault model
  uint64_t packets_lost_partition = 0;  ///< dropped by disconnection
  uint64_t packets_lost_down = 0;       ///< destination site was down
  uint64_t packets_duplicated = 0;
  /// Modeled wire bytes (WireBytes) of packets offered by senders. Link
  /// duplicates are charged to bytes_delivered only, mirroring how
  /// packets_sent excludes packets_duplicated.
  uint64_t bytes_sent = 0;
  uint64_t bytes_delivered = 0;  ///< bytes that reached a live endpoint
};

class Network final : public Conduit {
 public:
  /// All links start with `default_link`; individual pairs can be overridden
  /// via SetLinkParams.
  Network(sim::Kernel* kernel, uint32_t num_sites, LinkParams default_link,
          Rng rng);

  /// Registers the delivery callback for a site. `is_up` gates delivery so a
  /// crashed site silently loses incoming packets.
  void RegisterEndpoint(SiteId site, DeliveryFn deliver,
                        std::function<bool()> is_up) override;

  /// Sends a packet. Never fails from the caller's perspective: loss is
  /// silent, exactly as the paper's model demands (no undeliverable-message
  /// notifications).
  void Send(Packet packet) override;

  /// Broadcast helper used by Conc2: delivers copies of the payload to every
  /// other site with identical, loss-free timing (the atomic ordered
  /// broadcast assumed in §6.2). Requires synchronous link params.
  void Broadcast(SiteId src, EnvelopePtr payload) override;

  /// Overrides the fault model of the directed link src→dst.
  void SetLinkParams(SiteId src, SiteId dst, LinkParams params);
  /// Overrides every link at once.
  void SetAllLinkParams(LinkParams params);

  PartitionOracle& partition() { return partition_; }
  const PartitionOracle& partition() const { return partition_; }

  const NetworkStats& stats() const { return stats_; }
  uint32_t num_sites() const override { return num_sites_; }
  sim::Kernel* kernel() { return kernel_; }

 private:
  struct Endpoint {
    DeliveryFn deliver;
    std::function<bool()> is_up;
  };

  Link& LinkFor(SiteId src, SiteId dst);
  /// Takes the packet by value and moves it into the delivery event — one
  /// Packet (with its hint/rider vectors) alive per scheduled delivery, no
  /// extra copy per hop. `wire_bytes` is the sender-computed WireBytes,
  /// passed in so the figure is costed once per Send, not per delivery.
  void ScheduleDelivery(Packet packet, SimTime delay, uint64_t wire_bytes);

  sim::Kernel* kernel_;
  uint32_t num_sites_;
  PartitionOracle partition_;
  LinkParams default_link_;
  Rng rng_;
  std::vector<std::unique_ptr<Link>> links_;  // dense (src * n + dst)
  std::vector<Endpoint> endpoints_;
  NetworkStats stats_;
};

}  // namespace dvp::net
