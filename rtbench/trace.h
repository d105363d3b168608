// Bench-local tracing for the traced run: spans at the layer boundaries the
// benchmark can reach from outside the program (Site::Submit, the conduit's
// Send/Broadcast and DeliveryFn, every runtime timer), a heap-allocation
// counter tagged by the innermost open span, and decorators that interpose
// those spans on the runtime seam (runtime::Runtime, net::Conduit).
//
// Everything is off until SetTracing(true); the untraced run composes the
// sites directly over the EventLoop and the UdpConduit and never opens a
// span, so its only cost is one relaxed flag test per allocation.
//
// Thread model: every thread records into its own slot (spans, timer
// lateness samples, self-time and allocation tallies). Slots are read only
// after every loop thread has been joined.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/conduit.h"
#include "runtime/real.h"
#include "runtime/runtime.h"

namespace rtbench {

/// The boundaries a span can open at. kNone tags work outside any span.
enum class Layer : uint8_t { kNone, kSubmit, kSend, kDeliver, kTimer, kCount };

inline constexpr int kLayers = static_cast<int>(Layer::kCount);

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

/// One closed span. `id` is the TxnId for submit spans and the packet's
/// causal trace id (the TxnId it serves, 0 for pure acks) for send and
/// deliver spans; timer spans carry 0.
struct Span {
  uint64_t id = 0;
  int64_t start_ns = 0;
  uint32_t dur_ns = 0;
  uint32_t self_ns = 0;
  uint32_t allocs = 0;  ///< heap allocations while it was the innermost span
  Layer layer = Layer::kNone;
  uint8_t site = 0;
};

/// Opens a span for its lifetime. The parent's child time grows by this
/// span's duration, so each layer's self time is its duration minus the
/// spans nested in it.
class SpanScope {
 public:
  SpanScope(Layer layer, uint64_t id, uint8_t site);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// For spans whose id is known only after the call they wrap returns.
  void set_id(uint64_t id) { id_ = id; }

 private:
  Layer layer_;
  uint8_t site_;
  uint64_t id_;
  int64_t start_ns_;
  int64_t child_ns_ = 0;
  uint64_t allocs_at_start_;
  SpanScope* parent_;
};

/// Clears every tally and keeps the first `span_capacity` spans for the
/// write-out. Recording stays off until SetTracing(true).
void ResetTracing(size_t span_capacity);
/// Turns recording (allocation counting, spans, timer lateness) on or off.
void SetTracing(bool on);
bool TracingEnabled();

/// Aggregates over every thread's slot; call after the loops are joined.
struct TraceTotals {
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t layer_allocs[kLayers] = {};
  int64_t layer_self_ns[kLayers] = {};
  std::vector<double> timer_late_us;  ///< one sample per fired timer
};
TraceTotals CollectTotals();

/// Writes the kept spans as tab-separated rows sorted by (id, start):
/// id, layer, site, start_ns, dur_ns, self_ns, allocs.
bool WriteSpans(const std::string& path);

/// Runtime decorator for one site: forwards to the EventLoop, wrapping every
/// timer callback in a timer span and recording how late it fired.
class TimedRuntime final : public dvp::runtime::Runtime {
 public:
  TimedRuntime(dvp::runtime::EventLoop* loop, uint8_t site)
      : loop_(loop), site_(site) {}

  dvp::SimTime Now() const override { return loop_->Now(); }
  dvp::runtime::TimerHandle ScheduleAt(dvp::SimTime when,
                                       std::function<void()> fn) override;

 private:
  dvp::runtime::EventLoop* loop_;
  uint8_t site_;
};

/// Conduit decorator over the UdpConduit: times Send/Broadcast, wraps each
/// registered DeliveryFn in a deliver span, forwards WantsFrameCache.
class TimedConduit final : public dvp::net::Conduit {
 public:
  explicit TimedConduit(dvp::net::Conduit* inner) : inner_(inner) {}

  void RegisterEndpoint(dvp::SiteId site, dvp::net::DeliveryFn deliver,
                        std::function<bool()> is_up) override;
  void Send(dvp::net::Packet packet) override;
  void Broadcast(dvp::SiteId src, dvp::net::EnvelopePtr payload) override;
  uint32_t num_sites() const override { return inner_->num_sites(); }
  bool WantsFrameCache() const override { return inner_->WantsFrameCache(); }

 private:
  dvp::net::Conduit* inner_;
};

}  // namespace rtbench
