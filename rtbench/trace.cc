#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <utility>

namespace rtbench {
namespace {

constexpr int kMaxSlots = 512;

/// One thread's tallies. Trivially constructible so the whole array is
/// zero-initialized before any allocation can reach the hook.
struct alignas(64) Slot {
  uint64_t allocs;
  uint64_t bytes;
  uint64_t layer_allocs[kLayers];
  int64_t layer_self_ns[kLayers];
  std::vector<float>* timer_late_us;
};

Slot g_slots[kMaxSlots];
std::atomic<int> g_next_slot{0};
std::atomic<bool> g_tracing{false};

Span* g_spans = nullptr;
size_t g_span_capacity = 0;
std::atomic<size_t> g_span_next{0};

thread_local int t_slot = -1;
thread_local Layer t_layer = Layer::kNone;
thread_local SpanScope* t_open = nullptr;

/// This thread's slot, or null once every slot is taken (threads beyond
/// kMaxSlots go uncounted; a run creates a handful).
Slot* MySlot() {
  if (t_slot < 0) t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
  return t_slot < kMaxSlots ? &g_slots[t_slot] : nullptr;
}

void CountAlloc(size_t n) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  Slot* s = MySlot();
  if (s == nullptr) return;
  ++s->allocs;
  s->bytes += n;
  ++s->layer_allocs[static_cast<int>(t_layer)];
}

void* Allocate(size_t n) {
  CountAlloc(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(size_t n, std::align_val_t al) {
  CountAlloc(n);
  size_t align = static_cast<size_t>(al);
  size_t rounded = (std::max<size_t>(n, 1) + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanScope::SpanScope(Layer layer, uint64_t id, uint8_t site)
    : layer_(layer), site_(site), id_(id), start_ns_(NowNs()),
      parent_(t_open) {
  Slot* s = MySlot();
  allocs_at_start_ = s ? s->allocs : 0;
  t_open = this;
  t_layer = layer;
}

SpanScope::~SpanScope() {
  int64_t dur = NowNs() - start_ns_;
  int64_t self = dur - child_ns_;
  t_open = parent_;
  t_layer = parent_ ? parent_->layer_ : Layer::kNone;
  if (parent_) parent_->child_ns_ += dur;
  Slot* s = MySlot();
  if (s == nullptr) return;
  int l = static_cast<int>(layer_);
  s->layer_self_ns[l] += self;
  size_t i = g_span_next.fetch_add(1, std::memory_order_relaxed);
  if (i < g_span_capacity) {
    Span& out = g_spans[i];
    out.id = id_;
    out.start_ns = start_ns_;
    out.dur_ns = static_cast<uint32_t>(std::min<int64_t>(dur, UINT32_MAX));
    out.self_ns = static_cast<uint32_t>(std::clamp<int64_t>(self, 0, UINT32_MAX));
    out.allocs = static_cast<uint32_t>(s->allocs - allocs_at_start_);
    out.layer = layer_;
    out.site = site_;
  }
}

void ResetTracing(size_t span_capacity) {
  g_tracing.store(false, std::memory_order_release);
  for (Slot& s : g_slots) {
    std::vector<float>* late = s.timer_late_us;
    s = Slot{};
    s.timer_late_us = late;
    if (late) late->clear();
  }
  std::free(g_spans);
  g_spans = static_cast<Span*>(std::calloc(span_capacity, sizeof(Span)));
  g_span_capacity = g_spans ? span_capacity : 0;
  g_span_next.store(0, std::memory_order_relaxed);
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_release); }

bool TracingEnabled() { return g_tracing.load(std::memory_order_acquire); }

TraceTotals CollectTotals() {
  TraceTotals t;
  int used = std::min(g_next_slot.load(), kMaxSlots);
  for (int i = 0; i < used; ++i) {
    const Slot& s = g_slots[i];
    t.allocs += s.allocs;
    t.alloc_bytes += s.bytes;
    for (int l = 0; l < kLayers; ++l) {
      t.layer_allocs[l] += s.layer_allocs[l];
      t.layer_self_ns[l] += s.layer_self_ns[l];
    }
    if (s.timer_late_us) {
      t.timer_late_us.insert(t.timer_late_us.end(), s.timer_late_us->begin(),
                             s.timer_late_us->end());
    }
  }
  return t;
}

bool WriteSpans(const std::string& path) {
  size_t n = std::min(g_span_next.load(), g_span_capacity);
  std::vector<Span> spans(g_spans, g_spans + n);
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.id != b.id ? a.id < b.id : a.start_ns < b.start_ns;
  });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  static const char* const kNames[] = {"none", "submit", "send", "deliver",
                                       "timer"};
  std::fprintf(f, "id\tlayer\tsite\tstart_ns\tdur_ns\tself_ns\tallocs\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%s\t%u\t%lld\t%u\t%u\t%u\n",
                 static_cast<unsigned long long>(s.id),
                 kNames[static_cast<int>(s.layer)], unsigned{s.site},
                 static_cast<long long>(s.start_ns), s.dur_ns, s.self_ns,
                 s.allocs);
  }
  return std::fclose(f) == 0;
}

dvp::runtime::TimerHandle TimedRuntime::ScheduleAt(dvp::SimTime when,
                                                   std::function<void()> fn) {
  dvp::SimTime due = std::max(when, loop_->Now());
  return loop_->ScheduleAt(when, [this, due, fn = std::move(fn)] {
    if (!TracingEnabled()) {
      fn();
      return;
    }
    if (Slot* s = MySlot()) {
      if (s->timer_late_us == nullptr) {
        s->timer_late_us = new std::vector<float>();
        s->timer_late_us->reserve(1 << 16);
      }
      s->timer_late_us->push_back(static_cast<float>(loop_->Now() - due));
    }
    SpanScope span(Layer::kTimer, 0, site_);
    fn();
  });
}

void TimedConduit::RegisterEndpoint(dvp::SiteId site,
                                    dvp::net::DeliveryFn deliver,
                                    std::function<bool()> is_up) {
  auto tag = static_cast<uint8_t>(site.value());
  inner_->RegisterEndpoint(
      site,
      [tag, deliver = std::move(deliver)](const dvp::net::Packet& p) {
        SpanScope span(Layer::kDeliver, p.trace_id, tag);
        deliver(p);
      },
      std::move(is_up));
}

void TimedConduit::Send(dvp::net::Packet packet) {
  SpanScope span(Layer::kSend, packet.trace_id,
                 static_cast<uint8_t>(packet.src.value()));
  inner_->Send(std::move(packet));
}

void TimedConduit::Broadcast(dvp::SiteId src, dvp::net::EnvelopePtr payload) {
  SpanScope span(Layer::kSend, payload ? payload->trace_id : 0,
                 static_cast<uint8_t>(src.value()));
  inner_->Broadcast(src, std::move(payload));
}

}  // namespace rtbench

// ---- Allocation hook ---------------------------------------------------------
// Replaces the global allocation functions for this binary only. Counting is
// a relaxed flag test until SetTracing(true).

void* operator new(size_t n) { return rtbench::Allocate(n); }
void* operator new[](size_t n) { return rtbench::Allocate(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  try {
    return rtbench::Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  try {
    return rtbench::Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(size_t n, std::align_val_t al) {
  return rtbench::AllocateAligned(n, al);
}
void* operator new[](size_t n, std::align_val_t al) {
  return rtbench::AllocateAligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
