// rtbench — wall-clock benchmark of the DvP system on runtime::Real.
//
// Three sites, each on its own EventLoop thread over loopback UDP, plus the
// driver on the main thread: 3 loops + 1 driver. The driver feeds one of
// three workloads (see README.md) through public APIs only, checks the
// outputs, and prints every metric by name with its unit, ending with one
// JSON line:
//
//   rtbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans <path>]
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics.
// --trace 1 runs it twice, each for half the time: untraced, then traced
// (sites composed over a timing Runtime and Conduit, heap allocations
// counted). It reports the per-layer metrics of the traced run, the
// tracing overhead, and the untraced run's unbounded end-to-end figures.
//
// Each run is split into rounds; a round builds a fresh cluster (timed as
// setup), warms up, measures, drains until every request has decided,
// stops the loops, and audits durable conservation. A request whose
// transaction aborts on contention is resubmitted until it commits. The exit
// code is nonzero when any correctness check fails.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dvpcore/catalog.h"
#include "dvpcore/domain.h"
#include "net/backoff.h"
#include "runtime/real.h"
#include "site/site.h"
#include "trace.h"
#include "txn/txn.h"
#include "verify/conservation.h"
#include "wal/stable_storage.h"

namespace rtbench {
namespace {

using dvp::ItemId;
using dvp::Rng;
using dvp::SiteId;
using dvp::ZipfGenerator;
using dvp::txn::TxnOp;
using dvp::txn::TxnOutcome;
using dvp::txn::TxnResult;
using dvp::txn::TxnSpec;

constexpr uint32_t kSites = 3;
constexpr double kRoundSeconds = 1.0;    // measured time per fresh cluster
constexpr double kWarmupSeconds = 0.1;   // per round, before measuring
constexpr double kDrainSeconds = 30.0;   // undecided after this = failure
constexpr size_t kSpanCapacity = 1 << 18;

// ---- Workloads ---------------------------------------------------------------

enum class Mix { kHotIncDec, kScarce, kMixed };

struct Workload {
  const char* name;
  Mix mix;
  uint32_t outstanding;  ///< closed loop: transactions kept in flight
  /// Closed loop: writes per measured round. A fixed count, not a fixed
  /// time, so every round leaves the same log behind and peak memory and
  /// set-up (which reuses the freed memory) repeat from run to run.
  uint32_t round_writes;
  double write_rate;     ///< open loop: Poisson arrivals per second
  /// Extra snapshot reads per second: Poisson in the open loop, by count
  /// in the closed loop (see DriveClosed).
  double probe_rate;
  uint32_t items;
  int64_t total;  ///< initial total of every item
  double theta;   ///< Zipf skew over items
  uint64_t drop_one_in;
};

const Workload kWorkloads[] = {
    {"local_hot", Mix::kHotIncDec, 32, 300'000, 0, 50, 4096, 1'000'000'000,
     0.99, 0},
    {"scarce_redistribute", Mix::kScarce, 0, 0, 2000, 50, 64, 6, 0.8, 0},
    {"mixed_snapshot_lossy", Mix::kMixed, 0, 0, 2000, 0, 256, 9, 0.99, 64},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Request {
  TxnSpec spec;
  uint32_t site = 0;
  uint32_t read_item = 0;
  bool read = false;
};

/// Produces the workload's requests from the seed alone, and tracks per
/// item how far the submitted increments and decrements could move its
/// total — the range every snapshot read must fall in.
class Generator {
 public:
  Generator(const Workload& w, const std::vector<ItemId>& items, uint64_t seed)
      : w_(w), items_(items), rng_(Rng(seed).Fork(1)),
        probe_rng_(Rng(seed).Fork(2)), zipf_(w.items, w.theta),
        phase_(w.items, 0), up_(w.items, 0), down_(w.items, 0) {}

  Request Next() {
    switch (w_.mix) {
      case Mix::kHotIncDec: {
        uint32_t k = Zipf();
        return IncDec(k, rng_.NextBool(0.5), 1, Uniform(kSites));
      }
      case Mix::kScarce:
        return Cycle(Zipf(), 1);
      case Mix::kMixed: {
        double r = rng_.NextDouble();
        if (r < 0.10) return NextProbe();
        if (r < 0.30) {
          // The item with more value to spare gives. A transfer that would
          // leave neither item enough for the decrements its write cycle
          // still owes becomes a cycle write instead, so every submitted
          // decrement can be met once the earlier requests have committed.
          uint32_t a = Zipf();
          uint32_t b = Zipf();
          while (b == a) b = Zipf();
          if (Spare(b, 2) > Spare(a, 2)) std::swap(a, b);
          if (Spare(a, 2) < 2) return Cycle(a, 2);
          Request req;
          req.spec = dvp::txn::MakeTransfer(items_[a], items_[b], 2);
          // At the giver's site, where its cycle decrements run too: all
          // gathers of an item then start from one site, and two of them
          // never hold the item's fragments at two sites while each waits
          // for the other's value.
          req.site = a % kSites;
          down_[a] += 2;
          up_[b] += 2;
          return req;
        }
        return Cycle(Zipf(), 2);
      }
    }
    return {};
  }

  /// A snapshot read of a uniformly chosen item at a uniform site.
  Request NextProbe() {
    uint32_t k = static_cast<uint32_t>(probe_rng_.NextBounded(w_.items));
    return Read(k, static_cast<uint32_t>(probe_rng_.NextBounded(kSites)));
  }

  double NextGapUs() { return rng_.NextExponential(1e6 / w_.write_rate); }
  double NextProbeGapUs() {
    return probe_rng_.NextExponential(1e6 / w_.probe_rate);
  }

  int64_t lowest(uint32_t k) const {
    return std::max<int64_t>(0, w_.total - down_[k]);
  }
  int64_t highest(uint32_t k) const { return w_.total + up_[k]; }

 private:
  uint32_t Zipf() { return static_cast<uint32_t>(zipf_.Next(rng_)); }

  /// Item k's total after every submitted request, less the decrements of
  /// `unit` its write cycle still owes before its next increment.
  int64_t Spare(uint32_t k, int64_t unit) const {
    return w_.total + up_[k] - down_[k] - unit * (2 - phase_[k]);
  }
  uint32_t Uniform(uint32_t n) {
    return static_cast<uint32_t>(rng_.NextBounded(n));
  }

  /// Per item: decrement `unit`, decrement `unit`, increment 2 * `unit`,
  /// repeated. Decrements go to site k mod 3 and increments to the next
  /// site, so the decrementing site is always short and must gather from
  /// a peer; two writes in three gather. The item's total stays within
  /// 2 * `unit` of its initial value.
  Request Cycle(uint32_t k, int64_t unit) {
    uint8_t phase = phase_[k];
    phase_[k] = static_cast<uint8_t>((phase + 1) % 3);
    if (phase < 2) return IncDec(k, true, unit, k % kSites);
    return IncDec(k, false, 2 * unit, (k + 1) % kSites);
  }

  Request IncDec(uint32_t k, bool down, int64_t amount, uint32_t site) {
    Request req;
    req.spec.ops.push_back(down ? TxnOp::Decrement(items_[k], amount)
                                : TxnOp::Increment(items_[k], amount));
    req.site = site;
    (down ? down_ : up_)[k] += amount;
    return req;
  }

  Request Read(uint32_t k, uint32_t site) {
    Request req;
    req.spec.ops.push_back(TxnOp::ReadSnapshot(items_[k]));
    req.site = site;
    req.read_item = k;
    req.read = true;
    return req;
  }

  const Workload& w_;
  const std::vector<ItemId>& items_;
  Rng rng_;
  Rng probe_rng_;
  ZipfGenerator zipf_;
  std::vector<uint8_t> phase_;
  std::vector<int64_t> up_;
  std::vector<int64_t> down_;
};

// ---- Cluster -----------------------------------------------------------------

/// The repo's default protocol configuration plus the two E14 settings.
dvp::site::SiteOptions ProtocolOptions() {
  dvp::site::SiteOptions o;
  o.txn.gather_retry_us = 5'000;
  o.placement.hints_per_frame = 2;
  return o;
}

/// Three sites composed directly over runtime::Real. Traced clusters hand
/// the sites timing decorators instead of the loops and the conduit.
struct Cluster {
  Cluster(const Workload& w, const dvp::core::Catalog* catalog, uint64_t seed,
          bool traced) {
    dvp::runtime::Real::Options ro;
    ro.net.drop_one_in = w.drop_one_in;
    real = std::make_unique<dvp::runtime::Real>(kSites, ro);
    dvp::net::Conduit* conduit = &real->conduit();
    if (traced) {
      timed_conduit = std::make_unique<TimedConduit>(conduit);
      conduit = timed_conduit.get();
    }
    Rng rng(seed);
    for (uint32_t s = 0; s < kSites; ++s) {
      dvp::runtime::Runtime* rt = &real->loop(SiteId(s));
      if (traced) {
        timed_rts.push_back(std::make_unique<TimedRuntime>(
            &real->loop(SiteId(s)), static_cast<uint8_t>(s)));
        rt = timed_rts.back().get();
      }
      storages.push_back(std::make_unique<dvp::wal::StableStorage>(SiteId(s)));
      sites.push_back(std::make_unique<dvp::site::Site>(
          SiteId(s), rt, conduit, storages.back().get(), catalog,
          rng.Fork(100 + s), ProtocolOptions()));
    }
    for (uint32_t s = 0; s < kSites; ++s) {
      std::map<ItemId, dvp::core::Value> share;
      for (ItemId item : catalog->AllItems()) {
        int64_t total = catalog->info(item).initial_total;
        share[item] = total / kSites + (s < total % kSites ? 1 : 0);
      }
      sites[s]->Bootstrap(share);
    }
  }
  ~Cluster() { real->Stop(); }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::vector<const dvp::wal::StableStorage*> Storages() const {
    std::vector<const dvp::wal::StableStorage*> out;
    for (const auto& s : storages) out.push_back(s.get());
    return out;
  }

  std::unique_ptr<dvp::runtime::Real> real;
  std::unique_ptr<TimedConduit> timed_conduit;
  std::vector<std::unique_ptr<TimedRuntime>> timed_rts;
  std::vector<std::unique_ptr<dvp::wal::StableStorage>> storages;
  std::vector<std::unique_ptr<dvp::site::Site>> sites;
};

/// Protocol counters summed over sites, read with the loops stopped.
enum Counter {
  kTimers, kRetransmits, kPureAcks, kPiggybackAcks, kCoalescedRiders,
  kDupDrops, kHintsObserved, kReqSent, kReqReceived, kReqIgnoredLocked,
  kSnapshotRounds, kVmCreated, kVmDeferred, kVmDuplicate, kHintHit,
  kHintMiss, kDirected, kFallback, kAppends, kForces, kDatagramsSent,
  kDatagramsReceived, kSyscalls, kFramesEncoded, kFrameCacheHits,
  kWireErrors, kNumCounters
};
using Counters = std::array<uint64_t, kNumCounters>;

Counters ReadCounters(Cluster& c) {
  Counters k{};
  for (uint32_t s = 0; s < kSites; ++s) {
    dvp::site::Site& site = *c.sites[s];
    dvp::obs::MetricsRegistry& m = site.metrics();
    dvp::net::Transport* t = site.transport();
    k[kTimers] += c.real->loop(SiteId(s)).timers_fired();
    k[kRetransmits] += t->retransmissions();
    k[kPureAcks] += t->pure_acks();
    k[kPiggybackAcks] += t->piggyback_acks();
    k[kCoalescedRiders] += t->coalesced_riders();
    k[kDupDrops] += t->dup_drops();
    k[kHintsObserved] += m.Get("placement.hint.observed");
    k[kReqSent] += m.Get("req.sent");
    k[kReqReceived] += m.Get("req.received");
    k[kReqIgnoredLocked] += m.Get("req.ignored.locked");
    k[kSnapshotRounds] +=
        static_cast<uint64_t>(m.histogram("txn.snapshot.rounds")->sum());
    k[kVmCreated] += m.Get("vm.created");
    k[kVmDeferred] += m.Get("vm.deferred_locked");
    k[kVmDuplicate] += m.Get("vm.duplicate");
    k[kHintHit] += m.Get("placement.hint.hit");
    k[kHintMiss] += m.Get("placement.hint.miss");
    k[kDirected] += m.Get("placement.gather.directed");
    k[kFallback] += m.Get("placement.gather.fallback");
    k[kAppends] += c.storages[s]->appends();
    k[kForces] += c.storages[s]->forces();
  }
  dvp::runtime::UdpConduit::Stats u = c.real->conduit().stats();
  k[kDatagramsSent] = u.datagrams_sent;
  k[kDatagramsReceived] = u.datagrams_received;
  k[kSyscalls] = u.send_syscalls + u.recv_syscalls;
  k[kFramesEncoded] = u.frames_encoded;
  k[kFrameCacheHits] = u.frame_cache_hits;
  k[kWireErrors] =
      u.send_errors + u.send_soft_errors + u.oversize_frames + u.decode_errors;
  return k;
}

// ---- Measurement -------------------------------------------------------------

/// Samples and tallies written only on one site's loop thread (that site's
/// callbacks and submit closures run there), read after the loops stop.
struct alignas(64) Lane {
  std::vector<float> write_us, read_us, exec_us, queue_us, submit_us;
  std::vector<std::pair<uint32_t, int64_t>> reads;  ///< (item, value seen)
  uint64_t committed = 0;      ///< measured requests committed
  uint64_t measured_txns = 0;  ///< transactions of measured requests
  uint64_t txns = 0;           ///< every transaction decided, retries too
  uint64_t writes = 0;         ///< every write transaction decided
  uint64_t read_count = 0;     ///< every read transaction decided
  uint64_t rounds = 0;         ///< gather rounds over all writes
  uint64_t remote = 0;         ///< writes that needed at least one round
  uint64_t outcomes[6] = {};   ///< every transaction, by TxnOutcome
  uint64_t missing_reads = 0;  ///< committed reads without a value
};

/// Shared between the driver and the loops.
struct alignas(64) Flow {
  std::atomic<uint32_t> inflight{0};
  std::atomic<int64_t> last_free_ns{0};
  std::atomic<uint64_t> decided{0};
};

double Percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * double(v.size())));
  size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return ts.tv_sec + ts.tv_nsec / 1e9;
}

/// CPU time the process has used outside the calling (driver) thread: the
/// site loops' work. The driver spin-waits for due times, so its own CPU
/// says nothing about the system.
double SystemCpuSeconds() {
  return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID) -
         ClockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports kilobytes
}

double Seconds(int64_t ns) { return ns / 1e9; }
float Micros(int64_t ns) { return static_cast<float>(ns / 1e3); }

void Append(std::vector<float>* out, const std::vector<float>& in) {
  out->insert(out->end(), in.begin(), in.end());
}

// ---- Requests ----------------------------------------------------------------

/// DvP aborts instead of waiting when a local fragment is locked, the
/// timestamp rule refuses, or a gather times out (§5). A client resubmits
/// such a transaction, and so does the driver, at the same site until it
/// commits. The wait doubles from kRetryBackoffUs per attempt up to
/// kRetryBackoffMaxUs, and a random half of it is dropped, so that two
/// requests that keep each other from their value do not retry in step.
/// A request fails only when it aborts for another reason.
constexpr int64_t kRetryBackoffUs = 1'000;
constexpr int64_t kRetryBackoffMaxUs = 16'000;

bool Retriable(TxnOutcome o) {
  return o == TxnOutcome::kAbortLockConflict ||
         o == TxnOutcome::kAbortCcReject || o == TxnOutcome::kAbortTimeout;
}

/// One request, from its due time to its final decision. After it is
/// posted it is touched only on its site's loop thread.
struct Op {
  dvp::site::Site* site = nullptr;
  dvp::runtime::EventLoop* loop = nullptr;
  Lane* lane = nullptr;
  Flow* flow = nullptr;
  TxnSpec spec;
  /// When it should have been sent (open loop) or when its slot freed
  /// (closed loop); latency is timed from here, over every attempt.
  int64_t due_ns = 0;
  int64_t post_ns = 0;  ///< when the driver posted it
  uint32_t item = 0;    ///< the read's item index
  ItemId read_id;
  uint32_t attempts = 0;
  uint64_t salt = 0;  ///< retry jitter
  uint8_t tag = 0;    ///< site, for spans
  bool measured = false;
  bool frees_slot = false;  ///< closed-loop write
  bool read = false;
  bool traced = false;
};

void Decide(const std::shared_ptr<Op>& op, const TxnResult& r);

/// Submits one transaction of `op` at its site; runs on the site's loop.
void Attempt(const std::shared_ptr<Op>& op) {
  ++op->attempts;
  dvp::txn::TxnCallback done = [op](const TxnResult& r) { Decide(op, r); };
  dvp::StatusOr<dvp::TxnId> id = dvp::Status::Unavailable("unsent");
  if (!op->traced) {
    id = op->site->Submit(op->spec, std::move(done));
  } else {
    int64_t start = NowNs();
    {
      SpanScope span(Layer::kSubmit, 0, op->tag);
      id = op->site->Submit(op->spec, std::move(done));
      if (id.ok()) span.set_id(id.value().value());
    }
    if (op->measured && op->attempts == 1) {
      op->lane->queue_us.push_back(Micros(start - op->post_ns));
      op->lane->submit_us.push_back(Micros(NowNs() - start));
    }
  }
  if (!id.ok()) {
    // Rejected at Begin: settle it through the same path so the drain
    // never waits for it.
    TxnResult rejected;
    rejected.outcome = TxnOutcome::kAbortInvalid;
    rejected.status = id.status();
    Decide(op, rejected);
  }
}

/// Tallies one decided transaction of `op`, and either schedules the next
/// attempt or settles the request.
void Decide(const std::shared_ptr<Op>& op, const TxnResult& r) {
  int64_t now = NowNs();
  Lane* lane = op->lane;
  ++lane->outcomes[static_cast<int>(r.outcome)];
  ++lane->txns;
  if (op->measured) ++lane->measured_txns;
  if (op->read) {
    ++lane->read_count;
    if (r.committed()) {
      auto it = r.read_values.find(op->read_id);
      if (it == r.read_values.end()) {
        ++lane->missing_reads;
      } else {
        lane->reads.emplace_back(op->item, it->second);
      }
    }
  } else {
    ++lane->writes;
    lane->rounds += r.rounds;
    if (r.rounds > 0) ++lane->remote;
    if (op->measured) {
      lane->exec_us.push_back(static_cast<float>(r.latency_us));
    }
  }
  if (!r.committed() && Retriable(r.outcome)) {
    int64_t wait = dvp::net::backoff::Interval(
        kRetryBackoffUs, kRetryBackoffMaxUs, op->attempts - 1);
    uint64_t jitter = dvp::net::backoff::Mix(op->salt + op->attempts);
    wait -= static_cast<int64_t>(jitter % static_cast<uint64_t>(wait / 2 + 1));
    op->loop->Schedule(wait, [op] { Attempt(op); });
    return;
  }
  if (op->measured) {
    if (r.committed()) ++lane->committed;
    (op->read ? lane->read_us : lane->write_us)
        .push_back(Micros(now - op->due_ns));
  }
  if (op->frees_slot) {
    op->flow->last_free_ns.store(now, std::memory_order_release);
    op->flow->inflight.fetch_sub(1, std::memory_order_acq_rel);
  }
  op->flow->decided.fetch_add(1, std::memory_order_release);
}

/// Everything one run (untraced or traced) measured over its rounds.
struct RunResult {
  /// One value per round under each name. Timings are reported as the
  /// median over rounds, so a stretch of seconds in which the host slows
  /// every thread moves a few rounds, not the figure.
  std::map<std::string, std::vector<double>> per_round;
  /// Read latencies pooled over the rounds: reads are 10% of the traffic
  /// or a 50/s probe, too few per round for a per-round p99.
  std::vector<float> read_us;
  double audit_s = 0;
  uint64_t attempted = 0;  ///< requests due inside the measured windows
  uint64_t committed = 0;  ///< ... of which committed
  uint64_t requests = 0;   ///< every request, warm-up included
  uint64_t txns = 0;       ///< every transaction, retries included
  uint64_t writes = 0, reads = 0, rounds = 0, remote = 0;
  uint64_t outcomes[6] = {};
  Counters counters{};
  TraceTotals trace;
  std::vector<std::string> errors;

  double Med(const std::string& name) const {
    auto it = per_round.find(name);
    return it == per_round.end() ? 0.0 : Median(it->second);
  }
};

class Driver {
 public:
  Driver(const Workload& w, uint64_t seed, bool traced)
      : w_(w), seed_(seed), traced_(traced) {
    for (uint32_t i = 0; i < w.items; ++i) {
      items_.push_back(catalog_.AddItem("item" + std::to_string(i),
                                        dvp::core::CountDomain::Instance(),
                                        w.total));
    }
  }

  /// Runs the workload for `seconds` of measured time, split into rounds of
  /// about kRoundSeconds, each on a fresh cluster. (Closed-loop rounds end
  /// after a fixed number of writes, sized to take about that long.)
  RunResult Run(double seconds) {
    RunResult res;
    int rounds = std::max(1, static_cast<int>(seconds / kRoundSeconds + 0.5));
    if (traced_) ResetTracing(kSpanCapacity);
    for (int r = 0; r < rounds; ++r) RunRound(r, seconds / rounds, &res);
    if (traced_) res.trace = CollectTotals();
    return res;
  }

 private:
  void RunRound(int round, double round_s, RunResult* res) {
    uint64_t round_seed = Rng(seed_).Fork(1000 + round).NextU64();
    Generator gen(w_, items_, round_seed);
    std::string tag = "round " + std::to_string(round) + ": ";

    lanes_ = std::vector<Lane>(kSites);
    gen_lag_us_.clear();
    measured_submitted_ = 0;
    salt_ = round_seed;
    flow_.inflight.store(0);
    flow_.decided.store(0);

    // Setup: from building the cluster to the moment it can take the first
    // submission, less the benchmark's own counter snapshot.
    int64_t setup_start = NowNs();
    Cluster cluster(w_, &catalog_, round_seed, traced_);
    int64_t built = NowNs();
    Counters before = ReadCounters(cluster);
    int64_t start_from = NowNs();
    if (traced_) SetTracing(true);
    cluster.real->Start();
    double setup_s = Seconds(built - setup_start + NowNs() - start_from);

    int64_t start = NowNs();
    int64_t measure_from = start + static_cast<int64_t>(kWarmupSeconds * 1e9);
    int64_t end = measure_from + static_cast<int64_t>(round_s * 1e9);
    uint64_t submitted =
        w_.outstanding > 0
            ? DriveClosed(cluster, gen, measure_from, end)
            : DriveOpen(cluster, gen, start, measure_from, end);
    double cpu_s = SystemCpuSeconds() - cpu_at_measure_;
    double window_s = Seconds(NowNs() - measure_from);

    int64_t deadline = NowNs() + static_cast<int64_t>(kDrainSeconds * 1e9);
    while (flow_.decided.load(std::memory_order_acquire) < submitted &&
           NowNs() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (traced_) SetTracing(false);
    cluster.real->Stop();

    uint64_t decided = flow_.decided.load();
    if (decided != submitted) {
      res->errors.push_back(tag + std::to_string(submitted - decided) +
                            " of " + std::to_string(submitted) +
                            " requests never decided");
    }
    int64_t audit_start = NowNs();
    dvp::Status audit = dvp::verify::AuditAllBulk(cluster.Storages(), catalog_);
    res->audit_s += Seconds(NowNs() - audit_start);
    if (!audit.ok()) {
      res->errors.push_back(tag + "conservation audit: " + audit.ToString());
    }
    Counters after = ReadCounters(cluster);
    for (int i = 0; i < kNumCounters; ++i) {
      res->counters[i] += after[i] - before[i];
    }
    if (after[kWireErrors] != before[kWireErrors]) {
      res->errors.push_back(
          tag + std::to_string(after[kWireErrors] - before[kWireErrors]) +
          " wire errors");
    }

    std::vector<float> writes, exec, queue, submit;
    uint64_t committed = 0, measured_txns = 0;
    for (const Lane& lane : lanes_) {
      Append(&writes, lane.write_us);
      Append(&res->read_us, lane.read_us);
      Append(&exec, lane.exec_us);
      Append(&queue, lane.queue_us);
      Append(&submit, lane.submit_us);
      committed += lane.committed;
      measured_txns += lane.measured_txns;
      res->txns += lane.txns;
      res->writes += lane.writes;
      res->reads += lane.read_count;
      res->rounds += lane.rounds;
      res->remote += lane.remote;
      for (int i = 0; i < 6; ++i) res->outcomes[i] += lane.outcomes[i];
      if (lane.missing_reads != 0) {
        res->errors.push_back(tag + std::to_string(lane.missing_reads) +
                              " committed snapshot reads returned no value");
      }
      for (const auto& [k, v] : lane.reads) {
        if (v < gen.lowest(k) || v > gen.highest(k)) {
          res->errors.push_back(
              tag + "snapshot read of item " + std::to_string(k) + " saw " +
              std::to_string(v) + ", outside [" +
              std::to_string(gen.lowest(k)) + ", " +
              std::to_string(gen.highest(k)) + "]");
          break;
        }
      }
    }
    res->attempted += measured_submitted_;
    res->committed += committed;
    res->requests += submitted;

    auto add = [res](const char* name, double v) {
      res->per_round[name].push_back(v);
    };
    add("setup_s", setup_s);
    add("goodput", committed / window_s);
    add("commit_ratio", Ratio(committed, measured_txns));
    add("cpu_us",
        Ratio(cpu_s * 1e6, static_cast<double>(measured_submitted_)));
    add("write_p50", Percentile(writes, 0.50));
    add("write_p99", Percentile(writes, 0.99));
    add("exec_p50", Percentile(exec, 0.50));
    add("exec_p99", Percentile(exec, 0.99));
    add("queue_p50", Percentile(queue, 0.50));
    add("queue_p99", Percentile(queue, 0.99));
    add("submit_p50", Percentile(submit, 0.50));
    add("gen_lag_p50", Percentile(gen_lag_us_, 0.50));
    add("gen_lag_p99", Percentile(gen_lag_us_, 0.99));
  }

  /// Closed loop: keeps w_.outstanding writes in flight until
  /// w_.round_writes measured writes were sent (or, on a host too slow for
  /// that, until twice the round's time has passed). A write's due time is
  /// when its slot freed. The read probe goes by count, not by clock: one
  /// read after every probe_every-th measured write, which is the probe
  /// rate at the round's nominal length. Every round then attempts the
  /// same number of requests.
  uint64_t DriveClosed(Cluster& cluster, Generator& gen, int64_t measure_from,
                       int64_t end) {
    int64_t cap = end + (end - measure_from);
    uint64_t probe_every =
        w_.probe_rate > 0
            ? std::max<uint64_t>(1, static_cast<uint64_t>(
                                        w_.round_writes /
                                        (w_.probe_rate * kRoundSeconds)))
            : 0;
    uint64_t submitted = 0;
    uint64_t measured_writes = 0;
    bool measuring = false;
    while (measured_writes < w_.round_writes) {
      int64_t now = NowNs();
      if (!measuring && now >= measure_from) {
        cpu_at_measure_ = SystemCpuSeconds();
        measuring = true;
      }
      if (now >= cap) break;
      int64_t due = now;
      if (flow_.inflight.load(std::memory_order_acquire) >= w_.outstanding) {
        while (flow_.inflight.load(std::memory_order_acquire) >=
               w_.outstanding) {
          __builtin_ia32_pause();
        }
        due = flow_.last_free_ns.load(std::memory_order_acquire);
      }
      flow_.inflight.fetch_add(1, std::memory_order_acq_rel);
      ++submitted;
      Submit(cluster, gen.Next(), due, measuring);
      if (!measuring) continue;
      ++measured_writes;
      if (probe_every > 0 && measured_writes % probe_every == 0) {
        ++submitted;
        Submit(cluster, gen.NextProbe(), NowNs(), true);
      }
    }
    return submitted;
  }

  /// Open loop: Poisson writes (and probe reads) sent at their due times
  /// whatever the system does; latency is timed from the due time.
  uint64_t DriveOpen(Cluster& cluster, Generator& gen, int64_t start,
                     int64_t measure_from, int64_t end) {
    uint64_t submitted = 0;
    int64_t next_request =
        start + static_cast<int64_t>(gen.NextGapUs() * 1e3);
    int64_t next_probe = start + ProbeGapNs(gen);
    bool measuring = false;
    while (true) {
      bool probe = next_probe < next_request;
      int64_t due = probe ? next_probe : next_request;
      if (!measuring && std::min(due, end) >= measure_from) {
        SpinUntil(measure_from);
        cpu_at_measure_ = SystemCpuSeconds();
        measuring = true;
      }
      if (due >= end) break;
      SpinUntil(due);
      ++submitted;
      Submit(cluster, probe ? gen.NextProbe() : gen.Next(), due,
             due >= measure_from);
      if (probe) {
        next_probe += ProbeGapNs(gen);
      } else {
        next_request += static_cast<int64_t>(gen.NextGapUs() * 1e3);
      }
    }
    SpinUntil(end);
    return submitted;
  }

  /// The driver owns a core of the thread budget and spins, here and while
  /// the closed loop waits for a free slot: a sleeping thread on a shared
  /// virtual machine wakes late by up to milliseconds, which would be
  /// charged to the system as latency.
  static void SpinUntil(int64_t ns) {
    while (NowNs() < ns) {
      __builtin_ia32_pause();
    }
  }

  int64_t ProbeGapNs(Generator& gen) const {
    if (w_.probe_rate <= 0) return INT64_MAX / 4;
    return static_cast<int64_t>(gen.NextProbeGapUs() * 1e3);
  }

  /// Hands one request to its site's loop. `due_ns` is when it should have
  /// been sent (open loop) or when its slot freed (closed loop); latency is
  /// timed from there. `measured` says whether it falls in the measured
  /// window.
  void Submit(Cluster& cluster, Request req, int64_t due_ns, bool measured) {
    auto op = std::make_shared<Op>();
    op->post_ns = NowNs();
    if (measured) ++measured_submitted_;
    if (traced_ && measured) {
      gen_lag_us_.push_back(Micros(op->post_ns - due_ns));
    }
    op->site = cluster.sites[req.site].get();
    op->loop = &cluster.real->loop(SiteId(req.site));
    op->lane = &lanes_[req.site];
    op->flow = &flow_;
    op->spec = std::move(req.spec);
    op->due_ns = due_ns;
    op->item = req.read_item;
    op->read_id = items_[req.read_item];
    op->salt = dvp::net::backoff::Mix(salt_++);
    op->tag = static_cast<uint8_t>(req.site);
    op->measured = measured;
    op->frees_slot = w_.outstanding > 0 && !req.read;
    op->read = req.read;
    op->traced = traced_;
    op->loop->Post([op = std::move(op)] { Attempt(op); });
  }

  const Workload& w_;
  uint64_t seed_;
  bool traced_;
  dvp::core::Catalog catalog_;
  std::vector<ItemId> items_;
  std::vector<Lane> lanes_;
  std::vector<float> gen_lag_us_;  ///< driver thread only
  uint64_t measured_submitted_ = 0;  ///< driver thread only
  uint64_t salt_ = 0;                ///< driver thread only
  Flow flow_;
  double cpu_at_measure_ = 0;
};

// ---- Report ------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

/// The bounded metrics: the ones that hold still between runs on every
/// workload (README.md). Write p99 is taken per round, median over rounds.
std::vector<Metric> EndToEnd(const RunResult& r) {
  return {
      {"write_p99_us", "us", r.Med("write_p99")},
      {"goodput_tps", "1/s", r.Med("goodput")},
      {"commit_ratio", "ratio", r.Med("commit_ratio")},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"setup_s", "s", r.Med("setup_s")},
  };
}

/// Per-layer metrics of the traced run `t`, plus the unbounded end-to-end
/// figures of `u`, the untraced run of the same invocation. Per-transaction figures divide by every request the
/// run submitted, warm-up included, because the counters cover it too.
std::vector<Metric> PerLayer(const RunResult& t, const RunResult& u) {
  const Counters& k = t.counters;
  const TraceTotals& tr = t.trace;
  double n = static_cast<double>(t.requests);
  auto per = [n](double x) { return Ratio(x, n); };
  auto self_us = [&](Layer l) {
    return per(tr.layer_self_ns[static_cast<int>(l)] / 1e3);
  };
  auto allocs = [&](Layer l) {
    return per(static_cast<double>(tr.layer_allocs[static_cast<int>(l)]));
  };
  auto outcome = [&](TxnOutcome o) {
    return Ratio(static_cast<double>(t.outcomes[static_cast<int>(o)]),
                 static_cast<double>(t.txns));
  };
  std::vector<float> late(tr.timer_late_us.begin(), tr.timer_late_us.end());
  return {
      // End-to-end figures of the untraced run that move with the host
      // more than any bound allows (README.md, "Unbounded end-to-end").
      {"write_p50_us", "us", u.Med("write_p50")},
      {"read_p50_us", "us", Percentile(u.read_us, 0.50)},
      {"read_p99_us", "us", Percentile(u.read_us, 0.99)},
      {"cpu_us_per_txn", "us", u.Med("cpu_us")},
      {"driver.gen_lag_p50_us", "us", t.Med("gen_lag_p50")},
      {"driver.gen_lag_p99_us", "us", t.Med("gen_lag_p99")},
      {"runtime.loop_queue_p50_us", "us", t.Med("queue_p50")},
      {"runtime.loop_queue_p99_us", "us", t.Med("queue_p99")},
      {"runtime.timers_per_txn", "count", per(k[kTimers])},
      {"runtime.timer_late_p99_us", "us", Percentile(late, 0.99)},
      {"runtime.timer_busy_us_per_txn", "us", self_us(Layer::kTimer)},
      {"runtime.send_busy_us_per_txn", "us", self_us(Layer::kSend)},
      {"runtime.syscalls_per_txn", "count", per(k[kSyscalls])},
      {"runtime.datagrams_per_txn", "count", per(k[kDatagramsSent])},
      {"runtime.frames_encoded_per_txn", "count", per(k[kFramesEncoded])},
      {"runtime.frame_cache_hits", "count", double(k[kFrameCacheHits])},
      {"runtime.wire_errors", "count", double(k[kWireErrors])},
      {"runtime.send_allocs_per_txn", "count", allocs(Layer::kSend)},
      {"net.deliver_busy_us_per_txn", "us", self_us(Layer::kDeliver)},
      {"net.retransmits_per_txn", "count", per(k[kRetransmits])},
      {"net.pure_acks_per_txn", "count", per(k[kPureAcks])},
      {"net.riders_per_frame", "count",
       Ratio(double(k[kPiggybackAcks] + k[kCoalescedRiders] +
                    k[kHintsObserved]),
             double(k[kDatagramsReceived]))},
      {"net.dup_drops_per_txn", "count", per(k[kDupDrops])},
      {"net.deliver_allocs_per_txn", "count", allocs(Layer::kDeliver)},
      {"txn.submit_busy_us_p50", "us", t.Med("submit_p50")},
      {"txn.exec_p50_us", "us", t.Med("exec_p50")},
      {"txn.exec_p99_us", "us", t.Med("exec_p99")},
      {"txn.rounds_per_txn", "count", Ratio(t.rounds, t.writes)},
      {"txn.remote_share", "ratio", Ratio(t.remote, t.writes)},
      {"txn.req_per_txn", "count", per(k[kReqSent])},
      {"txn.abort_lock_ratio", "ratio", outcome(TxnOutcome::kAbortLockConflict)},
      {"txn.abort_timeout_ratio", "ratio", outcome(TxnOutcome::kAbortTimeout)},
      {"txn.abort_cc_ratio", "ratio", outcome(TxnOutcome::kAbortCcReject)},
      {"txn.req_ignored_locked_ratio", "ratio",
       Ratio(k[kReqIgnoredLocked], k[kReqReceived])},
      {"txn.snapshot_rounds_per_read", "count",
       Ratio(k[kSnapshotRounds], t.reads)},
      {"txn.submit_allocs_per_txn", "count", allocs(Layer::kSubmit)},
      {"vm.created_per_txn", "count", per(k[kVmCreated])},
      {"vm.deferred_per_txn", "count", per(k[kVmDeferred])},
      {"vm.duplicate_per_txn", "count", per(k[kVmDuplicate])},
      {"placement.hint_hit_ratio", "ratio",
       Ratio(k[kHintHit], k[kHintHit] + k[kHintMiss])},
      {"placement.directed_ratio", "ratio",
       Ratio(k[kDirected], k[kDirected] + k[kFallback])},
      {"placement.hints_observed_per_txn", "count", per(k[kHintsObserved])},
      {"wal.appends_per_txn", "count", per(k[kAppends])},
      {"wal.forces_per_txn", "count", per(k[kForces])},
      {"process.heap_allocs_per_txn", "count", per(double(tr.allocs))},
      {"process.heap_bytes_per_txn", "B", per(double(tr.alloc_bytes))},
      {"verify.audit_s", "s", u.audit_s},
      {"trace.overhead_write_p50_us", "us",
       t.Med("write_p50") - u.Med("write_p50")},
  };
}

void PrintBanner(const Workload& w, uint64_t seed, double seconds, bool trace) {
  std::printf("rtbench: workload %s, seed %llu, %.3g s measured, trace %d\n",
              w.name, static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0);
  if (w.outstanding > 0) {
    std::printf("  closed loop, %u writes outstanding", w.outstanding);
  } else {
    std::printf("  open loop, Poisson %.0f/s", w.write_rate);
  }
  std::printf(", snapshot-read probe %.0f/s\n", w.probe_rate);
  if (w.round_writes > 0) {
    std::printf("  rounds of %u measured writes\n", w.round_writes);
  }
  std::printf("  %u items of total %lld, Zipf theta %.2f, drop 1 in %llu\n",
              w.items, static_cast<long long>(w.total), w.theta,
              static_cast<unsigned long long>(w.drop_one_in));
  std::printf(
      "  %u sites on runtime::Real (%u loop threads + 1 driver thread); "
      "protocol defaults + gather_retry_us 5000, hints_per_frame 2, group "
      "commit off\n",
      kSites, kSites);
}

int Usage() {
  std::fprintf(stderr,
               "usage: rtbench --workload <local_hot|scarce_redistribute|"
               "mixed_snapshot_lossy> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <path>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, spans;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  if (argc % 2 == 0) return Usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = val == "1";
    } else if (flag == "--spans") {
      spans = val;
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || !(seconds > 0)) return Usage();
  PrintBanner(*w, seed, seconds, trace);

  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  uint64_t attempted = 0, committed = 0;
  auto absorb = [&](const RunResult& r) {
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    attempted += r.attempted;
    committed += r.committed;
  };
  if (!trace) {
    RunResult r = Driver(*w, seed, false).Run(seconds);
    absorb(r);
    metrics = EndToEnd(r);
  } else {
    RunResult untraced = Driver(*w, seed, false).Run(seconds / 2);
    RunResult traced = Driver(*w, seed, true).Run(seconds / 2);
    absorb(untraced);
    absorb(traced);
    metrics = PerLayer(traced, untraced);
    if (!spans.empty() && !WriteSpans(spans)) {
      std::fprintf(stderr, "rtbench: cannot write spans to %s\n",
                   spans.c_str());
    }
  }

  for (const std::string& e : errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14s %s\n", m.name.c_str(), Number(m.value).c_str(),
                m.unit.c_str());
  }
  bool correct = errors.empty() && attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(attempted - committed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rtbench

int main(int argc, char** argv) { return rtbench::Main(argc, argv); }
