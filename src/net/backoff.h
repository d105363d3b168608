// Shared retry-timing arithmetic. The transport's per-peer retransmission
// schedule and the transaction manager's read-retry rounds both need the same
// two ingredients: a base interval doubled per attempt up to a cap, and a
// deterministic jitter that spreads simultaneous retriers without consuming
// any RNG stream (runs must stay a pure function of seed and schedule). The
// gather's first re-ask needs the third: a round-trip estimate (RttEstimator).
// Keeping the arithmetic here keeps the schedules provably identical in shape
// and lets tests pin it once.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.h"

namespace dvp::net::backoff {

/// SplitMix64 finaliser: deterministic jitter without consuming RNG streams
/// (retry timing must not perturb the workload's random sequences).
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Exponential backoff, capped (the "retransmission cap"): base_us doubled
/// `exp` times, collapsed to max_us once the doubled interval would pass the
/// cap — an unreachable peer needs no finer schedule. The would-it-pass test
/// is `base_us > max_us >> exp`, checked BEFORE any shift: the old
/// `base_us << exp` probe was a signed left shift that overflows (UB) for
/// large bases before its own `interval <= 0` guard could run. Degenerate
/// inputs (base or cap <= 0) collapse to the cap, matching the old guard.
inline SimTime Interval(SimTime base_us, SimTime max_us, uint32_t exp) {
  exp = std::min(exp, uint32_t{30});
  if (base_us <= 0 || max_us <= 0) return max_us;
  if (base_us > (max_us >> exp)) return max_us;
  return base_us << exp;  // cannot overflow: base_us <= max_us >> exp
}

/// Adds deterministic jitter in [0, interval/4] derived from `salt`, clamped
/// to `max_us`: spreads retriers so a heal does not trigger a synchronised
/// burst, without letting a maxed-out retrier wait past the documented cap
/// (jitter on top of an already-capped interval used to stretch the wait to
/// 1.25 * max_us).
inline SimTime Jittered(SimTime interval, SimTime max_us, uint64_t salt) {
  SimTime jittered =
      interval + static_cast<SimTime>(
                     Mix(salt) % static_cast<uint64_t>(interval / 4 + 1));
  return std::min(jittered, max_us);
}

/// Jacobson's round-trip estimator in integer microseconds (RFC 6298 §2,
/// alpha = 1/8, beta = 1/4). Callers apply Karn's rule themselves: a sample
/// must time an exchange that was never repeated, or the reply could answer
/// either copy.
struct RttEstimator {
  SimTime srtt_us = 0;
  SimTime rttvar_us = 0;
  bool has_sample = false;

  /// Folds in one round-trip measurement `r_us` >= 0.
  void Sample(SimTime r_us) {
    if (!has_sample) {
      // First measurement: SRTT = R, RTTVAR = R/2.
      srtt_us = r_us;
      rttvar_us = r_us / 2;
      has_sample = true;
      return;
    }
    // RTTVAR is updated from the OLD srtt, as RFC 6298 §2.3 orders it.
    SimTime err = srtt_us > r_us ? srtt_us - r_us : r_us - srtt_us;
    rttvar_us = (3 * rttvar_us + err) / 4;
    srtt_us = (7 * srtt_us + r_us) / 8;
  }

  /// Retransmission deadline SRTT + max(G, 4*RTTVAR) with a 1 us clock
  /// granularity G (RFC 6298 §2.2) — so a perfectly steady round trip still
  /// lands strictly before the deadline — never above `ceiling_us`; the
  /// ceiling itself until a sample exists.
  SimTime Timeout(SimTime ceiling_us) const {
    if (!has_sample) return ceiling_us;
    return std::min(srtt_us + std::max<SimTime>(1, 4 * rttvar_us), ceiling_us);
  }
};

}  // namespace dvp::net::backoff
