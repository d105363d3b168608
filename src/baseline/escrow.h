// The Escrow transactional method (O'Neil 1986), cited by §8 as the closest
// single-site relative of DvP: an aggregate "hot spot" field admits
// concurrent increments/decrements by *reserving* quantities in escrow while
// the enclosing (multi-step) transaction runs, so long as the worst-case
// outcome keeps the field within bounds.
//
// This module models one site holding one aggregate field under two
// concurrency modes, for the E4 hot-spot experiment:
//   * kExclusive — the conventional scheme: the field is exclusively locked
//     for the transaction's whole duration; concurrent arrivals abort
//     (no-wait locking, matching the DvP side's pessimism).
//   * kEscrow    — O'Neil admission: decrement(m) is admitted iff
//     committed_value - reserved_decrements >= m; increments are always
//     admitted. Reservations release at commit/abort.
#pragma once

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "common/types.h"
#include "dvpcore/domain.h"
#include "sim/kernel.h"

namespace dvp::baseline {

class EscrowSite {
 public:
  enum class Mode { kExclusive, kEscrow };

  struct Stats {
    uint64_t committed = 0;
    uint64_t aborted_conflict = 0;      ///< exclusive-lock collisions
    uint64_t aborted_insufficient = 0;  ///< escrow admission failures
  };

  /// `txn_duration_us` is the simulated multi-step transaction time during
  /// which the reservation (or lock) is held.
  EscrowSite(sim::Kernel* kernel, Mode mode, core::Value initial,
             SimTime txn_duration_us);

  /// Starts a decrement-by-m transaction. The callback fires at commit or
  /// immediately on admission failure.
  void Decrement(core::Value m, std::function<void(Status)> done);

  /// Starts an increment-by-m transaction.
  void Increment(core::Value m, std::function<void(Status)> done);

  core::Value committed_value() const { return value_; }
  core::Value reserved_decrements() const { return reserved_dec_; }
  const Stats& stats() const { return stats_; }
  Mode mode() const { return mode_; }

 private:
  void Run(core::Value delta, std::function<void(Status)> done);

  sim::Kernel* kernel_;
  Mode mode_;
  core::Value value_;
  core::Value reserved_dec_ = 0;
  uint32_t active_ = 0;  // concurrent transactions in progress
  bool locked_ = false;  // exclusive mode
  SimTime txn_duration_us_;
  Stats stats_;
};

}  // namespace dvp::baseline
