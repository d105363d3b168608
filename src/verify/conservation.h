// The conservation invariant (§3): at every instant,
//     N = Σ_i N_i + N_M
// — the item's value equals the sum of all site fragments plus the value of
// all live Vm (created but not yet accepted anywhere). This auditor computes
// both terms purely from stable storage, so it is meaningful even mid-crash:
// a site's fragment is what its recovery would reconstruct, and a Vm is live
// exactly when its creation record exists and no acceptance record does.
//
// A second, in-memory view audits the *volatile* state alongside the stable
// one: every up site's live fragment store must agree with what its log
// would rebuild (the stores are updated in lockstep with log forces, so any
// divergence at an event boundary is a bug), and the conservation sum holds
// with live values substituted for up sites. The chaos harness evaluates
// both views at random instants during a run, not only at quiescence.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "common/status.h"
#include "common/types.h"
#include "dvpcore/catalog.h"
#include "wal/stable_storage.h"

namespace dvp::verify {

struct ConservationBreakdown {
  core::Value site_total = 0;  ///< Σ_i N_i (durable view)
  core::Value in_flight = 0;   ///< N_M: value of live Vm
  /// Net change to the item's value by committed transactions (redistribution
  /// contributes nothing): the invariant is
  ///     site_total + in_flight == initial_total + committed_delta.
  core::Value committed_delta = 0;
  uint64_t live_vms = 0;

  /// Σ_i N_i with each *up* site's live in-memory fragment substituted for
  /// its durable one (down sites contribute their durable value). Only
  /// meaningful when a live view was supplied to the audit.
  core::Value volatile_site_total = 0;
  bool has_volatile = false;

  /// The volatile-view ledger is computed over the FULL appended log —
  /// including the unforced group-commit batch tail — because up sites apply
  /// buffered records to their in-memory stores at append time, before the
  /// covering force. Down sites have no unforced tail (a crash drops it), so
  /// for them the two ledgers coincide.
  core::Value volatile_in_flight = 0;
  core::Value volatile_committed_delta = 0;
  uint64_t volatile_live_vms = 0;

  core::Value total() const { return site_total + in_flight; }
  core::Value volatile_total() const {
    return volatile_site_total + volatile_in_flight;
  }
};

/// Live-state accessor for the volatile view: returns the in-memory fragment
/// value of `item` at `site`, or nullopt when the site is down (its durable
/// value is used instead). Null function = stable-storage-only audit.
using LiveValueFn =
    std::function<std::optional<core::Value>(SiteId, ItemId)>;

/// Computes the breakdown for one item across all sites. With `live`, also
/// fills the volatile view.
ConservationBreakdown AuditItem(
    std::span<const wal::StableStorage* const> storages,
    const core::Catalog& catalog, ItemId item,
    const LiveValueFn& live = nullptr);

/// Durable-view conservation check over the whole catalog: every item's
///     site_total + in_flight == initial_total + committed_delta
/// against its initial total; returns the first violation (catalog order) as
/// an Internal status. One store rebuild and one log scan per site, with the
/// per-item terms accumulated in that single pass — the audit stays linear in
/// log size at 10⁶ items × 100 sites, where a scan per site per item would be
/// 10⁸ log replays.
Status AuditAll(std::span<const wal::StableStorage* const> storages,
                const core::Catalog& catalog);

/// Both views, item at a time: the durable check above plus the volatile
/// one — the volatile sum conserves and every up site's live fragment
/// matches its durable rebuild (volatile/durable coherence). A null `live`
/// is the durable-only audit.
Status AuditAll(std::span<const wal::StableStorage* const> storages,
                const core::Catalog& catalog, const LiveValueFn& live);

/// Former name of the durable-only AuditAll, kept for callers that still
/// spell it (rtbench/main.cc). New code calls AuditAll.
inline Status AuditAllBulk(std::span<const wal::StableStorage* const> storages,
                           const core::Catalog& catalog) {
  return AuditAll(storages, catalog);
}

/// Transaction-scoped cross-item conservation, part 1: every commit record
/// flagged atomic_set must carry at least two writes whose deltas sum to
/// zero — a transfer moves value between items, it never mints or destroys
/// it. Scans the FULL appended log of every site (an atomic record is one
/// append; there is no torn half to excuse), so a doctored record is caught
/// even while it sits in the unforced group-commit tail.
Status CheckAtomicSetCommits(
    std::span<const wal::StableStorage* const> storages);

/// Transaction-scoped cross-item conservation, part 2: the conservation sum
/// over a *group* of items. Writes of atomic-set records whose item set lies
/// entirely inside the group are excluded from the expected delta — they are
/// supposed to cancel — so a non-zero-sum atomic record shows up as a group
/// imbalance even though every per-item audit (which counts its legs
/// individually) still balances. Atomic records straddling the group edge
/// contribute their in-group legs like ordinary writes. Durable view.
Status AuditGroup(std::span<const wal::StableStorage* const> storages,
                  const core::Catalog& catalog,
                  std::span<const ItemId> group);

}  // namespace dvp::verify
