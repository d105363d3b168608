#include "verify/conservation.h"

#include <map>
#include <set>
#include <unordered_map>

#include "dvpcore/value_store.h"
#include "recovery/recovery.h"

namespace dvp::verify {

ConservationBreakdown AuditItem(
    std::span<const wal::StableStorage* const> storages,
    const core::Catalog& catalog, ItemId item, const LiveValueFn& live) {
  ConservationBreakdown out;
  out.has_volatile = static_cast<bool>(live);

  struct LiveVm {
    core::Value amount = 0;
    ItemId item;
  };
  // Two ledgers: the durable one reads each site's forced prefix (what
  // recovery would see); the volatile one reads the full appended log,
  // unforced group-commit tail included, because live stores apply buffered
  // records at append time.
  std::map<VmId, LiveVm> created;
  std::set<VmId> accepted;
  std::map<VmId, LiveVm> created_vol;
  std::set<VmId> accepted_vol;

  for (const wal::StableStorage* storage : storages) {
    // Durable fragment value = what recovery would rebuild. Replay stops at
    // the last valid log prefix, exactly as a real recovery would.
    core::ValueStore scratch(&catalog);
    recovery::RecoveryReport report;
    Status s = recovery::RebuildStore(*storage, &scratch, &report);
    if (!s.ok()) continue;  // unreadable image: fragment contributes nothing
    core::Value durable = scratch.value(item);
    out.site_total += durable;
    if (live) {
      std::optional<core::Value> v = live(storage->site(), item);
      out.volatile_site_total += v.value_or(durable);
    }

    // One scan feeds both ledgers: records below the rebuild's valid prefix
    // are durable; everything decodable beyond it (the unforced tail) is
    // volatile-only.
    uint64_t ignored = 0;
    (void)storage->ScanPrefix(
        0, storage->log_size(),
        [&](Lsn lsn, const wal::LogRecord& rec) {
          bool is_durable = lsn.value() < report.valid_prefix;
          if (const auto* c = std::get_if<wal::VmCreateRec>(&rec)) {
            if (is_durable) created[c->vm] = LiveVm{c->amount, c->item};
            created_vol[c->vm] = LiveVm{c->amount, c->item};
          } else if (const auto* a = std::get_if<wal::VmAcceptRec>(&rec)) {
            if (is_durable) accepted.insert(a->vm);
            accepted_vol.insert(a->vm);
          } else if (const auto* t = std::get_if<wal::TxnCommitRec>(&rec)) {
            for (const auto& w : t->writes) {
              if (w.item != item) continue;
              if (is_durable) out.committed_delta += w.delta;
              out.volatile_committed_delta += w.delta;
            }
          }
        },
        &ignored);
  }

  for (const auto& [vm, live_vm] : created) {
    if (live_vm.item != item) continue;
    if (accepted.contains(vm)) continue;
    out.in_flight += live_vm.amount;
    ++out.live_vms;
  }
  for (const auto& [vm, live_vm] : created_vol) {
    if (live_vm.item != item) continue;
    if (accepted_vol.contains(vm)) continue;
    out.volatile_in_flight += live_vm.amount;
    ++out.volatile_live_vms;
  }
  return out;
}

Status AuditAll(std::span<const wal::StableStorage* const> storages,
                const core::Catalog& catalog) {
  struct LiveVm {
    core::Value amount = 0;
    ItemId item;
  };
  // Accumulated across ALL sites in one pass each; keyed by raw item id.
  std::unordered_map<uint32_t, core::Value> site_total;
  std::unordered_map<uint32_t, core::Value> committed_delta;
  std::map<VmId, LiveVm> created;
  std::set<VmId> accepted;

  for (const wal::StableStorage* storage : storages) {
    core::ValueStore scratch(&catalog);
    recovery::RecoveryReport report;
    Status s = recovery::RebuildStore(*storage, &scratch, &report);
    if (!s.ok()) continue;  // unreadable image: fragment contributes nothing
    for (const auto& [item, frag] : scratch.resident_fragments()) {
      site_total[item] += frag.value;
    }
    uint64_t ignored = 0;
    (void)storage->ScanPrefix(
        0, storage->log_size(),
        [&](Lsn lsn, const wal::LogRecord& rec) {
          if (lsn.value() >= report.valid_prefix) return;  // durable view only
          if (const auto* c = std::get_if<wal::VmCreateRec>(&rec)) {
            created[c->vm] = LiveVm{c->amount, c->item};
          } else if (const auto* a = std::get_if<wal::VmAcceptRec>(&rec)) {
            accepted.insert(a->vm);
          } else if (const auto* t = std::get_if<wal::TxnCommitRec>(&rec)) {
            for (const auto& w : t->writes) {
              committed_delta[w.item.value()] += w.delta;
            }
          }
        },
        &ignored);
  }

  std::unordered_map<uint32_t, core::Value> in_flight;
  for (const auto& [vm, live_vm] : created) {
    if (!accepted.contains(vm)) in_flight[live_vm.item.value()] += live_vm.amount;
  }

  auto lookup = [](const std::unordered_map<uint32_t, core::Value>& m,
                   uint32_t k) -> core::Value {
    auto it = m.find(k);
    return it == m.end() ? 0 : it->second;
  };
  for (ItemId item : catalog.AllItems()) {
    core::Value fragments = lookup(site_total, item.value());
    core::Value flight = lookup(in_flight, item.value());
    core::Value delta = lookup(committed_delta, item.value());
    core::Value expect = catalog.info(item).initial_total + delta;
    if (fragments + flight != expect) {
      return Status::Internal(
          "conservation violated for item " + catalog.info(item).name +
          ": fragments=" + std::to_string(fragments) +
          " in_flight=" + std::to_string(flight) +
          " committed_delta=" + std::to_string(delta) +
          " expected=" + std::to_string(expect));
    }
  }
  return Status::OK();
}

Status AuditAll(std::span<const wal::StableStorage* const> storages,
                const core::Catalog& catalog, const LiveValueFn& live) {
  if (!live) return AuditAll(storages, catalog);
  for (ItemId item : catalog.AllItems()) {
    ConservationBreakdown b = AuditItem(storages, catalog, item, live);
    core::Value expect = catalog.info(item).initial_total + b.committed_delta;
    if (b.total() != expect) {
      return Status::Internal(
          "conservation violated for item " + catalog.info(item).name +
          ": fragments=" + std::to_string(b.site_total) +
          " in_flight=" + std::to_string(b.in_flight) +
          " committed_delta=" + std::to_string(b.committed_delta) +
          " expected=" + std::to_string(expect));
    }
    core::Value expect_vol =
        catalog.info(item).initial_total + b.volatile_committed_delta;
    if (b.has_volatile && b.volatile_total() != expect_vol) {
      return Status::Internal(
          "volatile conservation violated for item " +
          catalog.info(item).name +
          ": live_fragments=" + std::to_string(b.volatile_site_total) +
          " (durable=" + std::to_string(b.site_total) +
          ") in_flight=" + std::to_string(b.volatile_in_flight) +
          " expected=" + std::to_string(expect_vol));
    }
  }
  return Status::OK();
}

Status CheckAtomicSetCommits(
    std::span<const wal::StableStorage* const> storages) {
  Status violation = Status::OK();
  for (const wal::StableStorage* storage : storages) {
    uint64_t ignored = 0;
    (void)storage->ScanPrefix(
        0, storage->log_size(),
        [&](Lsn, const wal::LogRecord& rec) {
          if (!violation.ok()) return;
          const auto* t = std::get_if<wal::TxnCommitRec>(&rec);
          if (t == nullptr || !t->atomic_set) return;
          if (t->writes.size() < 2) {
            violation = Status::Internal(
                "atomic-set commit txn " + std::to_string(t->txn.value()) +
                " at site " + storage->site().ToString() + " has " +
                std::to_string(t->writes.size()) + " write(s), need >= 2");
            return;
          }
          core::Value net = 0;
          for (const auto& w : t->writes) net += w.delta;
          if (net != 0) {
            violation = Status::Internal(
                "atomic-set commit txn " + std::to_string(t->txn.value()) +
                " at site " + storage->site().ToString() +
                " is not zero-sum: net delta " + std::to_string(net));
          }
        },
        &ignored);
    if (!violation.ok()) return violation;
  }
  return violation;
}

Status AuditGroup(std::span<const wal::StableStorage* const> storages,
                  const core::Catalog& catalog,
                  std::span<const ItemId> group) {
  std::set<uint32_t> members;
  for (ItemId item : group) members.insert(item.value());

  struct LiveVm {
    core::Value amount = 0;
    ItemId item;
  };
  core::Value fragments = 0;
  core::Value expected_delta = 0;
  std::map<VmId, LiveVm> created;
  std::set<VmId> accepted;

  for (const wal::StableStorage* storage : storages) {
    core::ValueStore scratch(&catalog);
    recovery::RecoveryReport report;
    Status s = recovery::RebuildStore(*storage, &scratch, &report);
    if (!s.ok()) continue;  // unreadable image: fragment contributes nothing
    for (const auto& [item, frag] : scratch.resident_fragments()) {
      if (members.contains(item)) fragments += frag.value;
    }
    uint64_t ignored = 0;
    (void)storage->ScanPrefix(
        0, storage->log_size(),
        [&](Lsn lsn, const wal::LogRecord& rec) {
          if (lsn.value() >= report.valid_prefix) return;  // durable view
          if (const auto* c = std::get_if<wal::VmCreateRec>(&rec)) {
            if (members.contains(c->item.value())) {
              created[c->vm] = LiveVm{c->amount, c->item};
            }
          } else if (const auto* a = std::get_if<wal::VmAcceptRec>(&rec)) {
            accepted.insert(a->vm);
          } else if (const auto* t = std::get_if<wal::TxnCommitRec>(&rec)) {
            bool fully_inside = t->atomic_set;
            if (t->atomic_set) {
              for (const auto& w : t->writes) {
                if (!members.contains(w.item.value())) fully_inside = false;
              }
            }
            // Atomic sets wholly inside the group are excluded: their legs
            // must cancel, so counting them would mask a minting record.
            if (fully_inside) return;
            for (const auto& w : t->writes) {
              if (members.contains(w.item.value())) expected_delta += w.delta;
            }
          }
        },
        &ignored);
  }

  core::Value in_flight = 0;
  for (const auto& [vm, live_vm] : created) {
    if (!accepted.contains(vm)) in_flight += live_vm.amount;
  }

  core::Value initial = 0;
  for (ItemId item : group) initial += catalog.info(item).initial_total;
  core::Value expect = initial + expected_delta;
  if (fragments + in_flight != expect) {
    return Status::Internal(
        "cross-item conservation violated for group of " +
        std::to_string(group.size()) +
        " items: fragments=" + std::to_string(fragments) +
        " in_flight=" + std::to_string(in_flight) +
        " non-atomic delta=" + std::to_string(expected_delta) +
        " expected=" + std::to_string(expect));
  }
  return Status::OK();
}

}  // namespace dvp::verify
