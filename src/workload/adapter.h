// Uniform driving interface over the DvP cluster and the traditional
// baselines, so one workload driver can generate identical load against all
// of them and the measured differences are protocol-only.
#pragma once

#include <memory>

#include "baseline/primary_copy.h"
#include "baseline/twopc.h"
#include "common/status.h"
#include "common/types.h"
#include "system/cluster.h"
#include "txn/txn.h"

namespace dvp::workload {

class SystemAdapter {
 public:
  virtual ~SystemAdapter() = default;
  virtual std::string_view Name() const = 0;
  virtual StatusOr<TxnId> Submit(SiteId at, const txn::TxnSpec& spec,
                                 txn::TxnCallback cb) = 0;
  virtual void RunFor(SimTime us) = 0;
  virtual SimTime Now() const = 0;
  virtual sim::Kernel& kernel() = 0;
  virtual uint32_t num_sites() const = 0;
  virtual Status Partition(const std::vector<std::vector<SiteId>>& groups) = 0;
  virtual void Heal() = 0;
};

class DvpAdapter final : public SystemAdapter {
 public:
  explicit DvpAdapter(system::Cluster* cluster) : cluster_(cluster) {}
  std::string_view Name() const override { return "DvP"; }
  StatusOr<TxnId> Submit(SiteId at, const txn::TxnSpec& spec,
                         txn::TxnCallback cb) override {
    return cluster_->Submit(at, spec, std::move(cb));
  }
  void RunFor(SimTime us) override { cluster_->RunFor(us); }
  SimTime Now() const override { return cluster_->Now(); }
  sim::Kernel& kernel() override { return cluster_->kernel(); }
  uint32_t num_sites() const override { return cluster_->num_sites(); }
  Status Partition(const std::vector<std::vector<SiteId>>& groups) override {
    return cluster_->Partition(groups);
  }
  void Heal() override { cluster_->Heal(); }

 private:
  system::Cluster* cluster_;
};

class TwoPcAdapter final : public SystemAdapter {
 public:
  explicit TwoPcAdapter(baseline::TwoPcCluster* cluster,
                        std::string_view name = "2PC")
      : cluster_(cluster), name_(name) {}
  std::string_view Name() const override { return name_; }
  StatusOr<TxnId> Submit(SiteId at, const txn::TxnSpec& spec,
                         txn::TxnCallback cb) override {
    return cluster_->Submit(at, spec, std::move(cb));
  }
  void RunFor(SimTime us) override { cluster_->RunFor(us); }
  SimTime Now() const override { return cluster_->Now(); }
  sim::Kernel& kernel() override { return cluster_->kernel(); }
  uint32_t num_sites() const override { return cluster_->num_sites(); }
  Status Partition(const std::vector<std::vector<SiteId>>& groups) override {
    return cluster_->Partition(groups);
  }
  void Heal() override { cluster_->Heal(); }

 private:
  baseline::TwoPcCluster* cluster_;
  std::string_view name_;
};

class PrimaryCopyAdapter final : public SystemAdapter {
 public:
  explicit PrimaryCopyAdapter(baseline::PrimaryCopyCluster* cluster)
      : cluster_(cluster) {}
  std::string_view Name() const override { return "PrimaryCopy"; }
  StatusOr<TxnId> Submit(SiteId at, const txn::TxnSpec& spec,
                         txn::TxnCallback cb) override {
    return cluster_->Submit(at, spec, std::move(cb));
  }
  void RunFor(SimTime us) override { cluster_->RunFor(us); }
  SimTime Now() const override { return cluster_->Now(); }
  sim::Kernel& kernel() override { return cluster_->kernel(); }
  uint32_t num_sites() const override { return cluster_->num_sites(); }
  Status Partition(const std::vector<std::vector<SiteId>>& groups) override {
    return cluster_->Partition(groups);
  }
  void Heal() override { cluster_->Heal(); }

 private:
  baseline::PrimaryCopyCluster* cluster_;
};

}  // namespace dvp::workload
