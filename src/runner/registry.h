// String-keyed registries for workloads and protocols.
//
// The registries make "add a scenario" a registration instead of a new
// binary's worth of wiring: benches, tests, and examples resolve both axes
// of an experiment by name, and --list-workloads / --list-protocols print
// what a build supports. Global() instances come pre-loaded with the
// built-ins (workloads: tpcc, instacart, flight, ycsb, plus the hash-start
// adaptive family adaptive / adaptive-tpcc; protocols: 2pl, occ, chiller)
// and accept further Register() calls, e.g. from out-of-tree experiment
// binaries. Plain 2PL on Chiller's layout is "2pl" run on a Chiller-placed
// workload: the layout comes from the bundle, not the protocol.
#ifndef CHILLER_RUNNER_REGISTRY_H_
#define CHILLER_RUNNER_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cc/cluster.h"
#include "cc/driver.h"
#include "cc/protocol.h"
#include "cc/replication.h"
#include "common/status.h"
#include "partition/lookup_table.h"
#include "runner/scenario.h"
#include "storage/record.h"

namespace chiller::runner {

/// Everything a scenario needs from its workload, bundled with the state
/// that keeps it alive: the schema, a placement (plus hotness) decision,
/// the record loader, and the transaction source. One bundle serves one
/// scenario; factories must return independent instances so sweeps can run
/// bundles on concurrent workers.
class WorkloadBundle {
 public:
  virtual ~WorkloadBundle() = default;

  virtual std::vector<storage::TableSpec> Schema() const = 0;
  virtual const partition::RecordPartitioner* partitioner() const = 0;
  virtual cc::WorkloadSource* source() = 0;

  /// Non-null iff this workload's layout may be rebuilt while it runs: the
  /// replan/migrate phases swap the returned partitioner's delegate. The
  /// default (frozen layout) is null, and plans with adaptive phases fail
  /// on such bundles instead of silently measuring a stale layout.
  virtual partition::SwappablePartitioner* adaptive_partitioner() {
    return nullptr;
  }

  /// Loads the initial database into the cluster (via LoadRecord /
  /// LoadEverywhere) using this bundle's partitioner.
  virtual void Load(cc::Cluster* cluster) const = 0;
};

using WorkloadFactory =
    std::function<StatusOr<std::unique_ptr<WorkloadBundle>>(
        const ScenarioSpec&)>;

class WorkloadRegistry {
 public:
  /// The process-wide registry, pre-loaded with the built-in workloads.
  static WorkloadRegistry& Global();

  /// FailedPrecondition if `name` is already taken.
  Status Register(const std::string& name, WorkloadFactory factory);

  /// Builds a bundle for `spec.workload`; InvalidArgument names the known
  /// workloads when the key is unknown.
  StatusOr<std::unique_ptr<WorkloadBundle>> Make(
      const ScenarioSpec& spec) const;

  bool Has(const std::string& name) const;
  std::vector<std::string> Names() const;  ///< sorted

 private:
  std::vector<std::string> NamesLocked() const;

  mutable std::mutex mu_;
  std::map<std::string, WorkloadFactory> factories_;
};

using ProtocolFactory = std::function<std::unique_ptr<cc::Protocol>(
    cc::Cluster*, const partition::RecordPartitioner*,
    cc::ReplicationManager*)>;

class ProtocolRegistry {
 public:
  /// The process-wide registry, pre-loaded with the built-in protocols.
  static ProtocolRegistry& Global();

  /// FailedPrecondition if `name` is already taken.
  Status Register(const std::string& name, ProtocolFactory factory);

  /// InvalidArgument names the known protocols when the key is unknown.
  StatusOr<std::unique_ptr<cc::Protocol>> Make(
      const std::string& name, cc::Cluster* cluster,
      const partition::RecordPartitioner* partitioner,
      cc::ReplicationManager* replication) const;

  bool Has(const std::string& name) const;
  std::vector<std::string> Names() const;  ///< sorted

 private:
  std::vector<std::string> NamesLocked() const;

  mutable std::mutex mu_;
  std::map<std::string, ProtocolFactory> factories_;
};

}  // namespace chiller::runner

#endif  // CHILLER_RUNNER_REGISTRY_H_
