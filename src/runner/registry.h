// Name tables for workloads and protocols.
//
// Benches, tests, and examples resolve both axes of an experiment by name,
// and --list-workloads / --list-protocols print what a build supports.
// Each table is fixed at build time (workloads: tpcc, instacart, flight,
// ycsb, plus the hash-start adaptive family adaptive / adaptive-tpcc;
// protocols: 2pl, occ, chiller); adding a scenario family is one table
// entry. Plain 2PL on Chiller's layout is "2pl" run on a Chiller-placed
// workload: the layout comes from the bundle, not the protocol.
#ifndef CHILLER_RUNNER_REGISTRY_H_
#define CHILLER_RUNNER_REGISTRY_H_

#include <memory>
#include <vector>

#include "cc/cluster.h"
#include "cc/driver.h"
#include "cc/protocol.h"
#include "cc/replication.h"
#include "common/name_table.h"
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

using WorkloadTable = NameTable<WorkloadBundle, const ScenarioSpec&>;
using ProtocolTable =
    NameTable<cc::Protocol, cc::Cluster*, const partition::RecordPartitioner*,
              cc::ReplicationManager*>;

/// The built-in workloads, keyed by ScenarioSpec::workload (defined in
/// builtin_workloads.cc).
const WorkloadTable& Workloads();

/// The built-in protocols, keyed by ScenarioSpec::protocol.
const ProtocolTable& Protocols();

}  // namespace chiller::runner

#endif  // CHILLER_RUNNER_REGISTRY_H_
