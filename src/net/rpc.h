// Two-sided RPC between execution engines.
#ifndef CHILLER_NET_RPC_H_
#define CHILLER_NET_RPC_H_

#include <vector>

#include "net/network.h"
#include "net/topology.h"
#include "sim/cpu_resource.h"
#include "sim/per_domain.h"

namespace chiller::net {

/// Sends messages that are *processed by the destination engine's CPU* —
/// unlike one-sided verbs, an RPC occupies the remote core. Used for
/// inner-region delegation (paper Section 3.3 step 4) and replication
/// streams (Section 5).
class RpcLayer {
 public:
  RpcLayer(sim::Scheduler* sim, Network* network, Topology topology)
      : sim_(sim),
        network_(network),
        topology_(std::move(topology)),
        rpcs_sent_(topology_.num_nodes + 1u) {}

  /// Registers the CPU of each engine; index = EngineId. Must be called once
  /// before Send.
  void BindEngines(std::vector<sim::CpuResource*> engine_cpus);

  /// Sends a message of `bytes` from `src_engine` to `dst_engine`.
  /// `handler` runs on the destination engine after queueing for its CPU and
  /// consuming `service_cost` ns of it. Charges post cost to the source
  /// engine's CPU. The handler sends any response explicitly via Send.
  void Send(EngineId src_engine, EngineId dst_engine, size_t bytes,
            SimTime service_cost, sim::Task handler);

  uint64_t rpcs_sent() const { return rpcs_sent_.Sum(); }
  const Topology& topology() const { return topology_; }

 private:
  sim::Scheduler* sim_;
  Network* network_;
  Topology topology_;
  std::vector<sim::CpuResource*> engine_cpus_;
  sim::PerDomain<uint64_t> rpcs_sent_;  // summed on read
};

}  // namespace chiller::net

#endif  // CHILLER_NET_RPC_H_
