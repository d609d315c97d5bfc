// One-sided RDMA verb abstraction (READ / WRITE / CAS on remote memory).
#ifndef CHILLER_NET_RDMA_H_
#define CHILLER_NET_RDMA_H_

#include "net/network.h"
#include "net/topology.h"
#include "sim/cpu_resource.h"
#include "sim/per_domain.h"

namespace chiller::net {

/// Executes one-sided operations against remote storage. The defining RDMA
/// property modeled here: `remote_op` runs at the destination *without
/// involving the destination's execution engine CPU* (the NIC performs the
/// memory access), and the completion is delivered back to the initiator
/// after the response latency.
///
/// In the simulator all state lives in one address space, so `remote_op` is
/// an arbitrary closure acting on the destination's storage; it is invoked
/// at the simulated arrival instant, which is what preserves correct
/// lock-word CAS semantics under concurrency.
class RdmaFabric {
 public:
  RdmaFabric(sim::Scheduler* sim, Network* network, const Topology& topology)
      : sim_(sim),
        network_(network),
        topology_(topology),
        ops_issued_(topology.num_nodes + 1u) {}

  /// Issues a one-sided operation from `src` to `dst` node.
  ///  - `req_bytes` / `resp_bytes`: payload sizes for the latency model.
  ///  - `remote_op`: performed at dst on arrival (NIC bypass, no engine CPU).
  ///  - `completion`: runs at src when the response arrives.
  /// Initiator CPU cost (verb post + completion poll) is charged to
  /// `initiator_cpu` if non-null.
  void OneSided(NodeId src, NodeId dst, size_t req_bytes, size_t resp_bytes,
                sim::Task remote_op, sim::Task completion,
                sim::CpuResource* initiator_cpu = nullptr);

  uint64_t ops_issued() const { return ops_issued_.Sum(); }

  const Topology& topology() const { return topology_; }

 private:
  sim::Scheduler* sim_;
  Network* network_;
  Topology topology_;
  sim::PerDomain<uint64_t> ops_issued_;  // summed on read
};

}  // namespace chiller::net

#endif  // CHILLER_NET_RDMA_H_
