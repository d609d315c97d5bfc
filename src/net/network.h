// RDMA-class network model with per-queue-pair in-order delivery.
#ifndef CHILLER_NET_NETWORK_H_
#define CHILLER_NET_NETWORK_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/per_domain.h"
#include "sim/scheduler.h"

namespace chiller::net {

/// Latency/cost model calibrated against InfiniBand EDR numbers reported for
/// NAM-DB/FaRM-class systems. The defaults put a one-sided round trip at
/// ~2.3 us and a local memory access at ~0.1 us — the "order of magnitude"
/// gap Section 2 of the paper reasons about.
struct NetworkConfig {
  /// One-way wire + switch propagation (ns).
  SimTime propagation = 900;
  /// Per-message NIC processing at the receiving side (ns).
  SimTime nic_process = 250;
  /// Transmission cost per byte (ns). 0.08 ns/B ~ 100 Gbit/s EDR 4X.
  double per_byte = 0.08;
  /// CPU cost to post a verb / send a message at the initiator (ns).
  SimTime post_cost = 150;
  /// CPU cost to reap a completion / receive at the destination of an RPC
  /// (one-sided ops bypass this entirely — that is the point of RDMA).
  SimTime recv_cost = 300;

  /// One-way latency for a message of `bytes` payload.
  SimTime OneWay(size_t bytes) const {
    return propagation + nic_process +
           static_cast<SimTime>(per_byte * static_cast<double>(bytes));
  }
};

/// Message fabric between nodes. Delivery per (src, dst) ordered pair is
/// FIFO, mirroring RDMA's reliable-connection queue-pair semantics; the
/// inner-region replication protocol of paper Section 5 depends on this
/// guarantee, and tests assert it.
///
/// The minimum one-way latency (OneWay(0)) doubles as the sharded
/// simulator's conservative lookahead: every Deliver lands in a later
/// window than it was sent from, and it lands *in the destination node's
/// event domain* — the fabric is where execution crosses shards.
class Network {
 public:
  Network(sim::Scheduler* sim, NetworkConfig config, uint32_t num_nodes);

  /// Delivers `fn` at the destination after the modeled latency. `fn` runs
  /// at arrival time in dst's event domain; what it costs at the
  /// destination (engine CPU vs. NIC bypass) is the caller's concern (see
  /// RdmaFabric / RpcLayer).
  void Deliver(NodeId src, NodeId dst, size_t bytes, sim::Task fn);

  const NetworkConfig& config() const { return config_; }
  uint32_t num_nodes() const { return num_nodes_; }
  uint64_t messages_sent() const { return messages_sent_.Sum(); }
  uint64_t bytes_sent() const { return bytes_sent_.Sum(); }

 private:
  sim::Scheduler* sim_;
  NetworkConfig config_;
  uint32_t num_nodes_;
  std::vector<SimTime> last_delivery_;  // per (src, dst) FIFO horizon
  // Counters are kept per event domain (writes stay thread-local under the
  // sharded simulator) and summed on read, which only happens at control.
  sim::PerDomain<uint64_t> messages_sent_;
  sim::PerDomain<uint64_t> bytes_sent_;
};

}  // namespace chiller::net

#endif  // CHILLER_NET_NETWORK_H_
