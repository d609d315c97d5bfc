#include "net/network.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace chiller::net {

Network::Network(sim::Scheduler* sim, NetworkConfig config, uint32_t num_nodes)
    : sim_(sim),
      config_(config),
      num_nodes_(num_nodes),
      last_delivery_(static_cast<size_t>(num_nodes) * num_nodes, 0),
      messages_sent_(num_nodes + 1u),
      bytes_sent_(num_nodes + 1u) {}

void Network::Deliver(NodeId src, NodeId dst, size_t bytes, sim::Task fn) {
  CHILLER_DCHECK(src < num_nodes_ && dst < num_nodes_);
  const sim::DomainId ctx = sim_->current_domain();
  ++messages_sent_[ctx];
  bytes_sent_[ctx] += bytes;
  SimTime arrival = sim_->now() + config_.OneWay(bytes);
  // Enforce FIFO per queue pair: a message never overtakes an earlier one on
  // the same (src, dst) connection. The horizon slot is only ever touched
  // from src's own domain (or at control), so it needs no synchronization.
  SimTime& horizon = last_delivery_[static_cast<size_t>(src) * num_nodes_ + dst];
  arrival = std::max(arrival, horizon);
  horizon = arrival;
  sim_->ScheduleIn(sim::DomainOfNode(dst), arrival, std::move(fn));
}

}  // namespace chiller::net
