#include "net/rdma.h"

#include <utility>

namespace chiller::net {

void RdmaFabric::OneSided(NodeId src, NodeId dst, size_t req_bytes,
                          size_t resp_bytes, sim::Task remote_op,
                          sim::Task completion,
                          sim::CpuResource* initiator_cpu) {
  ++ops_issued_[sim_->current_domain()];
  auto issue = [this, src, dst, req_bytes, resp_bytes,
                remote_op = std::move(remote_op),
                completion = std::move(completion)]() mutable {
    network_->Deliver(
        src, dst, req_bytes,
        [this, src, dst, resp_bytes, remote_op = std::move(remote_op),
         completion = std::move(completion)]() mutable {
          // NIC executes the memory operation; no engine CPU at dst.
          remote_op();
          network_->Deliver(dst, src, resp_bytes, std::move(completion));
        });
  };
  if (initiator_cpu != nullptr) {
    initiator_cpu->Submit(network_->config().post_cost, std::move(issue));
  } else {
    issue();
  }
}

}  // namespace chiller::net
