#include "net/rpc.h"

#include <utility>

#include "common/logging.h"

namespace chiller::net {

void RpcLayer::BindEngines(std::vector<sim::CpuResource*> engine_cpus) {
  CHILLER_CHECK(engine_cpus.size() == topology_.num_engines());
  engine_cpus_ = std::move(engine_cpus);
}

void RpcLayer::Send(EngineId src_engine, EngineId dst_engine, size_t bytes,
                    SimTime service_cost, sim::Task handler) {
  CHILLER_CHECK(!engine_cpus_.empty()) << "BindEngines not called";
  ++rpcs_sent_[sim_->current_domain()];
  const NodeId src = topology_.NodeOfEngine(src_engine);
  const NodeId dst = topology_.NodeOfEngine(dst_engine);
  sim::CpuResource* src_cpu = engine_cpus_[src_engine];
  sim::CpuResource* dst_cpu = engine_cpus_[dst_engine];
  const SimTime recv = network_->config().recv_cost;

  src_cpu->Submit(network_->config().post_cost,
                  [this, src, dst, bytes, dst_cpu, recv, service_cost,
                   handler = std::move(handler)]() mutable {
                    network_->Deliver(src, dst, bytes,
                                      [dst_cpu, recv, service_cost,
                                       handler = std::move(handler)]() mutable {
                                        dst_cpu->Submit(recv + service_cost,
                                                        std::move(handler));
                                      });
                  });
}

}  // namespace chiller::net
