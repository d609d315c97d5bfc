#include "runner/registry.h"

#include "cc/occ.h"
#include "cc/twopl.h"
#include "chiller/two_region.h"

namespace chiller::runner {

namespace {

template <typename P>
StatusOr<std::unique_ptr<cc::Protocol>> MakeProtocol(
    cc::Cluster* cluster, const partition::RecordPartitioner* partitioner,
    cc::ReplicationManager* replication) {
  return std::unique_ptr<cc::Protocol>(
      std::make_unique<P>(cluster, partitioner, replication));
}

}  // namespace

const ProtocolTable& Protocols() {
  static const ProtocolTable table(
      "protocol", {{"2pl", MakeProtocol<cc::TwoPhaseLocking>},
                   {"occ", MakeProtocol<cc::Occ>},
                   {"chiller", MakeProtocol<core::ChillerProtocol>}});
  return table;
}

}  // namespace chiller::runner
