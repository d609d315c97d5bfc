#include "runner/registry.h"

#include "cc/occ.h"
#include "cc/twopl.h"
#include "chiller/two_region.h"

namespace chiller::runner {

namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

}  // namespace

// Defined in builtin_workloads.cc; called once from Global().
void RegisterBuiltinWorkloads(WorkloadRegistry* registry);

WorkloadRegistry& WorkloadRegistry::Global() {
  static WorkloadRegistry* registry = [] {
    auto* r = new WorkloadRegistry();
    RegisterBuiltinWorkloads(r);
    return r;
  }();
  return *registry;
}

Status WorkloadRegistry::Register(const std::string& name,
                                  WorkloadFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  if (factories_.contains(name)) {
    return Status::FailedPrecondition("workload '" + name +
                                      "' already registered");
  }
  factories_[name] = std::move(factory);
  return Status::OK();
}

StatusOr<std::unique_ptr<WorkloadBundle>> WorkloadRegistry::Make(
    const ScenarioSpec& spec) const {
  WorkloadFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(spec.workload);
    if (it == factories_.end()) {
      return Status::InvalidArgument("unknown workload '" + spec.workload +
                                     "' (known: " + JoinNames(NamesLocked()) +
                                     ")");
    }
    factory = it->second;
  }
  return factory(spec);
}

bool WorkloadRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.contains(name);
}

std::vector<std::string> WorkloadRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NamesLocked();
}

std::vector<std::string> WorkloadRegistry::NamesLocked() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

ProtocolRegistry& ProtocolRegistry::Global() {
  static ProtocolRegistry* registry = [] {
    auto* r = new ProtocolRegistry();
    auto must = [](const Status& st) {
      CHILLER_CHECK(st.ok()) << st.ToString();
    };
    must(r->Register(
        "2pl", [](cc::Cluster* c, const partition::RecordPartitioner* p,
                  cc::ReplicationManager* repl) -> std::unique_ptr<cc::Protocol> {
          return std::make_unique<cc::TwoPhaseLocking>(c, p, repl);
        }));
    must(r->Register(
        "occ", [](cc::Cluster* c, const partition::RecordPartitioner* p,
                  cc::ReplicationManager* repl) -> std::unique_ptr<cc::Protocol> {
          return std::make_unique<cc::Occ>(c, p, repl);
        }));
    must(r->Register(
        "chiller",
        [](cc::Cluster* c, const partition::RecordPartitioner* p,
           cc::ReplicationManager* repl) -> std::unique_ptr<cc::Protocol> {
          return std::make_unique<core::ChillerProtocol>(c, p, repl);
        }));
    return r;
  }();
  return *registry;
}

Status ProtocolRegistry::Register(const std::string& name,
                                  ProtocolFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  if (factories_.contains(name)) {
    return Status::FailedPrecondition("protocol '" + name +
                                      "' already registered");
  }
  factories_[name] = std::move(factory);
  return Status::OK();
}

StatusOr<std::unique_ptr<cc::Protocol>> ProtocolRegistry::Make(
    const std::string& name, cc::Cluster* cluster,
    const partition::RecordPartitioner* partitioner,
    cc::ReplicationManager* replication) const {
  ProtocolFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      return Status::InvalidArgument("unknown protocol '" + name +
                                     "' (known: " + JoinNames(NamesLocked()) +
                                     ")");
    }
    factory = it->second;
  }
  return factory(cluster, partitioner, replication);
}

bool ProtocolRegistry::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.contains(name);
}

std::vector<std::string> ProtocolRegistry::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return NamesLocked();
}

std::vector<std::string> ProtocolRegistry::NamesLocked() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;
}

}  // namespace chiller::runner
