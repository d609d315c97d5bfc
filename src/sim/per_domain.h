// One value per event domain, each on its own cache line.
#ifndef CHILLER_SIM_PER_DOMAIN_H_
#define CHILLER_SIM_PER_DOMAIN_H_

#include <cstddef>
#include <vector>

namespace chiller::sim {

/// Per-domain counters written from inside events. Under the sharded
/// simulator each domain's events run on one thread, so a cell is only ever
/// written by one thread at a time; padding every cell to a cache line keeps
/// neighbouring domains on different shards from invalidating each other's
/// line on every write. Readers sum the cells, which happens only from the
/// control plane (every domain paused).
template <typename T>
class PerDomain {
 public:
  explicit PerDomain(size_t num_domains) : cells_(num_domains) {}

  T& operator[](size_t domain) { return cells_[domain].value; }
  size_t size() const { return cells_.size(); }

  T Sum() const {
    T total{};
    for (const Cell& c : cells_) total += c.value;
    return total;
  }

 private:
  struct alignas(64) Cell {
    T value{};
  };
  std::vector<Cell> cells_;
};

}  // namespace chiller::sim

#endif  // CHILLER_SIM_PER_DOMAIN_H_
