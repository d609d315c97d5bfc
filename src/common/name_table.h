// A fixed, name-keyed table of factories.
//
// The experiment axes selected by name — workloads, protocols, admission
// schedulers — are each one NameTable, built with all its entries and
// only read afterwards. Each table is a function-local static const, so
// concurrent lookups (sweep workers wiring scenarios in parallel) need no
// lock.
#ifndef CHILLER_COMMON_NAME_TABLE_H_
#define CHILLER_COMMON_NAME_TABLE_H_

#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

namespace chiller {

/// `names` in order, separated by `sep`.
inline std::string JoinNames(const std::vector<std::string>& names,
                             std::string_view sep = ", ") {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += sep;
    out += n;
  }
  return out;
}

/// Maps each name to a factory building a T from Args. `kind` ("workload",
/// "protocol", ...) names the axis in the unknown-name error.
template <typename T, typename... Args>
class NameTable {
 public:
  using Factory = StatusOr<std::unique_ptr<T>> (*)(Args...);

  NameTable(std::string kind,
            std::initializer_list<std::pair<const std::string, Factory>> entries)
      : kind_(std::move(kind)), factories_(entries) {
    CHILLER_CHECK(factories_.size() == entries.size())
        << "duplicate " << kind_ << " name";
  }

  /// Builds the `name` entry; InvalidArgument names the known entries when
  /// `name` is unknown.
  StatusOr<std::unique_ptr<T>> Make(const std::string& name,
                                    Args... args) const {
    auto it = factories_.find(name);
    if (it == factories_.end()) return Unknown(name);
    return it->second(args...);
  }

  /// OK iff `name` is in the table, else Make's InvalidArgument.
  Status Check(const std::string& name) const {
    return factories_.contains(name) ? Status::OK() : Unknown(name);
  }

  std::vector<std::string> Names() const {  ///< sorted
    std::vector<std::string> names;
    names.reserve(factories_.size());
    for (const auto& entry : factories_) names.push_back(entry.first);
    return names;
  }

 private:
  Status Unknown(const std::string& name) const {
    return Status::InvalidArgument("unknown " + kind_ + " '" + name +
                                   "' (known: " + JoinNames(Names()) + ")");
  }

  std::string kind_;
  std::map<std::string, Factory> factories_;
};

}  // namespace chiller

#endif  // CHILLER_COMMON_NAME_TABLE_H_
