// String-keyed option bag for declarative scenario specs, and the typed
// knob table that parses it.
//
// Workload factories take their knobs (zipf theta, mix percentages, layout
// names, ...) from an OptionMap so a ScenarioSpec stays a plain value type
// that can be built in a loop, printed, and compared — no per-workload
// struct plumbed through the runner. Values are stored as strings. Each
// workload declares its knobs once, as Knob rows naming the Options field
// each one sets and its valid range, and ParseKnobs turns every unknown
// key, malformed value or out-of-range value into InvalidArgument: an
// invalid spec gets a Status back, never a CHECK failure or a silent
// default.
#ifndef CHILLER_RUNNER_OPTIONS_H_
#define CHILLER_RUNNER_OPTIONS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/status.h"

namespace chiller::runner {

struct Knob;

class OptionMap {
 public:
  OptionMap() = default;

  void Set(const std::string& key, const std::string& value);
  void Set(const std::string& key, const char* value);
  void Set(const std::string& key, double value);
  void Set(const std::string& key, uint64_t value);
  void Set(const std::string& key, int value) {
    Set(key, static_cast<uint64_t>(value));
  }
  void Set(const std::string& key, uint32_t value) {
    Set(key, static_cast<uint64_t>(value));
  }

  /// Keys in sorted order (map iteration order), for printing and hashing.
  std::vector<std::string> Keys() const;

  /// Canonical "k1=v1 k2=v2" rendering, stable across runs.
  std::string ToString() const;

  friend bool operator==(const OptionMap&, const OptionMap&) = default;
  friend Status ParseKnobs(const OptionMap& options, std::string_view workload,
                           const std::vector<Knob>& knobs);

 private:
  std::map<std::string, std::string> values_;
};

/// One row of a workload's knob table: the option key, the field its value
/// parses into, and the field's valid range. The field's value before
/// ParseKnobs runs is the knob's default. Numeric ranges are [lo, hi], or
/// [lo, hi) when `hi_open`; a string knob's range is its allowed values.
struct Knob {
  template <typename T>
  struct Field {
    T* value;
    T lo;
    T hi;
    bool hi_open;
  };
  struct Choice {
    std::string* value;
    std::vector<std::string_view> allowed;
  };

  template <typename T>
  Knob(std::string_view name, T* field,
       std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
       std::type_identity_t<T> hi = std::numeric_limits<T>::max(),
       bool hi_open = false)
      : name(name), field(Field<T>{field, lo, hi, hi_open}) {}
  Knob(std::string_view name, std::string* field,
       std::vector<std::string_view> allowed)
      : name(name), field(Choice{field, std::move(allowed)}) {}

  std::string_view name;
  std::variant<Field<uint32_t>, Field<uint64_t>, Field<int64_t>,
               Field<double>, Choice>
      field;
};

/// Parses every key of `options`, in key order, into its knob's field.
/// Stops at the first bad key with InvalidArgument: "unknown option 'k'
/// (known: ...)" for a key no row names, and "<workload> <knob> must ..."
/// for a value that does not parse as the field's type, overflows it, is
/// not finite, or lies outside the range. Fields of absent keys keep their
/// defaults.
Status ParseKnobs(const OptionMap& options, std::string_view workload,
                  const std::vector<Knob>& knobs);

}  // namespace chiller::runner

#endif  // CHILLER_RUNNER_OPTIONS_H_
