#include "runner/options.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace chiller::runner {

void OptionMap::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void OptionMap::Set(const std::string& key, const char* value) {
  values_[key] = value;
}

void OptionMap::Set(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  values_[key] = buf;
}

void OptionMap::Set(const std::string& key, uint64_t value) {
  values_[key] = std::to_string(value);
}

std::vector<std::string> OptionMap::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(values_.size());
  for (const auto& [k, v] : values_) keys.push_back(k);
  return keys;
}

std::string OptionMap::ToString() const {
  std::string out;
  for (const auto& [k, v] : values_) {
    if (!out.empty()) out += ' ';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

namespace {

template <typename T>
std::string Show(T v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// "must be ..." for `text`, or "" when it parses into the field in range.
/// A NaN fails both range comparisons and an infinity lies past the finite
/// bounds, so every accepted double is finite; an integer that overflows
/// the field fails from_chars.
template <typename T>
std::string Parse(const std::string& text, const Knob::Field<T>& f) {
  T v{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec == std::errc() && ptr == last && v >= f.lo &&
      (f.hi_open ? v < f.hi : v <= f.hi)) {
    *f.value = v;
    return "";
  }
  return std::string(std::is_floating_point_v<T> ? "a number" : "an integer") +
         " in [" + Show(f.lo) + ", " + Show(f.hi) + (f.hi_open ? ")" : "]");
}

std::string Parse(const std::string& text, const Knob::Choice& c) {
  std::string names;
  for (std::string_view a : c.allowed) {
    if (text == a) {
      *c.value = text;
      return "";
    }
    if (!names.empty()) names += ", ";
    names += a;
  }
  return "one of " + names;
}

}  // namespace

Status ParseKnobs(const OptionMap& options, std::string_view workload,
                  const std::vector<Knob>& knobs) {
  for (const auto& [key, text] : options.values_) {
    const auto knob =
        std::find_if(knobs.begin(), knobs.end(),
                     [&](const Knob& k) { return k.name == key; });
    if (knob == knobs.end()) {
      std::string known;
      for (const Knob& k : knobs) {
        if (!known.empty()) known += ", ";
        known += k.name;
      }
      return Status::InvalidArgument("unknown option '" + key +
                                     "' (known: " + known + ")");
    }
    const std::string must = std::visit(
        [&](const auto& field) { return Parse(text, field); }, knob->field);
    if (!must.empty()) {
      return Status::InvalidArgument(std::string(workload) + " " + key +
                                     " must be " + must + ", got '" + text +
                                     "'");
    }
  }
  return Status::OK();
}

}  // namespace chiller::runner
