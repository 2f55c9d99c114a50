// Checked readers for NVC_* knobs: a set knob overrides its field, an empty
// or unset one keeps it, and malformed outside input throws
// std::invalid_argument naming the knob, the value and what it accepts
// ("NAME=value: want ..."), instead of running some other configuration.
// RuntimeConfig::from_env and core::pool_settings_from_env read through
// these; the lenient env_int (common/env.hpp) is for test knobs only.
#pragma once

#include <charconv>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace nvc::knob {

/// Overrides `field` when knob `name` is set and non-empty; a value `parse`
/// refuses (nullopt) throws, naming the knob and the values it accepts.
template <typename T, typename Parse>
void read(const char* name, T& field, Parse parse, const std::string& want) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return;
  const std::optional<T> parsed = parse(std::string_view(v));
  if (!parsed) {
    throw std::invalid_argument(std::string(name) + "=" + v + ": want " +
                                want);
  }
  field = *parsed;
}

/// The whole string as a number: no "+", blanks or trailing text.
template <typename T>
std::optional<T> parse_number(std::string_view v) {
  T x{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), x);
  if (ec != std::errc() || end != v.data() + v.size()) return std::nullopt;
  return x;
}

/// An unsigned integer in [0, max].
template <typename T>
void read_uint(const char* name, T& field,
               std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
  read(
      name, field,
      [max](std::string_view v) {
        const auto n = parse_number<T>(v);
        return n && *n <= max ? n : std::nullopt;
      },
      "an integer in [0, " + std::to_string(max) + "]");
}

inline std::optional<bool> parse_switch(std::string_view v) {
  if (v != "0" && v != "1") return std::nullopt;
  return v == "1";
}

inline constexpr const char* kSwitch = "0|1";

}  // namespace nvc::knob
