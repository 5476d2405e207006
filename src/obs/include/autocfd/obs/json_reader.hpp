// Minimal recursive-descent JSON reader, the counterpart of json_util.
//
// The repository writes all of its JSON by hand (obs/json_util); this
// reader loads it back — run reports and plan files for the planner,
// sweep specs and scaling reports, ledger lines and bench sidecars. It
// covers exactly the JSON the repo produces — objects, arrays, strings
// with the json_escape escapes, numbers, booleans, null — with no
// external dependency.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace autocfd::obs {

/// One parsed JSON value. Objects keep insertion order so that a
/// write -> read -> write round trip is byte-identical.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;                           // Array
  std::vector<std::pair<std::string, JsonValue>> fields;  // Object

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  // Typed accessors with fallbacks (never throw).
  [[nodiscard]] double num_or(std::string_view key, double fallback) const;
  [[nodiscard]] long long int_or(std::string_view key,
                                 long long fallback) const;
  [[nodiscard]] std::string str_or(std::string_view key,
                                   std::string fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
  /// Array-valued member, or an empty list when absent/mistyped.
  [[nodiscard]] const std::vector<JsonValue>& list(std::string_view key) const;
};

/// Parses one JSON document. On failure returns nullopt and, when
/// `error` is non-null, a one-line diagnostic with the byte offset.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error);

}  // namespace autocfd::obs
