// Small recursive-descent JSON parser for the tests: round-trips the
// documents the telemetry writer (src/telemetry/json.hpp) produces.
// Deliberately tiny and dependency-free; numbers are doubles and inputs are
// trusted artifacts the library wrote itself.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dasched::json {

struct Value;
using ValuePtr = std::shared_ptr<Value>;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<ValuePtr> array;
  std::map<std::string, ValuePtr> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr if absent or not an object.
  const Value* get(std::string_view key) const;
};

/// Parses a complete JSON document. Returns nullptr on malformed input
/// (if `error` is non-null it receives a short description).
ValuePtr parse(std::string_view text, std::string* error = nullptr);

}  // namespace dasched::json
