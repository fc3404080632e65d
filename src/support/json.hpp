#pragma once

// Minimal JSON value, parser and serializer (RFC 8259 subset).
//
// Written from scratch for the instance/assignment file formats (io/):
// supports null, bool, finite numbers, strings with \uXXXX escapes (BMP
// only), arrays and objects. Object member order is preserved. Parsing
// errors throw JsonError with line/column context.

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace aa::support {

class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& message, std::size_t line, std::size_t column)
      : std::runtime_error(message + " at line " + std::to_string(line) +
                           ", column " + std::to_string(column)),
        line_(line),
        column_(column) {}

  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Members in document/insertion order.
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}
  JsonValue(std::size_t u) : value_(static_cast<double>(u)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(value_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(value_);
  }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;  ///< Must be integral.
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;
  [[nodiscard]] Object& as_object();

  /// Object lookup; throws if not an object or the key is missing.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  /// Object lookup; returns nullptr when absent.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Builder helper for objects.
  void set(std::string key, JsonValue value);

  /// Serializes; indent > 0 pretty-prints with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// Parses a complete JSON document (rejects trailing garbage).
[[nodiscard]] JsonValue json_parse(std::string_view text);

}  // namespace aa::support
