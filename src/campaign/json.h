// Minimal ordered JSON value for the campaign layer.
//
// The campaign subsystem needs to (a) parse declarative scenario specs,
// (b) checkpoint work-unit results to disk and read them back bit-exactly,
// and (c) emit a merged report that is byte-identical to the one-line
// --json output of the bench binaries. Those three constraints shape this
// class:
//   * objects preserve insertion order (key order is part of the bench
//     report contract);
//   * integers and doubles are distinct value kinds, printed as %PRId64 and
//     %.17g respectively — exactly how bench::JsonReport prints, so numbers
//     survive a dump/parse/dump cycle byte-for-byte;
//   * no third-party dependency; the parser is a small recursive descent
//     over the JSON grammar with precise error positions.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ctc::campaign {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  using Array = std::vector<Json>;
  /// Insertion-ordered key/value pairs (no sorting, duplicates rejected by
  /// the parser).
  using Object = std::vector<std::pair<std::string, Json>>;

  enum class Type { null, boolean, integer, number, string, array, object };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool value) : value_(value) {}
  Json(std::int64_t value) : value_(value) {}
  Json(int value) : value_(static_cast<std::int64_t>(value)) {}
  Json(std::uint64_t value);
  Json(double value) : value_(value) {}
  Json(std::string value) : value_(std::move(value)) {}
  Json(const char* value) : value_(std::string(value)) {}
  Json(Array value) : value_(std::move(value)) {}
  Json(Object value) : value_(std::move(value)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  /// Parses `text` as a single JSON document (trailing non-space and
  /// containers nested more than 256 deep rejected).
  static Json parse(std::string_view text);

  Type type() const;
  bool is_null() const { return type() == Type::null; }
  bool is_bool() const { return type() == Type::boolean; }
  bool is_integer() const { return type() == Type::integer; }
  /// Either an integer or a floating-point literal.
  bool is_number() const {
    return type() == Type::integer || type() == Type::number;
  }
  bool is_string() const { return type() == Type::string; }
  bool is_array() const { return type() == Type::array; }
  bool is_object() const { return type() == Type::object; }

  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_number() const;  ///< integer or double, widened to double
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  // -- Object helpers ------------------------------------------------------
  /// Pointer to the value under `key`, or nullptr when absent.
  const Json* find(std::string_view key) const;
  /// The value under `key`; throws JsonError when absent.
  const Json& at(std::string_view key) const;
  /// Appends (or replaces, preserving position) `key`.
  void set(std::string key, Json value);

  // -- Array helpers -------------------------------------------------------
  void push_back(Json value);

  /// Compact serialization: no whitespace, insertion order, integers as
  /// %PRId64, doubles as %.17g, strings escaping only '"' and '\' plus
  /// control characters — matching bench::JsonReport byte-for-byte for the
  /// values benches emit.
  std::string dump() const;

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

}  // namespace ctc::campaign
