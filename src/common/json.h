// Minimal JSON value type with serialization.
//
// Serverless functions exchange (JSON-encoded) strings exclusively -- this is
// the observation Quilt exploits to merge functions across languages (§5).
// The runtime uses this library to build request/response payloads.
#ifndef SRC_COMMON_JSON_H_
#define SRC_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/common/status.h"

namespace quilt {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(int64_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }
  bool is_object() const { return type() == Type::kObject; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_string() const { return type() == Type::kString; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_bool() const { return type() == Type::kBool; }

  bool AsBool(bool fallback = false) const;
  double AsDouble(double fallback = 0.0) const;
  int64_t AsInt(int64_t fallback = 0) const;
  const std::string& AsString() const;  // Empty string if not a string.

  // Object access. operator[] inserts for mutation; Get returns null Json if
  // absent.
  Json& operator[](const std::string& key);
  const Json& Get(const std::string& key) const;
  bool Has(const std::string& key) const;

  // Array access.
  void Append(Json value);
  size_t size() const;
  const Json& At(size_t index) const;

  // Compact serialization ({"k":"v",...}). Non-finite numbers dump as null.
  std::string Dump() const;

  bool operator==(const Json& other) const { return value_ == other.value_; }

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

}  // namespace quilt

#endif  // SRC_COMMON_JSON_H_
