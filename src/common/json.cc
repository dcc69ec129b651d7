#include "src/common/json.h"

#include <cmath>
#include <cstdio>

namespace quilt {

namespace {

const Json kNullJson{};
const std::string kEmptyString;

void EscapeTo(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

// JSON has no NaN or infinity: a non-finite number is written as null.
void NumberTo(double d, std::string& out) {
  if (!std::isfinite(d)) {
    out += "null";
  } else if (std::floor(d) == d && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out += buf;
  }
}

}  // namespace

Json::Type Json::type() const {
  switch (value_.index()) {
    case 0:
      return Type::kNull;
    case 1:
      return Type::kBool;
    case 2:
      return Type::kNumber;
    case 3:
      return Type::kString;
    case 4:
      return Type::kArray;
    default:
      return Type::kObject;
  }
}

bool Json::AsBool(bool fallback) const {
  if (const bool* b = std::get_if<bool>(&value_)) {
    return *b;
  }
  return fallback;
}

double Json::AsDouble(double fallback) const {
  if (const double* d = std::get_if<double>(&value_)) {
    return *d;
  }
  return fallback;
}

int64_t Json::AsInt(int64_t fallback) const {
  if (const double* d = std::get_if<double>(&value_)) {
    return static_cast<int64_t>(*d);
  }
  return fallback;
}

const std::string& Json::AsString() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) {
    return *s;
  }
  return kEmptyString;
}

Json& Json::operator[](const std::string& key) {
  if (!is_object()) {
    value_ = Object{};
  }
  return std::get<Object>(value_)[key];
}

const Json& Json::Get(const std::string& key) const {
  if (const Object* obj = std::get_if<Object>(&value_)) {
    auto it = obj->find(key);
    if (it != obj->end()) {
      return it->second;
    }
  }
  return kNullJson;
}

bool Json::Has(const std::string& key) const {
  const Object* obj = std::get_if<Object>(&value_);
  return obj != nullptr && obj->count(key) > 0;
}

void Json::Append(Json value) {
  if (!is_array()) {
    value_ = Array{};
  }
  std::get<Array>(value_).push_back(std::move(value));
}

size_t Json::size() const {
  if (const Array* arr = std::get_if<Array>(&value_)) {
    return arr->size();
  }
  if (const Object* obj = std::get_if<Object>(&value_)) {
    return obj->size();
  }
  return 0;
}

const Json& Json::At(size_t index) const {
  if (const Array* arr = std::get_if<Array>(&value_)) {
    if (index < arr->size()) {
      return (*arr)[index];
    }
  }
  return kNullJson;
}

std::string Json::Dump() const {
  std::string out;
  switch (type()) {
    case Type::kNull:
      out = "null";
      break;
    case Type::kBool:
      out = std::get<bool>(value_) ? "true" : "false";
      break;
    case Type::kNumber:
      NumberTo(std::get<double>(value_), out);
      break;
    case Type::kString:
      EscapeTo(std::get<std::string>(value_), out);
      break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& item : std::get<Array>(value_)) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        out += item.Dump();
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, item] : std::get<Object>(value_)) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        EscapeTo(key, out);
        out.push_back(':');
        out += item.Dump();
      }
      out.push_back('}');
      break;
    }
  }
  return out;
}

}  // namespace quilt
