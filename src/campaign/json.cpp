#include "campaign/json.h"

#include <cinttypes>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace ctc::campaign {

namespace {

// Deepest container nesting parse() accepts. The parser recurses once per
// level, so an unbounded document would exhaust the stack; campaign specs
// and manifests nest a handful of levels.
constexpr std::size_t kMaxNestingDepth = 256;

[[noreturn]] void fail(const char* what, std::size_t position) {
  throw JsonError(std::string("json: ") + what + " at offset " +
                  std::to_string(position));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters", pos_);
    return value;
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character", pos_);
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  // `depth` counts the containers enclosing the value.
  Json parse_value(std::size_t depth) {
    skip_space();
    const char first = peek();
    if ((first == '{' || first == '[') && depth == kMaxNestingDepth) {
      fail("containers nested too deeply", pos_);
    }
    switch (first) {
      case '{':
        return parse_object(depth + 1);
      case '[':
        return parse_array(depth + 1);
      case '"':
        return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal", pos_);
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal", pos_);
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal", pos_);
        return Json(nullptr);
      default:
        return parse_number();
    }
  }

  Json parse_object(std::size_t depth) {
    expect('{');
    Json::Object object;
    skip_space();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_space();
      const std::size_t key_pos = pos_;
      std::string key = parse_string();
      for (const auto& [existing, value] : object) {
        if (existing == key) fail("duplicate object key", key_pos);
      }
      skip_space();
      expect(':');
      object.emplace_back(std::move(key), parse_value(depth));
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(object));
    }
  }

  Json parse_array(std::size_t depth) {
    expect('[');
    Json::Array array;
    skip_space();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value(depth));
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(array));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character", pos_ - 1);
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("unknown escape", pos_ - 1);
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape", pos_);
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape", pos_ - 1);
    }
    return value;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate
      if (!consume_literal("\\u")) fail("unpaired surrogate", pos_);
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("bad low surrogate", pos_);
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired surrogate", pos_);
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = (c == '+' || c == '-') ? integral : false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("bad number", start);
    }
    const std::string literal(text_.substr(start, pos_ - start));
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long value = std::strtoll(literal.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return Json(static_cast<std::int64_t>(value));
      }
      // Out-of-range integer literal: fall through to double.
    }
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(literal.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number", start);
    // An overflowing literal (e.g. 1e400) would otherwise become +/-inf,
    // which dump() cannot represent — reject it here instead of silently
    // breaking the round trip. (Underflow to 0 is accepted, as usual.)
    if (!std::isfinite(value)) fail("number out of range", start);
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_string(const std::string& text, std::string& out) {
  out += '"';
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

Json::Json(std::uint64_t value) {
  if (value > static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max())) {
    value_ = static_cast<double>(value);
  } else {
    value_ = static_cast<std::int64_t>(value);
  }
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

Json::Type Json::type() const {
  switch (value_.index()) {
    case 0: return Type::null;
    case 1: return Type::boolean;
    case 2: return Type::integer;
    case 3: return Type::number;
    case 4: return Type::string;
    case 5: return Type::array;
    default: return Type::object;
  }
}

std::int64_t Json::as_int() const {
  if (!is_integer()) throw JsonError("json: not an integer");
  return std::get<std::int64_t>(value_);
}

std::uint64_t Json::as_uint() const {
  const std::int64_t value = as_int();
  if (value < 0) throw JsonError("json: negative where unsigned expected");
  return static_cast<std::uint64_t>(value);
}

double Json::as_number() const {
  if (is_integer()) return static_cast<double>(std::get<std::int64_t>(value_));
  if (type() == Type::number) return std::get<double>(value_);
  throw JsonError("json: not a number");
}

const std::string& Json::as_string() const {
  if (!is_string()) throw JsonError("json: not a string");
  return std::get<std::string>(value_);
}

const Json::Array& Json::as_array() const {
  if (!is_array()) throw JsonError("json: not an array");
  return std::get<Array>(value_);
}

Json::Array& Json::as_array() {
  if (!is_array()) throw JsonError("json: not an array");
  return std::get<Array>(value_);
}

const Json::Object& Json::as_object() const {
  if (!is_object()) throw JsonError("json: not an object");
  return std::get<Object>(value_);
}

Json::Object& Json::as_object() {
  if (!is_object()) throw JsonError("json: not an object");
  return std::get<Object>(value_);
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [existing, value] : as_object()) {
    if (existing == key) return &value;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* value = find(key);
  if (value == nullptr) {
    throw JsonError("json: missing key '" + std::string(key) + "'");
  }
  return *value;
}

void Json::set(std::string key, Json value) {
  for (auto& [existing, existing_value] : as_object()) {
    if (existing == key) {
      existing_value = std::move(value);
      return;
    }
  }
  as_object().emplace_back(std::move(key), std::move(value));
}

void Json::push_back(Json value) { as_array().push_back(std::move(value)); }

std::string Json::dump() const {
  std::string out;
  switch (type()) {
    case Type::null:
      out = "null";
      break;
    case Type::boolean:
      out = std::get<bool>(value_) ? "true" : "false";
      break;
    case Type::integer: {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%" PRId64,
                    std::get<std::int64_t>(value_));
      out = buffer;
      break;
    }
    case Type::number: {
      const double value = std::get<double>(value_);
      if (!std::isfinite(value)) {
        // %.17g would print "inf"/"nan", which is not JSON — the manifest's
        // dump/parse round trip must never emit an unparseable document.
        throw JsonError("json: cannot serialize non-finite number");
      }
      char buffer[40];
      std::snprintf(buffer, sizeof buffer, "%.17g", value);
      out = buffer;
      break;
    }
    case Type::string:
      dump_string(std::get<std::string>(value_), out);
      break;
    case Type::array: {
      out = "[";
      const Array& array = std::get<Array>(value_);
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i > 0) out += ",";
        out += array[i].dump();
      }
      out += "]";
      break;
    }
    case Type::object: {
      out = "{";
      const Object& object = std::get<Object>(value_);
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i > 0) out += ",";
        dump_string(object[i].first, out);
        out += ":";
        out += object[i].second.dump();
      }
      out += "}";
      break;
    }
  }
  return out;
}

}  // namespace ctc::campaign
