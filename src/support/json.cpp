#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <system_error>

namespace aa::support {

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void type_error(const char* expected) {
  throw std::runtime_error(std::string("json: expected ") + expected);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (!is_bool()) type_error("bool");
  return std::get<bool>(value_);
}

double JsonValue::as_number() const {
  if (!is_number()) type_error("number");
  return std::get<double>(value_);
}

std::int64_t JsonValue::as_int() const {
  const double d = as_number();
  if (d != std::floor(d) || std::abs(d) > 9.007199254740992e15) {
    type_error("integer");
  }
  return static_cast<std::int64_t>(d);
}

const std::string& JsonValue::as_string() const {
  if (!is_string()) type_error("string");
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
  if (!is_array()) type_error("array");
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
  if (!is_object()) type_error("object");
  return std::get<Object>(value_);
}

JsonValue::Object& JsonValue::as_object() {
  if (!is_object()) type_error("object");
  return std::get<Object>(value_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) type_error("object");
  for (const auto& [name, value] : std::get<Object>(value_)) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* found = find(key);
  if (found == nullptr) {
    throw std::runtime_error("json: missing key '" + std::string(key) + "'");
  }
  return *found;
}

void JsonValue::set(std::string key, JsonValue value) {
  if (is_null()) value_ = Object{};
  if (!is_object()) type_error("object");
  auto& object = std::get<Object>(value_);
  for (auto& [name, existing] : object) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  object.emplace_back(std::move(key), std::move(value));
}

// ---------------------------------------------------------------------------
// Serializer
// ---------------------------------------------------------------------------

namespace {

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  std::size_t plain = 0;  // Start of the run of bytes that need no escape.
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char ch = s[i];
    if (static_cast<unsigned char>(ch) >= 0x20 && ch != '"' && ch != '\\') {
      continue;  // UTF-8 bytes pass through.
    }
    out.append(s, plain, i - plain);
    plain = i + 1;
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[(ch >> 4) & 0xF];
        out += kHex[ch & 0xF];
      }
    }
  }
  out.append(s, plain, std::string::npos);
  out += '"';
}

/// Integers within 2^53 print as integers; every other finite value prints
/// as the shortest digits that parse back to the same double. std::to_chars
/// ignores the locale, so a comma-decimal LC_NUMERIC cannot leak in.
void dump_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    throw std::runtime_error("json: cannot serialize non-finite number");
  }
  char buf[32];
  const bool integral = d == std::floor(d) &&
                        std::abs(d) < 9.007199254740992e15 &&
                        !(d == 0.0 && std::signbit(d));
  const std::to_chars_result result =
      integral ? std::to_chars(buf, buf + sizeof buf,
                               static_cast<long long>(d))
               : std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, result.ptr);
}

}  // namespace

std::string JsonValue::dump(int indent) const {
  std::string out;
  struct Dumper {
    int indent;
    std::string& out;

    void newline(int depth) const {
      if (indent <= 0) return;
      out += '\n';
      out.append(static_cast<std::size_t>(indent * depth), ' ');
    }

    void run(const JsonValue& value, int depth) const {
      if (value.is_null()) {
        out += "null";
      } else if (value.is_bool()) {
        out += value.as_bool() ? "true" : "false";
      } else if (value.is_number()) {
        dump_number(value.as_number(), out);
      } else if (value.is_string()) {
        dump_string(value.as_string(), out);
      } else if (value.is_array()) {
        const auto& array = value.as_array();
        if (array.empty()) {
          out += "[]";
          return;
        }
        out += '[';
        for (std::size_t i = 0; i < array.size(); ++i) {
          if (i != 0) out += ',';
          newline(depth + 1);
          run(array[i], depth + 1);
        }
        newline(depth);
        out += ']';
      } else {
        const auto& object = value.as_object();
        if (object.empty()) {
          out += "{}";
          return;
        }
        out += '{';
        bool first = true;
        for (const auto& [key, member] : object) {
          if (!first) out += ',';
          first = false;
          newline(depth + 1);
          dump_string(key, out);
          out += ':';
          if (indent > 0) out += ' ';
          run(member, depth + 1);
        }
        newline(depth);
        out += '}';
      }
    }
  };
  Dumper{indent, out}.run(*this, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonError(message, line, column);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char ch = peek();
    ++pos_;
    return ch;
  }

  void expect(char ch) {
    if (advance() != ch) {
      --pos_;
      fail(std::string("expected '") + ch + "'");
    }
  }

  void expect_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("invalid literal");
    }
    pos_ += literal.size();
  }

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't': expect_literal("true"); return JsonValue(true);
      case 'f': expect_literal("false"); return JsonValue(false);
      case 'n': expect_literal("null"); return JsonValue(nullptr);
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char ch = advance();
      if (ch == '}') break;
      if (ch != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    return JsonValue(std::move(object));
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    for (;;) {
      array.push_back(parse_value());
      skip_whitespace();
      const char ch = advance();
      if (ch == ']') break;
      if (ch != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    return JsonValue(std::move(array));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char ch = advance();
      if (ch == '"') return out;
      if (static_cast<unsigned char>(ch) < 0x20) {
        fail("unescaped control character in string");
      }
      if (ch != '\\') {
        out += ch;
        continue;
      }
      const char escape = advance();
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = advance();
            code <<= 4;
            if (hex >= '0' && hex <= '9') {
              code |= static_cast<unsigned>(hex - '0');
            } else if (hex >= 'a' && hex <= 'f') {
              code |= static_cast<unsigned>(hex - 'a' + 10);
            } else if (hex >= 'A' && hex <= 'F') {
              code |= static_cast<unsigned>(hex - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate pairs are not supported");
          }
          // Encode BMP code point as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      fail("invalid number");
    }
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
      fail("leading zeros are not allowed");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid fraction");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        fail("invalid exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    // from_chars reads the validated bytes in place, whatever the locale.
    // Subnormals parse; magnitudes past the double range (1e400, 1e-400)
    // are errors.
    double value = 0.0;
    if (std::from_chars(text_.data() + start, text_.data() + pos_, value).ec !=
        std::errc{}) {
      fail("number out of range");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace aa::support
