#include "serve/json.hpp"

#include <cmath>
#include <cstdlib>

#include "util/json_text.hpp"

namespace absq::serve {
namespace {

[[noreturn]] void fail(const std::string& what, std::size_t offset) {
  throw JsonError("json: " + what + " at offset " + std::to_string(offset));
}

/// Recursive-descent parser over the raw text. Depth is bounded so hostile
/// input ("[[[[…") cannot exhaust the stack of a server reader thread.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value(0);
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters", pos_);
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

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
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'",
           pos_);
    }
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    std::size_t len = 0;
    while (literal[len] != '\0') ++len;
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep", pos_);
    skip_space();
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal", pos_);
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal", pos_);
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal", pos_);
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    expect('{');
    Json object = Json::object();
    skip_space();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skip_space();
      if (peek() != '"') fail("expected object key string", pos_);
      std::string key = parse_string();
      skip_space();
      expect(':');
      object.set(key, parse_value(depth + 1));
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return object;
    }
  }

  Json parse_array(int depth) {
    expect('[');
    Json array = Json::array();
    skip_space();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push(parse_value(depth + 1));
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return array;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) fail("raw control character in string", pos_);
      if (c != '\\') {
        out.push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // consume backslash
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      switch (text_[pos_]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: fail("invalid escape", pos_);
      }
      ++pos_;
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      ++pos_;
      if (pos_ >= text_.size()) fail("unterminated \\u escape", pos_);
      const char c = text_[pos_];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit", pos_);
      }
    }
    return value;
  }

  /// Decodes \uXXXX (with surrogate-pair handling) to UTF-8. pos_ is left
  /// on the final consumed character, matching the other escape cases.
  void append_unicode_escape(std::string& out) {
    std::uint32_t code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: a \uDC00-\uDFFF low surrogate must follow.
      if (pos_ + 2 >= text_.size() || text_[pos_ + 1] != '\\' ||
          text_[pos_ + 2] != 'u') {
        fail("unpaired high surrogate", pos_);
      }
      pos_ += 2;
      const std::uint32_t low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate", pos_);
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate", pos_);
    }
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("invalid number", start);
    try {
      std::size_t consumed = 0;
      if (!is_double) {
        const std::int64_t value = std::stoll(token, &consumed);
        if (consumed == token.size()) return Json(value);
        fail("invalid number '" + token + "'", start);
      }
      const double value = std::stod(token, &consumed);
      if (consumed != token.size() || !std::isfinite(value)) {
        fail("invalid number '" + token + "'", start);
      }
      return Json(value);
    } catch (const std::invalid_argument&) {
      fail("invalid number '" + token + "'", start);
    } catch (const std::out_of_range&) {
      // Integer overflow degrades to double (JSON has one number type);
      // double overflow is rejected as non-finite above.
      try {
        const double value = std::stod(token);
        if (std::isfinite(value)) return Json(value);
      } catch (...) {  // NOLINT(bugprone-empty-catch) — rethrown as JsonError
      }
      fail("number out of range '" + token + "'", start);
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void dump_value(const Json& value, std::string& out) {
  switch (value.kind()) {
    case Json::Kind::kNull: out += "null"; return;
    case Json::Kind::kBool: out += value.as_bool() ? "true" : "false"; return;
    case Json::Kind::kInt: out += std::to_string(value.as_int()); return;
    case Json::Kind::kDouble: out += json_number(value.as_double()); return;
    case Json::Kind::kString: out += json_quote(value.as_string()); return;
    case Json::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& item : value.items()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(item, out);
      }
      out.push_back(']');
      return;
    }
    case Json::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out.push_back(',');
        first = false;
        out += json_quote(key);
        out.push_back(':');
        dump_value(member, out);
      }
      out.push_back('}');
      return;
    }
  }
}

}  // namespace

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) throw JsonError("json: not a bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (kind_ == Kind::kInt) return int_;
  if (kind_ == Kind::kDouble) {
    // Protocol fields like max_flips may arrive as 1e6; accept doubles
    // that are exactly integral, reject everything else.
    if (std::isfinite(double_) && double_ == std::floor(double_) &&
        double_ >= -9.2e18 && double_ <= 9.2e18) {
      return static_cast<std::int64_t>(double_);
    }
    throw JsonError("json: number is not an integer");
  }
  throw JsonError("json: not a number");
}

double Json::as_double() const {
  if (kind_ == Kind::kDouble) return double_;
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  throw JsonError("json: not a number");
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) throw JsonError("json: not a string");
  return string_;
}

Json& Json::set(const std::string& key, Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) throw JsonError("json: not an object");
  object_[key] = std::move(value);
  return *this;
}

bool Json::has(const std::string& key) const {
  return kind_ == Kind::kObject && object_.count(key) > 0;
}

const Json& Json::at(const std::string& key) const {
  if (kind_ != Kind::kObject) throw JsonError("json: not an object");
  const auto it = object_.find(key);
  if (it == object_.end()) {
    throw JsonError("json: missing member '" + key + "'");
  }
  return it->second;
}

const std::map<std::string, Json>& Json::members() const {
  if (kind_ != Kind::kObject) throw JsonError("json: not an object");
  return object_;
}

std::int64_t Json::get_int(const std::string& key,
                           std::int64_t fallback) const {
  return has(key) ? at(key).as_int() : fallback;
}

double Json::get_double(const std::string& key, double fallback) const {
  return has(key) ? at(key).as_double() : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  return has(key) ? at(key).as_bool() : fallback;
}

std::string Json::get_string(const std::string& key,
                             const std::string& fallback) const {
  return has(key) ? at(key).as_string() : fallback;
}

Json& Json::push(Json value) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray) throw JsonError("json: not an array");
  array_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  if (kind_ == Kind::kArray) return array_.size();
  if (kind_ == Kind::kObject) return object_.size();
  throw JsonError("json: not a container");
}

const Json& Json::at(std::size_t index) const {
  if (kind_ != Kind::kArray) throw JsonError("json: not an array");
  if (index >= array_.size()) {
    throw JsonError("json: array index out of range");
  }
  return array_[index];
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::kArray) throw JsonError("json: not an array");
  return array_;
}

std::string Json::dump() const {
  std::string out;
  dump_value(*this, out);
  return out;
}

Json Json::parse(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

}  // namespace absq::serve
