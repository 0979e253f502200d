// JSON text primitives shared by every JSON writer in the tree: the wire
// and journal codec (serve::Json::dump), structured log lines, run
// reports, trace exports, the lint SARIF writer and bench rows. One string
// escaper, so every sink spells a control character the same way.
// Header-only and std-only on purpose: util/ sits at the bottom of the
// module DAG (lint_layers.toml), so every layer may include it.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace absq {

/// Appends `text` JSON-escaped, without quotes: `"` and `\` get a
/// backslash, \b \f \n \r \t their short forms, every other byte below
/// 0x20 a \u00XX escape. DEL and multi-byte UTF-8 pass through unchanged.
inline void append_json_escaped(std::string& out, std::string_view text) {
  constexpr char kHex[] = "0123456789abcdef";
  for (const char raw : text) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += raw;
        }
        break;
    }
  }
}

/// `text` JSON-escaped, without quotes.
[[nodiscard]] inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_json_escaped(out, text);
  return out;
}

/// `text` as a JSON string value, quotes included.
[[nodiscard]] inline std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  append_json_escaped(out, text);
  out += '"';
  return out;
}

/// A double as a JSON value: "null" when non-finite (JSON has no NaN).
[[nodiscard]] inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace absq
