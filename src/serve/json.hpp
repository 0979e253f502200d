// Minimal JSON value type for the serving layer's line-delimited protocol.
//
// The job server speaks one JSON object per line (docs/serving.md), so the
// serve layer needs parse + serialize for the full JSON grammar — objects,
// arrays, strings with escapes, numbers, booleans, null — but nothing
// fancier: no streaming, no SAX, no DOM pointers. Numbers distinguish
// integers from doubles on parse (job ids and energies are int64 and must
// round-trip exactly; 2^53 is not enough for Energy).
//
// Parsing untrusted network input is the whole point, so the parser is
// hardened the same way the instance parsers are (tests/test_fuzz_parsers
// idiom): any malformed document throws JsonError (a CheckError), never
// crashes, and nesting depth is capped to keep recursion bounded.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace absq::serve {

/// Thrown on malformed JSON text (subclass so callers can map it to a
/// protocol-level bad_request instead of a generic failure).
class JsonError : public CheckError {
 public:
  explicit JsonError(const std::string& what) : CheckError(what) {}
};

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  /// Default-constructs null.
  Json() = default;
  Json(bool value) : kind_(Kind::kBool), bool_(value) {}  // NOLINT(*-explicit*)
  Json(std::int64_t value) : kind_(Kind::kInt), int_(value) {}  // NOLINT
  Json(int value) : Json(static_cast<std::int64_t>(value)) {}   // NOLINT
  Json(std::uint64_t value)                                     // NOLINT
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(value)) {}
  Json(double value) : kind_(Kind::kDouble), double_(value) {}  // NOLINT
  Json(std::string value)                                       // NOLINT
      : kind_(Kind::kString), string_(std::move(value)) {}
  Json(const char* value) : Json(std::string(value)) {}  // NOLINT

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_int() const { return kind_ == Kind::kInt; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw JsonError on a kind mismatch (the protocol
  /// handler turns that into a bad_request reply).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;  ///< accepts integral doubles
  [[nodiscard]] double as_double() const;     ///< accepts ints
  [[nodiscard]] const std::string& as_string() const;

  // --- object interface -----------------------------------------------------
  /// Adds or replaces a member (turns a null value into an object); chainable.
  Json& set(const std::string& key, Json value);
  [[nodiscard]] bool has(const std::string& key) const;
  /// Member access; throws JsonError when absent or not an object.
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] const std::map<std::string, Json>& members() const;

  /// Optional-member helpers for flat request objects: the default is
  /// returned when the key is absent; a present key of the wrong kind
  /// still throws (a typo'd type must not silently become the default).
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;

  // --- array interface ------------------------------------------------------
  /// Appends an element (turns a null value into an array); chainable.
  Json& push(Json value);
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Json& at(std::size_t index) const;
  [[nodiscard]] const std::vector<Json>& items() const;

  /// Compact single-line serialization (never contains a raw newline, so a
  /// dumped value is always a valid protocol line). Non-finite doubles
  /// serialize as null, matching the run-report convention.
  [[nodiscard]] std::string dump() const;

  /// Parses a complete JSON document; trailing non-space input, depth
  /// beyond 64 levels, or any syntax error throws JsonError.
  [[nodiscard]] static Json parse(const std::string& text);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

}  // namespace absq::serve
