// Allocation-free integer scanning for the instance text readers.
//
// The qubo and G-set readers read their whole input into one buffer and
// walk it with std::from_chars instead of building a stream per line. The
// scanner reproduces what `istream >> long long` and `istream >>
// std::string` accept in the "C" locale — leading whitespace skipped, an
// optional sign (including '+'), digits up to the first non-digit, failure
// on overflow — so moving a reader onto it changes no accept/reject
// outcome.
#pragma once

#include <charconv>
#include <istream>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

namespace absq {

/// The rest of `in` as one string.
inline std::string read_all(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

/// isspace() of the "C" locale.
constexpr bool is_text_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// A cursor over a text span.
class TextScanner {
 public:
  explicit TextScanner(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// Like `istream >> long long`: skips whitespace, then reads an optional
  /// sign and the digits that follow. False (cursor past the whitespace
  /// only) when no number starts there or it overflows.
  bool read_int(long long& value) {
    skip_space();
    const char* p = pos_;
    if (p != end_ && *p == '+') {
      ++p;
      if (p != end_ && *p == '-') return false;  // from_chars would take it
    }
    const auto [next, ec] = std::from_chars(p, end_, value);
    if (ec != std::errc()) return false;
    pos_ = next;
    return true;
  }

  /// Like `istream >> std::string`: the next whitespace-delimited token,
  /// empty at the end of the text.
  std::string_view read_token() {
    skip_space();
    const char* begin = pos_;
    while (pos_ != end_ && !is_text_space(*pos_)) ++pos_;
    return {begin, static_cast<std::size_t>(pos_ - begin)};
  }

  /// True when nothing but whitespace is left.
  bool at_end() {
    skip_space();
    return pos_ == end_;
  }

 private:
  void skip_space() {
    while (pos_ != end_ && is_text_space(*pos_)) ++pos_;
  }

  const char* pos_;
  const char* end_;
};

}  // namespace absq
