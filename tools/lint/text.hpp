// Text primitives shared by the lint indexer and its rules. Everything the
// linter reads goes through these: byte tests on identifiers, whole-word
// search, and the 1-based line of an offset.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string_view>

namespace absq::lint::text {

inline bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

inline bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

inline bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// 1-based line number of byte offset `pos`.
inline std::size_t line_of(std::string_view text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(pos, text.size())),
                            '\n'));
}

/// Whole-word occurrence of `word` at `pos`?
inline bool word_at(std::string_view text, std::size_t pos,
                    std::string_view word) {
  if (pos != 0 && is_ident(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= text.size() || !is_ident(text[end]);
}

/// The next whole-word occurrence of `word` at or after `from`, or npos.
inline std::size_t find_word(std::string_view text, std::string_view word,
                             std::size_t from) {
  for (std::size_t pos = text.find(word, from); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    if (word_at(text, pos, word)) return pos;
  }
  return std::string_view::npos;
}

}  // namespace absq::lint::text
