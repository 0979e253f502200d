// The lint indexer: every file is read once into a FileIndex — comments
// and literals stripped, suppressions parsed, then a scope walk over the
// stripped text records function definitions, call sites, lock
// acquisitions and quoted #include edges — plus the ProjectIndex lookups
// and the layering-manifest parser the rules run on.
#include "lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <deque>
#include <set>
#include <utility>

#include "lint/text.hpp"

namespace absq::lint {

using text::find_word;
using text::is_ident;
using text::line_of;
using text::starts_with;

namespace {

std::string_view trim(std::string_view s) {
  const std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return {};
  const std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

/// Identifier ending just before `end` (exclusive); empty if none.
std::string_view ident_before(std::string_view text, std::size_t end) {
  std::size_t e = end;
  while (e > 0 &&
         std::isspace(static_cast<unsigned char>(text[e - 1])) != 0) {
    --e;
  }
  std::size_t b = e;
  while (b > 0 && is_ident(text[b - 1])) --b;
  if (b == e || std::isdigit(static_cast<unsigned char>(text[b])) != 0) {
    return {};
  }
  return text.substr(b, e - b);
}

/// Identifier starting at or after `from`.
std::string_view ident_at(std::string_view text, std::size_t from) {
  std::size_t b = from;
  while (b < text.size() &&
         std::isspace(static_cast<unsigned char>(text[b])) != 0) {
    ++b;
  }
  std::size_t e = b;
  while (e < text.size() && is_ident(text[e])) ++e;
  return text.substr(b, e - b);
}

bool is_control_keyword(std::string_view ident) {
  static const std::set<std::string_view> kKeywords = {
      "if",       "for",      "while",    "switch",        "catch",
      "return",   "sizeof",   "alignof",  "alignas",       "decltype",
      "noexcept", "throw",    "co_await", "static_assert", "assert",
      "delete",   "new",      "typedef",  "using",         "case",
      "default",  "requires", "co_yield", "co_return",     "goto",
  };
  return kKeywords.count(ident) != 0;
}

/// Parses suppression annotations from raw (un-stripped) source — they
/// live in comments by design.
Suppressions collect_suppressions(std::string_view src) {
  Suppressions out;
  static constexpr std::string_view kTag = "absq-lint: allow";
  for (std::size_t pos = src.find(kTag); pos != std::string_view::npos;
       pos = src.find(kTag, pos + 1)) {
    std::size_t cursor = pos + kTag.size();
    const bool file_scope = starts_with(src.substr(cursor), "-file");
    if (file_scope) cursor += 5;
    if (cursor >= src.size() || src[cursor] != '(') continue;
    const std::size_t close = src.find(')', cursor);
    if (close == std::string_view::npos) continue;
    std::string rule(src.substr(cursor + 1, close - cursor - 1));
    if (file_scope) {
      out.file_allows.push_back(std::move(rule));
    } else {
      out.line_allows.emplace_back(std::move(rule), line_of(src, pos));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The scope/function parser
// ---------------------------------------------------------------------------

struct Scope {
  enum class Kind { kNamespace, kClass, kFunction, kOther };
  Kind kind = Kind::kOther;
  std::string name;
  std::ptrdiff_t function = -1;  ///< index into FileIndex::functions
};

/// Head text of a `{`: everything back to the nearest ;, { or }.
std::string_view head_of(std::string_view text, std::size_t brace) {
  const std::size_t stop = text.find_last_of(";{}", brace == 0 ? 0 : brace - 1);
  const std::size_t begin = stop == std::string_view::npos ? 0 : stop + 1;
  return text.substr(begin, brace - begin);
}

struct HeadInfo {
  Scope::Kind kind = Scope::Kind::kOther;
  std::string name;        ///< function or class or namespace name
  std::string qualifier;   ///< `Device::iterate_block(` → "Device"
  std::vector<std::string> namespace_parts;  ///< for kNamespace
};

/// Classify what a `{` opens from its head text. Heuristic by design — see
/// the file comment in lint.hpp.
HeadInfo classify_head(std::string_view head) {
  HeadInfo info;
  const std::size_t ns = find_word(head, "namespace", 0);
  if (ns != std::string_view::npos) {
    info.kind = Scope::Kind::kNamespace;
    std::size_t cursor = ns + 9;
    for (;;) {
      const std::string_view part = ident_at(head, cursor);
      if (part.empty() || part == "inline") {
        if (part != "inline") break;
        cursor = static_cast<std::size_t>(part.data() - head.data()) +
                 part.size();
        continue;
      }
      info.namespace_parts.emplace_back(part);
      cursor =
          static_cast<std::size_t>(part.data() - head.data()) + part.size();
      if (!starts_with(head.substr(cursor), "::")) break;
      cursor += 2;
    }
    return info;
  }
  if (find_word(head, "enum", 0) != std::string_view::npos) return info;

  // Function definition: `...name(params)... {` with balanced parens and no
  // top-level `=` or `?` (those are initializers / conditional expressions
  // with brace-init, not definitions).
  const std::size_t paren = head.find('(');
  if (paren != std::string_view::npos) {
    int depth = 0;
    bool rejected = false;
    for (const char c : head) {
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (depth == 0 && (c == '=' || c == '?')) rejected = true;
    }
    const std::string_view name = ident_before(head, paren);
    if (depth == 0 && !rejected && !name.empty() &&
        !is_control_keyword(name)) {
      info.kind = Scope::Kind::kFunction;
      info.name = std::string(name);
      const std::size_t name_begin =
          static_cast<std::size_t>(name.data() - head.data());
      if (name_begin >= 2 && head.substr(name_begin - 2, 2) == "::") {
        info.qualifier = std::string(ident_before(head, name_begin - 2));
      }
      return info;
    }
  }
  for (std::string_view keyword : {"class", "struct"}) {
    const std::size_t pos = find_word(head, keyword, 0);
    if (pos == std::string_view::npos) continue;
    const std::string_view name = ident_at(head, pos + keyword.size());
    if (name.empty()) continue;
    info.kind = Scope::Kind::kClass;
    info.name = std::string(name);
    return info;
  }
  return info;
}

// ---------------------------------------------------------------------------
// Body pass: call sites + lock acquisitions with held tracking
// ---------------------------------------------------------------------------

const std::set<std::string_view>& guard_types() {
  static const std::set<std::string_view> kGuards = {
      "lock_guard", "unique_lock", "shared_lock", "scoped_lock"};
  return kGuards;
}

/// Skip a balanced `<...>` starting at `pos` (which must be '<'); returns
/// the offset just past the closing '>', or `pos` if it does not look like
/// template arguments.
std::size_t skip_angles(std::string_view text, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < text.size() && i < pos + 400; ++i) {
    if (text[i] == '<') ++depth;
    if (text[i] == '>') {
      --depth;
      if (depth <= 0) return i + 1;
    }
    if (text[i] == ';' || text[i] == '{') break;
  }
  return pos;
}

/// Mutex id for one guard argument: the last member/identifier of the
/// expression, qualified by the enclosing class (or defining file for free
/// functions) so same-named members of different classes stay distinct.
std::string mutex_id(std::string_view expr, const FunctionDef& fn) {
  std::string_view e = trim(expr);
  while (!e.empty() && (e.front() == '*' || e.front() == '&' ||
                        e.front() == '(')) {
    e.remove_prefix(1);
  }
  while (!e.empty() && e.back() == ')') e.remove_suffix(1);
  std::size_t cut = e.rfind("->");
  if (cut != std::string_view::npos) {
    e = e.substr(cut + 2);
  } else if ((cut = e.rfind('.')) != std::string_view::npos) {
    e = e.substr(cut + 1);
  }
  if ((cut = e.rfind("::")) != std::string_view::npos) {
    // `Registry::instance_mutex` style — already qualified as written.
    return std::string(trim(e));
  }
  e = trim(e);
  if (e.empty()) return {};
  const std::string prefix =
      fn.class_name.empty() ? fn.file : fn.class_name;
  return prefix + "::" + std::string(e);
}

/// Split `a, b, c` on top-level commas.
std::vector<std::string_view> split_args(std::string_view args) {
  std::vector<std::string_view> out;
  int depth = 0;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const char c = args[i];
    if (c == '(' || c == '<' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == '>' || c == ']' || c == '}') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(args.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  if (begin < args.size()) out.push_back(args.substr(begin));
  return out;
}

struct HeldLock {
  int depth = 0;        ///< brace depth the guard lives at
  std::string mutex;
  std::string var;      ///< guard variable, for .unlock()/.lock() tracking
};

void scan_body(const std::string& text, FunctionDef& fn) {
  std::vector<HeldLock> held;
  int depth = 0;
  const auto held_ids = [&held] {
    std::vector<std::string> ids;
    ids.reserve(held.size());
    for (const HeldLock& h : held) ids.push_back(h.mutex);
    return ids;
  };

  for (std::size_t i = fn.body_begin;
       i < fn.body_end && i < text.size(); ++i) {
    const char c = text[i];
    if (c == '{') ++depth;
    if (c == '}') {
      --depth;
      held.erase(std::remove_if(held.begin(), held.end(),
                                [&](const HeldLock& h) {
                                  return h.depth > depth;
                                }),
                 held.end());
      continue;
    }
    if (!is_ident(c) || (i > 0 && is_ident(text[i - 1]))) continue;

    std::size_t end = i;
    while (end < text.size() && is_ident(text[end])) ++end;
    const std::string_view ident(text.data() + i, end - i);

    // Guard declaration: lock_guard<...> name(args) / scoped_lock name(a,b).
    if (guard_types().count(ident) != 0) {
      std::size_t cursor = end;
      while (cursor < text.size() &&
             std::isspace(static_cast<unsigned char>(text[cursor])) != 0) {
        ++cursor;
      }
      if (cursor < text.size() && text[cursor] == '<') {
        cursor = skip_angles(text, cursor);
      }
      const std::string_view var = ident_at(text, cursor);
      if (!var.empty()) {
        cursor = static_cast<std::size_t>(var.data() - text.data()) +
                 var.size();
      }
      while (cursor < text.size() &&
             std::isspace(static_cast<unsigned char>(text[cursor])) != 0) {
        ++cursor;
      }
      if (cursor < text.size() && text[cursor] == '(') {
        int pd = 0;
        std::size_t close = cursor;
        for (; close < text.size(); ++close) {
          if (text[close] == '(') ++pd;
          if (text[close] == ')' && --pd == 0) break;
        }
        const std::string_view args(text.data() + cursor + 1,
                                    close - cursor - 1);
        // adopt_lock: mutex already held elsewhere; defer_lock/try_to_lock:
        // nothing is (unconditionally) acquired here. All three fall
        // outside "acquire while holding" — skip the declaration.
        const bool tagged =
            args.find("adopt_lock") != std::string_view::npos ||
            args.find("defer_lock") != std::string_view::npos ||
            args.find("try_to_lock") != std::string_view::npos;
        if (!tagged) {
          const std::vector<std::string> snapshot = held_ids();
          for (const std::string_view arg : split_args(args)) {
            std::string id = mutex_id(arg, fn);
            if (id.empty()) continue;
            fn.locks.push_back(
                LockSite{id, line_of(text, i), snapshot});
            held.push_back(HeldLock{depth, std::move(id),
                                    std::string(var)});
          }
        }
        i = close;
        continue;
      }
    }

    // receiver.lock() / receiver.unlock() — on guard variables or on
    // members whose name says mutex.
    if ((ident == "lock" || ident == "unlock") && i >= 1 &&
        (text[i - 1] == '.' ||
         (i >= 2 && text[i - 1] == '>' && text[i - 2] == '-'))) {
      std::size_t after = end;
      while (after < text.size() &&
             std::isspace(static_cast<unsigned char>(text[after])) != 0) {
        ++after;
      }
      const std::size_t recv_end = text[i - 1] == '.' ? i - 1 : i - 2;
      const std::string_view recv = ident_before(text, recv_end);
      if (after < text.size() && text[after] == '(' && !recv.empty()) {
        const bool is_guard_var =
            std::any_of(held.begin(), held.end(), [&](const HeldLock& h) {
              return h.var == recv;
            });
        const bool is_mutex =
            recv.find("mutex") != std::string_view::npos ||
            recv.find("mtx") != std::string_view::npos;
        if (ident == "unlock") {
          held.erase(std::remove_if(
                         held.begin(), held.end(),
                         [&](const HeldLock& h) {
                           return h.var == recv ||
                                  (is_mutex && h.mutex == mutex_id(recv, fn));
                         }),
                     held.end());
        } else if (is_mutex && !is_guard_var) {
          std::string id = mutex_id(recv, fn);
          fn.locks.push_back(LockSite{id, line_of(text, i), held_ids()});
          held.push_back(HeldLock{depth, std::move(id), ""});
        }
        continue;
      }
    }

    // Plain call site: ident directly followed by `(`.
    std::size_t after = end;
    while (after < text.size() &&
           std::isspace(static_cast<unsigned char>(text[after])) != 0) {
      ++after;
    }
    if (after >= text.size() || text[after] != '(') continue;
    if (is_control_keyword(ident)) continue;
    CallSite call;
    call.name = std::string(ident);
    call.line = line_of(text, i);
    call.held_locks = held_ids();
    if (i >= 2 && text[i - 1] == ':' && text[i - 2] == ':') {
      call.qualifier = std::string(ident_before(text, i - 2));
    } else if (i >= 1 && text[i - 1] == '.') {
      call.member_call = true;
    } else if (i >= 2 && text[i - 1] == '>' && text[i - 2] == '-') {
      call.member_call = true;
    }
    fn.calls.push_back(std::move(call));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Stripping
// ---------------------------------------------------------------------------

std::string strip_comments_and_strings(std::string_view src) {
  std::string out(src);
  enum class State : std::uint8_t {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_terminator;  // )delim" for the active raw string
  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || !is_ident(src[i - 1]))) {
          const std::size_t open = src.find('(', i + 2);
          if (open != std::string_view::npos) {
            // assign(1, ')') rather than = ")": GCC 12 -Wrestrict false
            // positive (PR105651) on const char* assignment under -Werror.
            raw_terminator.assign(1, ')');
            raw_terminator += src.substr(i + 2, open - (i + 2));
            raw_terminator += '"';
            state = State::kRawString;
            for (std::size_t j = i; j <= open && j < src.size(); ++j) {
              if (src[j] != '\n') out[j] = ' ';
            }
            i = open;
          }
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'' && !(i != 0 && is_ident(src[i - 1]))) {
          // Skip digit separators (1'000'000) via the identifier check.
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (src.compare(i, raw_terminator.size(), raw_terminator) == 0) {
          for (std::size_t j = i; j < i + raw_terminator.size(); ++j) {
            out[j] = ' ';
          }
          i += raw_terminator.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// module_of / ProjectIndex
// ---------------------------------------------------------------------------

std::string module_of(std::string_view path) {
  if (starts_with(path, "src/")) path.remove_prefix(4);
  const std::size_t slash = path.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string(path.substr(0, slash));
}

const FileIndex& ProjectIndex::add_file(std::string_view path,
                                       std::string_view content) {
  FileIndex fi;
  fi.path = std::string(path);
  fi.allows = collect_suppressions(content);
  fi.stripped = strip_comments_and_strings(content);

  // Includes come from the RAW text — the stripper blanks quoted paths.
  for (std::size_t pos = content.find("#include");
       pos != std::string_view::npos;
       pos = content.find("#include", pos + 1)) {
    const std::size_t bol = content.rfind('\n', pos) + 1;  // npos+1 == 0
    if (content.find_first_not_of(" \t", bol) != pos) continue;
    const std::size_t open = content.find('"', pos + 8);
    const std::size_t eol = content.find('\n', pos);
    if (open == std::string_view::npos ||
        (eol != std::string_view::npos && open > eol)) {
      continue;  // angle include or malformed
    }
    const std::size_t close = content.find('"', open + 1);
    if (close == std::string_view::npos) continue;
    fi.includes.push_back(
        IncludeEdge{std::string(content.substr(open + 1, close - open - 1)),
                    line_of(content, pos)});
  }

  // Scope walk over the stripped text: classify every `{`, record function
  // definitions with their enclosing class, pop on `}`.
  const std::string& text = fi.stripped;
  std::vector<Scope> scopes;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '}') {
      if (!scopes.empty()) {
        if (scopes.back().function >= 0) {
          fi.functions[static_cast<std::size_t>(scopes.back().function)]
              .body_end = i;
        }
        scopes.pop_back();
      }
      continue;
    }
    if (c != '{') continue;
    HeadInfo head = classify_head(head_of(text, i));
    Scope scope;
    scope.kind = head.kind;
    switch (head.kind) {
      case Scope::Kind::kNamespace:
        for (const std::string& part : head.namespace_parts) {
          if (std::find(fi.namespaces.begin(), fi.namespaces.end(), part) ==
              fi.namespaces.end()) {
            fi.namespaces.push_back(part);
          }
        }
        // `namespace a::b {` opens one brace for several names; track the
        // scope as one entry (names only matter for the namespaces_ set).
        scope.name = head.namespace_parts.empty()
                         ? std::string()
                         : head.namespace_parts.back();
        break;
      case Scope::Kind::kClass:
        scope.name = head.name;
        break;
      case Scope::Kind::kFunction: {
        FunctionDef fn;
        fn.file = fi.path;
        fn.name = head.name;
        if (!head.qualifier.empty()) {
          fn.class_name = head.qualifier;
        } else {
          // Innermost enclosing class scope, if any.
          for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
            if (it->kind == Scope::Kind::kClass) {
              fn.class_name = it->name;
              break;
            }
            if (it->kind == Scope::Kind::kFunction) break;
          }
        }
        fn.line = line_of(text, i);
        fn.body_begin = i + 1;
        fn.body_end = text.size();
        scope.name = head.name;
        scope.function = static_cast<std::ptrdiff_t>(fi.functions.size());
        fi.functions.push_back(std::move(fn));
        break;
      }
      case Scope::Kind::kOther:
        break;
    }
    scopes.push_back(std::move(scope));
  }

  for (FunctionDef& fn : fi.functions) scan_body(text, fn);

  files_.push_back(std::move(fi));
  dirty_ = true;
  return files_.back();
}

const FileIndex* ProjectIndex::file(std::string_view path) const {
  for (const FileIndex& fi : files_) {
    if (fi.path == path) return &fi;
  }
  return nullptr;
}

void ProjectIndex::rebuild() const {
  if (!dirty_) return;
  by_name_.clear();
  namespaces_.clear();
  for (const FileIndex& fi : files_) {
    for (const FunctionDef& fn : fi.functions) {
      by_name_[fn.name].push_back(&fn);
    }
    for (const std::string& ns : fi.namespaces) {
      namespaces_.push_back(ns);
    }
  }
  std::sort(namespaces_.begin(), namespaces_.end());
  namespaces_.erase(std::unique(namespaces_.begin(), namespaces_.end()),
                    namespaces_.end());
  dirty_ = false;
}

std::vector<const FunctionDef*> ProjectIndex::resolve(
    const FunctionDef& caller, const CallSite& call) const {
  rebuild();
  std::vector<const FunctionDef*> out;
  const auto it = by_name_.find(call.name);
  if (it == by_name_.end()) return out;
  const std::vector<const FunctionDef*>& candidates = it->second;

  if (!call.qualifier.empty()) {
    for (const FunctionDef* fn : candidates) {
      if (fn->class_name == call.qualifier) out.push_back(fn);
    }
    if (out.empty() &&
        std::binary_search(namespaces_.begin(), namespaces_.end(),
                           call.qualifier)) {
      // `fail::triggered(...)` — namespace-qualified free function.
      for (const FunctionDef* fn : candidates) {
        if (fn->class_name.empty()) out.push_back(fn);
      }
    }
    return out;
  }
  if (call.member_call) {
    // `x.step(...)` — the receiver's type is unknown; link every method of
    // that name (over-approximation, see the header comment).
    for (const FunctionDef* fn : candidates) {
      if (!fn->class_name.empty()) out.push_back(fn);
    }
    return out;
  }
  // Plain call: free functions, plus same-class methods (implicit this).
  for (const FunctionDef* fn : candidates) {
    if (fn->class_name.empty() ||
        (!caller.class_name.empty() &&
         fn->class_name == caller.class_name)) {
      out.push_back(fn);
    }
  }
  return out;
}

const FunctionDef* ProjectIndex::find_function(std::string_view class_name,
                                               std::string_view name) const {
  for (const FileIndex& fi : files_) {
    for (const FunctionDef& fn : fi.functions) {
      if (fn.class_name == class_name && fn.name == name) return &fn;
    }
  }
  return nullptr;
}


std::vector<const FunctionDef*> ProjectIndex::reachable(
    const std::vector<const FunctionDef*>& roots, std::size_t depth) const {
  std::set<const FunctionDef*> seen(roots.begin(), roots.end());
  std::deque<std::pair<const FunctionDef*, std::size_t>> queue;
  for (const FunctionDef* fn : roots) queue.emplace_back(fn, 0);
  while (!queue.empty()) {
    const auto [fn, d] = queue.front();
    queue.pop_front();
    if (d >= depth) continue;
    for (const CallSite& call : fn->calls) {
      for (const FunctionDef* callee : resolve(*fn, call)) {
        if (seen.insert(callee).second) queue.emplace_back(callee, d + 1);
      }
    }
  }
  return {seen.begin(), seen.end()};
}

// ---------------------------------------------------------------------------
// LayerManifest
// ---------------------------------------------------------------------------

bool LayerManifest::known(const std::string& module) const {
  return allowed.count(module) != 0;
}

bool LayerManifest::permits(const std::string& from,
                            const std::string& to) const {
  if (from == to) return true;
  const auto it = allowed.find(from);
  if (it == allowed.end()) return false;
  for (const std::string& dep : it->second) {
    if (dep == "*" || dep == to) return true;
  }
  return false;
}

LayerManifest LayerManifest::parse(std::string_view text) {
  LayerManifest out;
  bool in_modules = false;
  std::size_t lineno = 0;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t eol = text.find('\n', begin);
    std::string_view line =
        text.substr(begin, eol == std::string_view::npos ? text.size() - begin
                                                         : eol - begin);
    begin = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line != "[modules]") {
        throw ManifestError("lint_layers line " + std::to_string(lineno) +
                            ": unknown section " + std::string(line) +
                            " (only [modules] is defined)");
      }
      in_modules = true;
      continue;
    }
    if (!in_modules) {
      throw ManifestError("lint_layers line " + std::to_string(lineno) +
                          ": entry before [modules] section");
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ManifestError("lint_layers line " + std::to_string(lineno) +
                          ": expected `module = [\"dep\", ...]`");
    }
    const std::string name(trim(line.substr(0, eq)));
    std::string_view value = trim(line.substr(eq + 1));
    if (name.empty() || value.size() < 2 || value.front() != '[' ||
        value.back() != ']') {
      throw ManifestError("lint_layers line " + std::to_string(lineno) +
                          ": expected `module = [\"dep\", ...]`");
    }
    if (out.allowed.count(name) != 0) {
      throw ManifestError("lint_layers line " + std::to_string(lineno) +
                          ": duplicate module " + name);
    }
    std::vector<std::string> deps;
    value = value.substr(1, value.size() - 2);
    for (std::string_view item : split_args(value)) {
      item = trim(item);
      if (item.empty()) continue;
      if (item.size() < 2 || item.front() != '"' || item.back() != '"') {
        throw ManifestError("lint_layers line " + std::to_string(lineno) +
                            ": dependencies must be quoted strings");
      }
      deps.emplace_back(item.substr(1, item.size() - 2));
    }
    out.allowed.emplace(name, std::move(deps));
  }
  if (!in_modules) {
    throw ManifestError("lint_layers manifest has no [modules] section");
  }
  return out;
}

}  // namespace absq::lint
