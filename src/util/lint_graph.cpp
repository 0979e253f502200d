#include "util/lint_graph.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace absq::lint {

namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::size_t line_of(std::string_view text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(pos, text.size())),
                            '\n'));
}

bool word_at(std::string_view text, std::size_t pos, std::string_view word) {
  if (pos != 0 && is_ident(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= text.size() || !is_ident(text[end]);
}

std::size_t find_word(std::string_view text, std::string_view word,
                      std::size_t from) {
  for (std::size_t pos = text.find(word, from); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    if (word_at(text, pos, word)) return pos;
  }
  return std::string_view::npos;
}

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
/// the file comment in lint_graph.hpp.
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
// module_of / ProjectIndex
// ---------------------------------------------------------------------------

std::string module_of(std::string_view path) {
  if (starts_with(path, "src/")) path.remove_prefix(4);
  const std::size_t slash = path.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string(path.substr(0, slash));
}

void ProjectIndex::add_file(std::string_view path, std::string_view content) {
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
}

const FileIndex* ProjectIndex::file(std::string_view path) const {
  for (const FileIndex& fi : files_) {
    if (fi.path == path) return &fi;
  }
  return nullptr;
}

const Suppressions* ProjectIndex::allows_for(std::string_view path) const {
  const FileIndex* fi = file(path);
  return fi == nullptr ? nullptr : &fi->allows;
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

std::vector<const FunctionDef*> ProjectIndex::hot_roots() const {
  std::vector<const FunctionDef*> out;
  for (const HotPathRoot& spec : hot_path_roots()) {
    const FileIndex* fi = file(spec.file);
    if (fi == nullptr) continue;
    for (const FunctionDef& fn : fi->functions) {
      if (fn.class_name != spec.class_name) continue;
      if (std::find(spec.functions.begin(), spec.functions.end(), fn.name) !=
          spec.functions.end()) {
        out.push_back(&fn);
      }
    }
  }
  return out;
}

std::vector<std::string> ProjectIndex::unresolved_hot_roots() const {
  std::vector<std::string> out;
  for (const HotPathRoot& spec : hot_path_roots()) {
    const FileIndex* fi = file(spec.file);
    for (std::string_view function : spec.functions) {
      const bool found =
          fi != nullptr &&
          std::any_of(fi->functions.begin(), fi->functions.end(),
                      [&](const FunctionDef& fn) {
                        return fn.class_name == spec.class_name &&
                               fn.name == function;
                      });
      if (!found) {
        out.push_back(std::string(spec.file) + ": " +
                      std::string(spec.class_name) + "::" +
                      std::string(function));
      }
    }
  }
  return out;
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

// ---------------------------------------------------------------------------
// ABSQ006 — module layering
// ---------------------------------------------------------------------------

std::vector<Diagnostic> check_layering(const ProjectIndex& index,
                                       const LayerManifest& manifest) {
  std::vector<Diagnostic> out;
  const auto report = [&](const FileIndex& fi, std::size_t line,
                          std::string message) {
    if (fi.allows.allowed("layering", line)) return;
    out.push_back(Diagnostic{"ABSQ006", fi.path, line, std::move(message)});
  };

  for (const FileIndex& fi : index.files()) {
    const std::string from = module_of(fi.path);
    if (from.empty()) continue;
    if (!manifest.known(from)) {
      report(fi, 1,
             "module '" + from +
                 "' is not declared in lint_layers.toml — add it with its "
                 "allowed dependencies");
      continue;
    }
    for (const IncludeEdge& inc : fi.includes) {
      const std::string to = module_of(inc.target);
      if (to.empty() || to == from || !manifest.known(to)) continue;
      if (!manifest.permits(from, to)) {
        report(fi, inc.line,
               "layering violation: module '" + from + "' includes \"" +
                   inc.target + "\" but the manifest does not permit " +
                   from + " -> " + to);
      }
    }
    // Qualified calls that resolve into a forbidden module catch usage that
    // sneaks in through a transitive include.
    for (const FunctionDef& fn : fi.functions) {
      for (const CallSite& call : fn.calls) {
        if (call.qualifier.empty()) continue;
        for (const FunctionDef* callee : index.resolve(fn, call)) {
          const std::string to = module_of(callee->file);
          if (to.empty() || to == from || !manifest.known(to)) continue;
          if (!manifest.permits(from, to)) {
            report(fi, call.line,
                   "layering violation: module '" + from + "' calls " +
                       call.qualifier + "::" + call.name + " (defined in " +
                       callee->file + ") but the manifest does not permit " +
                       from + " -> " + to);
            break;  // one finding per call site
          }
        }
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// ABSQ007 — transitive blocking calls from hot-path roots
// ---------------------------------------------------------------------------

namespace {

struct Frame {
  const FunctionDef* fn = nullptr;
  std::size_t call_line = 0;  ///< line in the CALLER where fn was entered
};

/// Is any frame's call site (in the caller's file) annotated away?
bool chain_allowed(const ProjectIndex& index,
                   const std::vector<Frame>& chain) {
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const Suppressions* allows = index.allows_for(chain[i - 1].fn->file);
    if (allows == nullptr) continue;
    if (allows->allowed("transitive-blocking", chain[i].call_line) ||
        allows->allowed("hot-path-blocking", chain[i].call_line)) {
      return true;
    }
  }
  return false;
}

std::string chain_text(const std::vector<Frame>& chain) {
  std::string out;
  for (const Frame& frame : chain) {
    if (!out.empty()) out += " -> ";
    if (!frame.fn->class_name.empty()) {
      out += frame.fn->class_name;
      out += "::";
    }
    out += frame.fn->name;
  }
  return out;
}

}  // namespace

std::vector<Diagnostic> check_transitive_blocking(const ProjectIndex& index) {
  std::vector<Diagnostic> out;
  std::set<std::string> reported;  // root|callee-file|line|token dedup

  for (const FunctionDef* root : index.hot_roots()) {
    // DFS with the first-found path kept as the reporting chain; each
    // function is visited once per root.
    std::set<const FunctionDef*> visited{root};
    std::vector<Frame> chain{{root, 0}};

    const std::function<void(const FunctionDef&, std::size_t)> visit =
        [&](const FunctionDef& fn, std::size_t depth) {
          if (depth > 0) {
            // Depth 0 is the root body — ABSQ003's token scan already owns
            // it; re-reporting here would double every direct finding.
            const FileIndex* fi = index.file(fn.file);
            if (fi != nullptr) {
              const std::string_view body(
                  fi->stripped.data() + fn.body_begin,
                  std::min(fn.body_end, fi->stripped.size()) - fn.body_begin);
              for (std::string_view token : blocking_tokens()) {
                for (std::size_t pos = find_word(body, token, 0);
                     pos != std::string_view::npos;
                     pos = find_word(body, token, pos + 1)) {
                  const std::size_t line =
                      line_of(fi->stripped, fn.body_begin + pos);
                  if (fi->allows.allowed("transitive-blocking", line) ||
                      fi->allows.allowed("hot-path-blocking", line)) {
                    continue;
                  }
                  if (chain_allowed(index, chain)) continue;
                  std::string key = chain[0].fn->class_name + "::" +
                                    chain[0].fn->name + "|" + fn.file + "|" +
                                    std::to_string(line) + "|" +
                                    std::string(token);
                  if (!reported.insert(std::move(key)).second) continue;
                  const std::size_t report_line =
                      chain.size() > 1 ? chain[1].call_line : fn.line;
                  out.push_back(Diagnostic{
                      "ABSQ007", chain[0].fn->file, report_line,
                      "blocking call `" + std::string(token) + "` at " +
                          fn.file + ":" + std::to_string(line) +
                          " is reachable from hot path " +
                          chain_text(chain) +
                          " — keep the chain non-blocking or annotate the "
                          "site with a rationale"});
                }
              }
            }
          }
          if (depth >= kGraphDepth) return;
          for (const CallSite& call : fn.calls) {
            for (const FunctionDef* callee : index.resolve(fn, call)) {
              if (!visited.insert(callee).second) continue;
              chain.push_back(Frame{callee, call.line});
              visit(*callee, depth + 1);
              chain.pop_back();
            }
          }
        };
    visit(*root, 0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// ABSQ008 — lock-order consistency
// ---------------------------------------------------------------------------

namespace {

struct LockEdge {
  std::string from;
  std::string to;
  std::string file;  ///< witness
  std::size_t line = 0;
};

/// All mutexes a function may acquire, directly or through calls, to
/// `depth` frames.
void acquired_closure(const ProjectIndex& index, const FunctionDef& fn,
                      std::size_t depth,
                      std::set<const FunctionDef*>& seen,
                      std::set<std::string>& out) {
  for (const LockSite& site : fn.locks) out.insert(site.mutex);
  if (depth == 0) return;
  for (const CallSite& call : fn.calls) {
    for (const FunctionDef* callee : index.resolve(fn, call)) {
      if (!seen.insert(callee).second) continue;
      acquired_closure(index, *callee, depth - 1, seen, out);
    }
  }
}

}  // namespace

std::vector<Diagnostic> check_lock_order(const ProjectIndex& index) {
  // 1. Collect held-while-acquiring edges: intra-function from the
  //    LockSite snapshots, cross-function by charging every lock a callee
  //    may take to the locks held at the call site.
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  const auto add_edge = [&](std::string from, std::string to,
                            const std::string& file, std::size_t line) {
    if (from == to) return;
    const auto key = std::make_pair(from, to);
    if (edges.count(key) != 0) return;  // first witness wins
    edges.emplace(key, LockEdge{std::move(from), std::move(to), file, line});
  };

  for (const FileIndex& fi : index.files()) {
    for (const FunctionDef& fn : fi.functions) {
      for (const LockSite& site : fn.locks) {
        for (const std::string& held : site.held) {
          add_edge(held, site.mutex, fi.path, site.line);
        }
      }
      for (const CallSite& call : fn.calls) {
        if (call.held_locks.empty()) continue;
        std::set<std::string> acquired;
        std::set<const FunctionDef*> seen;
        for (const FunctionDef* callee : index.resolve(fn, call)) {
          if (!seen.insert(callee).second) continue;
          acquired_closure(index, *callee, kGraphDepth / 2, seen, acquired);
        }
        for (const std::string& to : acquired) {
          for (const std::string& held : call.held_locks) {
            add_edge(held, to, fi.path, call.line);
          }
        }
      }
    }
  }

  // 2. Find cycles in the mutex graph (DFS, back edges).
  std::map<std::string, std::vector<const LockEdge*>> graph;
  for (const auto& [key, edge] : edges) graph[edge.from].push_back(&edge);

  std::vector<Diagnostic> out;
  std::set<std::string> reported;  // canonical cycle key
  std::set<std::string> done;
  std::vector<const LockEdge*> stack;
  std::set<std::string> on_stack;

  const std::function<void(const std::string&)> visit =
      [&](const std::string& node) {
        on_stack.insert(node);
        const auto it = graph.find(node);
        if (it != graph.end()) {
          for (const LockEdge* edge : it->second) {
            if (on_stack.count(edge->to) != 0) {
              // Back edge — extract the cycle from the stack.
              std::vector<const LockEdge*> cycle;
              bool collecting = false;
              for (const LockEdge* frame : stack) {
                if (frame->from == edge->to) collecting = true;
                if (collecting) cycle.push_back(frame);
              }
              cycle.push_back(edge);
              // Canonical key: sorted participating mutexes.
              std::vector<std::string> nodes;
              for (const LockEdge* e : cycle) nodes.push_back(e->from);
              std::sort(nodes.begin(), nodes.end());
              std::string key;
              for (const std::string& n : nodes) key += n + "|";
              if (reported.count(key) != 0) continue;
              reported.insert(key);
              // Suppressed if any edge's witness line carries an allow.
              bool allowed = false;
              std::ostringstream desc;
              for (const LockEdge* e : cycle) {
                const Suppressions* allows = index.allows_for(e->file);
                if (allows != nullptr &&
                    allows->allowed("lock-order", e->line)) {
                  allowed = true;
                }
                desc << e->from << " -> " << e->to << " (" << e->file << ":"
                     << e->line << "); ";
              }
              if (allowed) continue;
              out.push_back(Diagnostic{
                  "ABSQ008", cycle.front()->file, cycle.front()->line,
                  "lock-order cycle: " + desc.str() +
                      "acquire these mutexes in one global order or "
                      "annotate the edge that can never deadlock"});
              continue;
            }
            if (done.count(edge->to) != 0) continue;
            stack.push_back(edge);
            visit(edge->to);
            stack.pop_back();
          }
        }
        on_stack.erase(node);
        done.insert(node);
      };

  for (const auto& [node, _] : graph) {
    if (done.count(node) == 0) visit(node);
  }
  return out;
}

// ---------------------------------------------------------------------------
// ABSQ009 — atomic-ordering audit
// ---------------------------------------------------------------------------

std::vector<Diagnostic> check_atomic_audit(const ProjectIndex& index) {
  std::vector<Diagnostic> out;
  const std::vector<const FunctionDef*> hot =
      index.reachable(index.hot_roots(), kGraphDepth);
  const std::set<const FunctionDef*> hot_set(hot.begin(), hot.end());

  for (const FileIndex& fi : index.files()) {
    const std::string& text = fi.stripped;
    const auto allowed_at = [&](std::size_t line) {
      return fi.allows.allowed("atomic-audit", line) ||
             fi.allows.allowed("relaxed-order", line);
    };
    for (std::size_t pos = find_word(text, "memory_order_consume", 0);
         pos != std::string_view::npos;
         pos = find_word(text, "memory_order_consume", pos + 1)) {
      const std::size_t line = line_of(text, pos);
      if (allowed_at(line)) continue;
      out.push_back(Diagnostic{
          "ABSQ009", fi.path, line,
          "memory_order_consume is deprecated-in-practice (promoted to "
          "acquire by every compiler) — use memory_order_acquire"});
    }
    for (std::size_t pos = find_word(text, "memory_order_relaxed", 0);
         pos != std::string_view::npos;
         pos = find_word(text, "memory_order_relaxed", pos + 1)) {
      const std::size_t line = line_of(text, pos);
      if (allowed_at(line)) continue;
      const FunctionDef* enclosing = nullptr;
      for (const FunctionDef& fn : fi.functions) {
        if (pos >= fn.body_begin && pos < fn.body_end &&
            (enclosing == nullptr ||
             fn.body_begin > enclosing->body_begin)) {
          enclosing = &fn;  // innermost body containing the site
        }
      }
      if (enclosing != nullptr && hot_set.count(enclosing) != 0) continue;
      std::string where =
          enclosing == nullptr
              ? "outside any function body"
              : "in " +
                    (enclosing->class_name.empty()
                         ? enclosing->name
                         : enclosing->class_name + "::" + enclosing->name) +
                    ", which is not reachable from any hot-path root";
      out.push_back(Diagnostic{
          "ABSQ009", fi.path, line,
          "memory_order_relaxed " + where +
              " — cold code gets no benefit from relaxed ordering; use "
              "seq_cst or annotate the site with a rationale"});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// lint_project / dump_dot
// ---------------------------------------------------------------------------

std::vector<Diagnostic> lint_project(const std::vector<ProjectFile>& files,
                                     const LayerManifest* manifest) {
  std::vector<Diagnostic> out;
  ProjectIndex index;
  for (const ProjectFile& f : files) {
    std::vector<Diagnostic> d = lint_file(f.path, f.content);
    out.insert(out.end(), std::make_move_iterator(d.begin()),
               std::make_move_iterator(d.end()));
    index.add_file(f.path, f.content);
  }
  const auto append = [&out](std::vector<Diagnostic> d) {
    out.insert(out.end(), std::make_move_iterator(d.begin()),
               std::make_move_iterator(d.end()));
  };
  if (manifest != nullptr) append(check_layering(index, *manifest));
  append(check_transitive_blocking(index));
  append(check_lock_order(index));
  append(check_atomic_audit(index));
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.code < b.code;
            });
  return out;
}

std::string dump_dot(const ProjectIndex& index) {
  std::ostringstream os;

  os << "digraph modules {\n";
  std::set<std::pair<std::string, std::string>> module_edges;
  for (const FileIndex& fi : index.files()) {
    const std::string from = module_of(fi.path);
    if (from.empty()) continue;
    for (const IncludeEdge& inc : fi.includes) {
      const std::string to = module_of(inc.target);
      if (to.empty() || to == from) continue;
      module_edges.emplace(from, to);
    }
  }
  for (const auto& [from, to] : module_edges) {
    os << "  \"" << from << "\" -> \"" << to << "\";\n";
  }
  os << "}\n";

  os << "digraph lock_order {\n";
  std::set<std::pair<std::string, std::string>> lock_edges;
  for (const FileIndex& fi : index.files()) {
    for (const FunctionDef& fn : fi.functions) {
      for (const LockSite& site : fn.locks) {
        for (const std::string& held : site.held) {
          if (held != site.mutex) lock_edges.emplace(held, site.mutex);
        }
      }
    }
  }
  for (const auto& [from, to] : lock_edges) {
    os << "  \"" << from << "\" -> \"" << to << "\";\n";
  }
  os << "}\n";

  os << "digraph calls {\n";
  std::set<std::pair<std::string, std::string>> call_edges;
  for (const FileIndex& fi : index.files()) {
    for (const FunctionDef& fn : fi.functions) {
      const std::string from =
          fn.class_name.empty() ? fn.name : fn.class_name + "::" + fn.name;
      for (const CallSite& call : fn.calls) {
        for (const FunctionDef* callee : index.resolve(fn, call)) {
          const std::string to = callee->class_name.empty()
                                     ? callee->name
                                     : callee->class_name +
                                           "::" + callee->name;
          if (to != from) call_edges.emplace(from, to);
        }
      }
    }
  }
  for (const auto& [from, to] : call_edges) {
    os << "  \"" << from << "\" -> \"" << to << "\";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace absq::lint
