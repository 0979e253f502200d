#include "util/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "util/json_text.hpp"

namespace absq::lint {

namespace {

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// 1-based line number of byte offset `pos`.
std::size_t line_of(std::string_view text, std::size_t pos) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(pos, text.size())),
                            '\n'));
}

/// Whole-word occurrence of `word` at `pos`?
bool word_at(std::string_view text, std::size_t pos, std::string_view word) {
  if (pos != 0 && is_ident(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end >= text.size() || !is_ident(text[end]);
}

/// Find the next whole-word occurrence of `word` at or after `from`.
std::size_t find_word(std::string_view text, std::string_view word,
                      std::size_t from) {
  for (std::size_t pos = text.find(word, from); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    if (word_at(text, pos, word)) return pos;
  }
  return std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Rule configuration
// ---------------------------------------------------------------------------

/// ABSQ001: files allowed to contain naked new/delete — RAII wrappers that
/// exist to own such allocations. Currently none; add the owning wrapper's
/// path here if one ever appears.
constexpr std::array<std::string_view, 0> kRaiiWrapperFiles{};

/// ABSQ002: paths where memory_order_relaxed is part of the design — the
/// observability layer's statistic shards and the mailbox counter protocol
/// (paper Fig. 5). Everything else needs an inline allow with a rationale.
constexpr std::array<std::string_view, 2> kRelaxedAllowedPrefixes{
    "src/obs/", "src/sim/mailbox."};

/// ABSQ004: std bases that count as "typed" roots of the hierarchy.
constexpr std::string_view kStdTypedBases[] = {
    "runtime_error", "logic_error",    "invalid_argument",
    "out_of_range",  "domain_error",   "length_error",
    "range_error",   "overflow_error", "underflow_error",
    "system_error",
};

const std::vector<RuleInfo> kRules = {
    {"ABSQ001", "naked-new",
     "no naked new/delete outside approved RAII wrappers"},
    {"ABSQ002", "relaxed-order",
     "memory_order_relaxed only in src/obs/ and the mailbox counters"},
    {"ABSQ003", "hot-path-blocking",
     "no blocking calls (sleep, socket I/O, pool_io, stdio) in "
     "SearchBlock/Device iteration hot paths"},
    {"ABSQ004", "error-hierarchy",
     "every *Error type derives publicly from the typed-exception "
     "hierarchy (CheckError, a std error type, or another *Error)"},
    {"ABSQ005", "include-hygiene",
     "headers start with #pragma once, no `using namespace`, project "
     "headers included by quoted path without ../"},
    // ABSQ006–ABSQ009 are whole-project graph rules; their engines live in
    // util/lint_graph.cpp and run through lint_project(), not lint_file().
    {"ABSQ006", "layering",
     "module dependencies follow the checked-in layering DAG "
     "(lint_layers.toml); violations name the offending include/call edge"},
    {"ABSQ007", "transitive-blocking",
     "no blocking call reachable from a hot-path root through the call "
     "graph (ABSQ003 explored transitively, suppressions honoured at any "
     "frame)"},
    {"ABSQ008", "lock-order",
     "lock acquisition order is globally consistent: the graph of "
     "mutex-held-while-acquiring edges (including through calls) is "
     "acyclic"},
    {"ABSQ009", "atomic-audit",
     "memory_order_relaxed only in functions reachable from a hot-path "
     "root (the lock-cheap telemetry design) or at sites annotated with a "
     "rationale"},
};

struct Context {
  std::string_view path;
  std::string_view raw;
  std::string_view stripped;
  const Suppressions* allows = nullptr;
  std::vector<Diagnostic>* out = nullptr;

  void report(const char* code, const char* rule_name, std::size_t line,
              std::string message) const {
    if (allows->allowed(rule_name, line)) return;
    out->push_back(Diagnostic{code, std::string(path), line,
                              std::move(message)});
  }
};

// ---------------------------------------------------------------------------
// ABSQ001 — naked new/delete
// ---------------------------------------------------------------------------

void check_naked_new(const Context& ctx) {
  for (std::string_view allowed : kRaiiWrapperFiles) {
    if (ctx.path == allowed) return;
  }
  const std::string_view text = ctx.stripped;
  for (std::size_t pos = find_word(text, "new", 0);
       pos != std::string_view::npos; pos = find_word(text, "new", pos + 1)) {
    if (pos > 0) {
      // `operator new` overloads are declarations, not allocations.
      const std::size_t before = text.find_last_not_of(" \t", pos - 1);
      if (before != std::string_view::npos &&
          ends_with(text.substr(0, before + 1), "operator")) {
        continue;
      }
    }
    ctx.report("ABSQ001", "naked-new", line_of(text, pos),
               "naked `new` — allocate through std::make_unique, a "
               "container, or an approved RAII wrapper");
  }
  for (std::size_t pos = find_word(text, "delete", 0);
       pos != std::string_view::npos;
       pos = find_word(text, "delete", pos + 1)) {
    if (pos > 0) {
      const std::size_t before = text.find_last_not_of(" \t\n", pos - 1);
      if (before != std::string_view::npos) {
        // `= delete;` (deleted function) and `operator delete`.
        if (text[before] == '=') continue;
        if (ends_with(text.substr(0, before + 1), "operator")) continue;
      }
    }
    ctx.report("ABSQ001", "naked-new", line_of(text, pos),
               "naked `delete` — ownership must live in an RAII wrapper");
  }
}

// ---------------------------------------------------------------------------
// ABSQ002 — relaxed memory order
// ---------------------------------------------------------------------------

void check_relaxed_order(const Context& ctx) {
  for (std::string_view prefix : kRelaxedAllowedPrefixes) {
    if (starts_with(ctx.path, prefix)) return;
  }
  const std::string_view text = ctx.stripped;
  for (std::size_t pos = find_word(text, "memory_order_relaxed", 0);
       pos != std::string_view::npos;
       pos = find_word(text, "memory_order_relaxed", pos + 1)) {
    ctx.report("ABSQ002", "relaxed-order", line_of(text, pos),
               "memory_order_relaxed outside src/obs/ and the mailbox "
               "counters — justify with an absq-lint allow or use a "
               "stronger ordering");
  }
}

// ---------------------------------------------------------------------------
// ABSQ003 — blocking calls in hot paths
// ---------------------------------------------------------------------------

/// Return [body_begin, body_end) of the function definition whose qualified
/// name `Class::name` starts at or after `from`, or npos/npos.
std::pair<std::size_t, std::size_t> find_function_body(
    std::string_view text, std::string_view qualified, std::size_t from) {
  for (std::size_t pos = text.find(qualified, from);
       pos != std::string_view::npos;
       pos = text.find(qualified, pos + qualified.size())) {
    if (!word_at(text, pos, qualified)) continue;
    // Definition looks like `Class::name (...) ... {`; a `;` first means a
    // declaration or a qualified call in an expression — skip those.
    std::size_t cursor = pos + qualified.size();
    while (cursor < text.size() &&
           std::isspace(static_cast<unsigned char>(text[cursor])) != 0) {
      ++cursor;
    }
    if (cursor >= text.size() || text[cursor] != '(') continue;
    const std::size_t stop = text.find_first_of(";{", cursor);
    if (stop == std::string_view::npos || text[stop] == ';') continue;
    // Brace-track to the end of the body.
    std::size_t depth = 0;
    for (std::size_t i = stop; i < text.size(); ++i) {
      if (text[i] == '{') ++depth;
      if (text[i] == '}') {
        --depth;
        if (depth == 0) return {stop + 1, i};
      }
    }
    return {stop + 1, text.size()};
  }
  return {std::string_view::npos, std::string_view::npos};
}

void check_hot_paths(const Context& ctx) {
  for (const HotPathRoot& spec : hot_path_roots()) {
    if (ctx.path != spec.file) continue;
    for (std::string_view function : spec.functions) {
      std::string qualified(spec.class_name);
      qualified += "::";
      qualified += function;
      const auto [begin, end] =
          find_function_body(ctx.stripped, qualified, 0);
      if (begin == std::string_view::npos) continue;
      const std::string_view body = ctx.stripped.substr(begin, end - begin);
      for (std::string_view token : blocking_tokens()) {
        for (std::size_t pos = find_word(body, token, 0);
             pos != std::string_view::npos;
             pos = find_word(body, token, pos + 1)) {
          ctx.report("ABSQ003", "hot-path-blocking",
                     line_of(ctx.stripped, begin + pos),
                     "blocking call `" + std::string(token) + "` inside " +
                         qualified +
                         " — hot paths must stay non-blocking; queue the "
                         "work for the host loop instead");
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ABSQ004 — error types must join the typed-exception hierarchy
// ---------------------------------------------------------------------------

bool base_clause_ok(std::string_view clause, bool is_struct) {
  // Must inherit publicly (structs default to public).
  if (!is_struct && clause.find("public") == std::string_view::npos) {
    return false;
  }
  // The last identifier of any base must be a typed root or another *Error.
  std::size_t pos = 0;
  while (pos < clause.size()) {
    if (!is_ident(clause[pos])) {
      ++pos;
      continue;
    }
    std::size_t end = pos;
    while (end < clause.size() && is_ident(clause[end])) ++end;
    const std::string_view ident = clause.substr(pos, end - pos);
    if (ends_with(ident, "Error")) return true;
    for (std::string_view base : kStdTypedBases) {
      if (ident == base) return true;
    }
    pos = end;
  }
  return false;
}

void check_error_hierarchy(const Context& ctx) {
  const std::string_view text = ctx.stripped;
  for (std::string_view keyword : {"class", "struct"}) {
    const bool is_struct = keyword == "struct";
    for (std::size_t pos = find_word(text, keyword, 0);
         pos != std::string_view::npos;
         pos = find_word(text, keyword, pos + 1)) {
      std::size_t cursor = pos + keyword.size();
      while (cursor < text.size() &&
             std::isspace(static_cast<unsigned char>(text[cursor])) != 0) {
        ++cursor;
      }
      std::size_t name_end = cursor;
      while (name_end < text.size() && is_ident(text[name_end])) ++name_end;
      const std::string_view name = text.substr(cursor, name_end - cursor);
      if (!ends_with(name, "Error") || name == "Error") continue;
      const std::size_t stop = text.find_first_of(";{", name_end);
      if (stop == std::string_view::npos || text[stop] == ';') {
        continue;  // forward declaration
      }
      const std::string_view clause = text.substr(name_end, stop - name_end);
      if (clause.find(':') == std::string_view::npos ||
          !base_clause_ok(clause, is_struct)) {
        ctx.report("ABSQ004", "error-hierarchy", line_of(text, pos),
                   std::string(name) +
                       " must derive publicly from the typed-exception "
                       "hierarchy (CheckError, a std error type, or "
                       "another *Error)");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ABSQ005 — include hygiene (headers only)
// ---------------------------------------------------------------------------

void check_include_hygiene(const Context& ctx) {
  if (!ends_with(ctx.path, ".hpp")) return;
  const std::string_view text = ctx.stripped;

  // (a) first significant line is `#pragma once`.
  const std::size_t first = text.find_first_not_of(" \t\n\r");
  if (first == std::string_view::npos ||
      !starts_with(text.substr(first), "#pragma once")) {
    ctx.report("ABSQ005", "include-hygiene", 1,
               "header must open with #pragma once (before any other "
               "code)");
  }

  // (b) no `using namespace` leaking into every includer.
  for (std::size_t pos = find_word(text, "using", 0);
       pos != std::string_view::npos;
       pos = find_word(text, "using", pos + 1)) {
    std::size_t cursor = pos + 5;
    while (cursor < text.size() &&
           std::isspace(static_cast<unsigned char>(text[cursor])) != 0) {
      ++cursor;
    }
    if (word_at(text, cursor, "namespace") &&
        starts_with(text.substr(cursor), "namespace")) {
      ctx.report("ABSQ005", "include-hygiene", line_of(text, pos),
                 "`using namespace` in a header leaks into every "
                 "includer");
    }
  }

  // (c)/(d) include forms. The stripper blanks quoted paths, so scan the
  // raw text; anchoring at line start keeps commented examples quiet.
  const std::string_view raw = ctx.raw;
  for (std::size_t pos = raw.find("#include");
       pos != std::string_view::npos;
       pos = raw.find("#include", pos + 1)) {
    const std::size_t bol = raw.rfind('\n', pos) + 1;  // npos+1 == 0
    if (raw.find_first_not_of(" \t", bol) != pos) continue;
    const std::size_t eol = raw.find('\n', pos);
    const std::string_view line_text =
        raw.substr(pos, eol == std::string_view::npos ? raw.size() - pos
                                                      : eol - pos);
    if (line_text.find(".hpp>") != std::string_view::npos) {
      ctx.report("ABSQ005", "include-hygiene", line_of(text, pos),
                 "project headers are included with quotes relative to "
                 "src/, not angle brackets");
    }
    if (line_text.find("\"../") != std::string_view::npos) {
      ctx.report("ABSQ005", "include-hygiene", line_of(text, pos),
                 "parent-relative include breaks standalone compilation; "
                 "include relative to src/");
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rules() { return kRules; }

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

const std::vector<HotPathRoot>& hot_path_roots() {
  // The per-iteration call chain of the bulk search: SearchBlock's search
  // loop and the Device scheduling loops that drive it. ABSQ003 scans
  // exactly these bodies; ABSQ007/ABSQ009 explore the call graph from them.
  static const std::vector<HotPathRoot> kHotPaths = {
      {"src/abs/search_block.cpp",
       "SearchBlock",
       {"iterate", "staggered_offset"}},
      {"src/abs/device.cpp",
       "Device",
       {"iterate_block", "run_shard", "step_all_blocks_once"}},
      // The flip kernels themselves — every form runs inside the loops
      // above, once per flip.
      {"src/qubo/delta_state.cpp",
       "DeltaState",
       {"flip", "flip_tracked", "flip_dense", "flip_sparse",
        "flip_tracked_dense_simd", "finish_dense_flip", "flip_tracked_sparse",
        "repair_sparse", "argmin_window", "begin_walk", "settle",
        "argmin_pending"}},
      // Every build of the dense sweep the flips above dispatch to.
      {"src/qubo/dense_sweep.cpp",
       "PortableSweep",
       {"repair", "repair_argmin"}},
      {"src/qubo/dense_sweep.cpp", "Avx2Sweep", {"repair", "repair_argmin"}},
      {"src/qubo/dense_sweep.cpp", "Avx512Sweep", {"repair", "repair_argmin"}},
      // Every BlockAlgorithm::step is a Step-4b inner loop — one call per
      // iteration, flips per call — and inherits SearchBlock's constraints.
      {"src/portfolio/block_algorithm.cpp", "MinDeltaAlgorithm", {"step"}},
      {"src/portfolio/block_algorithm.cpp", "SaAlgorithm", {"step"}},
      {"src/portfolio/block_algorithm.cpp",
       "MultiStartAlgorithm",
       {"step", "restart"}},
      // The mailbox shard protocol (paper Fig. 5) runs once per iteration
      // on the device workers.
      {"src/sim/mailbox.cpp", "TargetBuffer", {"push", "poll"}},
      {"src/sim/mailbox.cpp", "SolutionBuffer", {"push"}},
  };
  return kHotPaths;
}

const std::vector<std::string_view>& blocking_tokens() {
  // Matched as whole words on comment/literal-stripped text.
  static const std::vector<std::string_view> kBlockingTokens = {
      "sleep_for",       "sleep_until",    "usleep",   "nanosleep",
      "recv",            "send",           "accept",   "connect",
      "write_pool_file", "read_pool_file", "ofstream", "ifstream",
      "fstream",         "fopen",          "fwrite",   "fprintf",
      "printf",          "cout",           "cerr",     "getline",
      "fflush",          "fread",          "fgets",    "system",
      "popen",
  };
  return kBlockingTokens;
}

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

std::vector<Diagnostic> lint_file(std::string_view path,
                                  std::string_view content) {
  std::vector<Diagnostic> out;
  const Suppressions allows = collect_suppressions(content);
  const std::string stripped = strip_comments_and_strings(content);
  const Context ctx{path, content, stripped, &allows, &out};
  check_naked_new(ctx);
  check_relaxed_order(ctx);
  check_hot_paths(ctx);
  check_error_hierarchy(ctx);
  check_include_hygiene(ctx);
  std::sort(out.begin(), out.end(), [](const Diagnostic& a,
                                       const Diagnostic& b) {
    return a.line != b.line ? a.line < b.line : a.code < b.code;
  });
  return out;
}

std::string format_diagnostic(const Diagnostic& d) {
  std::ostringstream os;
  os << d.file << ':' << d.line << ": [" << d.code << "] " << d.message;
  return os.str();
}

std::vector<std::pair<std::string, std::size_t>> count_by_rule(
    const std::vector<Diagnostic>& diagnostics) {
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const RuleInfo& rule : rules()) out.emplace_back(rule.code, 0);
  for (const Diagnostic& d : diagnostics) {
    const auto it = std::find_if(out.begin(), out.end(), [&](const auto& e) {
      return e.first == d.code;
    });
    if (it != out.end()) {
      ++it->second;
    } else {
      out.emplace_back(d.code, 1);  // future-proof: unknown code still counted
    }
  }
  return out;
}

std::string to_sarif(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream os;
  os << "{\"$schema\":"
        "\"https://json.schemastore.org/sarif-2.1.0.json\","
        "\"version\":\"2.1.0\",\"runs\":[{"
        "\"tool\":{\"driver\":{"
        "\"name\":\"absq_lint\",\"version\":\"1.0.0\","
        "\"rules\":[";
  bool first = true;
  for (const RuleInfo& rule : rules()) {
    if (!first) os << ',';
    first = false;
    os << "{\"id\":" << json_quote(rule.code)
       << ",\"name\":" << json_quote(rule.name)
       << ",\"shortDescription\":{\"text\":" << json_quote(rule.summary)
       << "}}";
  }
  os << "]}},\"results\":[";
  first = true;
  for (const Diagnostic& d : diagnostics) {
    if (!first) os << ',';
    first = false;
    os << "{\"ruleId\":" << json_quote(d.code)
       << ",\"level\":\"error\",\"message\":{\"text\":"
       << json_quote(d.message)
       << "},\"locations\":[{\"physicalLocation\":{"
          "\"artifactLocation\":{\"uri\":"
       << json_quote(d.file)
       << "},\"region\":{\"startLine\":" << d.line << "}}}]}";
  }
  os << "]}]}";
  return os.str();
}

}  // namespace absq::lint
