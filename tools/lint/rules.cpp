// The nine lint rules over a ProjectIndex, the two entry points that run
// them (lint_file for one file, lint_project for a tree) and the output
// formats. The per-file rules (ABSQ001, 002, 004, 005) read one
// FileIndex; the graph rules read the whole index; ABSQ003 and ABSQ007 are
// the two ends of one hot-path walk.
#include "lint/lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "lint/text.hpp"
#include "util/json_text.hpp"

namespace absq::lint {

using text::ends_with;
using text::find_word;
using text::is_ident;
using text::line_of;
using text::starts_with;
using text::word_at;

namespace {

// ---------------------------------------------------------------------------
// Rule configuration
// ---------------------------------------------------------------------------

/// ABSQ001: files allowed to contain naked new/delete — RAII wrappers that
/// exist to own such allocations. Currently none; add the owning wrapper's
/// path here if one ever appears.
constexpr std::array<std::string_view, 0> kRaiiWrapperFiles{};

/// ABSQ002: paths where memory_order_relaxed is part of the design — the
/// observability layer's statistic counters and the mailbox counter protocol
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
    // ABSQ006–ABSQ009 read the whole index, so only lint_project() runs
    // them.
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

/// What a per-file rule reads: one indexed file, plus its raw text for the
/// include-form check (the stripper blanks quoted paths).
struct Context {
  const FileIndex& file;
  std::string_view raw;
  std::vector<Diagnostic>& out;

  void report(const char* code, const char* rule_name, std::size_t line,
              std::string message) const {
    if (file.allows.allowed(rule_name, line)) return;
    out.push_back(Diagnostic{code, file.path, line, std::move(message)});
  }
};

/// One hot-path root: functions whose per-iteration call chain must never
/// block. ABSQ003 scans their bodies, ABSQ007 and ABSQ009 explore the call
/// graph from them.
struct HotPathRoot {
  std::string_view file;        ///< exact repo-relative path
  std::string_view class_name;  ///< qualifier before ::
  std::vector<std::string_view> functions;
};

// The per-iteration call chain of the bulk search: SearchBlock's search
// loop and the Device scheduling loops that drive it.
const std::vector<HotPathRoot> kHotPathRoots = {
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
      "argmin_pending", "init_chunk_minima", "init_walk_minima",
      "rescan_chunk", "rescan_walk_chunk", "rescan_dirty_chunks",
      "leftmost_in", "argmin_window_sparse", "argmin_pending_sparse"}},
    // Every build of the dense sweep the flips above dispatch to.
    {"src/qubo/dense_sweep.cpp", "PortableSweep", {"repair", "repair_argmin"}},
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

/// Calls that block (or do I/O) and may not appear on a hot path, matched
/// as whole words on comment/literal-stripped text.
constexpr std::string_view kBlockingTokens[] = {
    "sleep_for",       "sleep_until",    "usleep",   "nanosleep",
    "recv",            "send",           "accept",   "connect",
    "write_pool_file", "read_pool_file", "ofstream", "ifstream",
    "fstream",         "fopen",          "fwrite",   "fprintf",
    "printf",          "cout",           "cerr",     "getline",
    "fflush",          "fread",          "fgets",    "system",
    "popen",
};

// ---------------------------------------------------------------------------
// ABSQ001 — naked new/delete
// ---------------------------------------------------------------------------

void check_naked_new(const Context& ctx) {
  for (std::string_view allowed : kRaiiWrapperFiles) {
    if (ctx.file.path == allowed) return;
  }
  const std::string_view text = ctx.file.stripped;
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
    if (starts_with(ctx.file.path, prefix)) return;
  }
  const std::string_view text = ctx.file.stripped;
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
  const std::string_view text = ctx.file.stripped;
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
  if (!ends_with(ctx.file.path, ".hpp")) return;
  const std::string_view text = ctx.file.stripped;

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
// Rule table and hot-path roots
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rules() { return kRules; }

std::vector<const FunctionDef*> ProjectIndex::hot_roots() const {
  std::vector<const FunctionDef*> out;
  for (const HotPathRoot& spec : kHotPathRoots) {
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
  for (const HotPathRoot& spec : kHotPathRoots) {
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
// ABSQ003 + ABSQ007 — blocking calls on hot paths
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
    const FileIndex* caller = index.file(chain[i - 1].fn->file);
    if (caller == nullptr) continue;
    if (caller->allows.allowed("transitive-blocking", chain[i].call_line) ||
        caller->allows.allowed("hot-path-blocking", chain[i].call_line)) {
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

std::vector<Diagnostic> check_hot_path_blocking(const ProjectIndex& index,
                                                std::size_t depth) {
  std::vector<Diagnostic> out;
  std::set<std::string> reported;  // ABSQ007: root|callee-file|line|token

  for (const FunctionDef* root : index.hot_roots()) {
    // DFS with the first-found path kept as the reporting chain; each
    // function is visited once per root.
    std::set<const FunctionDef*> visited{root};
    std::vector<Frame> chain{{root, 0}};

    const std::function<void(const FunctionDef&, std::size_t)> visit =
        [&](const FunctionDef& fn, std::size_t d) {
          const FileIndex* fi = index.file(fn.file);
          const std::string_view body(
              fi->stripped.data() + fn.body_begin,
              std::min(fn.body_end, fi->stripped.size()) - fn.body_begin);
          for (std::string_view token : kBlockingTokens) {
            for (std::size_t pos = find_word(body, token, 0);
                 pos != std::string_view::npos;
                 pos = find_word(body, token, pos + 1)) {
              const std::size_t line =
                  line_of(fi->stripped, fn.body_begin + pos);
              if (d == 0) {
                // The root's own body.
                if (fi->allows.allowed("hot-path-blocking", line)) continue;
                out.push_back(Diagnostic{
                    "ABSQ003", fn.file, line,
                    "blocking call `" + std::string(token) + "` inside " +
                        fn.class_name + "::" + fn.name +
                        " — hot paths must stay non-blocking; queue the "
                        "work for the host loop instead"});
                continue;
              }
              if (fi->allows.allowed("transitive-blocking", line) ||
                  fi->allows.allowed("hot-path-blocking", line)) {
                continue;
              }
              if (chain_allowed(index, chain)) continue;
              std::string key = root->class_name + "::" + root->name + "|" +
                                fn.file + "|" + std::to_string(line) + "|" +
                                std::string(token);
              if (!reported.insert(std::move(key)).second) continue;
              out.push_back(Diagnostic{
                  "ABSQ007", root->file, chain[1].call_line,
                  "blocking call `" + std::string(token) + "` at " +
                      fn.file + ":" + std::to_string(line) +
                      " is reachable from hot path " + chain_text(chain) +
                      " — keep the chain non-blocking or annotate the "
                      "site with a rationale"});
            }
          }
          if (d >= depth) return;
          for (const CallSite& call : fn.calls) {
            for (const FunctionDef* callee : index.resolve(fn, call)) {
              if (!visited.insert(callee).second) continue;
              chain.push_back(Frame{callee, call.line});
              visit(*callee, d + 1);
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
                const FileIndex* witness = index.file(e->file);
                if (witness != nullptr &&
                    witness->allows.allowed("lock-order", e->line)) {
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
// lint_file / lint_project / dump_dot
// ---------------------------------------------------------------------------

namespace {

/// The rules that read one file: ABSQ001, ABSQ002, ABSQ004 and ABSQ005.
void check_file(const FileIndex& file, std::string_view raw,
                std::vector<Diagnostic>& out) {
  const Context ctx{file, raw, out};
  check_naked_new(ctx);
  check_relaxed_order(ctx);
  check_error_hierarchy(ctx);
  check_include_hygiene(ctx);
}

void append(std::vector<Diagnostic>& out, std::vector<Diagnostic> more) {
  out.insert(out.end(), std::make_move_iterator(more.begin()),
             std::make_move_iterator(more.end()));
}

}  // namespace

std::vector<Diagnostic> lint_file(std::string_view path,
                                  std::string_view content) {
  ProjectIndex index;
  std::vector<Diagnostic> out;
  check_file(index.add_file(path, content), content, out);
  append(out, check_hot_path_blocking(index, 0));
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.line != b.line ? a.line < b.line
                                             : a.code < b.code;
                   });
  return out;
}

std::vector<Diagnostic> lint_project(const std::vector<ProjectFile>& files,
                                     const LayerManifest* manifest) {
  std::vector<Diagnostic> out;
  ProjectIndex index;
  for (const ProjectFile& f : files) {
    // A file named twice (overlapping CLI arguments) is indexed once: a
    // second copy would double its findings and, not being the copy the
    // hot-path roots resolve to, draw spurious ABSQ009 findings.
    if (index.file(f.path) != nullptr) continue;
    check_file(index.add_file(f.path, f.content), f.content, out);
  }
  if (manifest != nullptr) append(out, check_layering(index, *manifest));
  append(out, check_hot_path_blocking(index));
  append(out, check_lock_order(index));
  append(out, check_atomic_audit(index));
  std::stable_sort(out.begin(), out.end(),
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

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

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
