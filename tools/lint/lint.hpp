// absq_lint — the project-invariant checker behind `tools/absq_lint` and
// stage C of scripts/analyze.sh. It is a library of its own under tools/:
// the CLI and the self-test (tests/test_lint.cpp) link it; the solver
// library does not.
//
// Generic analyzers (clang-tidy, sanitizers) cannot know this project's
// rules: which files are allowed to use relaxed atomics, which functions
// are hot paths that must never block, or that every error type has to
// plug into the CheckError hierarchy so the serving layer can map it to a
// wire code. Those invariants live here, as one AST-lite engine: each file
// is indexed once — comments and literals stripped, suppressions parsed,
// function definitions, call sites, lock acquisitions and quoted
// #include edges recorded — and every rule reads that index. Findings
// carry stable diagnostic codes (ABSQ001…) that the self-test pins.
//
// The indexer needs no compiler, no headers resolved and no compilation
// database, and runs over the whole tree in tens of milliseconds. The
// price is name-based call resolution: overloads collapse to one node, a
// member call `x.step()` links to every `step` method. Over-approximation
// is the right bias for the rules built on it — a missed edge hides a
// deadlock, a spurious edge costs one annotated suppression.
//
// Suppressions, both with a mandatory trailing rationale:
//   // absq-lint: allow(<rule-name>) <why>        — this line + the next
//   // absq-lint: allow-file(<rule-name>) <why>   — the whole file
// The graph rules honour them at any call frame of the chain they report.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace absq::lint {

/// One finding. `code` is stable across releases; tooling may key off it.
struct Diagnostic {
  std::string code;     ///< e.g. "ABSQ002"
  std::string file;     ///< repo-relative path, forward slashes
  std::size_t line = 0; ///< 1-based
  std::string message;
};

/// Static description of a rule, for `absq_lint --list-rules` and docs.
struct RuleInfo {
  const char* code;    ///< "ABSQ001"
  const char* name;    ///< suppression key, e.g. "naked-new"
  const char* summary; ///< one line, what the rule enforces
};

/// All registered rules, in code order.
const std::vector<RuleInfo>& rules();

/// Parsed `absq-lint: allow(rule)` / `allow-file(rule)` annotations of one
/// file.
struct Suppressions {
  // rule name -> lines on which it is allowed (the annotated line and the
  // one after it, so a standalone comment line covers the code below).
  std::vector<std::pair<std::string, std::size_t>> line_allows;
  std::vector<std::string> file_allows;

  [[nodiscard]] bool allowed(std::string_view rule, std::size_t line) const {
    for (const std::string& r : file_allows) {
      if (r == rule) return true;
    }
    return std::any_of(line_allows.begin(), line_allows.end(),
                       [&](const auto& a) {
                         return a.first == rule &&
                                (a.second == line || a.second + 1 == line);
                       });
  }
};

/// Blank out comments and string/char literals (newlines kept so line
/// numbers survive). Exposed for the self-test.
std::string strip_comments_and_strings(std::string_view src);

// --- the index ---------------------------------------------------------------

/// Thrown on a malformed lint_layers.toml manifest.
class ManifestError : public CheckError {
 public:
  explicit ManifestError(const std::string& what) : CheckError(what) {}
};

/// One call site inside a function body.
struct CallSite {
  std::string name;       ///< unqualified callee name
  std::string qualifier;  ///< written qualifier ("Device", "fail", ...) or ""
  bool member_call = false;  ///< receiver.name(...) / receiver->name(...)
  std::size_t line = 0;
  /// Qualified mutex ids held when the call is made (lock-order edges
  /// propagate through calls).
  std::vector<std::string> held_locks;
};

/// One lock acquisition, in body order: lock_guard / unique_lock /
/// scoped_lock / shared_lock, or a direct .lock() on a *mutex* member.
struct LockSite {
  std::string mutex;  ///< qualified id, e.g. "JobManager::mutex_"
  std::size_t line = 0;
  /// Mutexes already held when this one is acquired (the intra-function
  /// lock-order edges). A multi-mutex std::scoped_lock acquires its
  /// arguments simultaneously: they share one snapshot and contribute no
  /// edges among themselves.
  std::vector<std::string> held;
};

/// One function (or method) definition.
struct FunctionDef {
  std::string file;        ///< repo-relative path of the defining file
  std::string class_name;  ///< enclosing class or explicit qualifier; "" free
  std::string name;
  std::size_t line = 0;        ///< 1-based line of the definition
  std::size_t body_begin = 0;  ///< offsets into the file's stripped text
  std::size_t body_end = 0;
  std::vector<CallSite> calls;
  std::vector<LockSite> locks;
};

/// One quoted #include directive.
struct IncludeEdge {
  std::string target;  ///< path as written, e.g. "qubo/energy.hpp"
  std::size_t line = 0;
};

/// Everything indexed from one file; every rule reads this.
struct FileIndex {
  std::string path;      ///< repo-relative, forward slashes
  std::string stripped;  ///< comment/literal-stripped content
  Suppressions allows;
  std::vector<IncludeEdge> includes;
  std::vector<FunctionDef> functions;
  /// Namespace names opened in this file ("absq", "fail", ...) — lets
  /// resolve() treat `fail::triggered(...)` as a free-function call.
  std::vector<std::string> namespaces;
};

/// First path component that names a module: "src/qubo/energy.hpp" →
/// "qubo", "tools/absq_lint.cpp" → "tools". Include targets are written
/// relative to src/, so "qubo/energy.hpp" → "qubo" as well.
std::string module_of(std::string_view path);

class ProjectIndex {
 public:
  /// Indexes one file. `path` must be repo-relative with forward slashes —
  /// several rules key off directory prefixes (e.g. src/obs/). The
  /// reference stays valid until the next add_file().
  const FileIndex& add_file(std::string_view path, std::string_view content);

  [[nodiscard]] const std::vector<FileIndex>& files() const { return files_; }
  [[nodiscard]] const FileIndex* file(std::string_view path) const;

  /// Name-based call resolution: qualified calls match class/namespace +
  /// name, member calls match any method of that name, plain calls match
  /// free functions and methods of the caller's own class.
  [[nodiscard]] std::vector<const FunctionDef*> resolve(
      const FunctionDef& caller, const CallSite& call) const;

  /// First definition matching (class_name, name); nullptr when absent.
  [[nodiscard]] const FunctionDef* find_function(std::string_view class_name,
                                                 std::string_view name) const;

  /// The hot-path root definitions present in this index: the functions
  /// whose per-iteration call chain must never block (ABSQ003, ABSQ007)
  /// and whose reach bounds relaxed atomics (ABSQ009).
  [[nodiscard]] std::vector<const FunctionDef*> hot_roots() const;

  /// Every hot-path root without a definition in this index (missing file
  /// or function), as "file: Class::function". The rules skip such a root
  /// silently, so the self-test runs this over the checked-out src/: a
  /// deleted or renamed root must fail there instead of dropping
  /// ABSQ003/ABSQ007 coverage.
  [[nodiscard]] std::vector<std::string> unresolved_hot_roots() const;

  /// Every FunctionDef reachable from the given roots through resolve(),
  /// to `depth` call frames (the roots themselves are included).
  [[nodiscard]] std::vector<const FunctionDef*> reachable(
      const std::vector<const FunctionDef*>& roots, std::size_t depth) const;

 private:
  std::vector<FileIndex> files_;
  // Lookup tables, rebuilt lazily after add_file().
  mutable bool dirty_ = true;
  mutable std::map<std::string, std::vector<const FunctionDef*>, std::less<>>
      by_name_;
  mutable std::vector<std::string> namespaces_;  // sorted, for qualifier calls
  void rebuild() const;
};

/// The module layering manifest (lint_layers.toml): `module = [deps]`
/// entries under a `[modules]` section; "*" permits everything (the
/// harness layers: tools/tests/bench/examples).
struct LayerManifest {
  std::map<std::string, std::vector<std::string>> allowed;

  [[nodiscard]] bool known(const std::string& module) const;
  [[nodiscard]] bool permits(const std::string& from,
                             const std::string& to) const;
  /// Parses manifest text; throws ManifestError on malformed input.
  static LayerManifest parse(std::string_view text);
};

/// How many call frames ABSQ007/ABSQ008/ABSQ009 explore from their roots.
inline constexpr std::size_t kGraphDepth = 8;

// --- the rules ---------------------------------------------------------------

/// ABSQ006: every cross-module include (and explicitly-qualified call)
/// edge must be permitted by the manifest.
std::vector<Diagnostic> check_layering(const ProjectIndex& index,
                                       const LayerManifest& manifest);

/// One walk of the call graph from every hot-path root, to `depth` frames.
/// A blocking token in a root's own body is ABSQ003 (suppressed by
/// `hot-path-blocking` at the site); one reached through calls is ABSQ007,
/// reported at the root's call site (suppressed by `transitive-blocking` or
/// `hot-path-blocking` at the site or at any call site along the chain).
std::vector<Diagnostic> check_hot_path_blocking(
    const ProjectIndex& index, std::size_t depth = kGraphDepth);

/// ABSQ008: the global lock-order graph (mutex A held while acquiring B,
/// intra-function and through calls) must be acyclic.
std::vector<Diagnostic> check_lock_order(const ProjectIndex& index);

/// ABSQ009: memory_order_relaxed only inside functions reachable from a
/// hot-path root, or at sites annotated `allow(relaxed-order)` /
/// `allow(atomic-audit)`; memory_order_consume is always flagged.
std::vector<Diagnostic> check_atomic_audit(const ProjectIndex& index);

/// Lints one file alone: the per-file rules ABSQ001–ABSQ005 (ABSQ003 as
/// the root-body frame of the hot-path walk), sorted by line.
std::vector<Diagnostic> lint_file(std::string_view path,
                                  std::string_view content);

/// Indexes every file once and runs all nine rules over the index.
/// `manifest` may be null (ABSQ006 skipped). Sorted by file, then line.
struct ProjectFile {
  std::string path;
  std::string content;
};
std::vector<Diagnostic> lint_project(const std::vector<ProjectFile>& files,
                                     const LayerManifest* manifest);

// --- output ------------------------------------------------------------------

/// "file:line: [CODE] message" — the one format printed by the CLI.
std::string format_diagnostic(const Diagnostic& d);

/// Per-rule finding counts, in rule-code order, for the summary line.
std::vector<std::pair<std::string, std::size_t>> count_by_rule(
    const std::vector<Diagnostic>& diagnostics);

/// The full findings set as a SARIF 2.1.0 document (one run, one driver,
/// every registered rule listed, one result per diagnostic). Plain string
/// building; the self-test parses the output back with serve::Json.
std::string to_sarif(const std::vector<Diagnostic>& diagnostics);

/// Graphviz dump for offline inspection: the module dependency graph, the
/// lock-order graph, and the call graph, as three digraphs in one stream.
std::string dump_dot(const ProjectIndex& index);

}  // namespace absq::lint
