// Whole-project structural index behind absq_lint's graph rules
// (ABSQ006–ABSQ009).
//
// lint.cpp's per-file rules see one token stream at a time; the rules here
// need *structure*: which function calls which, which module includes
// which, which mutexes a function acquires and in what order. The indexer
// below is an AST-lite pass over the comment/literal-stripped text — no
// compiler, no headers resolved, a deliberate trade: it runs over the
// whole tree in tens of milliseconds and never needs a compilation
// database, at the cost of name-based call resolution (overloads collapse
// to one node, a member call `x.step()` links to every `step` method).
// Over-approximation is the right bias for the rules built on top — a
// missed edge hides a deadlock, a spurious edge costs one annotated
// suppression — and every rule honours `// absq-lint: allow(...)` at any
// call frame.
//
// What the index records, per file:
//   - quoted #include edges (module dependency graph for ABSQ006)
//   - function definitions with their enclosing class/namespace, body
//     spans, and line numbers
//   - call sites inside each body (callee name, explicit qualifier,
//     member-call flag, locks held at the call)
//   - lock-guard acquisitions (lock_guard/unique_lock/scoped_lock/
//     shared_lock and direct .lock() on *mutex* members), with the
//     brace-scope tracked so "held while acquiring" is known
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"
#include "util/lint.hpp"

namespace absq::lint {

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

/// One lock acquisition, in body order.
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

/// Everything indexed from one file.
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
  /// Parses one file into the index. `path` must be repo-relative with
  /// forward slashes.
  void add_file(std::string_view path, std::string_view content);

  [[nodiscard]] const std::vector<FileIndex>& files() const { return files_; }
  [[nodiscard]] const FileIndex* file(std::string_view path) const;

  /// Name-based call resolution (see the header comment for the rules):
  /// qualified calls match class/namespace + name, member calls match any
  /// method of that name, plain calls match free functions and methods of
  /// the caller's own class.
  [[nodiscard]] std::vector<const FunctionDef*> resolve(
      const FunctionDef& caller, const CallSite& call) const;

  /// First definition matching (class_name, name); nullptr when absent.
  [[nodiscard]] const FunctionDef* find_function(std::string_view class_name,
                                                 std::string_view name) const;

  /// The hot-path root definitions present in this index (resolved from
  /// hot_path_roots()).
  [[nodiscard]] std::vector<const FunctionDef*> hot_roots() const;

  /// Every hot_path_roots() entry without a definition in this index
  /// (missing file or function), as "file: Class::function". The rules
  /// skip such a root silently, so the self-test runs this over the
  /// checked-out src/: a deleted or renamed root must fail there instead
  /// of dropping ABSQ003/ABSQ007 coverage.
  [[nodiscard]] std::vector<std::string> unresolved_hot_roots() const;

  /// Every FunctionDef reachable from the given roots through resolve(),
  /// to `depth` call frames (the roots themselves are included).
  [[nodiscard]] std::vector<const FunctionDef*> reachable(
      const std::vector<const FunctionDef*>& roots, std::size_t depth) const;

  [[nodiscard]] const Suppressions* allows_for(std::string_view path) const;

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

// --- graph rules -----------------------------------------------------------

/// ABSQ006: every cross-module include (and explicitly-qualified call)
/// edge must be permitted by the manifest.
std::vector<Diagnostic> check_layering(const ProjectIndex& index,
                                       const LayerManifest& manifest);

/// ABSQ007: no blocking token in any function reachable from a hot-path
/// root. Suppressions (`transitive-blocking` or `hot-path-blocking`) are
/// honoured at the blocking site and at every call site along the chain.
std::vector<Diagnostic> check_transitive_blocking(const ProjectIndex& index);

/// ABSQ008: the global lock-order graph (mutex A held while acquiring B,
/// intra-function and through calls) must be acyclic.
std::vector<Diagnostic> check_lock_order(const ProjectIndex& index);

/// ABSQ009: memory_order_relaxed only inside functions reachable from a
/// hot-path root, or at sites annotated `allow(relaxed-order)` /
/// `allow(atomic-audit)`; memory_order_consume is always flagged.
std::vector<Diagnostic> check_atomic_audit(const ProjectIndex& index);

/// Runs the per-file rules (ABSQ001–ABSQ005) over every file plus the
/// graph rules above. `manifest` may be null (ABSQ006 skipped).
struct ProjectFile {
  std::string path;
  std::string content;
};
std::vector<Diagnostic> lint_project(const std::vector<ProjectFile>& files,
                                     const LayerManifest* manifest);

/// Graphviz dump for offline inspection: the module dependency graph, the
/// lock-order graph, and the call graph, as three digraphs in one stream.
std::string dump_dot(const ProjectIndex& index);

}  // namespace absq::lint
