// Self-test for the absq_lint invariant checker: every rule must fire on a
// known-bad snippet with its stable diagnostic code, stay quiet on the
// equivalent good code, and honour both suppression scopes. The codes
// asserted here are pinned — tooling keys off them.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "serve/json.hpp"

namespace absq::lint {
namespace {

std::vector<std::string> codes(const std::vector<Diagnostic>& diagnostics) {
  std::vector<std::string> out;
  out.reserve(diagnostics.size());
  for (const Diagnostic& d : diagnostics) out.push_back(d.code);
  return out;
}

bool fires(std::string_view path, std::string_view content,
           const std::string& code) {
  const auto diagnostics = lint_file(path, content);
  const auto c = codes(diagnostics);
  return std::find(c.begin(), c.end(), code) != c.end();
}

// ---------------------------------------------------------------------------
// ABSQ001 — naked new/delete
// ---------------------------------------------------------------------------

TEST(LintNakedNew, FiresOnNakedNewAndDelete) {
  EXPECT_TRUE(fires("src/foo.cpp", "int* p = new int(3);\n", "ABSQ001"));
  EXPECT_TRUE(fires("src/foo.cpp", "void f(int* p) { delete p; }\n",
                    "ABSQ001"));
  EXPECT_TRUE(fires("src/foo.cpp", "void f(int* p) { delete[] p; }\n",
                    "ABSQ001"));
}

TEST(LintNakedNew, ReportsLineNumber) {
  const auto diagnostics =
      lint_file("src/foo.cpp", "int a;\nint b;\nint* p = new int;\n");
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].code, "ABSQ001");
  EXPECT_EQ(diagnostics[0].line, 3u);
  EXPECT_EQ(diagnostics[0].file, "src/foo.cpp");
}

TEST(LintNakedNew, IgnoresDeletedFunctionsAndOperatorOverloads) {
  EXPECT_FALSE(fires("src/foo.hpp",
                     "#pragma once\nstruct X { X(const X&) = delete; };\n",
                     "ABSQ001"));
  EXPECT_FALSE(fires("src/foo.hpp",
                     "#pragma once\nstruct X {\n  X& operator=(X&&) =\n"
                     "      delete;\n};\n",
                     "ABSQ001"));
  EXPECT_FALSE(fires("src/foo.cpp",
                     "void* operator new(std::size_t n);\n"
                     "void operator delete(void* p) noexcept;\n",
                     "ABSQ001"));
}

TEST(LintNakedNew, IgnoresCommentsStringsAndIdentifiers) {
  EXPECT_FALSE(fires("src/foo.cpp", "// a new day, delete nothing\n",
                     "ABSQ001"));
  EXPECT_FALSE(fires("src/foo.cpp",
                     "const char* s = \"no new submissions\";\n", "ABSQ001"));
  EXPECT_FALSE(fires("src/foo.cpp", "int renewed = new_value();\n",
                     "ABSQ001"));
}

// ---------------------------------------------------------------------------
// ABSQ002 — relaxed memory order
// ---------------------------------------------------------------------------

constexpr const char* kRelaxedSnippet =
    "void f(std::atomic<int>& a) {\n"
    "  a.fetch_add(1, std::memory_order_relaxed);\n"
    "}\n";

TEST(LintRelaxedOrder, FiresOutsideAllowedPaths) {
  EXPECT_TRUE(fires("src/serve/foo.cpp", kRelaxedSnippet, "ABSQ002"));
  EXPECT_TRUE(fires("tests/test_foo.cpp", kRelaxedSnippet, "ABSQ002"));
}

TEST(LintRelaxedOrder, AllowedInObsAndMailbox) {
  EXPECT_FALSE(fires("src/obs/metrics.cpp", kRelaxedSnippet, "ABSQ002"));
  EXPECT_FALSE(fires("src/sim/mailbox.cpp", kRelaxedSnippet, "ABSQ002"));
  EXPECT_FALSE(fires("src/sim/mailbox.hpp", kRelaxedSnippet, "ABSQ002"));
}

// ---------------------------------------------------------------------------
// ABSQ003 — blocking calls in hot paths
// ---------------------------------------------------------------------------

TEST(LintHotPath, FiresOnSleepInIterateBlock) {
  const std::string body =
      "void Device::iterate_block(std::size_t i, std::size_t w) {\n"
      "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
      "}\n";
  EXPECT_TRUE(fires("src/abs/device.cpp", body, "ABSQ003"));
}

TEST(LintHotPath, FiresOnPoolIoAndSocketCalls) {
  const std::string pool =
      "sim::ReportedSolution SearchBlock::iterate(const BitVector& t) {\n"
      "  write_pool_file(path, pool);\n"
      "}\n";
  EXPECT_TRUE(fires("src/abs/search_block.cpp", pool, "ABSQ003"));
  const std::string socket =
      "void Device::run_shard(std::size_t w, const std::atomic<bool>* s) {\n"
      "  ::send(fd, buffer, n, 0);\n"
      "}\n";
  EXPECT_TRUE(fires("src/abs/device.cpp", socket, "ABSQ003"));
}

TEST(LintHotPath, GovernsTheDeltaFlipKernels) {
  // The Eq. (16) repair loops (all kernel forms) are the hottest code in
  // the tree — any blocking call there is a defect.
  const std::string sparse_kernel =
      "Energy DeltaState::flip_sparse(BitIndex k) {\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
      "}\n";
  EXPECT_TRUE(fires("src/qubo/delta_state.cpp", sparse_kernel, "ABSQ003"));
  const std::string simd_kernel =
      "DeltaState::FlipOutcome DeltaState::flip_tracked_dense_simd(D* d,\n"
      "                                                            BitIndex k) "
      "{\n"
      "  ::send(fd, buffer, n, 0);\n"
      "}\n";
  EXPECT_TRUE(fires("src/qubo/delta_state.cpp", simd_kernel, "ABSQ003"));
}

TEST(LintHotPath, GovernsTheBlockAlgorithmPortfolio) {
  // Every BlockAlgorithm::step is a Step-4b inner loop; all three portfolio
  // members (and the multi-start restart helper) are governed.
  const std::string sa_step =
      "void SaAlgorithm::step(DeltaState& state, BestTracker& tracker,\n"
      "                       SearchStats& stats, Rng& rng, std::uint64_t n) "
      "{\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
      "}\n";
  EXPECT_TRUE(
      fires("src/portfolio/block_algorithm.cpp", sa_step, "ABSQ003"));
  const std::string restart =
      "void MultiStartAlgorithm::restart(DeltaState& state,\n"
      "                                  BestTracker& tracker, Rng& rng) {\n"
      "  std::printf(\"restarting\\n\");\n"
      "}\n";
  EXPECT_TRUE(
      fires("src/portfolio/block_algorithm.cpp", restart, "ABSQ003"));
  // A cold helper in the same file stays ungoverned.
  const std::string cold =
      "void SaAlgorithm::describe() {\n"
      "  std::printf(\"sa\\n\");\n"
      "}\n";
  EXPECT_FALSE(
      fires("src/portfolio/block_algorithm.cpp", cold, "ABSQ003"));
}

TEST(LintHotPath, CoversEveryOverloadOfARootName) {
  // A root names a function, so every overload of it in its file is hot,
  // not only the first definition.
  const std::string overloads =
      "std::optional<BitVector> TargetBuffer::poll() {\n"
      "  return poll(0);\n"
      "}\n"
      "std::optional<BitVector> TargetBuffer::poll(std::size_t hint) {\n"
      "  std::printf(\"x\");\n"
      "}\n";
  const auto diagnostics = lint_file("src/sim/mailbox.cpp", overloads);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].code, "ABSQ003");
  EXPECT_EQ(diagnostics[0].line, 5u);
}

TEST(LintHotPath, QuietOutsideHotFunctionsAndFiles) {
  // Same call in a cold function of the same file: fine.
  const std::string cold =
      "void Device::start() {\n"
      "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
      "}\n";
  EXPECT_FALSE(fires("src/abs/device.cpp", cold, "ABSQ003"));
  // Hot-looking function in a file the rule does not govern: fine.
  const std::string other_file =
      "void Device::iterate_block(std::size_t i, std::size_t w) {\n"
      "  ::recv(fd, buffer, n, 0);\n"
      "}\n";
  EXPECT_FALSE(fires("src/serve/foo.cpp", other_file, "ABSQ003"));
}

TEST(LintHotPath, DeclarationDoesNotConfuseBodyTracking) {
  const std::string decl_then_def =
      "void Device::iterate_block(std::size_t, std::size_t);\n"
      "void Device::iterate_block(std::size_t i, std::size_t w) {\n"
      "  ::recv(fd, buffer, n, 0);\n"
      "}\n";
  EXPECT_TRUE(fires("src/abs/device.cpp", decl_then_def, "ABSQ003"));
}

// ---------------------------------------------------------------------------
// ABSQ004 — error hierarchy
// ---------------------------------------------------------------------------

TEST(LintErrorHierarchy, FiresOnOrphanErrorTypes) {
  EXPECT_TRUE(fires("src/foo.hpp", "#pragma once\nclass LostError {};\n",
                    "ABSQ004"));
  EXPECT_TRUE(fires("src/foo.hpp",
                    "#pragma once\nclass BadError : public Widget {};\n",
                    "ABSQ004"));
  // std::exception is too broad — join a typed root instead.
  EXPECT_TRUE(fires("src/foo.hpp",
                    "#pragma once\n"
                    "class VagueError : public std::exception {};\n",
                    "ABSQ004"));
  // Private inheritance breaks catch-by-base.
  EXPECT_TRUE(fires("src/foo.hpp",
                    "#pragma once\nclass HiddenError : CheckError {};\n",
                    "ABSQ004"));
}

TEST(LintErrorHierarchy, AcceptsTypedHierarchy) {
  EXPECT_FALSE(fires("src/foo.hpp",
                     "#pragma once\n"
                     "class FooError : public CheckError {\n"
                     " public:\n"
                     "  explicit FooError(const std::string& w);\n"
                     "};\n",
                     "ABSQ004"));
  EXPECT_FALSE(fires("src/foo.hpp",
                     "#pragma once\n"
                     "class IoError : public std::runtime_error {};\n",
                     "ABSQ004"));
  EXPECT_FALSE(fires("src/foo.hpp",
                     "#pragma once\nstruct WireError : JsonError {};\n",
                     "ABSQ004"));
}

TEST(LintErrorHierarchy, IgnoresForwardDeclarationsAndOtherNames) {
  EXPECT_FALSE(fires("src/foo.hpp", "#pragma once\nclass FooError;\n",
                     "ABSQ004"));
  EXPECT_FALSE(fires("src/foo.hpp", "#pragma once\nclass ErrorLog {};\n",
                     "ABSQ004"));
}

// ---------------------------------------------------------------------------
// ABSQ005 — include hygiene
// ---------------------------------------------------------------------------

TEST(LintIncludeHygiene, RequiresPragmaOnce) {
  EXPECT_TRUE(fires("src/foo.hpp", "int x;\n", "ABSQ005"));
  EXPECT_FALSE(fires("src/foo.hpp", "// banner comment\n#pragma once\n"
                                    "int x;\n",
                     "ABSQ005"));
  // .cpp files are exempt.
  EXPECT_FALSE(fires("src/foo.cpp", "int x;\n", "ABSQ005"));
}

TEST(LintIncludeHygiene, FiresOnUsingNamespaceInHeader) {
  EXPECT_TRUE(fires("src/foo.hpp",
                    "#pragma once\nusing namespace std;\n", "ABSQ005"));
  EXPECT_FALSE(fires("src/foo.cpp", "using namespace std::chrono;\n",
                     "ABSQ005"));
  // Type aliases are fine.
  EXPECT_FALSE(fires("src/foo.hpp",
                     "#pragma once\nusing Energy = std::int64_t;\n",
                     "ABSQ005"));
}

TEST(LintIncludeHygiene, FiresOnAngleProjectIncludesAndParentPaths) {
  EXPECT_TRUE(fires("src/foo.hpp",
                    "#pragma once\n#include <qubo/energy.hpp>\n",
                    "ABSQ005"));
  EXPECT_TRUE(fires("src/foo.hpp",
                    "#pragma once\n#include \"../qubo/energy.hpp\"\n",
                    "ABSQ005"));
  EXPECT_FALSE(fires("src/foo.hpp",
                     "#pragma once\n#include <vector>\n"
                     "#include <gtest/gtest.h>\n"
                     "#include \"qubo/energy.hpp\"\n",
                     "ABSQ005"));
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(LintSuppressions, LineAllowCoversSameAndNextLine) {
  const std::string same_line =
      "void f(std::atomic<int>& a) {\n"
      "  a.fetch_add(1, std::memory_order_relaxed);"
      "  // absq-lint: allow(relaxed-order) stat only\n"
      "}\n";
  EXPECT_FALSE(fires("src/foo.cpp", same_line, "ABSQ002"));
  const std::string line_above =
      "void f(std::atomic<int>& a) {\n"
      "  // absq-lint: allow(relaxed-order) stat only\n"
      "  a.fetch_add(1, std::memory_order_relaxed);\n"
      "}\n";
  EXPECT_FALSE(fires("src/foo.cpp", line_above, "ABSQ002"));
}

TEST(LintSuppressions, LineAllowDoesNotLeakFurtherDown) {
  const std::string leaky =
      "// absq-lint: allow(relaxed-order) too far away\n"
      "int x;\nint y;\n"
      "void f(std::atomic<int>& a) {\n"
      "  a.fetch_add(1, std::memory_order_relaxed);\n"
      "}\n";
  EXPECT_TRUE(fires("src/foo.cpp", leaky, "ABSQ002"));
}

TEST(LintSuppressions, FileAllowCoversWholeFileOneRuleOnly) {
  const std::string content =
      "// absq-lint: allow-file(relaxed-order) counters only\n"
      "void f(std::atomic<int>& a) {\n"
      "  a.fetch_add(1, std::memory_order_relaxed);\n"
      "  int* p = new int;\n"
      "}\n";
  EXPECT_FALSE(fires("src/foo.cpp", content, "ABSQ002"));
  EXPECT_TRUE(fires("src/foo.cpp", content, "ABSQ001"));  // not suppressed
}

// ---------------------------------------------------------------------------
// Stripper + plumbing
// ---------------------------------------------------------------------------

TEST(LintStripper, PreservesLineStructure) {
  const std::string src = "int a; // comment\n\"str\ning?\"\n/* b\nc */ int d;\n";
  const std::string stripped = strip_comments_and_strings(src);
  EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_EQ(stripped.find("comment"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int d;"), std::string::npos);
}

TEST(LintStripper, HandlesRawStringsAndCharLiterals) {
  const std::string src =
      "auto s = R\"json({\"new\": 1})json\";\n"
      "char c = 'x';\nint kept = 1;\n";
  const std::string stripped = strip_comments_and_strings(src);
  EXPECT_EQ(stripped.find("new"), std::string::npos);
  EXPECT_NE(stripped.find("kept"), std::string::npos);
  EXPECT_FALSE(fires("src/foo.cpp", src, "ABSQ001"));
}

TEST(LintPlumbing, RuleTableIsStable) {
  const auto& table = rules();
  ASSERT_EQ(table.size(), 9u);
  EXPECT_STREQ(table[0].code, "ABSQ001");
  EXPECT_STREQ(table[0].name, "naked-new");
  EXPECT_STREQ(table[1].code, "ABSQ002");
  EXPECT_STREQ(table[2].code, "ABSQ003");
  EXPECT_STREQ(table[3].code, "ABSQ004");
  EXPECT_STREQ(table[4].code, "ABSQ005");
  EXPECT_STREQ(table[5].code, "ABSQ006");
  EXPECT_STREQ(table[5].name, "layering");
  EXPECT_STREQ(table[6].code, "ABSQ007");
  EXPECT_STREQ(table[6].name, "transitive-blocking");
  EXPECT_STREQ(table[7].code, "ABSQ008");
  EXPECT_STREQ(table[7].name, "lock-order");
  EXPECT_STREQ(table[8].code, "ABSQ009");
  EXPECT_STREQ(table[8].name, "atomic-audit");
}

TEST(LintPlumbing, FormatIsGrepFriendly) {
  const Diagnostic d{"ABSQ001", "src/foo.cpp", 7, "naked `new`"};
  EXPECT_EQ(format_diagnostic(d), "src/foo.cpp:7: [ABSQ001] naked `new`");
}

TEST(LintPlumbing, DiagnosticsSortedByLine) {
  const auto diagnostics = lint_file(
      "src/foo.cpp", "int* q = new int;\nint x;\nint* p = new int;\n");
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_LT(diagnostics[0].line, diagnostics[1].line);
}

TEST(LintPlumbing, CountByRuleListsEveryRuleThenCounts) {
  const std::vector<Diagnostic> diagnostics = {
      {"ABSQ003", "a.cpp", 1, "m"},
      {"ABSQ003", "b.cpp", 2, "m"},
      {"ABSQ007", "c.cpp", 3, "m"},
  };
  const auto counts = count_by_rule(diagnostics);
  ASSERT_EQ(counts.size(), rules().size());
  for (const auto& [code, count] : counts) {
    if (code == "ABSQ003") {
      EXPECT_EQ(count, 2u);
    } else if (code == "ABSQ007") {
      EXPECT_EQ(count, 1u);
    } else {
      EXPECT_EQ(count, 0u) << code;
    }
  }
}

// ---------------------------------------------------------------------------
// The project indexer
// ---------------------------------------------------------------------------

TEST(LintIndex, ModuleOfStripsSrcPrefix) {
  EXPECT_EQ(module_of("src/qubo/energy.hpp"), "qubo");
  EXPECT_EQ(module_of("qubo/energy.hpp"), "qubo");  // include-target form
  EXPECT_EQ(module_of("tools/absq_lint.cpp"), "tools");
  EXPECT_EQ(module_of("tests/test_lint.cpp"), "tests");
  EXPECT_EQ(module_of("same_dir.hpp"), "");  // no module — same-dir include
}

TEST(LintIndex, ExtractsFunctionsWithScope) {
  ProjectIndex index;
  index.add_file("src/qubo/foo.cpp",
                 "namespace absq::qubo {\n"
                 "int free_fn(int x) { return x; }\n"
                 "class Widget {\n"
                 " public:\n"
                 "  void inline_method() { helper(); }\n"
                 "};\n"
                 "void Widget::out_of_line(int y) { free_fn(y); }\n"
                 "}  // namespace absq::qubo\n");
  const FunctionDef* free_fn = index.find_function("", "free_fn");
  ASSERT_NE(free_fn, nullptr);
  EXPECT_EQ(free_fn->line, 2u);
  const FunctionDef* method = index.find_function("Widget", "inline_method");
  ASSERT_NE(method, nullptr);  // class scope from the enclosing body
  const FunctionDef* out = index.find_function("Widget", "out_of_line");
  ASSERT_NE(out, nullptr);  // class scope from the Widget:: qualifier
  // Namespace names recorded for qualified-call resolution.
  const FileIndex* file = index.file("src/qubo/foo.cpp");
  ASSERT_NE(file, nullptr);
  EXPECT_NE(std::find(file->namespaces.begin(), file->namespaces.end(),
                      "qubo"),
            file->namespaces.end());
}

TEST(LintIndex, ExtractsIncludeEdgesFromRawText) {
  ProjectIndex index;
  index.add_file("src/search/foo.cpp",
                 "#include \"qubo/energy.hpp\"\n"
                 "#include <vector>\n"
                 "// #include \"serve/json.hpp\" — commented out\n"
                 "#include \"util/check.hpp\"\n");
  const FileIndex* file = index.file("src/search/foo.cpp");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(file->includes.size(), 2u);  // angle + commented ones skipped
  EXPECT_EQ(file->includes[0].target, "qubo/energy.hpp");
  EXPECT_EQ(file->includes[0].line, 1u);
  EXPECT_EQ(file->includes[1].target, "util/check.hpp");
}

TEST(LintIndex, ResolvesQualifiedMemberAndPlainCalls) {
  ProjectIndex index;
  index.add_file("src/a.cpp",
                 "namespace fail {\n"
                 "void triggered() {}\n"
                 "}\n"
                 "void Device::step() {}\n"
                 "void Other::step() {}\n"
                 "void caller() {\n"
                 "  fail::triggered();\n"
                 "  Device::step();\n"
                 "  box.step();\n"
                 "  triggered();\n"
                 "}\n");
  const FunctionDef* caller = index.find_function("", "caller");
  ASSERT_NE(caller, nullptr);
  ASSERT_EQ(caller->calls.size(), 4u);

  // Namespace-qualified → the free function.
  auto r = index.resolve(*caller, caller->calls[0]);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0]->name, "triggered");

  // Class-qualified → exactly that class's method.
  r = index.resolve(*caller, caller->calls[1]);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0]->class_name, "Device");

  // Member call: receiver type unknown → every method of that name
  // (deliberate over-approximation).
  r = index.resolve(*caller, caller->calls[2]);
  EXPECT_EQ(r.size(), 2u);

  // Plain call from a free function → free functions only.
  r = index.resolve(*caller, caller->calls[3]);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0]->class_name, "");
}

TEST(LintIndex, OverloadsCollapseToOneName) {
  ProjectIndex index;
  index.add_file("src/a.cpp",
                 "void helper(int x) {}\n"
                 "void helper(double x) {}\n"
                 "void caller() { helper(3); }\n");
  const FunctionDef* caller = index.find_function("", "caller");
  ASSERT_NE(caller, nullptr);
  ASSERT_EQ(caller->calls.size(), 1u);
  // Both overload bodies are linked — the graph cannot pick one, and for
  // reachability rules exploring both is the safe direction.
  EXPECT_EQ(index.resolve(*caller, caller->calls[0]).size(), 2u);
}

TEST(LintIndex, RecordsLockSequencesWithHeldSets) {
  ProjectIndex index;
  index.add_file("src/serve/a.cpp",
                 "void JobManager::submit() {\n"
                 "  std::lock_guard<std::mutex> lk(mutex_);\n"
                 "  journal_mutex_.lock();\n"
                 "}\n");
  const FunctionDef* fn = index.find_function("JobManager", "submit");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->locks.size(), 2u);
  EXPECT_EQ(fn->locks[0].mutex, "JobManager::mutex_");
  EXPECT_TRUE(fn->locks[0].held.empty());
  EXPECT_EQ(fn->locks[1].mutex, "JobManager::journal_mutex_");
  ASSERT_EQ(fn->locks[1].held.size(), 1u);
  EXPECT_EQ(fn->locks[1].held[0], "JobManager::mutex_");
}

TEST(LintIndex, ScopeEndReleasesGuardsAndScopedLockIsSimultaneous) {
  ProjectIndex index;
  index.add_file("src/serve/a.cpp",
                 "void Shard::work() {\n"
                 "  {\n"
                 "    std::lock_guard<std::mutex> lk(mutex_);\n"
                 "  }\n"
                 "  std::lock_guard<std::mutex> lk2(other_mutex_);\n"
                 "}\n"
                 "void Shard::both() {\n"
                 "  std::scoped_lock lk(mutex_, other_mutex_);\n"
                 "}\n");
  const FunctionDef* work = index.find_function("Shard", "work");
  ASSERT_NE(work, nullptr);
  ASSERT_EQ(work->locks.size(), 2u);
  // The first guard died with its block: no held edge into the second.
  EXPECT_TRUE(work->locks[1].held.empty());
  const FunctionDef* both = index.find_function("Shard", "both");
  ASSERT_NE(both, nullptr);
  ASSERT_EQ(both->locks.size(), 2u);
  // scoped_lock acquires its arguments atomically — no edge between them.
  EXPECT_TRUE(both->locks[0].held.empty());
  EXPECT_TRUE(both->locks[1].held.empty());
}

// ---------------------------------------------------------------------------
// Layering manifest + ABSQ006
// ---------------------------------------------------------------------------

constexpr const char* kTestManifest =
    "# comment\n"
    "[modules]\n"
    "util = []\n"
    "qubo = [\"util\"]\n"
    "serve = [\"qubo\", \"util\"]\n"
    "tools = [\"*\"]\n";

TEST(LintLayers, ManifestParsesAndAnswersPermits) {
  const LayerManifest manifest = LayerManifest::parse(kTestManifest);
  EXPECT_TRUE(manifest.known("qubo"));
  EXPECT_FALSE(manifest.known("obs"));
  EXPECT_TRUE(manifest.permits("qubo", "util"));
  EXPECT_TRUE(manifest.permits("qubo", "qubo"));  // self always fine
  EXPECT_FALSE(manifest.permits("qubo", "serve"));
  EXPECT_TRUE(manifest.permits("tools", "serve"));  // wildcard
}

TEST(LintLayers, ManifestRejectsMalformedInput) {
  EXPECT_THROW(LayerManifest::parse("qubo = [\"util\"]\n"), ManifestError);
  EXPECT_THROW(LayerManifest::parse("[modules]\nqubo\n"), ManifestError);
  EXPECT_THROW(LayerManifest::parse("[modules]\nqubo = [util]\n"),
               ManifestError);
  EXPECT_THROW(
      LayerManifest::parse("[modules]\na = []\na = []\n"), ManifestError);
  EXPECT_THROW(LayerManifest::parse("[layers]\n"), ManifestError);
}

TEST(LintLayering, CatchesForbiddenIncludeEdge) {
  // The deliberate violation fixture: qubo reaching up into serve.
  const LayerManifest manifest = LayerManifest::parse(kTestManifest);
  ProjectIndex index;
  index.add_file("src/qubo/energy.cpp",
                 "#include \"serve/json.hpp\"\n#include \"util/check.hpp\"\n");
  const auto diagnostics = check_layering(index, manifest);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].code, "ABSQ006");
  EXPECT_EQ(diagnostics[0].line, 1u);
  // The message names the offending edge.
  EXPECT_NE(diagnostics[0].message.find("serve/json.hpp"), std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("qubo -> serve"), std::string::npos);
}

TEST(LintLayering, PermittedEdgesAndWildcardStayQuiet) {
  const LayerManifest manifest = LayerManifest::parse(kTestManifest);
  ProjectIndex index;
  index.add_file("src/qubo/energy.cpp", "#include \"util/check.hpp\"\n");
  index.add_file("tools/absq_x.cpp", "#include \"serve/json.hpp\"\n");
  EXPECT_TRUE(check_layering(index, manifest).empty());
}

TEST(LintLayering, FlagsModulesMissingFromManifest) {
  const LayerManifest manifest = LayerManifest::parse(kTestManifest);
  ProjectIndex index;
  index.add_file("src/obs/metrics.cpp", "int x;\n");
  const auto diagnostics = check_layering(index, manifest);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("not declared"), std::string::npos);
}

TEST(LintLayering, CatchesQualifiedCallIntoForbiddenModule) {
  // No include edge (sneaks through a transitive include) — the call edge
  // still trips the rule.
  const LayerManifest manifest = LayerManifest::parse(kTestManifest);
  ProjectIndex index;
  index.add_file("src/serve/json.cpp", "void Json::parse() {}\n");
  index.add_file("src/qubo/energy.cpp",
                 "void load() { Json::parse(); }\n");
  const auto diagnostics = check_layering(index, manifest);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("Json::parse"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ABSQ007 — transitive blocking calls
// ---------------------------------------------------------------------------

// Real hot-root identity: file + class + function of a hot-path root.
constexpr const char* kHotRootFile = "src/abs/device.cpp";

TEST(LintTransitive, FindsBlockingCallTwoFramesDeep) {
  ProjectIndex index;
  index.add_file(kHotRootFile,
                 "void Device::iterate_block(std::size_t i) {\n"
                 "  helper_log();\n"
                 "}\n");
  index.add_file("src/util/helpers.cpp",
                 "void helper_log() { deep_work(); }\n");
  index.add_file("src/util/deep.cpp",
                 "void deep_work() {\n"
                 "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                 "}\n");
  const auto diagnostics = check_hot_path_blocking(index);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].code, "ABSQ007");
  // Reported at the root's call site, naming the chain and the real site.
  EXPECT_EQ(diagnostics[0].file, kHotRootFile);
  EXPECT_EQ(diagnostics[0].line, 2u);
  EXPECT_NE(diagnostics[0].message.find("src/util/deep.cpp:2"),
            std::string::npos);
  EXPECT_NE(
      diagnostics[0].message.find(
          "Device::iterate_block -> helper_log -> deep_work"),
      std::string::npos);
}

TEST(LintTransitive, RootBodyItselfIsLeftToAbsq003) {
  // The walk's root frame reports its own body as ABSQ003, once, and
  // never again as ABSQ007.
  ProjectIndex index;
  index.add_file(kHotRootFile,
                 "void Device::iterate_block(std::size_t i) {\n"
                 "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                 "}\n");
  const auto diagnostics = check_hot_path_blocking(index);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].code, "ABSQ003");
  EXPECT_EQ(diagnostics[0].file, kHotRootFile);
  EXPECT_EQ(diagnostics[0].line, 2u);
}

TEST(LintTransitive, SuppressionAtNonRootFrameIsHonoured) {
  ProjectIndex index;
  index.add_file(kHotRootFile,
                 "void Device::iterate_block(std::size_t i) {\n"
                 "  helper_log();\n"
                 "}\n");
  index.add_file("src/util/helpers.cpp",
                 "void helper_log() {\n"
                 "  // absq-lint: allow(transitive-blocking) cold slow path\n"
                 "  deep_work();\n"
                 "}\n");
  index.add_file("src/util/deep.cpp",
                 "void deep_work() {\n"
                 "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                 "}\n");
  EXPECT_TRUE(check_hot_path_blocking(index).empty());
}

TEST(LintTransitive, SuppressionAtTheBlockingSiteIsHonoured) {
  ProjectIndex index;
  index.add_file(kHotRootFile,
                 "void Device::iterate_block(std::size_t i) {\n"
                 "  helper_log();\n"
                 "}\n");
  index.add_file("src/util/helpers.cpp",
                 "void helper_log() {\n"
                 "  // absq-lint: allow(hot-path-blocking) fault injection\n"
                 "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
                 "}\n");
  EXPECT_TRUE(check_hot_path_blocking(index).empty());
}

// ---------------------------------------------------------------------------
// Hot-path root table — every root must exist, or its coverage is gone
// ---------------------------------------------------------------------------

TEST(LintHotRoots, MissingFunctionsAndFilesAreListed) {
  ProjectIndex index;
  index.add_file(kHotRootFile,
                 "void Device::iterate_block(std::size_t i) {}\n");
  const auto unresolved = index.unresolved_hot_roots();
  const auto listed = [&unresolved](const std::string& root) {
    return std::find(unresolved.begin(), unresolved.end(), root) !=
           unresolved.end();
  };
  EXPECT_FALSE(listed("src/abs/device.cpp: Device::iterate_block"));
  EXPECT_TRUE(listed("src/abs/device.cpp: Device::run_shard"));
  EXPECT_TRUE(listed("src/abs/search_block.cpp: SearchBlock::iterate"));
}

TEST(LintHotRoots, EveryRootResolvesOnTheCheckedOutTree) {
  namespace fs = std::filesystem;
  const fs::path root = ABSQ_SOURCE_DIR;
  ProjectIndex index;
  for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
    const fs::path& path = entry.path();
    if (!entry.is_regular_file() ||
        (path.extension() != ".cpp" && path.extension() != ".hpp")) {
      continue;
    }
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    index.add_file(fs::relative(path, root).generic_string(), text.str());
  }
  ASSERT_NE(index.file(kHotRootFile), nullptr) << "src/ not found at " << root;
  std::string listing;
  for (const std::string& missing : index.unresolved_hot_roots()) {
    listing += "\n  " + missing;
  }
  EXPECT_TRUE(listing.empty())
      << "the hot-path root table names functions the tree no longer "
         "defines:"
      << listing;
}

// ---------------------------------------------------------------------------
// ABSQ008 — lock-order consistency
// ---------------------------------------------------------------------------

TEST(LintLockOrder, CatchesTwoMutexCycle) {
  // The deliberate cycle fixture: A→B in one function, B→A in another.
  ProjectIndex index;
  index.add_file("src/serve/jobs.cpp",
                 "void JobManager::submit() {\n"
                 "  std::lock_guard<std::mutex> l1(mutex_);\n"
                 "  std::lock_guard<std::mutex> l2(journal_mutex_);\n"
                 "}\n"
                 "void JobManager::reap() {\n"
                 "  std::lock_guard<std::mutex> l1(journal_mutex_);\n"
                 "  std::lock_guard<std::mutex> l2(mutex_);\n"
                 "}\n");
  const auto diagnostics = check_lock_order(index);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].code, "ABSQ008");
  EXPECT_NE(diagnostics[0].message.find("JobManager::mutex_"),
            std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("JobManager::journal_mutex_"),
            std::string::npos);
  // Both witness edges appear with file:line.
  EXPECT_NE(diagnostics[0].message.find("src/serve/jobs.cpp:3"),
            std::string::npos);
  EXPECT_NE(diagnostics[0].message.find("src/serve/jobs.cpp:7"),
            std::string::npos);
}

TEST(LintLockOrder, ConsistentOrderIsQuiet) {
  ProjectIndex index;
  index.add_file("src/serve/jobs.cpp",
                 "void JobManager::submit() {\n"
                 "  std::lock_guard<std::mutex> l1(mutex_);\n"
                 "  std::lock_guard<std::mutex> l2(journal_mutex_);\n"
                 "}\n"
                 "void JobManager::reap() {\n"
                 "  std::lock_guard<std::mutex> l1(mutex_);\n"
                 "  std::lock_guard<std::mutex> l2(journal_mutex_);\n"
                 "}\n");
  EXPECT_TRUE(check_lock_order(index).empty());
}

TEST(LintLockOrder, ScopedLockAcquiresSimultaneously) {
  // Opposite argument orders in scoped_lock are fine — std::scoped_lock
  // deadlock-avoids internally.
  ProjectIndex index;
  index.add_file("src/serve/jobs.cpp",
                 "void JobManager::submit() {\n"
                 "  std::scoped_lock lk(mutex_, journal_mutex_);\n"
                 "}\n"
                 "void JobManager::reap() {\n"
                 "  std::scoped_lock lk(journal_mutex_, mutex_);\n"
                 "}\n");
  EXPECT_TRUE(check_lock_order(index).empty());
}

TEST(LintLockOrder, SeesCycleThroughCallEdge) {
  // One leg of the cycle hides inside a callee: submit holds A and calls
  // into a helper that takes B; reap orders them B then A directly.
  ProjectIndex index;
  index.add_file("src/serve/jobs.cpp",
                 "void JobManager::submit() {\n"
                 "  std::lock_guard<std::mutex> l1(mutex_);\n"
                 "  flush_journal();\n"
                 "}\n"
                 "void JobManager::flush_journal() {\n"
                 "  std::lock_guard<std::mutex> l(journal_mutex_);\n"
                 "}\n"
                 "void JobManager::reap() {\n"
                 "  std::lock_guard<std::mutex> l1(journal_mutex_);\n"
                 "  std::lock_guard<std::mutex> l2(mutex_);\n"
                 "}\n");
  const auto diagnostics = check_lock_order(index);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].code, "ABSQ008");
}

TEST(LintLockOrder, AllowOnWitnessEdgeSuppressesTheCycle) {
  ProjectIndex index;
  index.add_file("src/serve/jobs.cpp",
                 "void JobManager::submit() {\n"
                 "  std::lock_guard<std::mutex> l1(mutex_);\n"
                 "  // absq-lint: allow(lock-order) reap can never run here\n"
                 "  std::lock_guard<std::mutex> l2(journal_mutex_);\n"
                 "}\n"
                 "void JobManager::reap() {\n"
                 "  std::lock_guard<std::mutex> l1(journal_mutex_);\n"
                 "  std::lock_guard<std::mutex> l2(mutex_);\n"
                 "}\n");
  EXPECT_TRUE(check_lock_order(index).empty());
}

// ---------------------------------------------------------------------------
// ABSQ009 — atomic-ordering audit
// ---------------------------------------------------------------------------

TEST(LintAtomicAudit, HotReachableRelaxedPassesColdIsFlagged) {
  ProjectIndex index;
  index.add_file(kHotRootFile,
                 "void Device::iterate_block(std::size_t i) {\n"
                 "  bump_counter();\n"
                 "}\n");
  index.add_file("src/obs/counters.hpp",
                 "#pragma once\n"
                 "void bump_counter() {\n"
                 "  c.fetch_add(1, std::memory_order_relaxed);\n"
                 "}\n"
                 "void cold_export() {\n"
                 "  c.load(std::memory_order_relaxed);\n"
                 "}\n");
  const auto diagnostics = check_atomic_audit(index);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].code, "ABSQ009");
  EXPECT_EQ(diagnostics[0].line, 6u);  // the cold_export site only
  EXPECT_NE(diagnostics[0].message.find("cold_export"), std::string::npos);
}

TEST(LintAtomicAudit, AnnotatedColdSitePasses) {
  ProjectIndex index;
  index.add_file("src/obs/counters.hpp",
                 "#pragma once\n"
                 "void cold_export() {\n"
                 "  // absq-lint: allow(atomic-audit) scrape-side read\n"
                 "  c.load(std::memory_order_relaxed);\n"
                 "}\n");
  EXPECT_TRUE(check_atomic_audit(index).empty());
}

TEST(LintAtomicAudit, ConsumeIsAlwaysFlagged) {
  ProjectIndex index;
  index.add_file(kHotRootFile,
                 "void Device::iterate_block(std::size_t i) {\n"
                 "  p.load(std::memory_order_consume);\n"
                 "}\n");
  const auto diagnostics = check_atomic_audit(index);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].message.find("memory_order_consume"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// lint_project + SARIF + dot
// ---------------------------------------------------------------------------

TEST(LintProject, CombinesFileAndGraphRulesSorted) {
  const LayerManifest manifest = LayerManifest::parse(kTestManifest);
  const std::vector<ProjectFile> files = {
      {"src/qubo/energy.cpp",
       "#include \"serve/json.hpp\"\n"       // ABSQ006
       "int* p = new int;\n"},               // ABSQ001
  };
  const auto diagnostics = lint_project(files, &manifest);
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].code, "ABSQ006");  // line 1 before line 2
  EXPECT_EQ(diagnostics[1].code, "ABSQ001");
}

TEST(LintProject, AFileNamedTwiceIsIndexedOnce) {
  // Relaxed order inside a hot-path root is fine (ABSQ009); a second copy
  // of the file is not where the roots resolve, so indexing it would flag
  // the same site as cold.
  const ProjectFile mailbox{"src/sim/mailbox.cpp",
                            "void TargetBuffer::push(int x) {\n"
                            "  c.fetch_add(1, std::memory_order_relaxed);\n"
                            "}\n"};
  EXPECT_TRUE(lint_project({mailbox}, nullptr).empty());
  EXPECT_TRUE(lint_project({mailbox, mailbox}, nullptr).empty());
}

TEST(LintProject, NullManifestSkipsLayering) {
  const std::vector<ProjectFile> files = {
      {"src/qubo/energy.cpp", "#include \"serve/json.hpp\"\n"},
  };
  EXPECT_TRUE(lint_project(files, nullptr).empty());
}

TEST(LintSarif, GoldenDocumentParsesBackWithServeJson) {
  const std::vector<Diagnostic> diagnostics = {
      {"ABSQ006", "src/qubo/energy.cpp", 3, "layering \"violation\""},
      {"ABSQ008", "src/serve/jobs.cpp", 7, "lock-order cycle"},
  };
  const serve::Json doc = serve::Json::parse(to_sarif(diagnostics));
  EXPECT_EQ(doc.get_string("version", ""), "2.1.0");
  const serve::Json& run = doc.at("runs").at(std::size_t{0});
  const serve::Json& driver = run.at("tool").at("driver");
  EXPECT_EQ(driver.get_string("name", ""), "absq_lint");
  // Every registered rule is described, in order.
  ASSERT_EQ(driver.at("rules").size(), rules().size());
  EXPECT_EQ(driver.at("rules").at(std::size_t{0}).get_string("id", ""),
            "ABSQ001");
  // One result per diagnostic with the physical location intact.
  ASSERT_EQ(run.at("results").size(), 2u);
  const serve::Json& first = run.at("results").at(std::size_t{0});
  EXPECT_EQ(first.get_string("ruleId", ""), "ABSQ006");
  EXPECT_EQ(first.get_string("level", ""), "error");
  EXPECT_EQ(first.at("message").get_string("text", ""),
            "layering \"violation\"");
  const serve::Json& location =
      first.at("locations").at(std::size_t{0}).at("physicalLocation");
  EXPECT_EQ(location.at("artifactLocation").get_string("uri", ""),
            "src/qubo/energy.cpp");
  EXPECT_EQ(location.at("region").get_int("startLine", 0), 3);
}

TEST(LintSarif, EmptyFindingsIsStillAValidRun) {
  const serve::Json doc = serve::Json::parse(to_sarif({}));
  EXPECT_EQ(doc.at("runs").at(std::size_t{0}).at("results").size(), 0u);
}

TEST(LintDot, DumpContainsModuleAndLockEdges) {
  ProjectIndex index;
  index.add_file("src/search/foo.cpp", "#include \"qubo/energy.hpp\"\n");
  index.add_file("src/serve/jobs.cpp",
                 "void JobManager::submit() {\n"
                 "  std::lock_guard<std::mutex> l1(mutex_);\n"
                 "  std::lock_guard<std::mutex> l2(journal_mutex_);\n"
                 "}\n");
  const std::string dot = dump_dot(index);
  EXPECT_NE(dot.find("\"search\" -> \"qubo\""), std::string::npos);
  EXPECT_NE(dot.find(
                "\"JobManager::mutex_\" -> \"JobManager::journal_mutex_\""),
            std::string::npos);
}

}  // namespace
}  // namespace absq::lint
