// absq_lint — enforce the project invariants no generic analyzer knows
// (see tools/lint/lint.hpp for the engine, the rule set and the
// suppression syntax; docs/static-analysis.md has the rule catalog).
//
//   absq_lint                        # lint src/ tools/ tests/ bench/ examples/
//   absq_lint src/serve tools/x.cpp  # lint specific dirs/files
//   absq_lint --format=sarif         # SARIF 2.1.0 on stdout (CI annotations)
//   absq_lint --fail-on=never        # report, but always exit 0
//   absq_lint --graph-dump=dot       # module/lock/call graphs as Graphviz
//   absq_lint --list-rules
//
// Exit codes: 0 clean, 1 findings, 2 usage error.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "util/cli.hpp"

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp";
}

void collect(const fs::path& root, const fs::path& arg,
             std::vector<fs::path>* files) {
  const fs::path resolved = arg.is_absolute() ? arg : root / arg;
  if (fs::is_directory(resolved)) {
    for (const auto& entry : fs::recursive_directory_iterator(resolved)) {
      if (entry.is_regular_file() && lintable(entry.path())) {
        files->push_back(entry.path());
      }
    }
  } else if (fs::is_regular_file(resolved)) {
    files->push_back(resolved);
  } else {
    throw absq::CliUsageError("no such file or directory: " + arg.string());
  }
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  ABSQ_CHECK(in.good(), "cannot read " << path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// "ABSQ003:2 ABSQ007:1" — rules with at least one finding, code order.
std::string summarize_counts(
    const std::vector<absq::lint::Diagnostic>& diagnostics) {
  std::string out;
  for (const auto& [code, count] : absq::lint::count_by_rule(diagnostics)) {
    if (count == 0) continue;
    if (!out.empty()) out += ' ';
    out += code + ":" + std::to_string(count);
  }
  return out;
}

int run(int argc, char** argv) {
  absq::CliParser cli(
      "absq_lint — project-invariant checker (tier 4 of the verification "
      "gate)");
  cli.add_flag("root", std::string("."),
               "repository root; rule paths are resolved relative to it");
  cli.add_flag("layers", std::string("lint_layers.toml"),
               "module layering manifest for ABSQ006, relative to --root "
               "(skipped with a note if absent)");
  cli.add_flag("format", std::string("text"),
               "output format: text | sarif (SARIF 2.1.0 on stdout)");
  cli.add_flag("fail-on", std::string("error"),
               "exit status policy: error (findings exit 1) | never "
               "(always exit 0; for report-only CI steps)");
  cli.add_flag("graph-dump", std::string(""),
               "dump the module/lock-order/call graphs instead of linting: "
               "dot (Graphviz on stdout)");
  cli.add_flag("list-rules", false, "print the rule table and exit");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.get_bool("list-rules")) {
    for (const absq::lint::RuleInfo& rule : absq::lint::rules()) {
      std::printf("%s  %-20s %s\n", rule.code, rule.name, rule.summary);
    }
    return 0;
  }

  const std::string format = cli.get_string("format");
  if (format != "text" && format != "sarif") {
    throw absq::CliUsageError("unknown --format: " + format +
                              " (expected text or sarif)");
  }
  const std::string fail_on = cli.get_string("fail-on");
  if (fail_on != "error" && fail_on != "never") {
    throw absq::CliUsageError("unknown --fail-on: " + fail_on +
                              " (expected error or never)");
  }
  const std::string graph_dump = cli.get_string("graph-dump");
  if (!graph_dump.empty() && graph_dump != "dot") {
    throw absq::CliUsageError("unknown --graph-dump: " + graph_dump +
                              " (expected dot)");
  }

  const fs::path root = fs::canonical(cli.get_string("root"));
  std::vector<std::string> args(cli.positional());
  if (args.empty()) {
    args = {"src", "tools", "tests", "bench", "examples"};
  }

  std::vector<fs::path> paths;
  for (const std::string& arg : args) collect(root, arg, &paths);

  std::vector<absq::lint::ProjectFile> files;
  files.reserve(paths.size());
  for (const fs::path& file : paths) {
    // Rules key off repo-relative forward-slash paths (e.g. src/obs/…).
    files.push_back(absq::lint::ProjectFile{
        fs::relative(fs::canonical(file), root).generic_string(),
        read_file(file)});
  }

  if (graph_dump == "dot") {
    absq::lint::ProjectIndex index;
    for (const absq::lint::ProjectFile& f : files) {
      index.add_file(f.path, f.content);
    }
    std::fputs(absq::lint::dump_dot(index).c_str(), stdout);
    return 0;
  }

  const fs::path layers_path = root / cli.get_string("layers");
  absq::lint::LayerManifest manifest;
  bool have_manifest = false;
  if (fs::is_regular_file(layers_path)) {
    manifest = absq::lint::LayerManifest::parse(read_file(layers_path));
    have_manifest = true;
  } else {
    std::fprintf(stderr,
                 "absq_lint: note: no layering manifest at %s — ABSQ006 "
                 "skipped\n",
                 layers_path.string().c_str());
  }

  const std::vector<absq::lint::Diagnostic> diagnostics =
      absq::lint::lint_project(files, have_manifest ? &manifest : nullptr);

  if (format == "sarif") {
    std::fputs(absq::lint::to_sarif(diagnostics).c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    for (const absq::lint::Diagnostic& d : diagnostics) {
      std::printf("%s\n", absq::lint::format_diagnostic(d).c_str());
    }
  }

  if (!diagnostics.empty()) {
    std::fprintf(stderr, "absq_lint: %zu finding%s (%s)\n",
                 diagnostics.size(), diagnostics.size() == 1 ? "" : "s",
                 summarize_counts(diagnostics).c_str());
    return fail_on == "never" ? 0 : 1;
  }
  if (format == "text") {
    std::printf("absq_lint: %zu files clean (%zu rules)\n", files.size(),
                absq::lint::rules().size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const absq::CliUsageError&) {
    return absq::kUsageExitCode;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "absq_lint: %s\n", error.what());
    return 1;
  }
}
