// A small command-line flag parser shared by the examples and the benchmark
// harnesses. Supports `--name value`, `--name=value` and boolean
// `--name` / `--no-name` forms, prints a generated --help, and rejects
// unknown flags so typos in sweep scripts fail loudly.
//
// Every tool shares the same conventions: `--help` prints usage to stdout
// and exits 0, `--version` prints the release and exits 0, and any user
// error (unknown flag, malformed value) prints the message plus usage to
// stderr and exits 2 — tool mains catch CliUsageError and return
// kUsageExitCode.
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.hpp"

namespace absq {

/// Release string printed by --version (matches the CMake project version).
inline constexpr const char* kVersion = "1.0.0";

/// Conventional exit code for command-line usage errors.
inline constexpr int kUsageExitCode = 2;

/// A user error on the command line (unknown flag, malformed value). By the
/// time it is thrown, parse() has already printed the message and usage to
/// stderr — the tool just exits with kUsageExitCode.
class CliUsageError : public CheckError {
 public:
  explicit CliUsageError(const std::string& what) : CheckError(what) {}
};

class CliParser {
 public:
  /// `program_summary` is printed at the top of --help output.
  explicit CliParser(std::string program_summary);

  /// Registers a flag; `help` is shown in --help. The default value doubles
  /// as documentation of the flag's type.
  void add_flag(const std::string& name, std::string default_value,
                std::string help);
  void add_flag(const std::string& name, std::int64_t default_value,
                std::string help);
  void add_flag(const std::string& name, double default_value,
                std::string help);
  void add_flag(const std::string& name, bool default_value, std::string help);

  /// Parses argv. Returns false when --help (usage to stdout) or --version
  /// was given — the tool should exit 0. Throws CliUsageError on unknown
  /// flags or malformed values, after printing the error and usage to
  /// stderr.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  /// get_int() for a flag that must lie in [min, max]: any other value is
  /// a usage error naming the flag, so a negative count never wraps
  /// through an unsigned cast.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t min,
                                     std::int64_t max) const;
  /// get_string() for a flag whose value must be one of `choices`: any
  /// other value is a usage error naming the flag and the choices, so a
  /// bad enum value fails before the tool loads anything.
  [[nodiscard]] std::string get_choice(
      const std::string& name,
      std::initializer_list<std::string_view> choices) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Positional arguments (everything that is not a --flag).
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  void print_help() const { print_help(stdout); }
  void print_help(std::FILE* out) const;

  /// Prints `message` and usage to stderr, then throws CliUsageError — for
  /// value checks the flag table cannot express.
  [[noreturn]] void fail_usage(const std::string& message) const;

 private:
  enum class Kind { kString, kInt, kDouble, kBool };

  struct Flag {
    Kind kind;
    std::string value;
    std::string default_value;
    std::string help;
  };

  const Flag& find(const std::string& name, Kind expected) const;

  std::string summary_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace absq
