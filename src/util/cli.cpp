#include "util/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"

namespace absq {
namespace {

const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "string";
    case 1: return "int";
    case 2: return "double";
    case 3: return "bool";
    default: return "?";
  }
}

}  // namespace

CliParser::CliParser(std::string program_summary)
    : summary_(std::move(program_summary)) {
  add_flag("help", false, "print this help and exit");
  add_flag("version", false, "print the release version and exit");
}

void CliParser::add_flag(const std::string& name, std::string default_value,
                         std::string help) {
  flags_[name] = Flag{Kind::kString, default_value, std::move(default_value),
                      std::move(help)};
}

void CliParser::add_flag(const std::string& name, std::int64_t default_value,
                         std::string help) {
  auto text = std::to_string(default_value);
  flags_[name] = Flag{Kind::kInt, text, text, std::move(help)};
}

void CliParser::add_flag(const std::string& name, double default_value,
                         std::string help) {
  auto text = std::to_string(default_value);
  flags_[name] = Flag{Kind::kDouble, text, text, std::move(help)};
}

void CliParser::add_flag(const std::string& name, bool default_value,
                         std::string help) {
  const char* text = default_value ? "true" : "false";
  flags_[name] = Flag{Kind::kBool, text, text, std::move(help)};
}

void CliParser::fail_usage(const std::string& message) const {
  std::fprintf(stderr, "error: %s\n\n", message.c_str());
  print_help(stderr);
  throw CliUsageError(message);
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }

    // --no-name for booleans.
    bool negated = false;
    auto it = flags_.find(name);
    if (it == flags_.end() && name.rfind("no-", 0) == 0) {
      it = flags_.find(name.substr(3));
      if (it != flags_.end() && it->second.kind == Kind::kBool) negated = true;
    }
    if (it == flags_.end()) fail_usage("unknown flag --" + name);
    Flag& flag = it->second;

    if (flag.kind == Kind::kBool) {
      if (!has_value) {
        flag.value = negated ? "false" : "true";
      } else {
        if (value != "true" && value != "false") {
          fail_usage("--" + name + " expects true/false, got '" + value +
                     "'");
        }
        flag.value = value;
      }
      continue;
    }

    if (!has_value) {
      if (i + 1 >= argc) fail_usage("--" + name + " is missing a value");
      value = argv[++i];
    }

    // Validate numeric forms eagerly so sweeps fail at startup.
    try {
      std::size_t pos = 0;
      if (flag.kind == Kind::kInt) {
        (void)std::stoll(value, &pos);
        if (pos != value.size()) {
          fail_usage("--" + name + ": trailing junk in '" + value + "'");
        }
      } else if (flag.kind == Kind::kDouble) {
        (void)std::stod(value, &pos);
        if (pos != value.size()) {
          fail_usage("--" + name + ": trailing junk in '" + value + "'");
        }
      }
    } catch (const std::invalid_argument&) {
      fail_usage("--" + name + ": '" + value + "' is not a " +
                 kind_name(static_cast<int>(flag.kind)));
    } catch (const std::out_of_range&) {
      fail_usage("--" + name + ": '" + value + "' out of range");
    }
    flag.value = std::move(value);
  }

  if (get_bool("help")) {
    print_help();
    return false;
  }
  if (get_bool("version")) {
    std::printf("absqubo %s\n", kVersion);
    return false;
  }
  return true;
}

const CliParser::Flag& CliParser::find(const std::string& name,
                                       Kind expected) const {
  auto it = flags_.find(name);
  ABSQ_CHECK(it != flags_.end(), "flag --" << name << " was never registered");
  ABSQ_CHECK(it->second.kind == expected,
             "flag --" << name << " read with the wrong type accessor");
  return it->second;
}

std::string CliParser::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  return std::stoll(find(name, Kind::kInt).value);
}

std::int64_t CliParser::get_int(const std::string& name, std::int64_t min,
                                std::int64_t max) const {
  const std::int64_t value = get_int(name);
  if (value < min || value > max) {
    fail_usage("--" + name + " must be in [" + std::to_string(min) + ", " +
               std::to_string(max) + "], got " + std::to_string(value));
  }
  return value;
}

std::string CliParser::get_choice(
    const std::string& name,
    std::initializer_list<std::string_view> choices) const {
  std::string value = get_string(name);
  std::string expected;
  for (const std::string_view choice : choices) {
    if (value == choice) return value;
    if (!expected.empty()) expected += '|';
    expected += choice;
  }
  fail_usage("--" + name + " must be one of " + expected + ", got '" + value +
             "'");
}

double CliParser::get_double(const std::string& name) const {
  return std::stod(find(name, Kind::kDouble).value);
}

bool CliParser::get_bool(const std::string& name) const {
  return find(name, Kind::kBool).value == "true";
}

void CliParser::print_help(std::FILE* out) const {
  std::fprintf(out, "%s\n\nFlags:\n", summary_.c_str());
  for (const auto& [name, flag] : flags_) {
    std::fprintf(out, "  --%-24s %s (%s, default: %s)\n", name.c_str(),
                 flag.help.c_str(), kind_name(static_cast<int>(flag.kind)),
                 flag.default_value.empty() ? "\"\""
                                            : flag.default_value.c_str());
  }
}

}  // namespace absq
