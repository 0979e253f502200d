#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "util/check.hpp"

namespace absq {
namespace {

bool parse(CliParser& parser, std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return parser.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliParser, DefaultsApplyWhenUnset) {
  CliParser parser("test");
  parser.add_flag("n", std::int64_t{1024}, "bits");
  parser.add_flag("rate", 0.5, "rate");
  parser.add_flag("name", std::string("abs"), "name");
  parser.add_flag("verbose", false, "chatty");
  ASSERT_TRUE(parse(parser, {}));
  EXPECT_EQ(parser.get_int("n"), 1024);
  EXPECT_DOUBLE_EQ(parser.get_double("rate"), 0.5);
  EXPECT_EQ(parser.get_string("name"), "abs");
  EXPECT_FALSE(parser.get_bool("verbose"));
}

TEST(CliParser, SpaceAndEqualsFormsBothWork) {
  CliParser parser("test");
  parser.add_flag("n", std::int64_t{0}, "bits");
  parser.add_flag("m", std::int64_t{0}, "pool");
  ASSERT_TRUE(parse(parser, {"--n", "42", "--m=7"}));
  EXPECT_EQ(parser.get_int("n"), 42);
  EXPECT_EQ(parser.get_int("m"), 7);
}

TEST(CliParser, BooleanForms) {
  CliParser parser("test");
  parser.add_flag("fast", false, "");
  parser.add_flag("slow", true, "");
  ASSERT_TRUE(parse(parser, {"--fast", "--no-slow"}));
  EXPECT_TRUE(parser.get_bool("fast"));
  EXPECT_FALSE(parser.get_bool("slow"));
}

TEST(CliParser, BooleanExplicitValue) {
  CliParser parser("test");
  parser.add_flag("fast", false, "");
  ASSERT_TRUE(parse(parser, {"--fast=true"}));
  EXPECT_TRUE(parser.get_bool("fast"));
}

TEST(CliParser, PositionalArgumentsCollected) {
  CliParser parser("test");
  parser.add_flag("n", std::int64_t{0}, "");
  ASSERT_TRUE(parse(parser, {"input.qubo", "--n", "8", "more"}));
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"input.qubo", "more"}));
}

TEST(CliParser, UnknownFlagThrows) {
  CliParser parser("test");
  EXPECT_THROW(parse(parser, {"--bogus", "1"}), CheckError);
}

TEST(CliParser, MissingValueThrows) {
  CliParser parser("test");
  parser.add_flag("n", std::int64_t{0}, "");
  EXPECT_THROW(parse(parser, {"--n"}), CheckError);
}

TEST(CliParser, MalformedNumbersThrow) {
  CliParser parser("test");
  parser.add_flag("n", std::int64_t{0}, "");
  parser.add_flag("rate", 0.0, "");
  EXPECT_THROW(parse(parser, {"--n", "abc"}), CheckError);
  EXPECT_THROW(parse(parser, {"--n", "12x"}), CheckError);
  EXPECT_THROW(parse(parser, {"--rate", "half"}), CheckError);
}

TEST(CliParser, NegativeAndScientificValues) {
  CliParser parser("test");
  parser.add_flag("energy", std::int64_t{0}, "");
  parser.add_flag("limit", 0.0, "");
  ASSERT_TRUE(parse(parser, {"--energy", "-182208337", "--limit", "1e-3"}));
  EXPECT_EQ(parser.get_int("energy"), -182208337);
  EXPECT_DOUBLE_EQ(parser.get_double("limit"), 1e-3);
}

TEST(CliParser, HelpReturnsFalse) {
  CliParser parser("test");
  EXPECT_FALSE(parse(parser, {"--help"}));
}

TEST(CliParser, VersionReturnsFalse) {
  // --version is handled like --help: print and tell the tool to exit 0.
  CliParser parser("test");
  EXPECT_FALSE(parse(parser, {"--version"}));
}

TEST(CliParser, VersionFlagIsRegisteredEverywhere) {
  // The flag comes from the CliParser constructor, so every tool that uses
  // the parser gets it without opting in.
  CliParser parser("test");
  ASSERT_TRUE(parse(parser, {}));
  EXPECT_FALSE(parser.get_bool("version"));
}

TEST(CliParser, UsageErrorsAreTyped) {
  // Tool mains key exit code 2 off CliUsageError specifically; all parse
  // user errors must carry that type (and stay CheckError for callers
  // that do not care).
  CliParser unknown("test");
  EXPECT_THROW(parse(unknown, {"--bogus", "1"}), CliUsageError);

  CliParser missing("test");
  missing.add_flag("n", std::int64_t{0}, "");
  EXPECT_THROW(parse(missing, {"--n"}), CliUsageError);

  CliParser malformed("test");
  malformed.add_flag("n", std::int64_t{0}, "");
  malformed.add_flag("rate", 0.0, "");
  malformed.add_flag("fast", false, "");
  EXPECT_THROW(parse(malformed, {"--n", "abc"}), CliUsageError);
  EXPECT_THROW(parse(malformed, {"--rate", "half"}), CliUsageError);
  EXPECT_THROW(parse(malformed, {"--fast=maybe"}), CliUsageError);

  static_assert(std::is_base_of_v<CheckError, CliUsageError>);

  // The exit code those mains map CliUsageError to is part of the CLI
  // contract (scripts key off it — e.g. absq_lint --bogus must exit 2).
  EXPECT_EQ(kUsageExitCode, 2);
}

TEST(CliParser, ChoiceOutsideItsListIsAUsageError) {
  CliParser parser("test");
  parser.add_flag("kernel", std::string("auto"), "");
  ASSERT_TRUE(parse(parser, {"--kernel", "sparse"}));
  EXPECT_EQ(parser.get_choice("kernel", {"auto", "sparse"}), "sparse");

  CliParser bad("test");
  bad.add_flag("kernel", std::string("auto"), "");
  ASSERT_TRUE(parse(bad, {"--kernel", "dense"}));
  try {
    (void)bad.get_choice("kernel", {"auto", "sparse"});
    FAIL() << "an unlisted value was accepted";
  } catch (const CliUsageError& error) {
    EXPECT_STREQ(error.what(),
                 "--kernel must be one of auto|sparse, got 'dense'");
  }
}

TEST(CliParser, WrongTypeAccessorThrows) {
  CliParser parser("test");
  parser.add_flag("n", std::int64_t{0}, "");
  ASSERT_TRUE(parse(parser, {}));
  EXPECT_THROW((void)parser.get_bool("n"), CheckError);
  EXPECT_THROW((void)parser.get_string("n"), CheckError);
}

TEST(CliParser, UnregisteredAccessorThrows) {
  CliParser parser("test");
  ASSERT_TRUE(parse(parser, {}));
  EXPECT_THROW((void)parser.get_int("nope"), CheckError);
}

}  // namespace
}  // namespace absq
