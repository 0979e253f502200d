#include "qubo/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace absq {
namespace {

WeightMatrix sample_matrix() {
  return WeightMatrix::generate_symmetric(6, [](BitIndex i, BitIndex j) {
    return static_cast<Weight>((i + 2 * j) % 7 == 0 ? 0
                                                    : static_cast<int>(i) -
                                                          static_cast<int>(j) * 3);
  });
}

TEST(QuboIo, RoundTripPreservesMatrix) {
  const WeightMatrix original = sample_matrix();
  std::stringstream buffer;
  write_qubo(buffer, original, "sample instance\nsecond comment line");
  const WeightMatrix loaded = read_qubo(buffer);
  EXPECT_EQ(loaded, original);
}

TEST(QuboIo, RoundTripRandomMatrices) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    const WeightMatrix original =
        WeightMatrix::generate_symmetric(17, [&rng](BitIndex, BitIndex) {
          return static_cast<Weight>(rng.range(kMinWeight, kMaxWeight));
        });
    std::stringstream buffer;
    write_qubo(buffer, original);
    EXPECT_EQ(read_qubo(buffer), original);
  }
}

TEST(QuboIo, CommentsAndBlankLinesIgnored) {
  std::istringstream in(
      "# leading comment\n"
      "\n"
      "qubo 3\n"
      "# mid comment\n"
      "0 0 5\n"
      "\n"
      "0 2 -7\n");
  const WeightMatrix w = read_qubo(in);
  EXPECT_EQ(w.at(0, 0), 5);
  EXPECT_EQ(w.at(0, 2), -7);
  EXPECT_EQ(w.at(2, 0), -7);
  EXPECT_EQ(w.at(1, 1), 0);
}

TEST(QuboIo, MissingHeaderThrows) {
  std::istringstream in("0 0 5\n");
  EXPECT_THROW((void)read_qubo(in), CheckError);
}

TEST(QuboIo, EmptyInputThrows) {
  std::istringstream in("# only a comment\n");
  EXPECT_THROW((void)read_qubo(in), CheckError);
}

TEST(QuboIo, BadHeaderTagThrows) {
  std::istringstream in("ising 3\n");
  EXPECT_THROW((void)read_qubo(in), CheckError);
}

TEST(QuboIo, OversizeThrows) {
  std::istringstream in("qubo 99999999\n");
  EXPECT_THROW((void)read_qubo(in), CheckError);
}

TEST(QuboIo, IndexOutOfRangeThrows) {
  std::istringstream in("qubo 3\n0 3 1\n");
  EXPECT_THROW((void)read_qubo(in), CheckError);
}

TEST(QuboIo, LowerTriangleEntryThrows) {
  std::istringstream in("qubo 3\n2 1 1\n");
  EXPECT_THROW((void)read_qubo(in), CheckError);
}

TEST(QuboIo, WeightOverflowThrows) {
  std::istringstream in("qubo 3\n0 1 40000\n");
  EXPECT_THROW((void)read_qubo(in), CheckError);
}

TEST(QuboIo, DuplicateEntryThrows) {
  std::istringstream in("qubo 3\n0 1 5\n0 1 5\n");
  EXPECT_THROW((void)read_qubo(in), CheckError);
}

TEST(QuboIo, TrailingTokensThrow) {
  std::istringstream in("qubo 3\n0 1 5 9\n");
  EXPECT_THROW((void)read_qubo(in), CheckError);
}

TEST(QuboIo, TruncatedEntryThrows) {
  std::istringstream in("qubo 3\n0 1\n");
  EXPECT_THROW((void)read_qubo(in), CheckError);
}

TEST(QuboIo, PlusSignsTabsAndCrlfAreAccepted) {
  // What `istream >> long long` accepted: a leading '+', any whitespace
  // between fields, and a '\r' before each '\n'.
  std::istringstream plus("qubo +3\n+0 +2 +7\n");
  EXPECT_EQ(read_qubo(plus).at(0, 2), 7);
  std::istringstream tabs("qubo\t3\n0\t2\t-7\t\n");
  EXPECT_EQ(read_qubo(tabs).at(2, 0), -7);
  std::istringstream crlf("# c\r\nqubo 3\r\n0 0 5\r\n0 2 -7\r\n");
  const WeightMatrix w = read_qubo(crlf);
  EXPECT_EQ(w.at(0, 0), 5);
  EXPECT_EQ(w.at(0, 2), -7);
}

TEST(QuboIo, SignAndLineEndEdgeCasesAreRejected) {
  for (const char* text : {
           "qubo 3\n0 1 +-5\n",      // one sign only
           "qubo 3\n0 1 + 5\n",      // a sign must touch its digits
           "qubo 3\r\n\r\n0 0 1\r\n",  // "\r" alone is not a blank line
           "qubo 3\n0 1 5x\n",       // trailing junk after the weight
       }) {
    std::istringstream in(text);
    EXPECT_THROW((void)read_qubo(in), CheckError) << text;
  }
}

TEST(QuboIo, ErrorsNameTheFirstBadLine) {
  // A repeat above a malformed line is the first error in file order.
  std::istringstream in("qubo 3\n1 2 5\n0 1 5\n1 2 4\nx\n");
  try {
    (void)read_qubo(in);
    FAIL() << "accepted";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("line 4: duplicate entry (1, 2)"),
              std::string::npos)
        << error.what();
  }
  std::istringstream bad("qubo 3\n0 0 1\n\n0 3 1\n");
  try {
    (void)read_qubo(bad);
    FAIL() << "accepted";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("line 4: index out of range"),
              std::string::npos)
        << error.what();
  }
}

TEST(QuboIo, WriteEmitsStoredUpperEntriesInRowMajorOrder) {
  const WeightMatrix w = sample_matrix();
  std::ostringstream expected;
  expected << "qubo 6\n";
  for (BitIndex i = 0; i < 6; ++i) {
    for (BitIndex j = i; j < 6; ++j) {
      if (w.at(i, j) == 0) continue;
      expected << i << ' ' << j << ' ' << w.at(i, j) << '\n';
    }
  }
  std::ostringstream out;
  write_qubo(out, w);
  EXPECT_EQ(out.str(), expected.str());
}

TEST(QuboIo, FileRoundTrip) {
  const WeightMatrix original = sample_matrix();
  const std::string path = ::testing::TempDir() + "/absq_io_test.qubo";
  write_qubo_file(path, original, "file round trip");
  EXPECT_EQ(read_qubo_file(path), original);
}

TEST(QuboIo, MissingFileThrows) {
  EXPECT_THROW((void)read_qubo_file("/nonexistent/path.qubo"), CheckError);
}

TEST(QuboIo, UnwritablePathThrows) {
  EXPECT_THROW(write_qubo_file("/nonexistent/dir/file.qubo", sample_matrix()),
               CheckError);
}

TEST(SolutionIo, RoundTrip) {
  Rng rng(9);
  const BitVector bits = BitVector::random(77, rng);
  std::stringstream buffer;
  write_solution(buffer, bits, -123456789);
  const StoredSolution loaded = read_solution(buffer);
  EXPECT_EQ(loaded.bits, bits);
  EXPECT_EQ(loaded.energy, -123456789);
}

TEST(SolutionIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/absq_solution_test.sol";
  const BitVector bits = BitVector::from_string("0110101");
  write_solution_file(path, bits, 42);
  const StoredSolution loaded = read_solution_file(path);
  EXPECT_EQ(loaded.bits, bits);
  EXPECT_EQ(loaded.energy, 42);
}

TEST(SolutionIo, Rejections) {
  {
    std::istringstream in("answer 3 0\n010\n");
    EXPECT_THROW((void)read_solution(in), CheckError);  // bad tag
  }
  {
    std::istringstream in("solution 4 0\n010\n");
    EXPECT_THROW((void)read_solution(in), CheckError);  // length mismatch
  }
  {
    std::istringstream in("solution 3 0\n012\n");
    EXPECT_THROW((void)read_solution(in), CheckError);  // non-binary digit
  }
  {
    std::istringstream in("solution 3 0\n");
    EXPECT_THROW((void)read_solution(in), CheckError);  // missing bits
  }
}

TEST(QuboIo, NegativeExtremesSurvive) {
  std::istringstream in("qubo 2\n0 0 -32768\n0 1 32767\n1 1 -32768\n");
  const WeightMatrix w = read_qubo(in);
  EXPECT_EQ(w.at(0, 0), kMinWeight);
  EXPECT_EQ(w.at(0, 1), kMaxWeight);
  std::stringstream buffer;
  write_qubo(buffer, w);
  EXPECT_EQ(read_qubo(buffer), w);
}

}  // namespace
}  // namespace absq
