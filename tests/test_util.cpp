#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "sim/throughput_model.hpp"
#include "util/json_text.hpp"
#include "util/stopwatch.hpp"

namespace absq {
namespace {

// The one JSON string escaper (util/json_text.hpp) behind the wire codec,
// logs, reports, traces and SARIF: every control byte, the two quoted
// characters, DEL and multi-byte UTF-8, each parsed back to the original.
TEST(JsonText, EscapeTableParsesBackToTheOriginal) {
  struct Row {
    std::string raw;
    std::string escaped;
  };
  std::vector<Row> rows;
  const char* kShort[0x20] = {};
  kShort[0x08] = "\\b";
  kShort[0x09] = "\\t";
  kShort[0x0A] = "\\n";
  kShort[0x0C] = "\\f";
  kShort[0x0D] = "\\r";
  for (int c = 0; c < 0x20; ++c) {
    char hex[8];
    std::snprintf(hex, sizeof(hex), "\\u%04x", c);
    rows.push_back({std::string(1, static_cast<char>(c)),
                    kShort[c] != nullptr ? kShort[c] : hex});
  }
  rows.push_back({"\"", "\\\""});
  rows.push_back({"\\", "\\\\"});
  rows.push_back({"\x7f", "\x7f"});                          // DEL
  rows.push_back({"caf\xc3\xa9", "caf\xc3\xa9"});            // 2-byte UTF-8
  rows.push_back({"\xe2\x82\xac", "\xe2\x82\xac"});          // 3-byte UTF-8
  rows.push_back({"\xf0\x9d\x84\x9e", "\xf0\x9d\x84\x9e"});  // 4-byte UTF-8
  rows.push_back(
      {std::string("a\0b\x1f\"\\z", 7), "a\\u0000b\\u001f\\\"\\\\z"});

  for (const Row& row : rows) {
    SCOPED_TRACE(row.escaped);
    EXPECT_EQ(json_escape(row.raw), row.escaped);
    const std::string quoted = json_quote(row.raw);
    EXPECT_EQ(quoted, "\"" + row.escaped + "\"");
    // The wire codec writes the same bytes and reads them back.
    EXPECT_EQ(serve::Json(row.raw).dump(), quoted);
    EXPECT_EQ(serve::Json::parse(quoted).as_string(), row.raw);
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double elapsed = watch.seconds();
  EXPECT_GE(elapsed, 0.015);
  EXPECT_LT(elapsed, 5.0);  // generous upper bound for loaded CI
  EXPECT_GE(watch.nanos(), 15'000'000);
}

TEST(Stopwatch, ResetRestartsTiming) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watch.reset();
  EXPECT_LT(watch.seconds(), 0.015);
}

TEST(Deadline, ExpiresAfterDuration) {
  Deadline deadline(0.02);
  EXPECT_FALSE(Deadline(10.0).expired());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(deadline.expired());
}

TEST(Deadline, NonPositiveMeansAlreadyDue) {
  EXPECT_TRUE(Deadline(0.0).expired());
  EXPECT_TRUE(Deadline(-1.0).expired());
}

TEST(Deadline, NeverDoesNotExpire) {
  EXPECT_FALSE(Deadline::never().expired());
}

TEST(ThroughputModel, ReproducesPaperEndpoints) {
  // The two headline Table 2 numbers the model is calibrated around:
  // 1k bits / p=1 → 0.221 T/s, and the 1.24 T/s peak at 1k / p=16.
  const sim::DeviceSpec spec;
  const sim::ThroughputModel model;
  const double low =
      model.solutions_per_second(1024, sim::compute_occupancy(spec, 1024, 1),
                                 4);
  const double peak =
      model.solutions_per_second(1024, sim::compute_occupancy(spec, 1024, 16),
                                 4);
  EXPECT_NEAR(low / 1e12, 0.221, 0.03);
  EXPECT_NEAR(peak / 1e12, 1.24, 0.10);
}

TEST(ThroughputModel, LinearInDeviceCount) {
  // Fig. 8's property by construction: independent devices add up.
  const sim::DeviceSpec spec;
  const sim::ThroughputModel model;
  const auto occ = sim::compute_occupancy(spec, 2048, 16);
  const double one = model.solutions_per_second(2048, occ, 1);
  for (unsigned gpus = 2; gpus <= 4; ++gpus) {
    EXPECT_DOUBLE_EQ(model.solutions_per_second(2048, occ, gpus), one * gpus);
  }
}

TEST(ThroughputModel, RateDeclinesWithInstanceSizeAtFixedP) {
  // Table 2's large-n trend at p = 16: 1k > 2k > 4k > 8k > 16k.
  const sim::DeviceSpec spec;
  const sim::ThroughputModel model;
  double previous = 1e30;
  for (const BitIndex n : {1024u, 2048u, 4096u, 8192u, 16384u}) {
    const double rate =
        model.solutions_per_second(n, sim::compute_occupancy(spec, n, 16), 4);
    EXPECT_LT(rate, previous) << "n=" << n;
    previous = rate;
  }
}

TEST(ThroughputModel, RateGrowsWithBlocksAtFixedSize) {
  // Table 2's 1k-bit column: more resident blocks (larger p) → higher rate.
  const sim::DeviceSpec spec;
  const sim::ThroughputModel model;
  double previous = 0.0;
  for (const std::uint32_t p : {1u, 2u, 4u, 8u, 16u}) {
    const double rate = model.solutions_per_second(
        1024, sim::compute_occupancy(spec, 1024, p), 4);
    EXPECT_GT(rate, previous) << "p=" << p;
    previous = rate;
  }
}

TEST(ThroughputModel, BandwidthCapsTheRate) {
  // With enormous block counts the bandwidth term must bind: rate can
  // never exceed BW/(2n) flips/s × n solutions × gpus = BW/2 × gpus.
  const sim::DeviceSpec spec;
  sim::ThroughputModel model;
  sim::Occupancy occ = sim::compute_occupancy(spec, 1024, 16);
  occ.active_blocks = 1000000;  // hypothetical mega-GPU
  const double rate = model.solutions_per_second(1024, occ, 1);
  EXPECT_LE(rate, model.bandwidth / 2.0 * 1.000001);
}

}  // namespace
}  // namespace absq
