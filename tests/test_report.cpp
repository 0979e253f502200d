// Tests for the JSONL run-report sink (abs/report.hpp): escaping, the
// null conventions (NaN, kUnevaluated), and line-by-line content of a
// full report including metric lines.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "abs/report.hpp"
#include "util/json_text.hpp"

namespace absq::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(JsonEscape, QuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonNumber, NonFiniteBecomesNull) {
  EXPECT_EQ(json_number(1.5), "1.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(RunReport, EmitsAllLineTypesWithCorrectContent) {
  RunReportMeta meta;
  meta.tool = "test_tool";
  meta.instance = "path/with \"quote\".qubo";
  meta.seed = 17;
  meta.extra = {{"devices", "2"}};

  AbsResult result;
  result.best_energy = -321;
  result.reached_target = true;
  result.seconds = 1.5;
  result.total_flips = 1000;
  result.evaluated_solutions = 250;
  result.search_rate = 500.0;
  result.reports_received = 40;
  result.reports_inserted = 30;
  result.duplicates_rejected = 7;
  result.pool_evictions = 5;
  result.best_trace = {{0.25, -100}, {0.5, -321}};
  DeviceSummary device;
  device.device_id = 0;
  device.workers = 2;
  device.flips = 1000;
  device.iterations = 9;
  result.devices.push_back(device);
  RunSnapshot snapshot;
  snapshot.seconds = 1.0;
  snapshot.best_energy = -321;
  snapshot.total_flips = 800;
  snapshot.window_rate = std::numeric_limits<double>::quiet_NaN();
  result.snapshots.push_back(snapshot);

  MetricsRegistry registry;
  registry.counter("absq_flips_total", Labels{{"device", "0"}}).add(1000);
  registry.histogram("absq_iteration_flips").observe(3);

  std::ostringstream out;
  write_run_report(out, meta, result, &registry);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 8u);  // meta, result, device, 2 improvements,
                                // snapshot, 2 metrics

  EXPECT_EQ(lines[0],
            "{\"type\":\"meta\",\"tool\":\"test_tool\","
            "\"instance\":\"path/with \\\"quote\\\".qubo\",\"seed\":17,"
            "\"devices\":\"2\"}");
  EXPECT_NE(lines[1].find("\"type\":\"result\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"best_energy\":-321"), std::string::npos);
  EXPECT_NE(lines[1].find("\"reached_target\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"duplicates_rejected\":7"), std::string::npos);
  EXPECT_NE(lines[1].find("\"pool_evictions\":5"), std::string::npos);
  EXPECT_NE(lines[1].find("\"failed_devices\":[]"), std::string::npos);
  EXPECT_NE(lines[1].find("\"checkpoints_written\":0"), std::string::npos);
  EXPECT_EQ(lines[2],
            "{\"type\":\"device\",\"device\":0,\"workers\":2,"
            "\"flips\":1000,\"iterations\":9,\"reports\":0,"
            "\"target_misses\":0,\"targets_dropped\":0,"
            "\"solutions_dropped\":0,\"algorithm_switches\":0,"
            "\"health\":\"healthy\","
            "\"restarts\":0,\"failure\":\"\"}");
  EXPECT_EQ(lines[3],
            "{\"type\":\"improvement\",\"seconds\":0.25,\"energy\":-100}");
  EXPECT_EQ(lines[4],
            "{\"type\":\"improvement\",\"seconds\":0.5,\"energy\":-321}");
  // NaN window rate (empty measurement window) serializes as null.
  EXPECT_EQ(lines[5],
            "{\"type\":\"snapshot\",\"seconds\":1,\"best_energy\":-321,"
            "\"pool_evaluated\":0,\"total_flips\":800,\"window_rate\":null}");
  EXPECT_EQ(lines[6],
            "{\"type\":\"metric\",\"name\":\"absq_flips_total\","
            "\"labels\":{\"device\":\"0\"},\"kind\":\"counter\","
            "\"value\":1000}");
  // observe(3) → log2 bucket le=3; buckets are [le, count] pairs.
  EXPECT_EQ(lines[7],
            "{\"type\":\"metric\",\"name\":\"absq_iteration_flips\","
            "\"labels\":{},\"kind\":\"histogram\",\"count\":1,\"sum\":3,"
            "\"buckets\":[[3,1]]}");
}

TEST(RunReport, UnevaluatedEnergyIsNull) {
  AbsResult result;
  result.best_energy = kUnevaluated;
  std::ostringstream out;
  write_run_report(out, RunReportMeta{}, result);
  const auto lines = lines_of(out.str());
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"best_energy\":null"), std::string::npos);
}

TEST(RunReport, NoMetricsMeansNoMetricLines) {
  std::ostringstream out;
  write_run_report(out, RunReportMeta{}, AbsResult{});
  EXPECT_EQ(out.str().find("\"type\":\"metric\""), std::string::npos);
}

}  // namespace
}  // namespace absq::obs
