// Tests for the event tracer (obs/trace.hpp): ring semantics, the Chrome
// trace_event JSON exporter (golden file), null-tracer no-ops, thread
// safety, and the key behavioural contract — telemetry off means zero
// events and bit-identical solver results.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "abs/sync_runner.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "problems/random.hpp"

namespace absq::obs {
namespace {

TEST(EventTracer, SnapshotIsSortedByTimestamp) {
  EventTracer tracer(64);
  for (const std::uint64_t ts : {500u, 100u, 300u, 200u, 400u}) {
    TraceEvent event;
    event.name = "e";
    event.ts_ns = ts;
    tracer.record(event);
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns);
  }
  EXPECT_EQ(tracer.recorded(), 5u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(EventTracer, FullRingOverwritesOldestAndCountsDrops) {
  EventTracer tracer(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    TraceEvent event;
    event.name = "e";
    event.ts_ns = i;
    tracer.record(event);
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);  // the two oldest overwritten
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, i + 2);
  }
  EXPECT_EQ(tracer.recorded(), 5u);
  EXPECT_EQ(tracer.dropped(), 2u);
}

TEST(EventTracer, OneThreadKeepsTheWholeCapacity) {
  EventTracer tracer(1024);
  ASSERT_EQ(tracer.capacity(), 1024u);
  for (std::uint64_t i = 0; i < 1024; ++i) {
    TraceEvent event;
    event.name = "e";
    event.ts_ns = i;
    tracer.record(event);
  }
  EXPECT_EQ(tracer.snapshot().size(), 1024u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(EventTracer, ThreadsShareOneCapacity) {
  EventTracer tracer(1024);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < 256; ++i) tracer.instant("e", "test", 0, t);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(tracer.snapshot().size(), 1024u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(EventTracer, InstantAndCompleteStampMonotonicTimes) {
  EventTracer tracer;
  const std::uint64_t start = tracer.now_ns();
  tracer.instant("incumbent", "host", 0, 0, "energy", -42);
  tracer.complete("straight", "search", start, 1, 3, "flips", 7);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  for (const auto& event : events) {
    if (event.phase == 'i') {
      EXPECT_STREQ(event.name, "incumbent");
      EXPECT_GE(event.ts_ns, start);
      EXPECT_EQ(event.arg_value, -42);
    } else {
      EXPECT_EQ(event.phase, 'X');
      EXPECT_EQ(event.ts_ns, start);
      EXPECT_EQ(event.pid, 1u);
      EXPECT_EQ(event.tid, 3u);
    }
  }
}

TEST(TraceSpan, NullTracerIsANoOp) {
  TraceSpan span(nullptr, "straight", "search", 1, 0);
  span.set_arg("flips", 123);  // must not crash; destructor is a no-op too
}

TEST(TraceSpan, RecordsCompleteEventWithArg) {
  EventTracer tracer;
  {
    TraceSpan span(&tracer, "ga_round", "host", 0, 2);
    span.set_arg("arrivals", 9);
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_STREQ(events[0].name, "ga_round");
  EXPECT_STREQ(events[0].arg_name, "arrivals");
  EXPECT_EQ(events[0].arg_value, 9);
  EXPECT_EQ(events[0].tid, 2u);
}

// Golden file for the Chrome trace_event exporter: span with args,
// instant with default category, microsecond timestamps with nanosecond
// precision.
TEST(ChromeTrace, GoldenExport) {
  std::vector<TraceEvent> events(2);
  events[0].name = "straight";
  events[0].category = "search";
  events[0].phase = 'X';
  events[0].ts_ns = 1500;
  events[0].dur_ns = 250000;
  events[0].pid = 1;
  events[0].tid = 3;
  events[0].arg_name = "flips";
  events[0].arg_value = 42;
  events[1].name = "incumbent";
  events[1].category = "";  // exporter defaults the category to "absq"
  events[1].phase = 'i';
  events[1].ts_ns = 2000001;
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"straight\",\"cat\":\"search\",\"ph\":\"X\",\"ts\":1.500,"
      "\"dur\":250.000,\"pid\":1,\"tid\":3,\"args\":{\"flips\":42}},\n"
      "{\"name\":\"incumbent\",\"cat\":\"absq\",\"ph\":\"i\",\"ts\":2000.001,"
      "\"pid\":0,\"tid\":0,\"s\":\"t\"}\n"
      "]}\n";
  EXPECT_EQ(chrome_trace_json(events), expected);
}

TEST(ChromeTrace, EmptyEventListIsValidJson) {
  EXPECT_EQ(chrome_trace_json({}), "{\"traceEvents\":[\n]}\n");
}

TEST(EventTracer, ConcurrentRecordKeepsExactRecordedCount) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kEventsPerThread = 10000;
  EventTracer tracer;  // default 65536 capacity
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (std::uint64_t i = 0; i < kEventsPerThread; ++i) {
        tracer.instant("tick", "test", 0, static_cast<std::uint32_t>(t));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(tracer.recorded(), kThreads * kEventsPerThread);
  const auto events = tracer.snapshot();
  EXPECT_EQ(events.size(), tracer.recorded() - tracer.dropped());
  EXPECT_LE(events.size(), tracer.capacity());
}

// The zero-cost-when-disabled contract, behavioural half: a solver run
// with no telemetry attached must produce byte-identical results to one
// that never heard of the observability layer (they are the same code
// path), and an instrumented run of the same deterministic executor must
// agree on every search outcome while actually producing events.
TEST(DisabledTracing, SyncRunnerResultsAreIdentical) {
  const WeightMatrix w = random_qubo(96, 7);
  AbsConfig config;
  config.device.block_limit = 4;
  config.seed = 11;

  SyncAbsRunner plain(w, config);
  const AbsResult baseline = plain.run_rounds(30);

  MetricsRegistry registry;
  EventTracer tracer;
  AbsConfig instrumented_config = config;
  instrumented_config.telemetry.metrics = &registry;
  instrumented_config.telemetry.tracer = &tracer;
  SyncAbsRunner instrumented(w, instrumented_config);
  const AbsResult traced = instrumented.run_rounds(30);

  // Same search trajectory, flip for flip.
  EXPECT_EQ(traced.best_energy, baseline.best_energy);
  EXPECT_EQ(traced.total_flips, baseline.total_flips);
  EXPECT_EQ(traced.evaluated_solutions, baseline.evaluated_solutions);
  EXPECT_EQ(traced.reports_inserted, baseline.reports_inserted);

  // The disabled run emitted nothing; the enabled run really observed.
  EXPECT_GT(tracer.recorded(), 0u);
  EXPECT_EQ(registry.counter("absq_device_flips_total",
                             Labels{{"device", "0"}})
                .value(),
            instrumented.device(0).total_flips());
}

}  // namespace
}  // namespace absq::obs
