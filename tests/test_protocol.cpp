// Tests of the serving layer's JSON codec and wire-protocol dispatcher —
// everything between a request line and a reply line, without sockets.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "obs/metrics.hpp"
#include "problems/random.hpp"
#include "qubo/io.hpp"
#include "serve/job_manager.hpp"
#include "serve/json.hpp"
#include "util/failpoint.hpp"

namespace absq::serve {
namespace {

JobManagerConfig small_manager_config(std::size_t slots = 1,
                                      std::size_t max_queue = 8) {
  JobManagerConfig config;
  config.solver_slots = slots;
  config.max_queue = max_queue;
  config.solver.num_devices = 1;
  config.solver.device.block_limit = 4;
  config.solver.device.local_steps = 32;
  config.solver.pool_capacity = 16;
  return config;
}

/// A small instance in the qubo text format, as a client would inline it.
std::string inline_problem(BitIndex bits = 24, std::uint64_t seed = 5) {
  std::ostringstream text;
  write_qubo(text, random_qubo(bits, seed));
  return std::move(text).str();
}

Json submit_request(std::uint64_t max_flips = 20000) {
  Json request = Json::object();
  request.set("cmd", "submit");
  request.set("problem", inline_problem());
  request.set("max_flips", max_flips);
  return request;
}

// --- Json codec -----------------------------------------------------------

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json::parse("null").kind(), Json::Kind::kNull);
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-7").as_int(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(Json::parse("\"hi\\n\"").as_string(), "hi\n");
}

TEST(Json, Int64RoundTripsExactly) {
  // Energies exceed 2^53; they must not detour through a double.
  const std::int64_t big = 9007199254740995;  // 2^53 + 3
  const Json parsed = Json::parse(std::to_string(big));
  ASSERT_TRUE(parsed.is_int());
  EXPECT_EQ(parsed.as_int(), big);
  EXPECT_EQ(Json(big).dump(), std::to_string(big));
}

TEST(Json, ObjectAndArrayRoundTrip) {
  Json value = Json::object();
  value.set("id", 7).set("name", "g\"1\"");
  Json trace = Json::array();
  trace.push(1).push(-2.5).push(Json());
  value.set("trace", std::move(trace));

  const Json reparsed = Json::parse(value.dump());
  EXPECT_EQ(reparsed.at("id").as_int(), 7);
  EXPECT_EQ(reparsed.at("name").as_string(), "g\"1\"");
  EXPECT_EQ(reparsed.at("trace").size(), 3u);
  EXPECT_TRUE(reparsed.at("trace").at(2).is_null());
}

TEST(Json, DumpIsOneLine) {
  Json value = Json::object();
  value.set("text", "line1\nline2\r\ttab");
  const std::string dumped = value.dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(dumped).at("text").as_string(), "line1\nline2\r\ttab");
}

TEST(Json, UnicodeEscapesDecode) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(Json::parse("\"\\uD83D\\uDE00\"").as_string(), "\xF0\x9F\x98\x80");
}

TEST(Json, MalformedDocumentsThrowJsonError) {
  const char* broken[] = {"",        "{",        "[1,",     "tru",
                          "\"abc",   "{\"a\":}", "1 2",     "{'a':1}",
                          "[1,]",    "\"\\x\"",  "nan"};
  for (const char* text : broken) {
    EXPECT_THROW((void)Json::parse(text), JsonError) << text;
  }
}

TEST(Json, DepthIsBounded) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_THROW((void)Json::parse(deep), JsonError);
}

TEST(Json, MistypedPresentKeyThrows) {
  Json value = Json::object();
  value.set("n", "not a number");
  EXPECT_THROW((void)value.get_int("n", 3), JsonError);
  EXPECT_EQ(value.get_int("absent", 3), 3);
}

// --- dispatcher -----------------------------------------------------------

TEST(Protocol, PingPongs) {
  JobManager manager(small_manager_config());
  const ProtocolReply outcome = handle_request_line(manager, R"({"cmd":"ping"})");
  EXPECT_TRUE(outcome.reply.get_bool("ok", false));
  EXPECT_TRUE(outcome.reply.get_bool("pong", false));
  EXPECT_FALSE(outcome.shutdown);
}

TEST(Protocol, MalformedLinesAreRepliesNotThrows) {
  JobManager manager(small_manager_config());
  const char* bad[] = {"not json at all", "{\"cmd\":42}", "{}", "[1,2]",
                       R"({"cmd":"nope"})"};
  for (const char* line : bad) {
    const ProtocolReply outcome = handle_request_line(manager, line);
    EXPECT_FALSE(outcome.reply.get_bool("ok", true)) << line;
    EXPECT_EQ(outcome.reply.get_string("code", ""), "bad_request") << line;
    EXPECT_FALSE(outcome.shutdown);
  }
}

TEST(Protocol, SubmitRunsToResult) {
  JobManager manager(small_manager_config());
  const ProtocolReply submitted =
      handle_request_line(manager, submit_request().dump());
  ASSERT_TRUE(submitted.reply.get_bool("ok", false))
      << submitted.reply.dump();
  const JobId id = static_cast<JobId>(submitted.reply.at("id").as_int());

  (void)manager.wait(id, 30.0);
  Json result_request = Json::object();
  result_request.set("cmd", "result").set("id", id);
  const ProtocolReply result =
      handle_request_line(manager, result_request.dump());
  ASSERT_TRUE(result.reply.get_bool("ok", false)) << result.reply.dump();
  const JobStatus status = job_from_json(result.reply.at("job"));
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(result.reply.at("energy").as_int(), status.best_energy);
  // The solution string is the full assignment.
  EXPECT_EQ(result.reply.at("solution").as_string().size(), 24u);
}

TEST(Protocol, ResultBeforeTerminalIsNotDone) {
  JobManagerConfig config = small_manager_config();
  JobManager manager(config);
  Json request = submit_request();
  request.set("max_flips", 0).set("seconds", 30.0);
  const ProtocolReply submitted =
      handle_request_line(manager, request.dump());
  const JobId id = static_cast<JobId>(submitted.reply.at("id").as_int());

  Json result_request = Json::object();
  result_request.set("cmd", "result").set("id", id);
  const ProtocolReply result =
      handle_request_line(manager, result_request.dump());
  EXPECT_FALSE(result.reply.get_bool("ok", true));
  EXPECT_EQ(result.reply.get_string("code", ""), "not_done");

  EXPECT_TRUE(manager.cancel(id));
  (void)manager.wait(id, 30.0);
}

TEST(Protocol, UnknownIdIsNotFound) {
  JobManager manager(small_manager_config());
  Json request = Json::object();
  request.set("cmd", "status").set("id", 999);
  const ProtocolReply outcome = handle_request_line(manager, request.dump());
  EXPECT_FALSE(outcome.reply.get_bool("ok", true));
  EXPECT_EQ(outcome.reply.get_string("code", ""), "not_found");
}

TEST(Protocol, QueueFullIsTypedBackpressure) {
  // One slot, queue bound 1: a long runner + one queued job fill the
  // server; the next submit must come back queue_full, not bad_request.
  JobManagerConfig config = small_manager_config(1, 1);
  JobManager manager(config);
  Json blocker = submit_request();
  blocker.set("max_flips", 0).set("seconds", 30.0);
  const ProtocolReply running = handle_request_line(manager, blocker.dump());
  ASSERT_TRUE(running.reply.get_bool("ok", false));
  // Give the slot a moment to claim the blocker, then fill the queue.
  const JobId blocker_id =
      static_cast<JobId>(running.reply.at("id").as_int());
  while (manager.status(blocker_id).state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ProtocolReply queued =
      handle_request_line(manager, submit_request().dump());
  ASSERT_TRUE(queued.reply.get_bool("ok", false)) << queued.reply.dump();

  const ProtocolReply rejected =
      handle_request_line(manager, submit_request().dump());
  EXPECT_FALSE(rejected.reply.get_bool("ok", true));
  EXPECT_EQ(rejected.reply.get_string("code", ""), "queue_full");

  EXPECT_TRUE(manager.cancel(blocker_id));
  manager.shutdown(JobManager::Drain::kCancel);
}

TEST(Protocol, SubmitValidation) {
  JobManager manager(small_manager_config());
  // No problem at all.
  Json no_problem = Json::object();
  no_problem.set("cmd", "submit").set("max_flips", 100);
  ProtocolReply outcome = handle_request_line(manager, no_problem.dump());
  EXPECT_EQ(outcome.reply.get_string("code", ""), "bad_request");
  // Unparsable problem text.
  Json garbage = Json::object();
  garbage.set("cmd", "submit").set("problem", "qubo what").set("max_flips",
                                                              100);
  outcome = handle_request_line(manager, garbage.dump());
  EXPECT_EQ(outcome.reply.get_string("code", ""), "bad_request");
  // Unknown format.
  Json format = submit_request();
  format.set("format", "xml");
  outcome = handle_request_line(manager, format.dump());
  EXPECT_EQ(outcome.reply.get_string("code", ""), "bad_request");
  // No stop criterion.
  Json unbounded = Json::object();
  unbounded.set("cmd", "submit").set("problem", inline_problem());
  outcome = handle_request_line(manager, unbounded.dump());
  EXPECT_EQ(outcome.reply.get_string("code", ""), "bad_request");
}

TEST(Protocol, DiverseSubmitFieldsValidateAndRunToResult) {
  JobManager manager(small_manager_config());
  // A bad portfolio or an out-of-range island count fails at admission.
  Json bad_portfolio = submit_request();
  bad_portfolio.set("portfolio", "sa,frobnicate");
  ProtocolReply outcome =
      handle_request_line(manager, bad_portfolio.dump());
  EXPECT_EQ(outcome.reply.get_string("code", ""), "bad_request");
  Json bad_islands = submit_request();
  bad_islands.set("islands", std::int64_t{1000});
  outcome = handle_request_line(manager, bad_islands.dump());
  EXPECT_EQ(outcome.reply.get_string("code", ""), "bad_request");
  // Negative counts must not wrap into 2^64 - 1 through an unsigned cast:
  // an unbounded flip budget would hold a slot until cancelled, and an
  // endless migration interval would silently turn migration off.
  Json bad_flips = submit_request();
  bad_flips.set("max_flips", std::int64_t{-1}).set("seconds", 0.0);
  outcome = handle_request_line(manager, bad_flips.dump());
  EXPECT_EQ(outcome.reply.get_string("code", ""), "bad_request");
  Json bad_interval = submit_request();
  bad_interval.set("islands", std::int64_t{2})
      .set("migration_interval", std::int64_t{-1});
  outcome = handle_request_line(manager, bad_interval.dump());
  EXPECT_EQ(outcome.reply.get_string("code", ""), "bad_request");

  // A valid diverse submission runs to a verifiable result.
  Json diverse = submit_request();
  diverse.set("islands", std::int64_t{2})
      .set("portfolio", "min-delta,sa")
      .set("migration_interval", std::int64_t{4});
  const ProtocolReply submitted =
      handle_request_line(manager, diverse.dump());
  ASSERT_TRUE(submitted.reply.get_bool("ok", false))
      << submitted.reply.dump();
  const JobId id = static_cast<JobId>(submitted.reply.at("id").as_int());
  (void)manager.wait(id, 30.0);
  Json result = Json::object();
  result.set("cmd", "result").set("id", id);
  const ProtocolReply done = handle_request_line(manager, result.dump());
  ASSERT_TRUE(done.reply.get_bool("ok", false)) << done.reply.dump();
  EXPECT_LT(done.reply.at("energy").as_int(), 0);
}

TEST(Protocol, CancelAndList) {
  JobManagerConfig config = small_manager_config(1, 4);
  JobManager manager(config);
  Json blocker = submit_request();
  blocker.set("max_flips", 0).set("seconds", 30.0).set("name", "blocker");
  const ProtocolReply submitted =
      handle_request_line(manager, blocker.dump());
  const JobId id = static_cast<JobId>(submitted.reply.at("id").as_int());

  Json cancel = Json::object();
  cancel.set("cmd", "cancel").set("id", id);
  const ProtocolReply cancelled = handle_request_line(manager, cancel.dump());
  EXPECT_TRUE(cancelled.reply.get_bool("ok", false));
  EXPECT_TRUE(cancelled.reply.get_bool("cancelled", false));
  (void)manager.wait(id, 30.0);

  const ProtocolReply listed =
      handle_request_line(manager, R"({"cmd":"list"})");
  ASSERT_TRUE(listed.reply.get_bool("ok", false));
  ASSERT_EQ(listed.reply.at("jobs").size(), 1u);
  const JobStatus status = job_from_json(listed.reply.at("jobs").at(0));
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_EQ(status.name, "blocker");
}

TEST(Protocol, MetricsCommand) {
  JobManager manager(small_manager_config());
  // Without a registry: a typed unavailable reply, not a crash.
  ProtocolReply outcome =
      handle_request_line(manager, R"({"cmd":"metrics"})", nullptr);
  EXPECT_FALSE(outcome.reply.get_bool("ok", true));
  EXPECT_EQ(outcome.reply.get_string("code", ""), "unavailable");

  obs::MetricsRegistry registry;
  registry.counter("absq_jobs_submitted").add(3);
  outcome = handle_request_line(manager, R"({"cmd":"metrics"})", &registry);
  ASSERT_TRUE(outcome.reply.get_bool("ok", false));
  EXPECT_NE(outcome.reply.at("prometheus").as_string().find(
                "absq_jobs_submitted 3"),
            std::string::npos);
}

TEST(Protocol, ShutdownSetsTheFlag) {
  JobManager manager(small_manager_config());
  const ProtocolReply outcome =
      handle_request_line(manager, R"({"cmd":"shutdown"})");
  EXPECT_TRUE(outcome.reply.get_bool("ok", false));
  EXPECT_TRUE(outcome.shutdown);
}

TEST(Protocol, JobStatusRoundTripsThroughJson) {
  JobStatus status;
  status.id = 12;
  status.name = "roundtrip";
  status.state = JobState::kFailed;
  status.priority = -3;
  status.bits = 512;
  status.submitted_seconds = 1.25;
  status.started_seconds = 2.5;
  status.finished_seconds = 3.75;
  status.queue_seconds = 1.25;
  status.run_seconds = 1.25;
  status.best_energy = -987654321;
  status.total_flips = 1234567;
  status.search_rate = 9.5e8;
  status.error = "device 0 failed";
  status.checkpoint_path = "/tmp/job-12.ck";

  const JobStatus decoded = job_from_json(job_to_json(status));
  EXPECT_EQ(decoded.id, status.id);
  EXPECT_EQ(decoded.name, status.name);
  EXPECT_EQ(decoded.state, status.state);
  EXPECT_EQ(decoded.priority, status.priority);
  EXPECT_EQ(decoded.bits, status.bits);
  EXPECT_EQ(decoded.best_energy, status.best_energy);
  EXPECT_EQ(decoded.total_flips, status.total_flips);
  EXPECT_DOUBLE_EQ(decoded.search_rate, status.search_rate);
  EXPECT_EQ(decoded.error, status.error);
  EXPECT_EQ(decoded.checkpoint_path, status.checkpoint_path);

  // Before any device report the energy travels as null, not a sentinel.
  JobStatus fresh;
  fresh.id = 1;
  const Json encoded = job_to_json(fresh);
  EXPECT_TRUE(encoded.at("best_energy").is_null());
  EXPECT_EQ(job_from_json(encoded).best_energy, kUnevaluated);

  // The durability fields travel too, deadline state included.
  JobStatus durable;
  durable.id = 2;
  durable.state = JobState::kDeadlineExceeded;
  durable.deadline_seconds = 7.5;
  durable.recovered = true;
  const JobStatus durable_decoded = job_from_json(job_to_json(durable));
  EXPECT_EQ(durable_decoded.state, JobState::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(durable_decoded.deadline_seconds, 7.5);
  EXPECT_TRUE(durable_decoded.recovered);
}

TEST(Protocol, IdempotencyKeyDeduplicatesOverTheWire) {
  JobManager manager(small_manager_config());
  Json request = submit_request();
  request.set("idempotency_key", "wire-key");
  const ProtocolReply first = handle_request_line(manager, request.dump());
  ASSERT_TRUE(first.reply.get_bool("ok", false)) << first.reply.dump();
  EXPECT_FALSE(first.reply.get_bool("deduplicated", true));
  const JobId id = static_cast<JobId>(first.reply.at("id").as_int());

  const ProtocolReply second = handle_request_line(manager, request.dump());
  ASSERT_TRUE(second.reply.get_bool("ok", false)) << second.reply.dump();
  EXPECT_TRUE(second.reply.get_bool("deduplicated", false));
  EXPECT_EQ(static_cast<JobId>(second.reply.at("id").as_int()), id);
  // A deduplicated reply reports the job's CURRENT state, which may
  // already be past "queued".
  EXPECT_NO_THROW((void)job_state_from_string(
      second.reply.get_string("state", "")));
  (void)manager.wait(id, 30.0);
  manager.shutdown(JobManager::Drain::kWait);
}

TEST(Protocol, DeadlineSecondsTravelsIntoTheSpec) {
  JobManagerConfig config = small_manager_config(1, 8);
  JobManager manager(config);
  Json blocker = submit_request();
  blocker.set("max_flips", 0).set("seconds", 30.0);
  const ProtocolReply running =
      handle_request_line(manager, blocker.dump());
  ASSERT_TRUE(running.reply.get_bool("ok", false));
  const JobId blocker_id =
      static_cast<JobId>(running.reply.at("id").as_int());

  Json doomed = submit_request();
  doomed.set("deadline_seconds", 0.2);
  const ProtocolReply queued = handle_request_line(manager, doomed.dump());
  ASSERT_TRUE(queued.reply.get_bool("ok", false));
  const JobId id = static_cast<JobId>(queued.reply.at("id").as_int());

  const JobStatus status = manager.wait(id, 30.0);
  EXPECT_EQ(status.state, JobState::kDeadlineExceeded);

  // The deadline travels back out through status replies as text state
  // "deadline" plus the TTL itself.
  Json status_request = Json::object();
  status_request.set("cmd", "status").set("id", id);
  const ProtocolReply reply =
      handle_request_line(manager, status_request.dump());
  EXPECT_EQ(reply.reply.at("job").get_string("state", ""), "deadline");
  EXPECT_DOUBLE_EQ(
      reply.reply.at("job").at("deadline_seconds").as_double(), 0.2);

  EXPECT_TRUE(manager.cancel(blocker_id));
  (void)manager.wait(blocker_id, 30.0);
  manager.shutdown(JobManager::Drain::kWait);
}

TEST(Protocol, JournalFailureAnswersInternalNotBadRequest) {
  const std::string dir = ::testing::TempDir() + "absq_proto_wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  JobManagerConfig config = small_manager_config();
  config.checkpoint_dir = dir;
  JobManager manager(config);

  fail::Registry::instance().arm_from_directives("journal.append=once");
  const ProtocolReply outcome =
      handle_request_line(manager, submit_request().dump());
  fail::Registry::instance().disarm_all();

  EXPECT_FALSE(outcome.reply.get_bool("ok", true));
  EXPECT_EQ(outcome.reply.get_string("code", ""), "internal");
  // Nothing was admitted.
  Json list_request = Json::object();
  list_request.set("cmd", "list");
  const ProtocolReply listed =
      handle_request_line(manager, list_request.dump());
  EXPECT_EQ(listed.reply.at("jobs").size(), 0u);
  manager.shutdown(JobManager::Drain::kWait);
}

}  // namespace
}  // namespace absq::serve
