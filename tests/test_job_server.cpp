// End-to-end tests of the TCP transport: real sockets on an ephemeral
// loopback port, the Client library on one side and a JobServer-backed
// JobManager on the other. TSan tier-1 target (scripts/check.sh).
#include "serve/job_server.hpp"

#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/http_exporter.hpp"
#include "obs/metrics.hpp"
#include "problems/random.hpp"
#include "qubo/io.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "util/failpoint.hpp"

namespace absq::serve {
namespace {

JobManagerConfig small_manager_config(std::size_t slots = 2,
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

std::string inline_problem(std::uint64_t seed = 5) {
  std::ostringstream text;
  write_qubo(text, random_qubo(24, seed));
  return std::move(text).str();
}

Json submit_request(std::uint64_t max_flips = 20000) {
  Json request = Json::object();
  request.set("problem", inline_problem());
  request.set("max_flips", max_flips);
  return request;
}

/// Manager + started server on an ephemeral port.
struct Fixture {
  explicit Fixture(JobManagerConfig config = small_manager_config())
      : manager(std::move(config)), server(manager, {}) {
    server.start();
  }
  ~Fixture() {
    server.stop();
    manager.shutdown(JobManager::Drain::kCancel);
  }
  JobManager manager;
  JobServer server;
};

/// A raw line-oriented connection, for speaking broken protocol on purpose
/// (the Client class refuses to).
class RawConnection {
 public:
  explicit RawConnection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0)
        << std::strerror(errno);
    // A server that never answers fails the test instead of hanging it.
    timeval timeout{};
    timeout.tv_sec = 30;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_text(const std::string& text) {
    ASSERT_EQ(::send(fd_, text.data(), text.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(text.size()));
  }

  /// Sends everything; false once the peer has closed or reset.
  bool try_send(const std::string& text) {
    return ::send(fd_, text.data(), text.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(text.size());
  }

  /// True when the peer closes with nothing more to read.
  bool at_eof() {
    char byte = 0;
    return buffer_.empty() && ::recv(fd_, &byte, 1, 0) == 0;
  }

  [[nodiscard]] int fd() const { return fd_; }

  std::string read_line() {
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::size_t newline = buffer_.find('\n');
    std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return line;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(JobServer, EphemeralPortIsResolved) {
  Fixture fixture;
  EXPECT_GT(fixture.server.port(), 0);
}

TEST(JobServer, PingSubmitResultOverTcp) {
  Fixture fixture;
  Client client("127.0.0.1", fixture.server.port());
  EXPECT_TRUE(client.ping());

  Json request = submit_request();
  request.set("name", "tcp-job");
  const JobId id = client.submit(std::move(request));
  const JobStatus status = client.wait(id, 30.0);
  ASSERT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.name, "tcp-job");

  const Json result = client.result(id);
  EXPECT_EQ(result.at("energy").as_int(), status.best_energy);
  EXPECT_EQ(result.at("solution").as_string().size(), 24u);

  // The wire result matches the in-process result exactly.
  const AbsResult local = fixture.manager.result(id);
  EXPECT_EQ(local.best_energy, result.at("energy").as_int());
  EXPECT_EQ(local.best.to_string(), result.at("solution").as_string());
}

TEST(JobServer, MalformedLinesGetRepliesAndConnectionSurvives) {
  Fixture fixture;
  RawConnection raw(fixture.server.port());
  raw.send_text("this is not json\n");
  Json reply = Json::parse(raw.read_line());
  EXPECT_FALSE(reply.get_bool("ok", true));
  EXPECT_EQ(reply.get_string("code", ""), "bad_request");

  // Blank lines are ignored; the same connection still serves requests.
  raw.send_text("\r\n\n{\"cmd\":\"ping\"}\n");
  reply = Json::parse(raw.read_line());
  EXPECT_TRUE(reply.get_bool("pong", false));

  // ...and the server itself is alive for new connections.
  Client client("127.0.0.1", fixture.server.port());
  EXPECT_TRUE(client.ping());
}

TEST(JobServer, PipelinedRequestsInOneWrite) {
  Fixture fixture;
  RawConnection raw(fixture.server.port());
  raw.send_text("{\"cmd\":\"ping\"}\n{\"cmd\":\"list\"}\n");
  const Json first = Json::parse(raw.read_line());
  const Json second = Json::parse(raw.read_line());
  EXPECT_TRUE(first.get_bool("pong", false));
  EXPECT_TRUE(second.get_bool("ok", false));
  EXPECT_EQ(second.at("jobs").size(), 0u);
}

TEST(JobServer, ConcurrentClientsAllComplete) {
  Fixture fixture;
  constexpr int kClients = 8;
  std::vector<std::thread> workers;
  std::vector<JobState> states(kClients, JobState::kQueued);
  workers.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([&fixture, &states, c] {
      Client client("127.0.0.1", fixture.server.port());
      Json request = submit_request(10000);
      request.set("seed", c + 1);
      const JobId id = client.submit(std::move(request));
      states[static_cast<std::size_t>(c)] = client.wait(id, 60.0).state;
    });
  }
  for (auto& worker : workers) worker.join();
  for (const JobState state : states) {
    EXPECT_EQ(state, JobState::kDone);
  }
  EXPECT_GE(fixture.server.connections_accepted(), 8u);
}

TEST(JobServer, CancelOverTheWire) {
  Fixture fixture;
  Client client("127.0.0.1", fixture.server.port());
  Json request = submit_request();
  request.set("max_flips", 0).set("seconds", 30.0);
  const JobId id = client.submit(std::move(request));
  while (client.status(id).state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_TRUE(client.cancel(id));
  const JobStatus status = client.wait(id, 30.0);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_FALSE(client.cancel(id));  // already terminal
}

TEST(JobServer, BackpressureTravelsTyped) {
  Fixture fixture(small_manager_config(1, 1));
  Client client("127.0.0.1", fixture.server.port());
  Json blocker = submit_request();
  blocker.set("max_flips", 0).set("seconds", 30.0);
  const JobId blocker_id = client.submit(std::move(blocker));
  while (client.status(blocker_id).state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (void)client.submit(submit_request());  // fills the queue
  EXPECT_THROW((void)client.submit(submit_request()), QueueFullError);
  EXPECT_TRUE(client.cancel(blocker_id));
}

TEST(JobServer, UnknownJobTravelsTyped) {
  Fixture fixture;
  Client client("127.0.0.1", fixture.server.port());
  EXPECT_THROW((void)client.status(4242), JobNotFoundError);
}

TEST(JobServer, MetricsCommandScrapesSharedRegistry) {
  obs::MetricsRegistry registry;
  JobManagerConfig config = small_manager_config();
  config.telemetry.metrics = &registry;
  JobManager manager(config);
  JobServerConfig server_config;
  server_config.metrics = &registry;
  JobServer server(manager, server_config);
  server.start();
  {
    Client client("127.0.0.1", server.port());
    const JobId id = client.submit(submit_request());
    (void)client.wait(id, 30.0);
    const std::string text = client.metrics();
    EXPECT_NE(text.find("absq_jobs_submitted 1"), std::string::npos) << text;
    EXPECT_NE(text.find("absq_jobs_completed 1"), std::string::npos) << text;
  }
  server.stop();
  manager.shutdown(JobManager::Drain::kCancel);
}

TEST(JobServer, ShutdownCommandLatchesTheDrain) {
  Fixture fixture;
  EXPECT_FALSE(fixture.server.shutdown_requested());
  Client client("127.0.0.1", fixture.server.port());
  client.shutdown_server();
  fixture.server.wait_shutdown();  // returns because the latch is set
  EXPECT_TRUE(fixture.server.shutdown_requested());
}

TEST(JobServer, StopIsIdempotent) {
  Fixture fixture;
  {
    Client client("127.0.0.1", fixture.server.port());
    EXPECT_TRUE(client.ping());
  }
  fixture.server.stop();
  fixture.server.stop();  // second stop is a no-op
}

TEST(JobServer, ClientConnectToDeadPortThrows) {
  int port = 0;
  {
    Fixture fixture;
    port = fixture.server.port();
  }  // server gone, port closed
  EXPECT_THROW((Client("127.0.0.1", port)), CheckError);
}

// --- resilience: timeouts, retries, durability over the wire --------------

/// Fast-failing retry policy so the fault-injection tests stay quick.
ClientConfig quick_retry_config() {
  ClientConfig config;
  config.read_timeout_seconds = 5.0;
  config.max_retries = 3;
  config.backoff_initial_seconds = 0.01;
  config.backoff_max_seconds = 0.05;
  return config;
}

TEST(JobServer, SilentServerYieldsTypedTimeout) {
  // A listener that accepts into its backlog but never replies: the
  // client connects fine, then every read runs into its timeout.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);

  ClientConfig config = quick_retry_config();
  config.read_timeout_seconds = 0.1;
  config.max_retries = 1;
  Client client("127.0.0.1", port, config);
  Json ping = Json::object();
  ping.set("cmd", "ping");
  // Idempotent, so the timeout IS retried — and when every attempt times
  // out, the typed TimeoutError reaches the caller.
  EXPECT_THROW((void)client.request_retry(ping, /*idempotent=*/true),
               TimeoutError);
  ::close(listener);
}

TEST(JobServer, DeduplicatedSubmitTravelsTheWire) {
  Fixture fixture;
  Client client("127.0.0.1", fixture.server.port());
  Json request = submit_request();
  request.set("idempotency_key", "wire-dedup");
  const SubmitOutcome first = client.submit_full(request);
  EXPECT_FALSE(first.deduplicated);
  const SubmitOutcome second = client.submit_full(request);
  EXPECT_TRUE(second.deduplicated);
  EXPECT_EQ(second.id, first.id);
  EXPECT_EQ(client.wait(first.id, 30.0).state, JobState::kDone);
}

TEST(JobServer, IdempotentSubmitRetriesAcrossADroppedConnection) {
  Fixture fixture;
  Client client("127.0.0.1", fixture.server.port(), quick_retry_config());
  // The next server-side read drops the connection before reading the
  // request — exactly the ambiguous window where a client cannot know
  // whether its submit landed.
  fail::Registry::instance().arm_from_directives("serve.read=once");
  Json request = submit_request();
  request.set("idempotency_key", "retry-key");
  SubmitOutcome outcome;
  EXPECT_NO_THROW(outcome = client.submit_full(std::move(request)));
  EXPECT_GE(fail::Registry::instance().hits("serve.read"), 1u);
  fail::Registry::instance().disarm_all();
  EXPECT_EQ(client.wait(outcome.id, 30.0).state, JobState::kDone);
}

TEST(JobServer, UnkeyedSubmitFailsFastOnADroppedConnection) {
  Fixture fixture;
  // The server's reactor fires serve.read when request bytes arrive on a
  // connection (Reactor::receive), and the client sends nothing before
  // submit(), so the one fire lands on the submit.
  fail::Registry::instance().arm_from_directives("serve.read=once");
  Client client("127.0.0.1", fixture.server.port(), quick_retry_config());
  // No idempotency key, so no auto-retry: after an ambiguous failure the
  // caller must decide (the request may or may not have been admitted).
  EXPECT_THROW((void)client.submit(submit_request()), CheckError);
  fail::Registry::instance().disarm_all();
}

TEST(JobServer, DroppedReplyIsRetriedForIdempotentRequests) {
  Fixture fixture;
  Client client("127.0.0.1", fixture.server.port(), quick_retry_config());
  // The server processes the ping but the reply write is dropped and the
  // connection closed; the idempotent request is simply asked again.
  fail::Registry::instance().arm_from_directives("serve.write=once");
  EXPECT_TRUE(client.ping());
  EXPECT_GE(fail::Registry::instance().hits("serve.write"), 1u);
  fail::Registry::instance().disarm_all();
}

TEST(JobServer, AcceptFaultDropsOneConnectionNotTheServer) {
  Fixture fixture;
  fail::Registry::instance().arm_from_directives("serve.accept=once");
  // The first accepted connection is closed immediately; the client's
  // first request fails and the retry path dials a fresh connection.
  Client client("127.0.0.1", fixture.server.port(), quick_retry_config());
  EXPECT_TRUE(client.ping());
  EXPECT_GE(fail::Registry::instance().hits("serve.accept"), 1u);
  fail::Registry::instance().disarm_all();
}

TEST(JobServer, DeadlineTravelsTheWire) {
  Fixture fixture(small_manager_config(1, 8));
  Client client("127.0.0.1", fixture.server.port());
  Json blocker = submit_request();
  blocker.set("max_flips", 0).set("seconds", 30.0);
  const JobId blocker_id = client.submit(std::move(blocker));
  while (client.status(blocker_id).state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Json doomed = submit_request();
  doomed.set("deadline_seconds", 0.2);
  const JobId id = client.submit(std::move(doomed));
  const JobStatus status = client.wait(id, 30.0);
  EXPECT_EQ(status.state, JobState::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(status.deadline_seconds, 0.2);
  EXPECT_TRUE(client.cancel(blocker_id));
}

// --- the shared reactor: framing, bounds, threads, backpressure ---------

/// Threads of this process, from /proc/self/status.
int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

/// Polls every 5 ms until `done` holds or ~10 s pass.
template <typename Predicate>
bool eventually(Predicate done) {
  for (int i = 0; i < 2000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

// A line is found by one scan, however many reads deliver it: the newline
// search resumes where the previous read ended. Deterministic stand-in
// for counting bytes scanned — a newline planted in the already-scanned
// prefix is never seen, which a framer that rescans from the start of
// the line would report as a line.
TEST(JobServerFraming, NewlineScanResumesWhereTheLastReadEnded) {
  net::Connection connection;
  const std::string chunk(4096, 'x');
  for (int read = 0; read < 256; ++read) {
    connection.inbox += chunk;
    EXPECT_FALSE(connection.take_line().has_value());
    EXPECT_EQ(connection.scanned, connection.inbox.size());
    connection.inbox[connection.scanned - 1] = '\n';  // planted, never seen
  }
  connection.inbox += "tail\nnext";
  const std::optional<std::string> line = connection.take_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->size(), 256 * chunk.size() + 4);
  EXPECT_EQ(line->substr(line->size() - 4), "tail");
  EXPECT_EQ(connection.consumed, line->size() + 1);
  EXPECT_FALSE(connection.take_line().has_value());  // "next" is partial
}

TEST(JobServer, OverBoundLineIsRefusedWhileAnotherClientIsServed) {
  Fixture fixture;
  const int port = fixture.server.port();
  std::atomic<bool> hog_done{false};
  std::string reply;
  std::thread hog([&] {
    RawConnection raw(port);
    // One byte past the bound and no newline: the server reads every
    // byte before it refuses, so its close carries no reset.
    const std::string chunk(std::size_t{1} << 20, 'x');
    for (std::size_t sent = 0; sent < kMaxRequestLineBytes;
         sent += chunk.size()) {
      if (!raw.try_send(chunk)) break;
    }
    (void)raw.try_send("x");
    reply = raw.read_line();
    hog_done.store(true);
  });
  Client client("127.0.0.1", port);
  int pings = 0;
  while (!hog_done.load()) {
    EXPECT_TRUE(client.ping());
    ++pings;
  }
  hog.join();
  EXPECT_GT(pings, 0);
  ASSERT_FALSE(reply.empty());
  const Json parsed = Json::parse(reply);
  EXPECT_FALSE(parsed.get_bool("ok", true));
  EXPECT_EQ(parsed.get_string("code", ""), "bad_request");
  const std::string error = parsed.get_string("error", "");
  EXPECT_NE(error.find(std::to_string(kMaxRequestLineBytes)),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("--by-path"), std::string::npos) << error;
  EXPECT_TRUE(client.ping());
}

TEST(JobServer, IdleClientsCostNoThreads) {
  Fixture fixture;
  const int before = thread_count();
  std::vector<std::unique_ptr<RawConnection>> idle;
  for (std::size_t i = 0; i < net::kMaxConnections; ++i) {
    idle.push_back(std::make_unique<RawConnection>(fixture.server.port()));
  }
  ASSERT_TRUE(eventually([&] {
    return fixture.server.connections_accepted() >= net::kMaxConnections;
  }));
  EXPECT_EQ(thread_count(), before);
}

TEST(JobServer, ConnectionPastTheCapGetsOneBusyLine) {
  Fixture fixture;
  std::vector<std::unique_ptr<RawConnection>> held;
  for (std::size_t i = 0; i < net::kMaxConnections; ++i) {
    held.push_back(std::make_unique<RawConnection>(fixture.server.port()));
    held.back()->send_text("{\"cmd\":\"ping\"}\n");
    EXPECT_TRUE(Json::parse(held.back()->read_line()).get_bool("pong", false));
  }
  // Refused at accept time, before any request bytes (a request sent
  // now would race the server's close into a reset).
  RawConnection extra(fixture.server.port());
  const Json refusal = Json::parse(extra.read_line());
  EXPECT_FALSE(refusal.get_bool("ok", true));
  EXPECT_EQ(refusal.get_string("code", ""), "busy");
  EXPECT_TRUE(extra.at_eof());
  // The held connections are still served.
  held.back()->send_text("{\"cmd\":\"ping\"}\n");
  EXPECT_TRUE(Json::parse(held.back()->read_line()).get_bool("pong", false));
}

TEST(JobServer, PipelinedRequestsWithoutReadingAreAnsweredInOrder) {
  Fixture fixture;
  RawConnection raw(fixture.server.port());
  // The whole batch fits the client's send buffer, so it goes out while
  // the server, blocked on unread replies, stops reading.
  const int buffer = 1 << 20;
  ::setsockopt(raw.fd(), SOL_SOCKET, SO_SNDBUF, &buffer, sizeof(buffer));
  constexpr int kRequests = 10000;
  std::string batch;
  for (int i = 1; i <= kRequests; ++i) {
    batch += "{\"cmd\":\"status\",\"id\":" + std::to_string(i) + "}\n";
  }
  raw.send_text(batch);
  for (int i = 1; i <= kRequests; ++i) {
    const Json reply = Json::parse(raw.read_line());
    ASSERT_EQ(reply.get_string("code", ""), "not_found");
    ASSERT_EQ(reply.get_string("error", ""),
              "no such job id " + std::to_string(i));
  }
}

/// Lowers the soft RLIMIT_NOFILE for one scope.
class FdLimit {
 public:
  explicit FdLimit(rlim_t soft) {
    ::getrlimit(RLIMIT_NOFILE, &saved_);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~FdLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  FdLimit(const FdLimit&) = delete;
  FdLimit& operator=(const FdLimit&) = delete;

 private:
  rlimit saved_{};
};

/// One past the highest descriptor this process holds.
int fd_ceiling() {
  int highest = 2;
  DIR* dir = ::opendir("/proc/self/fd");
  while (const dirent* entry = ::readdir(dir)) {
    highest = std::max(highest, std::atoi(entry->d_name));
  }
  ::closedir(dir);
  return highest + 1;
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// fd exhaustion: accept(2) fails with EMFILE on both ports while
// connections wait in their backlogs. Neither loop may spin on the
// readable listener, and once the burst closes both ports answer again.
TEST(JobServer, AcceptErrorsNeitherKillThePortsNorSpinTheLoops) {
  Fixture fixture;
  obs::HttpExporter http({});
  http.start();
  {
    FdLimit limit(static_cast<rlim_t>(fd_ceiling() + 32));
    std::vector<int> burst;
    for (int i = 0; i < 8; ++i) {
      burst.push_back(::socket(AF_INET, SOCK_STREAM, 0));
    }
    // Fill every other descriptor slot, so no accept can succeed.
    for (int fd; (fd = ::dup(burst[0])) >= 0;) burst.push_back(fd);
    for (int i = 0; i < 8; ++i) {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(
          i % 2 == 0 ? fixture.server.port() : http.port()));
      ASSERT_EQ(::connect(burst[static_cast<std::size_t>(i)],
                          reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr)),
                0)
          << std::strerror(errno);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const double cpu_before = process_cpu_seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    // Both loops idle at a back-off; a spinning one burns the window.
    EXPECT_LT(process_cpu_seconds() - cpu_before, 0.2);
    for (const int fd : burst) ::close(fd);

    Client client("127.0.0.1", fixture.server.port(), quick_retry_config());
    EXPECT_TRUE(client.ping());
    RawConnection scrape(http.port());
    scrape.send_text("GET /healthz HTTP/1.0\r\n\r\n");
    EXPECT_EQ(scrape.read_line(), "HTTP/1.1 200 OK\r");
  }
}

}  // namespace
}  // namespace absq::serve
