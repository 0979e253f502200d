// HTTP exporter tests: real sockets on ephemeral loopback ports — the
// happy path for every endpoint, the abuse cases (oversized heads, slow
// loris, unknown paths, connection floods), and concurrent scrapes
// against a live solver job. TSan tier-1 target (scripts/check.sh).
#include "obs/http_exporter.hpp"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "problems/random.hpp"
#include "qubo/energy.hpp"
#include "serve/job_manager.hpp"
#include "serve/json.hpp"
#include "serve/status.hpp"
#include "util/check.hpp"

namespace absq::obs {
namespace {

/// A blocking test-side HTTP connection. Deliberately minimal: writes raw
/// bytes, reads until EOF or a parsed Content-Length is satisfied.
class HttpClient {
 public:
  explicit HttpClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~HttpClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  void send_raw(const std::string& bytes) const {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  struct Response {
    int code = 0;
    std::string head;
    std::string body;
  };

  /// Reads exactly one response (status line + headers + Content-Length
  /// body). Returns code 0 when the peer closed before a full head.
  Response read_response() {
    Response response;
    while (buffer_.find("\r\n\r\n") == std::string::npos) {
      if (!fill()) return response;
    }
    const std::size_t head_end = buffer_.find("\r\n\r\n");
    response.head = buffer_.substr(0, head_end);
    buffer_.erase(0, head_end + 4);
    response.code = std::atoi(response.head.c_str() + 9);  // "HTTP/1.1 "
    std::size_t content_length = 0;
    std::size_t at = response.head.find("Content-Length: ");
    if (at != std::string::npos) {
      content_length = static_cast<std::size_t>(
          std::atoll(response.head.c_str() + at + 16));
    }
    while (buffer_.size() < content_length) {
      if (!fill()) break;
    }
    response.body = buffer_.substr(0, content_length);
    buffer_.erase(0, content_length);
    return response;
  }

  /// True when the server has closed the connection (blocking read 0).
  bool closed_by_peer() {
    while (fill()) {
    }
    return peer_closed_;
  }

 private:
  bool fill() {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      peer_closed_ = n == 0;
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
  bool peer_closed_ = false;
};

HttpClient::Response get(int port, const std::string& target) {
  HttpClient client(port);
  client.send_raw("GET " + target +
                  " HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
  return client.read_response();
}

TEST(HttpExporter, HealthzAndIndex) {
  HttpExporter exporter({});
  exporter.start();
  EXPECT_GT(exporter.port(), 0);
  const auto health = get(exporter.port(), "/healthz");
  EXPECT_EQ(health.code, 200);
  EXPECT_EQ(health.body, "ok\n");
  const auto index = get(exporter.port(), "/");
  EXPECT_EQ(index.code, 200);
  EXPECT_NE(index.body.find("/metrics"), std::string::npos);
  exporter.stop();
  EXPECT_EQ(exporter.requests_served(), 2u);
}

TEST(HttpExporter, MetricsEndpointServesRegistryAndTracerTotals) {
  MetricsRegistry registry;
  registry.counter("absq_test_total", Labels{{"kind", "unit"}}).add(7);
  EventTracer tracer;
  tracer.instant("tick", "test", 1, 0);

  HttpExporterConfig config;
  config.metrics = &registry;
  config.tracer = &tracer;
  HttpExporter exporter(std::move(config));
  exporter.start();
  const auto response = get(exporter.port(), "/metrics");
  EXPECT_EQ(response.code, 200);
  EXPECT_NE(response.head.find("text/plain"), std::string::npos);
  EXPECT_NE(response.body.find("absq_test_total{kind=\"unit\"} 7"),
            std::string::npos);
  // The exporter's own series appear in the same scrape.
  EXPECT_NE(response.body.find("absq_http_requests_total"),
            std::string::npos);
  // Tracer health counters ride along (satellite: live ring-drop
  // visibility).
  EXPECT_NE(response.body.find("absq_trace_recorded_total 1"),
            std::string::npos);
  EXPECT_NE(response.body.find("absq_trace_dropped_total 0"),
            std::string::npos);
}

TEST(HttpExporter, MetricsWithoutRegistryIs503ButHealthzStillServes) {
  HttpExporter exporter({});
  exporter.start();
  EXPECT_EQ(get(exporter.port(), "/metrics").code, 503);
  EXPECT_EQ(get(exporter.port(), "/trace").code, 503);
  EXPECT_EQ(get(exporter.port(), "/healthz").code, 200);
}

TEST(HttpExporter, TraceEndpointIsChromeJson) {
  EventTracer tracer;
  tracer.instant("tick", "test", 3, 4);
  HttpExporterConfig config;
  config.tracer = &tracer;
  HttpExporter exporter(std::move(config));
  exporter.start();
  const auto response = get(exporter.port(), "/trace");
  EXPECT_EQ(response.code, 200);
  const serve::Json parsed = serve::Json::parse(response.body);
  ASSERT_TRUE(parsed.at("traceEvents").is_array());
  EXPECT_EQ(parsed.at("traceEvents").size(), 1u);
}

TEST(HttpExporter, StatusHandlerDefaultCustomAndThrowing) {
  HttpExporter plain({});
  plain.start();
  const auto default_body = get(plain.port(), "/status");
  EXPECT_EQ(default_body.code, 200);
  EXPECT_NE(default_body.body.find("uptime_seconds"), std::string::npos);
  plain.stop();

  HttpExporterConfig config;
  config.status = [] { return std::string("{\"custom\":true}"); };
  HttpExporter custom(std::move(config));
  custom.start();
  EXPECT_EQ(get(custom.port(), "/status").body, "{\"custom\":true}");
  custom.stop();

  HttpExporterConfig throwing;
  throwing.status = []() -> std::string {
    throw CheckError("status exploded");
  };
  HttpExporter broken(std::move(throwing));
  broken.start();
  EXPECT_EQ(get(broken.port(), "/status").code, 500);
}

TEST(HttpExporter, UnknownPathIs404AndCounted) {
  MetricsRegistry registry;
  HttpExporterConfig config;
  config.metrics = &registry;
  HttpExporter exporter(std::move(config));
  exporter.start();
  EXPECT_EQ(get(exporter.port(), "/definitely/not/here").code, 404);
  const auto scrape = get(exporter.port(), "/metrics");
  EXPECT_NE(scrape.body.find("absq_http_not_found_total 1"),
            std::string::npos);
}

TEST(HttpExporter, NonGetMethodIs405) {
  HttpExporter exporter({});
  exporter.start();
  HttpClient client(exporter.port());
  client.send_raw(
      "POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(client.read_response().code, 405);
}

TEST(HttpExporter, MalformedRequestLineIs400) {
  HttpExporter exporter({});
  exporter.start();
  HttpClient client(exporter.port());
  client.send_raw("NONSENSE\r\n\r\n");
  EXPECT_EQ(client.read_response().code, 400);
}

TEST(HttpExporter, OversizedRequestHeadIs431) {
  HttpExporter exporter({});
  exporter.start();
  HttpClient client(exporter.port());
  // A request line that never ends — longer than the head bound.
  client.send_raw("GET /" + std::string(kMaxRequestHeadBytes, 'a'));
  const auto response = client.read_response();
  EXPECT_EQ(response.code, 431);
  EXPECT_TRUE(client.closed_by_peer());
}

TEST(HttpExporter, SlowLorisHitsIdleTimeout) {
  HttpExporterConfig config;
  config.idle_timeout_seconds = 0.2;
  HttpExporter exporter(std::move(config));
  exporter.start();
  HttpClient client(exporter.port());
  // A partial request that never completes: the server must drop the
  // connection after the idle timeout instead of holding it forever.
  client.send_raw("GET /healthz HTTP/1.1\r\nHost: t");
  const auto response = client.read_response();
  EXPECT_EQ(response.code, 0);  // no response — just a close
  EXPECT_TRUE(client.closed_by_peer());
}

TEST(HttpExporter, KeepAliveServesMultipleRequestsOnOneConnection) {
  HttpExporter exporter({});
  exporter.start();
  HttpClient client(exporter.port());
  client.send_raw("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(client.read_response().code, 200);
  client.send_raw("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(client.read_response().code, 200);
  // Pipelined pair in one write: both answered in order.
  client.send_raw(
      "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
      "GET / HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(client.read_response().code, 200);
  EXPECT_EQ(client.read_response().code, 200);
  EXPECT_TRUE(client.closed_by_peer());
  EXPECT_EQ(exporter.requests_served(), 4u);
}

TEST(HttpExporter, Http10ClosesAfterResponse) {
  HttpExporter exporter({});
  exporter.start();
  HttpClient client(exporter.port());
  client.send_raw("GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_EQ(client.read_response().code, 200);
  EXPECT_TRUE(client.closed_by_peer());
}

TEST(HttpExporter, ConnectionFloodBeyondBoundGets503) {
  HttpExporter exporter({});
  exporter.start();
  // Cap-many keep-alive connections occupy the bound...
  std::vector<std::unique_ptr<HttpClient>> held;
  for (std::size_t i = 0; i < net::kMaxConnections; ++i) {
    held.push_back(std::make_unique<HttpClient>(exporter.port()));
    held.back()->send_raw("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    EXPECT_EQ(held.back()->read_response().code, 200);
  }
  // ...so the next is turned away at the door — the 503 is sent at
  // accept time, before any request bytes. (Sending a request here
  // would race the server's close into an RST: it never reads the
  // inbox of a rejected connection.)
  HttpClient extra(exporter.port());
  const auto response = extra.read_response();
  EXPECT_EQ(response.code, 503);
  EXPECT_TRUE(extra.closed_by_peer());
  // The held connections are still served.
  held.front()->send_raw("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(held.front()->read_response().code, 200);
}

TEST(HttpExporter, StopIsIdempotentAndRestartable) {
  HttpExporter exporter({});
  exporter.start();
  EXPECT_EQ(get(exporter.port(), "/healthz").code, 200);
  exporter.stop();
  exporter.stop();  // second stop is a no-op
  exporter.start();  // and a stopped exporter starts again
  EXPECT_EQ(get(exporter.port(), "/healthz").code, 200);
}

// The acceptance case: concurrent scrapes against a registry that a live
// solver job is writing into, with bit-identical solver results. Run
// under TSan in tier 2 (scripts/check.sh tsan).
TEST(HttpExporter, ConcurrentScrapesDuringRunningJob) {
  MetricsRegistry registry;
  EventTracer tracer;

  serve::JobManagerConfig manager_config;
  manager_config.solver_slots = 1;
  manager_config.solver.num_devices = 1;
  manager_config.solver.device.block_limit = 4;
  manager_config.solver.device.local_steps = 32;
  manager_config.solver.pool_capacity = 16;
  manager_config.solver.telemetry.metrics = &registry;
  manager_config.solver.telemetry.tracer = &tracer;
  manager_config.telemetry.metrics = &registry;
  serve::JobManager manager(manager_config);

  HttpExporterConfig config;
  config.metrics = &registry;
  config.tracer = &tracer;
  config.status = [&manager, &registry] {
    return serve::status_json(manager, &registry, 0.0);
  };
  HttpExporter exporter(std::move(config));
  exporter.start();
  const int port = exporter.port();

  const auto w = std::make_shared<WeightMatrix>(random_qubo(32, 9));
  serve::JobSpec spec;
  spec.problem = w;
  spec.stop.max_flips = 200000;
  const serve::JobId id = manager.submit(std::move(spec));

  // Hammer every endpoint from two scrapers while the job runs.
  std::vector<std::thread> scrapers;
  std::atomic<bool> done{false};
  scrapers.emplace_back([&] {
    while (!done.load()) {
      EXPECT_EQ(get(port, "/metrics").code, 200);
      EXPECT_EQ(get(port, "/status").code, 200);
    }
  });
  scrapers.emplace_back([&] {
    while (!done.load()) {
      EXPECT_EQ(get(port, "/trace").code, 200);
      EXPECT_EQ(get(port, "/healthz").code, 200);
    }
  });
  const serve::JobStatus status = manager.wait(id);
  done.store(true);
  for (auto& scraper : scrapers) scraper.join();
  EXPECT_EQ(status.state, serve::JobState::kDone);

  // The scrape carries the per-job slice the manager stamped.
  const auto scrape = get(port, "/metrics");
  EXPECT_NE(scrape.body.find("absq_device_flips_total{device=\"0\",job=\"" +
                             std::to_string(id) + "\"}"),
            std::string::npos);
  // And the solver's answer survives the scraping unperturbed: the
  // reported best assignment re-evaluates to exactly the reported energy
  // (scrapes read relaxed atomics; they can never touch search state).
  const AbsResult final_result = manager.result(id);
  EXPECT_EQ(full_energy(*w, final_result.best), final_result.best_energy);
}

TEST(TracerPrometheus, EmitsRecordedAndDroppedTotals) {
  EventTracer tracer(/*capacity=*/16);
  for (int i = 0; i < 64; ++i) tracer.instant("tick", "test", 0, 0);
  const std::string text = tracer_prometheus(tracer);
  EXPECT_NE(text.find("# TYPE absq_trace_dropped_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("absq_trace_recorded_total 64"), std::string::npos);
  EXPECT_NE(text.find("absq_trace_dropped_total 48"), std::string::npos);
}

}  // namespace
}  // namespace absq::obs
