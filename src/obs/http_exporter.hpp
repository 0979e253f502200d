// HTTP exporter — the live observability surface of a running process.
//
// A minimal poll()-based HTTP/1.1 listener (GET-only) that serves the
// observability sinks while the solver runs, instead of only exporting
// files at shutdown:
//
//   GET /healthz   200 "ok"                      liveness probe
//   GET /metrics   Prometheus text exposition    from the MetricsRegistry
//                  (plus absq_trace_*_total from the tracer when attached)
//   GET /trace     Chrome trace_event JSON       EventTracer ring snapshot
//   GET /status    application/json              owner-provided handler
//                  (absq_serve: job table / queue / slots / device health;
//                  default: uptime + request counters)
//   GET /          text index of the endpoints
//
// Transport model: the shared net::Reactor (util/reactor.hpp), the same
// single-thread poll() loop that serves the job port — non-blocking
// sockets, responses queued per connection and sent on POLLOUT, so a slow
// scraper can never stall the loop (or the solver — scrapes read
// relaxed-atomic shards). This file keeps only HTTP head parsing and
// routing. Keep-alive is honoured for HTTP/1.1; connections are bounded
// (net::kMaxConnections, excess gets 503+close), request heads are
// bounded (kMaxRequestHeadBytes, excess gets 431+close), and an idle
// connection is closed after `idle_timeout_seconds` (slow-loris defence).
//
// Security posture: binds 127.0.0.1 only; GET-only, no request bodies,
// nothing a client sends reaches the solver. A failing /status handler
// becomes a 500 reply, never a crash.
//
// Every sink is optional: a null registry turns /metrics into 503, a null
// tracer does the same for /trace — the exporter itself keeps serving
// /healthz either way.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/reactor.hpp"
#include "util/stopwatch.hpp"

namespace absq::obs {

/// Request-head bound (request line + headers); excess gets 431 + close.
inline constexpr std::size_t kMaxRequestHeadBytes = 8192;

struct HttpExporterConfig {
  /// Port to bind on loopback; 0 picks an ephemeral port (see port()).
  int port = 0;
  /// Close a connection with no I/O for this long.
  double idle_timeout_seconds = 60.0;
  /// Metrics source for /metrics; also receives the exporter's own
  /// absq_http_requests_total series. Null = /metrics replies 503.
  MetricsRegistry* metrics = nullptr;
  /// Trace source for /trace and the absq_trace_*_total series appended
  /// to /metrics. Null = /trace replies 503.
  const EventTracer* tracer = nullptr;
  /// Body of /status (application/json). Runs on the exporter thread —
  /// must be thread-safe against the rest of the process. Null = a
  /// built-in uptime/request-count body.
  std::function<std::string()> status;
};

class HttpExporter {
 public:
  explicit HttpExporter(HttpExporterConfig config);
  /// Calls stop().
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Binds, listens, and starts the event-loop thread. Throws CheckError
  /// when the port cannot be bound.
  void start();
  /// Closes the listener and every connection, joins the loop thread.
  /// Idempotent; start() may follow.
  void stop() { reactor_.stop(); }

  /// The actual bound port (resolves port 0 requests).
  [[nodiscard]] int port() const { return port_; }

  /// Requests fully parsed and answered (any status code).
  [[nodiscard]] std::uint64_t requests_served() const {
    // absq-lint: allow(atomic-audit) cold read of a monotonic stat counter
    return requests_.load(std::memory_order_relaxed);
  }
  /// Connections ever accepted (including 503-rejected ones).
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return reactor_.connections_accepted();
  }

 private:
  /// The reactor's protocol: parses and answers the next complete head.
  bool serve_request(net::Connection& connection);
  /// Routes one parsed GET to its endpoint body.
  void respond(net::Connection& connection, const std::string& method,
               const std::string& target, bool keep_alive);
  void enqueue_response(net::Connection& connection, int code,
                        const std::string& content_type,
                        const std::string& body, bool keep_alive);
  [[nodiscard]] std::string metrics_body() const;
  [[nodiscard]] std::string default_status_body() const;

  HttpExporterConfig config_;
  int port_ = 0;
  std::atomic<std::uint64_t> requests_{0};
  Stopwatch uptime_;

  // Exporter self-observation (registered when a registry is attached).
  Counter* m_requests_ = nullptr;
  Counter* m_not_found_ = nullptr;
  Counter* m_rejected_ = nullptr;

  net::Reactor reactor_;  // last: its thread stops before the rest dies
};

/// Prometheus text for the tracer's own health counters
/// (absq_trace_recorded_total / absq_trace_dropped_total) — appended to
/// /metrics so ring overflow is visible live, not just in post-mortems.
[[nodiscard]] std::string tracer_prometheus(const EventTracer& tracer);

}  // namespace absq::obs
