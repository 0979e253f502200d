// JobServer — the TCP transport of the serving layer.
//
// Speaks the line-delimited JSON protocol (serve/protocol.hpp) on a
// loopback port served by one net::Reactor (util/reactor.hpp): one I/O
// thread for every connection, however many clients connect. This file
// keeps only the newline framing. The reactor owns the socket, the
// connection cap (net::kMaxConnections; one more client gets a `busy`
// line and is closed), the idle sweep, and backpressure (a client that
// does not read its replies is not read either).
//
// The server itself never schedules work — every request line is handed to
// handle_request_line against the shared JobManager on the reactor
// thread, and every failure (malformed JSON, unknown command, queue
// backpressure, a line past kMaxRequestLineBytes) is a one-line
// `ok:false` reply. Nothing a client sends can kill the process.
//
// Shutdown choreography (shared by the `shutdown` command and SIGTERM in
// absq_serve): request_shutdown() flips a latch that wait_shutdown()
// observers see — for the command, only once its reply is sent; the owner
// then calls stop() to close the listener and every connection, and
// finally drains the JobManager itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "obs/metrics.hpp"
#include "serve/job_manager.hpp"
#include "util/reactor.hpp"

namespace absq::serve {

/// Longest request line the job port accepts: 64 MiB, ~140× the 0.47 MB
/// submit of a dense 256-bit instance. A longer line gets one
/// `bad_request` reply and the connection closes; larger problems travel
/// by server-local path (`"file"`, absq_client --by-path).
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{64} << 20;

struct JobServerConfig {
  /// Port to bind on loopback; 0 picks an ephemeral port (see port()).
  int port = 0;
  /// Close a connection after this long with no I/O.
  double idle_timeout_seconds = 300.0;
  /// Backs the `metrics` command (null = command replies `unavailable`).
  const obs::MetricsRegistry* metrics = nullptr;
};

class JobServer {
 public:
  /// The manager must outlive the server.
  JobServer(JobManager& manager, JobServerConfig config);
  /// Calls stop().
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Binds, listens, and starts the reactor thread. Throws CheckError
  /// when the port cannot be bound.
  void start();

  /// The actual bound port (resolves port 0 requests).
  [[nodiscard]] int port() const { return port_; }

  /// Latches the shutdown request (from the `shutdown` command or a signal
  /// handler's behalf). Idempotent; does not block.
  void request_shutdown();
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }
  /// Blocks until request_shutdown() is called.
  void wait_shutdown();

  /// Closes the listener and every connection and joins the reactor
  /// thread. Safe to call twice; does NOT drain the JobManager — the
  /// owner does that after the transport is quiet.
  void stop() { reactor_.stop(); }

  /// Connections served so far (accepted, including already-closed ones).
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return reactor_.connections_accepted();
  }

 private:
  /// The reactor's protocol: answers the next complete line, if any.
  bool serve_line(net::Connection& connection);

  JobManager& manager_;
  JobServerConfig config_;
  int port_ = 0;
  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  net::Reactor reactor_;  // last: its thread stops before the rest dies
};

}  // namespace absq::serve
