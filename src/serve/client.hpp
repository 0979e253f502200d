// Client — a resilient blocking connection to an absq_serve process.
//
// Wraps one TCP connection and the line-delimited JSON protocol: each
// request() writes one JSON line and blocks for the one-line reply. The
// typed wrappers (submit/status/result/cancel/...) re-raise the server's
// error codes as the same typed exceptions the JobManager itself throws,
// so in-process and over-the-wire callers handle failures identically.
//
// Resilience: connects and reads are bounded by ClientConfig timeouts
// (TimeoutError — the server is hung or unreachable, not wrong), and
// *idempotent* requests auto-retry with jittered exponential backoff
// across reconnects: every read-only command, cancel, and any submit that
// carries an idempotency_key (resubmitting the key returns the original
// job, so a dropped reply cannot duplicate work). A plain submit is never
// retried automatically — after an ambiguous failure the caller cannot
// know whether the job was admitted (docs/serving.md).
//
// Used by the absq_client tool, scripts/chaos_smoke.sh and
// tests/test_job_server.cpp.
#pragma once

#include <cstdint>
#include <string>

#include "serve/job.hpp"
#include "serve/json.hpp"
#include "util/rng.hpp"

namespace absq::serve {

/// The TCP connection dropped mid-request (reset, premature close).
/// Distinct from TimeoutError: the peer actively went away rather than
/// going silent. Retried automatically for idempotent requests.
class ConnectionError : public CheckError {
 public:
  explicit ConnectionError(const std::string& what) : CheckError(what) {}
};

struct ClientConfig {
  /// Bound on establishing the TCP connection; TimeoutError past it.
  double connect_timeout_seconds = 10.0;
  /// Bound on waiting for a reply line; TimeoutError past it.
  double read_timeout_seconds = 60.0;
  /// Automatic retry attempts (beyond the first try) for idempotent
  /// requests that hit a timeout, a dropped connection, or queue_full
  /// backpressure. 0 disables auto-retry.
  std::size_t max_retries = 4;
  /// First backoff sleep; doubles per attempt up to the cap, with a
  /// uniform jitter in [0.5, 1.0) of the nominal value so a fleet of
  /// retrying clients does not stampede in lockstep.
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 2.0;
  /// Seed of the deterministic jitter stream (tests pin it).
  std::uint64_t backoff_seed = 1;
};

class Client {
 public:
  /// Connects immediately; throws CheckError when the server is
  /// unreachable and TimeoutError when connecting exceeds the configured
  /// bound. `host` is a numeric address or name ("127.0.0.1",
  /// "localhost").
  Client(const std::string& host, int port, ClientConfig config = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request object, returns the raw reply object — exactly one
  /// attempt, no retries. Throws ConnectionError when the connection
  /// drops, TimeoutError when the reply does not arrive in time,
  /// CheckError when the reply is not JSON. Does NOT throw on `ok:false`
  /// replies — use expect_ok / the typed wrappers.
  Json request(const Json& request);

  /// request() with the retry policy applied: when `idempotent`, a
  /// timeout / dropped connection / queue_full reply is retried up to
  /// max_retries times with jittered exponential backoff, reconnecting
  /// first. Non-idempotent requests behave exactly like request().
  Json request_retry(const Json& request, bool idempotent);

  /// request_retry() + throw the typed exception matching the error code
  /// when the reply is not ok (queue_full → QueueFullError, shutting_down
  /// → ShuttingDownError, not_found → JobNotFoundError, else CheckError).
  Json request_ok(const Json& request, bool idempotent = true);

  /// Drops the current connection and dials again (same host/port).
  /// Throws like the constructor.
  void reconnect();

  /// True when the server answered the ping.
  bool ping();

  /// Submits and returns the new job id. `request` must carry the submit
  /// payload fields (problem/file, format, stop criteria, ...); the cmd
  /// member is filled in here. Auto-retries only when the payload carries
  /// an idempotency_key (see class comment).
  JobId submit(Json request);
  /// submit(), but also reporting whether the server deduplicated the
  /// request against an earlier submission with the same idempotency_key.
  SubmitOutcome submit_full(Json request);

  JobStatus status(JobId id);
  /// Blocks until the job is terminal or `timeout_seconds` elapses (<= 0
  /// waits forever); returns the status either way. Polls with a capped
  /// exponential interval — `poll_seconds` initially, doubling to
  /// `poll_cap_seconds` — and trims the last sleep so the deadline is
  /// honoured exactly (a final status is fetched AT the deadline, not
  /// after it).
  JobStatus wait(JobId id, double timeout_seconds = 0.0,
                 double poll_seconds = 0.01,
                 double poll_cap_seconds = 1.0);
  /// Full result reply of a finished job (members: job, solution, energy,
  /// reached_target, ...).
  Json result(JobId id);
  /// True when the cancel took effect (the job was queued or running).
  bool cancel(JobId id);
  /// Status of every job the server knows, ordered by id.
  Json list();
  /// Prometheus text exposition from the server's registry.
  std::string metrics();
  /// Asks the server to drain and exit.
  void shutdown_server();

 private:
  void connect();
  std::string read_line();
  void send_line(const std::string& line);

  std::string host_;
  int port_ = 0;
  ClientConfig config_;
  Rng jitter_;
  int fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;  ///< prefix of buffer_ known to hold no '\n'
};

}  // namespace absq::serve
