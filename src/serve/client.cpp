#include "serve/client.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "serve/protocol.hpp"
#include "util/check.hpp"

namespace absq::serve {
namespace {

void throw_for_code(const Json& reply) {
  const std::string code = reply.get_string("code", "internal");
  const std::string error = reply.get_string("error", "request failed");
  if (code == "queue_full") throw QueueFullError(error);
  if (code == "shutting_down") throw ShuttingDownError(error);
  if (code == "not_found") throw JobNotFoundError(error);
  throw CheckError("server replied " + code + ": " + error);
}

/// poll(2) on one fd, retrying EINTR against the remaining budget.
/// Returns false on timeout.
bool poll_fd(int fd, short events, double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (true) {
    const double remaining =
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count();
    if (remaining <= 0.0) return false;
    pollfd waiter{};
    waiter.fd = fd;
    waiter.events = events;
    const int ready =
        ::poll(&waiter, 1, static_cast<int>(remaining * 1000.0) + 1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw ConnectionError(std::string("poll(): ") + std::strerror(errno));
    }
    if (ready > 0) return true;
  }
}

}  // namespace

Client::Client(const std::string& host, int port, ClientConfig config)
    : host_(host),
      port_(port),
      config_(config),
      jitter_(config.backoff_seed) {
  connect();
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::connect() {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int rc =
      ::getaddrinfo(host_.c_str(), std::to_string(port_).c_str(), &hints,
                    &found);
  ABSQ_CHECK(rc == 0 && found != nullptr,
             "cannot resolve '" << host_ << "': " << ::gai_strerror(rc));

  int fd = -1;
  bool timed_out = false;
  std::string reason = "no usable address";
  for (const addrinfo* cursor = found; cursor != nullptr;
       cursor = cursor->ai_next) {
    fd = ::socket(cursor->ai_family, cursor->ai_socktype,
                  cursor->ai_protocol);
    if (fd < 0) {
      reason = std::strerror(errno);
      continue;
    }
    // Non-blocking connect so a black-holed server cannot hang the
    // client past its configured bound.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int connected =
        ::connect(fd, cursor->ai_addr, cursor->ai_addrlen);
    bool usable = connected == 0;
    if (!usable && errno == EINPROGRESS) {
      try {
        if (poll_fd(fd, POLLOUT, config_.connect_timeout_seconds)) {
          int soerr = 0;
          socklen_t len = sizeof(soerr);
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len);
          usable = soerr == 0;
          if (!usable) reason = std::strerror(soerr);
        } else {
          timed_out = true;
          reason = "connect timed out";
        }
      } catch (const ConnectionError& failure) {
        reason = failure.what();
      }
    } else if (!usable) {
      reason = std::strerror(errno);
    }
    if (usable) {
      (void)::fcntl(fd, F_SETFL, flags);  // back to blocking
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0 && timed_out) {
    throw TimeoutError("cannot connect to " + host_ + ":" +
                       std::to_string(port_) + " within " +
                       std::to_string(config_.connect_timeout_seconds) +
                       "s");
  }
  ABSQ_CHECK(fd >= 0, "cannot connect to " << host_ << ":" << port_ << ": "
                                           << reason);
  fd_ = fd;
}

void Client::reconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();  // a half-read reply from the old connection is garbage
  scanned_ = 0;
  connect();
}

std::string Client::read_line() {
  while (true) {
    // Resume the search where the previous read ended: a long reply
    // costs one scan however many reads deliver it.
    const std::size_t newline = buffer_.find('\n', scanned_);
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      scanned_ = 0;
      return line;
    }
    scanned_ = buffer_.size();
    if (!poll_fd(fd_, POLLIN, config_.read_timeout_seconds)) {
      throw TimeoutError("no reply from server within " +
                         std::to_string(config_.read_timeout_seconds) +
                         "s");
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw ConnectionError("server closed the connection");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Client::send_line(const std::string& line) {
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw ConnectionError(std::string("cannot write to server: ") +
                            std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

Json Client::request(const Json& request) {
  try {
    send_line(request.dump() + "\n");
  } catch (const ConnectionError&) {
    // A server that refuses a line mid-send (past its length bound)
    // replies before it closes: read that reason rather than the reset.
    // With no reply buffered, read_line() throws ConnectionError too.
  }
  return Json::parse(read_line());
}

Json Client::request_retry(const Json& request, bool idempotent) {
  double backoff = config_.backoff_initial_seconds;
  const auto sleep_with_jitter = [this, &backoff] {
    // Uniform in [backoff/2, backoff): desynchronizes a retrying fleet.
    const double fraction =
        0.5 + 0.5 * (static_cast<double>(jitter_() >> 11) * 0x1.0p-53);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(backoff * fraction));
    backoff = std::min(backoff * 2.0, config_.backoff_max_seconds);
  };
  for (std::size_t attempt = 0;; ++attempt) {
    const bool last = !idempotent || attempt >= config_.max_retries;
    try {
      Json reply = this->request(request);
      // Backpressure is retryable by construction — a queue_full reply
      // means nothing was admitted.
      if (!last && !reply.get_bool("ok", false) &&
          reply.get_string("code", "") == "queue_full") {
        sleep_with_jitter();
        continue;
      }
      return reply;
    } catch (const TimeoutError&) {
      if (last) throw;
    } catch (const ConnectionError&) {
      if (last) throw;
    }
    // The old connection is suspect after a timeout or a drop: any late
    // reply would desynchronize request/reply pairing. Start clean.
    sleep_with_jitter();
    reconnect();
  }
}

Json Client::request_ok(const Json& request, bool idempotent) {
  Json reply = request_retry(request, idempotent);
  if (!reply.get_bool("ok", false)) throw_for_code(reply);
  return reply;
}

bool Client::ping() {
  Json request = Json::object();
  request.set("cmd", "ping");
  try {
    return request_retry(request, /*idempotent=*/true)
        .get_bool("pong", false);
  } catch (const CheckError&) {
    return false;
  }
}

JobId Client::submit(Json request) { return submit_full(std::move(request)).id; }

SubmitOutcome Client::submit_full(Json request) {
  request.set("cmd", "submit");
  // A keyed submit is safe to repeat: the server answers a duplicate key
  // with the original job. An unkeyed one is not — after an ambiguous
  // failure we cannot know whether the job was admitted.
  const bool idempotent = !request.get_string("idempotency_key", "").empty();
  const Json reply = request_ok(request, idempotent);
  SubmitOutcome outcome;
  outcome.id = static_cast<JobId>(reply.at("id").as_int());
  outcome.deduplicated = reply.get_bool("deduplicated", false);
  return outcome;
}

JobStatus Client::status(JobId id) {
  Json request = Json::object();
  request.set("cmd", "status").set("id", id);
  return job_from_json(request_ok(request).at("job"));
}

JobStatus Client::wait(JobId id, double timeout_seconds,
                       double poll_seconds, double poll_cap_seconds) {
  const bool bounded = timeout_seconds > 0.0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  double interval = std::max(poll_seconds, 1e-4);
  while (true) {
    const JobStatus snapshot = status(id);
    if (is_terminal(snapshot.state)) return snapshot;
    double sleep_seconds = interval;
    if (bounded) {
      const double remaining =
          std::chrono::duration<double>(deadline -
                                        std::chrono::steady_clock::now())
              .count();
      // Deadline hit: this snapshot IS the at-deadline answer.
      if (remaining <= 0.0) return snapshot;
      // Trim the last sleep so the next poll lands ON the deadline, not
      // one full interval past it.
      sleep_seconds = std::min(sleep_seconds, remaining);
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double>(sleep_seconds));
    interval = std::min(interval * 2.0, std::max(poll_cap_seconds,
                                                 poll_seconds));
  }
}

Json Client::result(JobId id) {
  Json request = Json::object();
  request.set("cmd", "result").set("id", id);
  return request_ok(request);
}

bool Client::cancel(JobId id) {
  Json request = Json::object();
  request.set("cmd", "cancel").set("id", id);
  return request_ok(request).get_bool("cancelled", false);
}

Json Client::list() {
  Json request = Json::object();
  request.set("cmd", "list");
  return request_ok(request);
}

std::string Client::metrics() {
  Json request = Json::object();
  request.set("cmd", "metrics");
  return request_ok(request).get_string("prometheus", "");
}

void Client::shutdown_server() {
  Json request = Json::object();
  request.set("cmd", "shutdown");
  request_ok(request);
}

}  // namespace absq::serve
