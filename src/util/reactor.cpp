#include "util/reactor.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace absq::net {
namespace {

/// Poll period: the idle sweep and a paused listener are re-checked at
/// least this often.
constexpr int kPollMs = 50;
/// Bytes asked of one recv(2).
constexpr std::size_t kReadChunk = 64 * 1024;

bool would_block(int error) {
  // EWOULDBLOCK aliases EAGAIN on Linux; comparing both trips
  // -Wlogical-op, so only check the alias where it is distinct.
  return error == EAGAIN
#if EWOULDBLOCK != EAGAIN
         || error == EWOULDBLOCK
#endif
      ;
}

/// accept(2) errors that mean "no descriptor or buffer right now", not
/// "the listener is broken".
bool out_of_resources(int error) {
  return error == EMFILE || error == ENFILE || error == ENOBUFS ||
         error == ENOMEM;
}

bool fault(const char* failpoint) {
  return failpoint != nullptr && fail::triggered(failpoint);
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::optional<std::string> Connection::take_line() {
  const std::size_t newline = inbox.find('\n', scanned);
  if (newline == std::string::npos) {
    scanned = inbox.size();
    return std::nullopt;
  }
  std::string line = inbox.substr(consumed, newline - consumed);
  consumed = scanned = newline + 1;
  return line;
}

Reactor::Reactor(Protocol protocol) : protocol_(std::move(protocol)) {}

Reactor::~Reactor() { stop(); }

int Reactor::start(int port, double idle_timeout_seconds) {
  ABSQ_CHECK(listen_fd_ < 0, "Reactor::start called twice");
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  ABSQ_CHECK(fd >= 0, "socket(): " << std::strerror(errno));
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  socklen_t length = sizeof(addr);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &length) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd);
    ABSQ_CHECK(false, "cannot bind 127.0.0.1:" << port << ": " << reason);
  }
  listen_fd_ = fd;
  idle_timeout_seconds_ = idle_timeout_seconds;
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  return static_cast<int>(ntohs(addr.sin_port));
}

void Reactor::stop() {
  if (!thread_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  // Shutting a listener down wakes a poll() that waits on it at once.
  ::shutdown(listen_fd_, SHUT_RDWR);
  thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Reactor::loop() {
  std::vector<Connection> connections;
  std::vector<pollfd> waiters;
  double listener_paused_until = 0.0;
  while (!stopping_.load(std::memory_order_acquire)) {
    const bool listening = monotonic_seconds() >= listener_paused_until;
    waiters.clear();
    // poll() skips a negative fd: a paused listener stays out of the set.
    waiters.push_back({listening ? listen_fd_ : -1, POLLIN, 0});
    for (const Connection& connection : connections) {
      // Backpressure: a connection with reply bytes pending is not read.
      const short events = connection.outbox.empty() ? POLLIN : POLLOUT;
      waiters.push_back({connection.fd_, events, 0});
    }
    if (::poll(waiters.data(), waiters.size(), kPollMs) < 0 &&
        errno != EINTR) {
      // Out of memory, or fewer descriptors allowed than polled: wait a
      // period rather than spin.
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
    const double now = monotonic_seconds();

    // `waiters[i + 1]` pairs with `connections[i]`.
    for (std::size_t i = 0; i < connections.size(); ++i) {
      Connection& connection = connections[i];
      if (waiters[i + 1].revents != 0) {
        // An error or hangup shows up in the recv() or send() result.
        if (connection.outbox.empty()) receive(connection, now);
        if (connection.fd_ >= 0) pump(connection, now);
      }
      if (connection.fd_ >= 0 &&
          now - connection.last_activity_ > idle_timeout_seconds_) {
        drop(connection);
      }
    }
    const auto closed =
        std::remove_if(connections.begin(), connections.end(),
                       [](const Connection& c) { return c.fd_ < 0; });
    // A freed descriptor is the cue to accept again.
    if (closed != connections.end()) listener_paused_until = 0.0;
    connections.erase(closed, connections.end());

    if ((waiters[0].revents & POLLIN) != 0) {
      accept_all(connections, now, listener_paused_until);
    }
  }
  for (Connection& connection : connections) drop(connection);
}

void Reactor::accept_all(std::vector<Connection>& connections, double now,
                         double& listener_paused_until) {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (out_of_resources(errno)) {
        listener_paused_until = now + kPollMs / 1000.0;
      }
      return;  // backlog drained (or the listener is shutting down)
    }
    // Fault-injection site: the fresh connection is dropped on the floor;
    // the client sees a reset before any request.
    if (fault(protocol_.accept_failpoint)) {
      ::close(fd);
      continue;
    }
    // absq-lint: allow(relaxed-order) — monotonic statistic, no ordering.
    accepted_.fetch_add(1, std::memory_order_relaxed);
    if (connections.size() >= kMaxConnections) {
      const std::string refusal = protocol_.refusal();
      // absq-lint: allow(hot-path-blocking) not a hot path — best-effort
      // single non-blocking write on a fresh socket.
      (void)::send(fd, refusal.data(), refusal.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    Connection& connection = connections.emplace_back();
    connection.fd_ = fd;
    connection.last_activity_ = now;
  }
}

void Reactor::receive(Connection& connection, double now) {
  // Fault-injection site: the connection dies before a read.
  if (fault(protocol_.read_failpoint)) {
    drop(connection);
    return;
  }
  char chunk[kReadChunk];
  const ssize_t n = ::recv(connection.fd_, chunk, sizeof(chunk), 0);
  if (n > 0) {
    connection.inbox.erase(0, connection.consumed);
    connection.scanned = std::max(connection.scanned, connection.consumed) -
                         connection.consumed;
    connection.consumed = 0;
    connection.inbox.append(chunk, static_cast<std::size_t>(n));
    connection.last_activity_ = now;
  } else if (n == 0 || (errno != EINTR && !would_block(errno))) {
    drop(connection);  // peer closed, or the connection broke
  }
}

void Reactor::pump(Connection& connection, double now) {
  while (connection.fd_ >= 0) {
    std::string& outbox = connection.outbox;
    if (connection.sent_ < outbox.size()) {
      // Fault-injection site: the reply is lost after the request took
      // effect — the ambiguous outcome idempotent retries exist for.
      if (fault(protocol_.write_failpoint)) {
        drop(connection);
        return;
      }
      const ssize_t n =
          ::send(connection.fd_, outbox.data() + connection.sent_,
                 outbox.size() - connection.sent_, MSG_NOSIGNAL);
      if (n >= 0) {
        connection.sent_ += static_cast<std::size_t>(n);
        connection.last_activity_ = now;
        continue;
      }
      if (errno == EINTR) continue;
      if (!would_block(errno)) drop(connection);
      return;  // blocked: poll() waits for POLLOUT
    }
    outbox.clear();
    connection.sent_ = 0;
    if (connection.after_flush) std::exchange(connection.after_flush, {})();
    if (connection.close_after_flush) {
      drop(connection);
      return;
    }
    if (!protocol_.serve(connection)) return;  // poll() waits for input
    connection.last_activity_ = now;
  }
}

void Reactor::drop(Connection& connection) {
  ::close(connection.fd_);
  connection.fd_ = -1;
  if (connection.after_flush) std::exchange(connection.after_flush, {})();
}

}  // namespace absq::net
