// Reactor — the one socket event loop behind every listener in the tree.
//
// One thread runs one poll() set over a loopback listener and its
// non-blocking connections. It follows the paper's host/device protocol
// (Fig. 5): buffers are bounded and non-blocking, and no peer can stall
// the loop that serves the others. The reactor owns everything that is
// not protocol:
//
//   * the bind to 127.0.0.1 and the listener;
//   * non-blocking accept under one connection cap (kMaxConnections): a
//     connection past it gets the protocol's refusal and is closed;
//   * accept-error back-off: on EMFILE, ENFILE, ENOBUFS or ENOMEM the
//     listener leaves the poll set until a connection closes or one poll
//     period passes, so fd exhaustion neither kills the port nor spins;
//   * a per-connection inbox and outbox, with backpressure: a connection
//     that still has unsent reply bytes is not read, and the protocol
//     takes one request at a time, so a connection holds at most the
//     protocol's request bound plus one reply;
//   * the idle sweep, and stop/join.
//
// A protocol (serve::JobServer's newline framing, obs::HttpExporter's
// request heads) is one callback over a Connection's inbox and outbox.
// It runs on the reactor thread, so whatever it blocks on, every
// connection of that listener waits for.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace absq::net {

/// Concurrent connections per listener; the next one is refused.
inline constexpr std::size_t kMaxConnections = 64;

/// One connection as the protocol sees it.
struct Connection {
  /// Received bytes; [consumed, size) is not handled yet. The reactor
  /// drops the handled prefix before it reads again.
  std::string inbox;
  std::size_t consumed = 0;
  /// Inbox prefix already searched for the end of a request: a search
  /// resumes here, so a request costs one scan however many reads
  /// deliver it.
  std::size_t scanned = 0;
  /// Reply bytes: the protocol appends, the reactor sends.
  std::string outbox;
  /// Close the connection once the outbox is sent.
  bool close_after_flush = false;
  /// Runs once, when the outbox has been sent or the connection closed.
  std::function<void()> after_flush;

  /// Takes the next '\n'-terminated line (without its '\n') off the
  /// inbox; nullopt when no line is complete.
  std::optional<std::string> take_line();

 private:
  friend class Reactor;
  int fd_ = -1;
  std::size_t sent_ = 0;  ///< outbox prefix already written
  double last_activity_ = 0.0;
};

class Reactor {
 public:
  struct Protocol {
    /// Takes at most one complete request off the inbox and appends its
    /// reply to the outbox. Returns false when no request is complete.
    std::function<bool(Connection&)> serve;
    /// The bytes sent to a connection past kMaxConnections before it is
    /// closed.
    std::function<std::string()> refusal;
    /// Fail points (util/failpoint.hpp) fired after accept(2), before
    /// each recv(2) and before each send(2); null = none. A firing point
    /// closes the connection.
    const char* accept_failpoint = nullptr;
    const char* read_failpoint = nullptr;
    const char* write_failpoint = nullptr;
  };

  explicit Reactor(Protocol protocol);
  /// Calls stop().
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the loop thread;
  /// returns the bound port. A connection with no I/O for
  /// `idle_timeout_seconds` is closed. Throws CheckError when the port
  /// cannot be bound.
  int start(int port, double idle_timeout_seconds);
  /// Closes the listener and every connection and joins the loop thread.
  /// Idempotent; start() may follow.
  void stop();

  /// Connections accepted so far, refused ones included.
  [[nodiscard]] std::uint64_t connections_accepted() const {
    // absq-lint: allow(relaxed-order) — monotonic statistic, no ordering.
    return accepted_.load(std::memory_order_relaxed);
  }

 private:
  void loop();
  void accept_all(std::vector<Connection>& connections, double now,
                  double& listener_paused_until);
  void receive(Connection& connection, double now);
  /// Sends, then serves buffered requests one at a time, until the
  /// connection blocks, needs input, or closes.
  void pump(Connection& connection, double now);
  static void drop(Connection& connection);

  Protocol protocol_;
  int listen_fd_ = -1;
  double idle_timeout_seconds_ = 0.0;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
};

}  // namespace absq::net
