#include "serve/job_server.hpp"

#include <optional>
#include <string>
#include <utility>

#include "serve/protocol.hpp"

namespace absq::serve {
namespace {

std::string reply_line(const Json& reply) { return reply.dump() + "\n"; }

}  // namespace

JobServer::JobServer(JobManager& manager, JobServerConfig config)
    : manager_(manager),
      config_(std::move(config)),
      reactor_({[this](net::Connection& c) { return serve_line(c); },
                [] {
                  return reply_line(error_reply(
                      "busy", "connection limit reached; retry later"));
                },
                "serve.accept", "serve.read", "serve.write"}) {}

JobServer::~JobServer() { stop(); }

void JobServer::start() {
  port_ = reactor_.start(config_.port, config_.idle_timeout_seconds);
}

void JobServer::request_shutdown() {
  {
    const std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_.store(true, std::memory_order_release);
  }
  shutdown_cv_.notify_all();
}

void JobServer::wait_shutdown() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_.load(std::memory_order_acquire);
  });
}

bool JobServer::serve_line(net::Connection& connection) {
  std::optional<std::string> line = connection.take_line();
  const std::size_t length = line ? line->size()
                                  : connection.inbox.size() -
                                        connection.consumed;
  if (length > kMaxRequestLineBytes) {
    connection.outbox = reply_line(error_reply(
        "bad_request",
        "request line exceeds " + std::to_string(kMaxRequestLineBytes) +
            " bytes; send a large problem as a server-local \"file\" "
            "path (absq_client --by-path)"));
    connection.close_after_flush = true;
    return true;
  }
  if (!line) return false;
  if (!line->empty() && line->back() == '\r') line->pop_back();
  if (line->empty()) return true;
  const ProtocolReply outcome =
      handle_request_line(manager_, *line, config_.metrics);
  connection.outbox = reply_line(outcome.reply);
  // The latch lets the owner's stop() close this socket, so it waits
  // until the reply is out (or the connection is gone).
  if (outcome.shutdown) connection.after_flush = [this] { request_shutdown(); };
  return true;
}

}  // namespace absq::serve
