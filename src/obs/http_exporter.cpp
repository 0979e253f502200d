#include "obs/http_exporter.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "obs/log.hpp"
#include "util/json_text.hpp"

namespace absq::obs {
namespace {

constexpr const char* kComponent = "http";

const char* reason_phrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
  }
  return "Unknown";
}

/// Case-insensitive "does this header line name this header?".
bool header_is(const std::string& line, const char* name) {
  const std::size_t len = std::strlen(name);
  if (line.size() < len + 1) return false;
  for (std::size_t i = 0; i < len; ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  return line[len] == ':';
}

bool header_value_contains(const std::string& line, const char* token) {
  const std::size_t colon = line.find(':');
  if (colon == std::string::npos) return false;
  std::string value = line.substr(colon + 1);
  std::transform(value.begin(), value.end(), value.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  return value.find(token) != std::string::npos;
}

}  // namespace

std::string tracer_prometheus(const EventTracer& tracer) {
  std::string out;
  out += "# TYPE absq_trace_recorded_total counter\n";
  out += "absq_trace_recorded_total " + std::to_string(tracer.recorded()) +
         "\n";
  out += "# TYPE absq_trace_dropped_total counter\n";
  out +=
      "absq_trace_dropped_total " + std::to_string(tracer.dropped()) + "\n";
  return out;
}

HttpExporter::HttpExporter(HttpExporterConfig config)
    : config_(std::move(config)),
      reactor_({[this](net::Connection& c) { return serve_request(c); },
                [this] {
                  if (m_rejected_ != nullptr) m_rejected_->add();
                  return std::string(
                      "HTTP/1.1 503 Service Unavailable\r\n"
                      "Content-Type: text/plain\r\nContent-Length: 5\r\n"
                      "Connection: close\r\n\r\nbusy\n");
                }}) {
  if (config_.metrics != nullptr) {
    m_requests_ = &config_.metrics->counter("absq_http_requests_total");
    m_not_found_ =
        &config_.metrics->counter("absq_http_not_found_total");
    m_rejected_ = &config_.metrics->counter("absq_http_rejected_total");
  }
}

HttpExporter::~HttpExporter() { stop(); }

void HttpExporter::start() {
  uptime_.reset();
  port_ = reactor_.start(config_.port, config_.idle_timeout_seconds);
  log_info(kComponent, "http exporter listening",
           {{"port", static_cast<std::int64_t>(port_)},
            {"bind", "127.0.0.1"}});
}

std::string HttpExporter::metrics_body() const {
  std::string body = to_prometheus(config_.metrics->scrape());
  if (config_.tracer != nullptr) {
    body += tracer_prometheus(*config_.tracer);
  }
  return body;
}

std::string HttpExporter::default_status_body() const {
  std::string body = "{\"uptime_seconds\":";
  body += json_number(uptime_.seconds());
  body += ",\"requests_served\":";
  // absq-lint: allow(atomic-audit) status snapshot read of a stat counter
  body += std::to_string(requests_.load(std::memory_order_relaxed));
  body += ",\"connections_accepted\":";
  body += std::to_string(connections_accepted());
  body += "}";
  return body;
}

void HttpExporter::enqueue_response(net::Connection& connection, int code,
                                    const std::string& content_type,
                                    const std::string& body,
                                    bool keep_alive) {
  std::string head = "HTTP/1.1 " + std::to_string(code) + " " +
                     reason_phrase(code) + "\r\n";
  head += "Content-Type: " + content_type + "\r\n";
  head += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  head += keep_alive ? "Connection: keep-alive\r\n"
                     : "Connection: close\r\n";
  head += "\r\n";
  connection.outbox += head;
  connection.outbox += body;
  if (!keep_alive) connection.close_after_flush = true;
}

void HttpExporter::respond(net::Connection& connection,
                           const std::string& method,
                           const std::string& target, bool keep_alive) {
  // absq-lint: allow(atomic-audit) single-writer stat on the exporter thread
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (m_requests_ != nullptr) m_requests_->add();

  if (method != "GET") {
    enqueue_response(connection, 405, "text/plain; charset=utf-8",
                     "only GET is served here\n", keep_alive);
    return;
  }
  // Strip any query string; none of the endpoints take parameters.
  std::string path = target.substr(0, target.find('?'));

  if (path == "/healthz") {
    enqueue_response(connection, 200, "text/plain; charset=utf-8", "ok\n",
                     keep_alive);
    return;
  }
  if (path == "/metrics") {
    if (config_.metrics == nullptr) {
      enqueue_response(connection, 503, "text/plain; charset=utf-8",
                       "no metrics registry attached\n", keep_alive);
      return;
    }
    enqueue_response(connection, 200,
                     "text/plain; version=0.0.4; charset=utf-8",
                     metrics_body(), keep_alive);
    return;
  }
  if (path == "/trace") {
    if (config_.tracer == nullptr) {
      enqueue_response(connection, 503, "text/plain; charset=utf-8",
                       "no event tracer attached\n", keep_alive);
      return;
    }
    enqueue_response(connection, 200, "application/json",
                     chrome_trace_json(config_.tracer->snapshot()),
                     keep_alive);
    return;
  }
  if (path == "/status") {
    std::string body;
    if (config_.status != nullptr) {
      try {
        body = config_.status();
      } catch (const std::exception& error) {
        log_error(kComponent, "status handler threw",
                  {{"error", error.what()}});
        enqueue_response(connection, 500, "text/plain; charset=utf-8",
                         "status handler failed\n", keep_alive);
        return;
      }
    } else {
      body = default_status_body();
    }
    enqueue_response(connection, 200, "application/json", body, keep_alive);
    return;
  }
  if (path == "/") {
    enqueue_response(connection, 200, "text/plain; charset=utf-8",
                     "absqubo observability endpoints:\n"
                     "  /healthz  liveness\n"
                     "  /metrics  Prometheus text exposition\n"
                     "  /status   JSON process/job status\n"
                     "  /trace    Chrome trace_event JSON snapshot\n",
                     keep_alive);
    return;
  }
  if (m_not_found_ != nullptr) m_not_found_->add();
  enqueue_response(connection, 404, "text/plain; charset=utf-8",
                   "unknown path\n", keep_alive);
}

bool HttpExporter::serve_request(net::Connection& connection) {
  // A request head ends at the first blank line; tolerate bare-LF
  // clients (nc, test harnesses).
  const std::string& inbox = connection.inbox;
  std::size_t head_end = inbox.find("\r\n\r\n", connection.consumed);
  std::size_t terminator = 4;
  if (head_end == std::string::npos) {
    head_end = inbox.find("\n\n", connection.consumed);
    terminator = 2;
  }
  if (head_end == std::string::npos) {
    if (inbox.size() - connection.consumed <= kMaxRequestHeadBytes) {
      return false;
    }
    if (m_rejected_ != nullptr) m_rejected_->add();
    // absq-lint: allow(atomic-audit) single-writer stat, exporter thread
    requests_.fetch_add(1, std::memory_order_relaxed);
    enqueue_response(connection, 431, "text/plain; charset=utf-8",
                     "request head too large\n", /*keep_alive=*/false);
    return true;
  }
  const std::string head =
      inbox.substr(connection.consumed, head_end - connection.consumed);
  connection.consumed = head_end + terminator;

  // Request line: METHOD SP target SP version.
  const std::size_t line_end = head.find_first_of("\r\n");
  std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = sp1 == std::string::npos
                              ? std::string::npos
                              : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    // absq-lint: allow(atomic-audit) single-writer stat, exporter thread
    requests_.fetch_add(1, std::memory_order_relaxed);
    enqueue_response(connection, 400, "text/plain; charset=utf-8",
                     "malformed request line\n", /*keep_alive=*/false);
    return true;
  }
  const std::string method = request_line.substr(0, sp1);
  const std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = request_line.substr(sp2 + 1);

  // Keep-alive: HTTP/1.1 default-on unless "Connection: close";
  // anything older is one-shot.
  bool keep_alive = version.rfind("HTTP/1.1", 0) == 0;
  std::size_t cursor = line_end;
  while (cursor != std::string::npos && cursor < head.size()) {
    const std::size_t start = head.find_first_not_of("\r\n", cursor);
    if (start == std::string::npos) break;
    std::size_t end = head.find_first_of("\r\n", start);
    if (end == std::string::npos) end = head.size();
    const std::string line = head.substr(start, end - start);
    if (header_is(line, "connection")) {
      if (header_value_contains(line, "close")) keep_alive = false;
      if (header_value_contains(line, "keep-alive")) keep_alive = true;
    }
    cursor = end;
  }

  respond(connection, method, target, keep_alive);
  return true;
}

}  // namespace absq::obs
