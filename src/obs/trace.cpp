#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "util/json_text.hpp"

namespace absq::obs {

EventTracer::EventTracer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(capacity_);
}

std::uint64_t EventTracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void EventTracer::record(const TraceEvent& event) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.size() < capacity_) {
      ring_.push_back(event);
    } else {
      // Ring full: overwrite the oldest event and count the loss.
      ring_[next_] = event;
      next_ = (next_ + 1) % capacity_;
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

void EventTracer::instant(const char* name, const char* category,
                          std::uint32_t pid, std::uint32_t tid,
                          const char* arg_name, std::int64_t arg_value) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.ts_ns = now_ns();
  event.pid = pid;
  event.tid = tid;
  event.phase = 'i';
  event.arg_name = arg_name;
  event.arg_value = arg_value;
  record(event);
}

void EventTracer::complete(const char* name, const char* category,
                           std::uint64_t start_ns, std::uint32_t pid,
                           std::uint32_t tid, const char* arg_name,
                           std::int64_t arg_value) {
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.ts_ns = start_ns;
  const std::uint64_t now = now_ns();
  event.dur_ns = now >= start_ns ? now - start_ns : 0;
  event.pid = pid;
  event.tid = tid;
  event.phase = 'X';
  event.arg_name = arg_name;
  event.arg_value = arg_value;
  record(event);
}

std::vector<TraceEvent> EventTracer::snapshot() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Oldest first: [next, end) then [0, next).
    const auto cut = ring_.begin() + static_cast<std::ptrdiff_t>(next_);
    events.reserve(ring_.size());
    events.insert(events.end(), cut, ring_.end());
    events.insert(events.end(), ring_.begin(), cut);
  }
  // Threads stamp an event before they take the lock, so ring order is
  // only nearly time order.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return events;
}

namespace {

/// Microseconds with nanosecond precision, e.g. 1234 ns -> "1.234".
std::string micros(std::uint64_t ns) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  return buffer;
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += "{\"name\":";
    out += json_quote(e.name);
    out += ",\"cat\":";
    out += json_quote(*e.category == '\0' ? "absq" : e.category);
    out += ",\"ph\":\"";
    out += e.phase;
    out += "\",\"ts\":" + micros(e.ts_ns);
    if (e.phase == 'X') out += ",\"dur\":" + micros(e.dur_ns);
    out += ",\"pid\":" + std::to_string(e.pid);
    out += ",\"tid\":" + std::to_string(e.tid);
    if (e.phase == 'i') out += ",\"s\":\"t\"";  // thread-scoped instant
    if (e.arg_name != nullptr) {
      out += ",\"args\":{";
      out += json_quote(e.arg_name);
      // Built up piecewise: `"x" + std::to_string(...)` trips a GCC 12
      // -Wrestrict false positive (PR105651) under -Werror.
      out += ':';
      out += std::to_string(e.arg_value);
      out += '}';
    }
    out += i + 1 < events.size() ? "},\n" : "}\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace absq::obs
