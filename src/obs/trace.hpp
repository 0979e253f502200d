// Event tracer — the temporal half of the observability layer.
//
// Counters say how much; the tracer says *when*: GA rounds, target
// handoffs, straight-search walks, incumbent improvements, buffer drops.
// Events are timestamped spans ('X', with a duration) or instants ('i')
// recorded into one fixed-capacity ring that every thread shares (one
// short mutex hold per event; events fire once per block iteration —
// thousands of flips — so the lock is far off the hot path). A full ring
// overwrites its oldest events and counts the drops, so a tracer never
// grows without bound and never blocks the solver.
//
// The exporter writes Chrome trace_event JSON: load the file directly in
// chrome://tracing or https://ui.perfetto.dev. Convention used by the
// instrumentation: pid 0 = the ABS host, pid d+1 = simulated device d;
// tid = block id on devices, 0 on the host.
//
// Disabled tracing is a null `EventTracer*`: every helper (TraceSpan,
// Device/SearchBlock hooks) checks the pointer once and does nothing
// else — no macros, no global state, measurably zero cost.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace absq::obs {

struct TraceEvent {
  /// Name/category/arg_name must point at string literals (or otherwise
  /// outlive the tracer) — events store the pointers, never copies.
  const char* name = "";
  const char* category = "";
  std::uint64_t ts_ns = 0;   ///< nanoseconds since the tracer's epoch
  std::uint64_t dur_ns = 0;  ///< spans only
  std::uint32_t pid = 0;     ///< 0 = host, d+1 = device d
  std::uint32_t tid = 0;     ///< block id on devices
  char phase = 'i';          ///< 'X' complete span | 'i' instant
  const char* arg_name = nullptr;  ///< optional single argument
  std::int64_t arg_value = 0;
};

class EventTracer {
 public:
  /// Keeps the newest `capacity` events (at least 1), whichever threads
  /// recorded them.
  explicit EventTracer(std::size_t capacity = std::size_t{1} << 16);

  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// Nanoseconds since construction (steady clock).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Records a fully-specified event (timestamps included) — the
  /// primitive the golden-file tests drive directly.
  void record(const TraceEvent& event);

  /// Records an instant event stamped now.
  void instant(const char* name, const char* category, std::uint32_t pid,
               std::uint32_t tid, const char* arg_name = nullptr,
               std::int64_t arg_value = 0);

  /// Records a complete span [start_ns, now].
  void complete(const char* name, const char* category,
                std::uint64_t start_ns, std::uint32_t pid, std::uint32_t tid,
                const char* arg_name = nullptr, std::int64_t arg_value = 0);

  /// Copy of everything currently buffered, sorted by timestamp (stable
  /// within equal timestamps by recording order).
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Events ever recorded / lost to ring overwrites.
  [[nodiscard]] std::uint64_t recorded() const {
    // absq-lint: allow(atomic-audit) cold read of a monotonic stat counter
    return recorded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const {
    // absq-lint: allow(atomic-audit) cold read of a monotonic stat counter
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;  ///< size <= capacity_
  std::size_t next_ = 0;          ///< overwrite cursor once full
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// RAII span: stamps the start on construction and records a complete
/// event on destruction. A null tracer makes both ends no-ops.
class TraceSpan {
 public:
  TraceSpan(EventTracer* tracer, const char* name, const char* category,
            std::uint32_t pid, std::uint32_t tid)
      : tracer_(tracer), name_(name), category_(category), pid_(pid),
        tid_(tid) {
    if (tracer_ != nullptr) start_ns_ = tracer_->now_ns();
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches the span's single argument (shown in the trace viewer).
  void set_arg(const char* name, std::int64_t value) {
    arg_name_ = name;
    arg_value_ = value;
  }

  ~TraceSpan() {
    if (tracer_ != nullptr) {
      tracer_->complete(name_, category_, start_ns_, pid_, tid_, arg_name_,
                        arg_value_);
    }
  }

 private:
  EventTracer* tracer_;
  const char* name_;
  const char* category_;
  std::uint32_t pid_;
  std::uint32_t tid_;
  std::uint64_t start_ns_ = 0;
  const char* arg_name_ = nullptr;
  std::int64_t arg_value_ = 0;
};

/// Chrome trace_event JSON ("traceEvents" array object form; timestamps
/// in microseconds with nanosecond precision). Deterministic for a given
/// event vector — the golden tests rely on it.
[[nodiscard]] std::string chrome_trace_json(
    const std::vector<TraceEvent>& events);

}  // namespace absq::obs
