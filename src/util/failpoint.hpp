// Fail points — deterministic fault injection for the ABS runtime.
//
// A fail point is a named site in production code where a fault can be
// injected on demand: a thrown FailPointError (simulating a device/kernel
// crash), a silent message drop (mailbox storms), or a stall (a hung
// worker). Points are *disarmed by default* and cost one relaxed atomic
// load per call site when nothing is armed, so shipping them in the hot
// path does not perturb bit-identical baseline runs.
//
// Arming happens programmatically (tests) or through the ABSQ_FAILPOINTS
// environment variable, a comma-separated list of directives:
//
//     ABSQ_FAILPOINTS="device.iterate@2=once,mailbox.solution_push=every:8"
//
// Directive grammar:    name[@scope]=mode
//   once                fire on the first matching call, then never again
//   every:N             fire on every Nth matching call (N >= 1)
//   prob:P[:seed]       fire with probability P, from a seeded private RNG
//   stall:SECONDS       sleep SECONDS on every matching call (hung thread);
//                       sliced and aborted early by disarm()/cancel_stalls()
//   off                 disarm
//
// `@scope` restricts the point to call sites passing that scope value —
// the device wiring passes the device id, so `device.iterate@2` fails only
// device 2 of a multi-device run.
//
// Fail points shipped in this tree (the catalogue, see docs/robustness.md):
//   device.iterate        thrown at the top of Device::iterate_block
//                         (scope = device id); stall mode hangs the worker
//   mailbox.target_push   drops the pushed target (counted in dropped())
//   mailbox.solution_push drops the pushed report (counted in dropped())
//   pool_io.write         thrown mid-serialization of pool/checkpoint
//                         files (simulates a crash during a write)
//   journal.append        thrown before a job-journal record is written —
//                         the submission must NOT be acknowledged
//   serve.accept          drops a freshly accepted job-port connection
//                         (client sees a reset before any request)
//   serve.read            kills a job-port connection before a recv
//                         (request lost mid-flight)
//   serve.write           drops the reply after the request took effect —
//                         the ambiguous outcome idempotent retries solve
//                         (all three fire inside net::Reactor)
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace absq::fail {

/// The injected failure. Deliberately NOT a CheckError: tests distinguish
/// injected faults from genuine precondition violations.
class FailPointError : public std::runtime_error {
 public:
  explicit FailPointError(const std::string& what)
      : std::runtime_error(what) {}
};

enum class Mode : std::uint8_t {
  kOff,
  kOnce,
  kEveryNth,
  kProbability,
  kStall,
};

struct Spec {
  Mode mode = Mode::kOff;
  std::uint64_t every_n = 1;      ///< kEveryNth period
  double probability = 0.0;       ///< kProbability chance per call
  std::uint64_t seed = 1;         ///< kProbability RNG seed
  double stall_seconds = 0.0;     ///< kStall sleep per firing
  /// When set, the point fires only for call sites passing this scope.
  std::optional<std::uint64_t> scope;
};

/// Parses the mode part of a directive ("once", "every:8", "prob:0.1:7",
/// "stall:0.05", "off"). Throws CheckError on malformed text. The returned
/// Spec has no scope — the registry's directive parser fills that in.
[[nodiscard]] Spec parse_spec(const std::string& text);

/// Process-wide registry of named fail points. All members are
/// thread-safe; the disarmed fast path is a single relaxed load.
class Registry {
 public:
  /// The singleton. First access arms any directives found in the
  /// ABSQ_FAILPOINTS environment variable.
  static Registry& instance();

  void arm(const std::string& name, const Spec& spec);
  void disarm(const std::string& name);
  /// Disarms everything and aborts in-flight stalls — test teardown.
  void disarm_all();
  /// Arms from directive text ("name[@scope]=mode[,...]"); empty is a
  /// no-op. Throws CheckError on malformed directives.
  void arm_from_directives(const std::string& directives);

  /// Aborts in-flight stalls without disarming (future calls stall
  /// again). Called on orderly shutdown paths so an injected hang cannot
  /// outlive the component it was injected into.
  void cancel_stalls();

  [[nodiscard]] bool any_armed() const {
    return armed_points_.load(std::memory_order_acquire) > 0;
  }

  /// True when point `name` fires for `scope`. Stall specs sleep here
  /// (sliced; aborted by disarm/cancel_stalls) and return false — a stall
  /// is slowness, not an error.
  [[nodiscard]] bool fire(const char* name,
                          std::optional<std::uint64_t> scope = std::nullopt);

  /// Times the named point has fired (0 when never armed).
  [[nodiscard]] std::uint64_t hits(const std::string& name) const;

 private:
  Registry();

  struct Point {
    Spec spec;
    std::uint64_t calls = 0;  ///< matching-scope calls since arm()
    std::uint64_t fired = 0;
    Rng rng{1};               ///< kProbability stream
  };

  mutable std::mutex mutex_;
  std::map<std::string, Point> points_;
  std::atomic<int> armed_points_{0};
  /// Bumped by disarm/cancel_stalls; in-flight stalls re-check it.
  std::atomic<std::uint64_t> stall_epoch_{0};
};

/// Call-site helper: true when the named point fires. One relaxed load
/// when nothing is armed.
[[nodiscard]] inline bool triggered(
    const char* name, std::optional<std::uint64_t> scope = std::nullopt) {
  Registry& registry = Registry::instance();
  return registry.any_armed() && registry.fire(name, scope);
}

/// Call-site helper: throws FailPointError when the named point fires.
inline void maybe_fail(const char* name,
                       std::optional<std::uint64_t> scope = std::nullopt) {
  if (triggered(name, scope)) {
    std::string what = "injected fault at fail point '";
    what += name;
    what += '\'';
    if (scope.has_value()) {
      what += " (scope ";
      what += std::to_string(*scope);
      what += ')';
    }
    throw FailPointError(what);
  }
}

}  // namespace absq::fail
