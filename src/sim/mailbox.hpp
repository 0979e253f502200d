// Asynchronous host↔device mailboxes — the global-memory buffers of Fig. 5.
//
// The ABS host and its devices never synchronize directly: the host writes
// GA-bred targets into a target buffer and polls a monotonic counter to
// learn that new solutions have arrived in a solution buffer (the paper does
// the counter read with cudaMemcpyAsync). Two properties of the hardware
// protocol are preserved faithfully because the solver's behaviour depends
// on them:
//
//   1. devices never block — a full buffer drops the *oldest* entry (drops
//      are counted on both buffers), and an empty target buffer returns
//      nothing (the block then continues searching from where it is);
//   2. the host can observe progress without draining — counter() is a
//      single atomic read.
//
// Internally each buffer is a set of mutex-guarded ring shards. A device
// running W worker threads constructs its mailboxes with W shards (capped
// at the capacity, which stays the exact total) so that workers do not
// serialize on one lock: a worker pushes reports into and preferentially
// polls targets from its own shard (the `hint` overloads), falling back
// to scanning the other shards so no entry is stranded. The
// host-facing API — push / poll / drain / counter — is shard-oblivious;
// with the default single shard the buffers behave exactly as before. The
// fetch/push happens only once per block iteration, yet at 4 workers one
// shard per mailbox is a throughput factor: on a 256-bit instance (about
// 1e5 iterations/s in total) it searched about 5 % slower than a shard per
// worker over 24 alternating 1 s pairs, at equal flips per iteration
// (EXPERIMENTS.md, "The linter leaves the solver library").
//
// The paper's host spends a CPU of its own polling the counters. Here the
// host shares the cores with the device workers, so it parks on a Doorbell
// instead: the devices ring it (see abs::Device), and the host sleeps until
// a ring or its next deadline. The buffers themselves ring nothing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "qubo/bit_vector.hpp"
#include "qubo/types.hpp"

namespace absq::sim {

/// Device → host wake-up, one per host. Anything the host must react to
/// rings it: a device's block iteration ending (after its counters and its
/// report), a device worker's shard loop ending, an external stop request.
/// The host reads rings() *before* it polls, and after a pass that found
/// nothing new parks until the count moves past that reading or its next
/// deadline — so a ring between the read and the park is never lost.
///
/// Ringing never blocks the ringer: it is one atomic increment, plus a
/// pass through the lock and a notify_one only while the host is parked.
class Doorbell {
 public:
  /// Any thread. Never blocks beyond the short lock taken while parked.
  void ring();

  /// Rings so far (monotonic).
  [[nodiscard]] std::uint64_t rings() const { return rings_.load(); }

  /// Host side: returns once rings() != `seen` or `timeout_seconds` have
  /// passed (at once when either already holds; +∞ waits for a ring). One
  /// parking thread at a time.
  void park(std::uint64_t seen, double timeout_seconds);

 private:
  std::atomic<std::uint64_t> rings_{0};
  /// Set while a host is inside park(); written only by park().
  /// Sequentially consistent with rings_: a ringer that reads false has
  /// its increment seen by the parker's check, so the notify it skips was
  /// not needed.
  std::atomic<bool> parked_{false};
  std::mutex mutex_;
  std::condition_variable wake_;
};

/// Host → device: GA-bred target solutions.
class TargetBuffer {
 public:
  /// `capacity` is the exact total across all shards; `shards` (normally
  /// the owning device's worker count) is capped at `capacity`, so every
  /// shard holds at least one slot.
  explicit TargetBuffer(std::size_t capacity, std::size_t shards = 1);

  /// Host side; shards are filled round-robin. A full shard overwrites its
  /// oldest target (staler GA output is strictly less interesting than
  /// fresher) and counts the drop.
  void push(BitVector target);

  /// Device side. Returns the oldest unread target of the first non-empty
  /// shard (scanning from a rotating cursor), or nullopt when the host has
  /// not kept up — the caller keeps searching its current neighbourhood
  /// rather than stalling.
  [[nodiscard]] std::optional<BitVector> poll();

  /// Device side, contention-avoiding: scans starting at shard
  /// `hint % shard_count()` so worker `hint` usually touches only its own
  /// lock, stealing from other shards only when its own is empty.
  [[nodiscard]] std::optional<BitVector> poll(std::size_t hint);

  /// Total targets ever pushed (monotonic).
  [[nodiscard]] std::uint64_t pushed() const {
    // absq-lint: allow(atomic-audit) host-side read of the Fig. 5 counter
    return pushed_.load(std::memory_order_relaxed);
  }

  /// Targets lost to overwrites — reported in run statistics so a
  /// misconfigured (device-starved) run is visible.
  [[nodiscard]] std::uint64_t dropped() const {
    // absq-lint: allow(atomic-audit) host-side read of a monotonic stat
    return dropped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Attaches an event tracer (not owned; null detaches): every overwrite
  /// drop emits an instant "target_drop" event with pid = `trace_pid`,
  /// tid = the shard index. Call before the owning device starts.
  void set_tracer(obs::EventTracer* tracer, std::uint32_t trace_pid) {
    tracer_ = tracer;
    trace_pid_ = trace_pid;
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::deque<BitVector> queue;
    std::size_t capacity = 0;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> push_cursor_{0};
  std::atomic<std::size_t> poll_cursor_{0};
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  obs::EventTracer* tracer_ = nullptr;
  std::uint32_t trace_pid_ = 0;
};

/// One best-found solution reported by a search block (device Step 5).
struct ReportedSolution {
  BitVector bits;
  Energy energy = 0;
  std::uint32_t device_id = 0;
  std::uint32_t block_id = 0;
};

/// Device → host: best solutions found per block iteration.
class SolutionBuffer {
 public:
  /// `capacity` is the exact total across all shards; `shards` (normally
  /// the owning device's worker count) is capped at `capacity`, so every
  /// shard holds at least one slot.
  explicit SolutionBuffer(std::size_t capacity, std::size_t shards = 1);

  /// Device side; never blocks. Shards are filled round-robin; a full
  /// shard drops its oldest entry.
  void push(ReportedSolution solution);

  /// Device side, contention-avoiding: pushes into shard
  /// `hint % shard_count()` (worker-private under the device's shard
  /// layout).
  void push(ReportedSolution solution, std::size_t hint);

  /// Host side: removes and returns everything currently buffered, one
  /// shard at a time (FIFO within a shard).
  [[nodiscard]] std::vector<ReportedSolution> drain();

  /// The global counter the host polls (total solutions ever pushed).
  [[nodiscard]] std::uint64_t counter() const {
    // absq-lint: allow(atomic-audit) host-side read of the Fig. 5 counter
    return pushed_.load(std::memory_order_relaxed);
  }

  /// Solutions lost to overwrites — reported in run statistics so a
  /// misconfigured (host-starved) run is visible.
  [[nodiscard]] std::uint64_t dropped() const {
    // absq-lint: allow(atomic-audit) host-side read of a monotonic stat
    return dropped_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Attaches an event tracer (not owned; null detaches): every overwrite
  /// drop emits an instant "solution_drop" event with pid = `trace_pid`,
  /// tid = the shard index. Call before the owning device starts.
  void set_tracer(obs::EventTracer* tracer, std::uint32_t trace_pid) {
    tracer_ = tracer;
    trace_pid_ = trace_pid;
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::deque<ReportedSolution> queue;
    std::size_t capacity = 0;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> push_cursor_{0};
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  obs::EventTracer* tracer_ = nullptr;
  std::uint32_t trace_pid_ = 0;
};

}  // namespace absq::sim
