// Device — one simulated GPU running many SearchBlocks (Section 3.2).
// absq-lint: allow-file(relaxed-order) — see device.cpp: monotonic
// statistics counters plus a visibility-only stop flag.
//
// The paper's GPU keeps `active_blocks` CUDA blocks resident (the Table 2
// occupancy arithmetic) and lets each run its Step 2–5 loop asynchronously
// against the global-memory mailboxes. Here the block set is partitioned
// into per-worker shards, each run by a thread the device starts and joins
// itself: worker w owns blocks w, w+W, w+2W, … and loops over them — a
// visited block polls the target buffer, runs one iteration (straight
// search + fixed local search) and pushes its report. Blocks never share
// state, and the mailboxes are sharded per worker, so the only
// cross-worker traffic is the atomic counters. Nothing in the host
// protocol can distinguish this schedule from the GPU's truly concurrent
// blocks — only wall-clock throughput differs, which is exactly the
// substitution DESIGN.md documents.
//
// `DeviceConfig::threads_per_device` picks the worker count (at least 1;
// one worker visits every block round-robin). Leaving it unset ("auto")
// resolves to the hardware concurrency divided by the device count
// (floor 1); the resolution happens in AbsSolver, or in the Device
// constructor for a standalone device.
//
// The device also supports a synchronous mode (step_all_blocks_once) used by
// the lockstep SyncAbsRunner, the deterministic tests and the throughput
// benches, which measure the search kernel without scheduler noise.
//
// Stopping is prompt: the workers hand the device's stop flag to every
// block iteration, whose search loops read it every 64 steps, so a raised
// flag ends the in-flight iterations within microseconds. A stopped
// iteration still reports its best so far.
//
// The device is the only thing that tells a parked host about itself: with
// a doorbell attached (set_doorbell) every block iteration rings it once,
// after its counters and its report, and so does every worker as its shard
// loop ends, by return or by throw. A throw is captured first (failure()),
// so the host it wakes finds the device already failed.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "abs/search_block.hpp"
#include "obs/telemetry.hpp"
#include "qubo/kernel.hpp"
#include "qubo/weight_matrix.hpp"
#include "sim/device_spec.hpp"
#include "sim/mailbox.hpp"

namespace absq {

struct DeviceConfig {
  std::uint32_t device_id = 0;
  sim::DeviceSpec spec;  ///< RTX 2080 Ti by default
  /// Bits handled per simulated thread (p). 0 = smallest feasible p.
  std::uint32_t bits_per_thread = 0;
  /// Caps the resident block count below the occupancy-derived value
  /// (CPU-affordability knob; 0 = no cap). The occupancy model still
  /// reports the hardware value for Table 2.
  std::uint32_t block_limit = 0;
  /// Step 4b flip count. 0 = one sweep (n flips).
  std::uint64_t local_steps = 0;
  /// Worker threads running the block shards, at least 1 (an explicit 0
  /// is rejected). nullopt = auto (hardware concurrency / device count,
  /// floor 1 — resolved by the owning solver, or against a device count
  /// of 1 for a standalone Device). SyncAbsRunner forces 1.
  std::optional<std::uint32_t> threads_per_device;
  /// Window lengths (l) assigned to blocks round-robin; a block's min-Δ
  /// member keeps its l for the whole run. Empty = a geometric ladder
  /// 2, 4, 8, ..., n/2 (the parallel-tempering default).
  std::vector<BitIndex> window_schedule;
  /// Diverse-ABS portfolio: initial Step 4b member assigned to block b is
  /// algorithm_schedule[b % size]. Empty = every block runs the legacy
  /// windowed min-Δ search (bit-identical to the pre-portfolio device).
  std::vector<portfolio::BlockAlgorithmKind> algorithm_schedule;
  std::uint64_t seed = 1;
  /// Flip-kernel plan options. The default auto-selects the cheapest
  /// bit-identical form per instance (sparse CSR on sparse matrices,
  /// vectorized dense otherwise); see qubo/kernel.hpp and docs/kernels.md.
  KernelOptions kernel;
  /// Mailbox capacities. 0 = one slot per resident block.
  std::size_t target_capacity = 0;
  std::size_t solution_capacity = 0;
  /// Observability sinks (non-owning; default = disabled). With metrics
  /// attached the device registers per-device and per-block counters at
  /// construction and pays one relaxed atomic add per counter per block
  /// iteration; with a tracer attached it emits per-iteration spans and
  /// drop/miss instants. Both must outlive the device.
  obs::Telemetry telemetry;
};

class Device {
 public:
  Device(const WeightMatrix& w, const DeviceConfig& config);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Launches the worker threads. Idempotent.
  void start();

  /// Raises the stop flag, then joins the workers. Iterations in flight
  /// end within 64 search steps and push their best so far, so the join
  /// waits microseconds, not a block iteration. Idempotent.
  void stop();

  /// Raises the stop flag WITHOUT joining — the watchdog's quarantine
  /// primitive (the host must never block on a possibly-hung device
  /// thread), and the first half of a run's shutdown, so every device
  /// stops at once. A later stop() (or the destructor) performs the join.
  void request_stop() {
    stop_requested_.store(true, std::memory_order_relaxed);
  }

  /// Attaches the host's doorbell (not owned; null detaches): it rings once
  /// per block iteration, after the iteration's counters and report (a
  /// report lost to the `mailbox.solution_push` fail point included), and
  /// once whenever a worker's shard loop ends. Call while the device is
  /// stopped.
  void set_doorbell(sim::Doorbell* doorbell);

  /// First exception that escaped a worker, or nullptr while the device is
  /// healthy; still reported after stop(). A non-null failure means at
  /// least one worker is dead; the solver watchdog quarantines the device.
  /// One acquire load while healthy; the lock only once a worker failed.
  [[nodiscard]] std::exception_ptr failure() const {
    if (!failed_.load(std::memory_order_acquire)) return nullptr;
    std::lock_guard lock(failure_mutex_);
    return failure_;
  }

  [[nodiscard]] bool running() const { return running_; }

  /// Host-facing mailboxes.
  [[nodiscard]] sim::TargetBuffer& targets() { return targets_; }
  [[nodiscard]] sim::SolutionBuffer& solutions() { return solutions_; }

  /// Synchronous mode: every block performs exactly one iteration on the
  /// calling thread. Must not be mixed with start().
  void step_all_blocks_once();

  /// The kernel plan all blocks of this device share.
  [[nodiscard]] const QuboKernel& kernel() const { return *kernel_; }

  [[nodiscard]] const sim::Occupancy& occupancy() const { return occupancy_; }
  [[nodiscard]] std::uint32_t block_count() const {
    return static_cast<std::uint32_t>(blocks_.size());
  }
  [[nodiscard]] const DeviceConfig& config() const { return config_; }

  /// Worker threads start() will run (at least 1).
  [[nodiscard]] std::uint32_t worker_count() const { return workers_; }

  /// Flips committed by all blocks (each flip = n evaluated solutions).
  [[nodiscard]] std::uint64_t total_flips() const {
    return flips_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_evaluated() const;
  [[nodiscard]] std::uint64_t total_iterations() const {
    return iterations_.load(std::memory_order_relaxed);
  }
  /// Block iterations that found no fresh target (the host was behind) —
  /// the contention/starvation signal of the async protocol.
  [[nodiscard]] std::uint64_t target_misses() const {
    return target_misses_.load(std::memory_order_relaxed);
  }

  /// Read-only access for inspection/tests; blocks are owned by the device.
  [[nodiscard]] const SearchBlock& block(std::size_t i) const {
    return *blocks_[i];
  }

  /// Asks block `block` to switch its Step 4b portfolio member at its next
  /// iteration — the adaptive controller's reallocation hook. Thread-safe
  /// (a single atomic slot per block; the latest request wins).
  void request_block_algorithm(std::uint32_t block,
                               portfolio::BlockAlgorithmKind kind) {
    blocks_[block]->request_algorithm(kind);
  }

  /// Times any block actually changed its portfolio member. Host-read:
  /// only meaningful while the device is stopped.
  [[nodiscard]] std::uint64_t total_algorithm_switches() const;

 private:
  static std::uint32_t effective_block_count(const sim::Occupancy& occupancy,
                                             const DeviceConfig& config);
  static std::uint32_t resolve_workers(const DeviceConfig& config);

  /// One Step 2–5 iteration of block `index`, attributed to `worker`'s
  /// mailbox shards and cut short once `stop` (null = never) is raised.
  /// Rings the doorbell when it is done.
  void iterate_block(std::size_t index, std::size_t worker,
                     const std::atomic<bool>* stop);
  /// Worker thread body: iterates the worker's shard until the stop flag,
  /// captures an escaping exception, then rings the doorbell.
  void run_shard(std::size_t worker);

  const WeightMatrix* w_;
  DeviceConfig config_;
  std::unique_ptr<QuboKernel> kernel_;  ///< plan shared by all blocks
  sim::Occupancy occupancy_;
  std::uint32_t workers_;
  std::vector<std::unique_ptr<SearchBlock>> blocks_;
  sim::TargetBuffer targets_;
  sim::SolutionBuffer solutions_;

  std::atomic<bool> stop_requested_{false};
  sim::Doorbell* doorbell_ = nullptr;  ///< host's wake-up; null = none
  bool running_ = false;
  /// First exception that escaped a worker; failed_ is set once it is.
  std::atomic<bool> failed_{false};
  mutable std::mutex failure_mutex_;
  std::exception_ptr failure_;

  std::atomic<std::uint64_t> flips_{0};
  std::atomic<std::uint64_t> iterations_{0};
  std::atomic<std::uint64_t> target_misses_{0};

  // Telemetry series, resolved once at construction (null = disabled).
  obs::Counter* m_iterations_ = nullptr;
  obs::Counter* m_flips_ = nullptr;
  obs::Counter* m_target_misses_ = nullptr;
  obs::Histogram* m_iteration_flips_ = nullptr;
  std::vector<obs::Counter*> m_block_flips_;       ///< per block
  std::vector<obs::Counter*> m_block_iterations_;  ///< per block

  /// One per worker while running; declared after everything they touch.
  std::vector<std::thread> threads_;
};

}  // namespace absq
