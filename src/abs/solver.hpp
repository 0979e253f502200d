// AbsSolver — the full Adaptive Bulk Search framework (Fig. 5).
//
// Host loop (Section 3.1):
//   Step 1: initialize the solution pool with random bit vectors (energies
//           unknown — the host never evaluates E) and stock every device's
//           target buffer.
//   Step 2: poll the devices' solution counters. The paper's host spins
//           on cudaMemcpyAsync from a CPU of its own; this host shares the
//           cores with the device workers, so after a pass that found no
//           news it parks on the devices' doorbell (sim::Doorbell) until
//           a block iteration ends, a worker's shard loop ends,
//           request_stop() rings, or the next host deadline falls due.
//   Step 3: insert newly reported solutions into the sorted, duplicate-free
//           pool.
//   Step 4: breed and store as many new targets as solutions arrived, and
//           go back to Step 2.
//
// The host always runs Diverse ABS (arXiv:2207.03069) machinery: the pool
// is an IslandSet and every block is routed through an (island, algorithm)
// arm of the AdaptiveController. Classic ABS is its one-island, one-arm
// (min-Δ) case, and island 0 replays the classic pool's RNG stream, so the
// default config is the paper's single-pool protocol bit for bit (pinned by
// the PortfolioLockstep tests). The protocol is written once, as three
// private host phases: stock_targets (Step 1), host_round (Steps 2–4 for
// one device plus the island/controller round clock) and finish_run (final
// drain, summaries, rate). run() drives them against free-running device
// threads; SyncAbsRunner drives the same phases in deterministic lockstep.
//
// Devices run concurrently and asynchronously (see Device); the only shared
// state is the mailboxes. The solver stops on any of the configured
// criteria and reports throughput in the paper's metric — evaluated
// solutions per second, where every committed flip evaluates n neighbours.
//
// Fault tolerance (docs/robustness.md): the host loop doubles as a device
// watchdog. A device whose worker threw is quarantined (stopped without
// joining, salvage-drained, excluded from target stocking) and the run
// continues on the survivors; an optional bounded restart policy re-creates
// failed devices from the weight matrix. Because the protocol is built on
// monotonic counters, a *stalled* device is detected the same way the
// paper's host would have to — its iteration counter stops advancing for
// longer than a grace window. Periodic crash-safe checkpoints (atomic
// temp+rename snapshots of the pool plus run context) make a SIGKILL'd run
// resumable through AbsConfig::warm_start.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "abs/device.hpp"
#include "ga/operators.hpp"
#include "ga/solution_pool.hpp"
#include "obs/telemetry.hpp"
#include "portfolio/controller.hpp"
#include "portfolio/island.hpp"
#include "portfolio/portfolio.hpp"
#include "qubo/bit_vector.hpp"
#include "qubo/weight_matrix.hpp"
#include "util/check.hpp"

namespace absq {

/// A run that ended with nothing in the pool: no device ever reported, so
/// there is no result. what() is the diagnosis alone — "run ended before
/// any device reported: <what ended it>" or "all devices failed before any
/// report: <the failure>" — a run outcome, not a broken precondition.
class NoReportError : public CheckError {
 public:
  explicit NoReportError(const std::string& what) : CheckError(what) {}
};

/// When to stop a run. Criteria compose with OR; at least one of
/// target_energy / time_limit_seconds / max_flips must be set.
struct StopCriteria {
  /// Stop once the pool's best energy is ≤ this (time-to-solution runs).
  std::optional<Energy> target_energy;
  /// Wall-clock budget in seconds (0 = unlimited).
  double time_limit_seconds = 0.0;
  /// Total committed flips across all devices (0 = unlimited).
  std::uint64_t max_flips = 0;

  [[nodiscard]] bool bounded() const {
    return target_energy.has_value() || time_limit_seconds > 0.0 ||
           max_flips > 0;
  }
};

/// Device-health policy of AbsSolver's host loop. The defaults detect
/// thrown device failures (always on — a captured exception is
/// unambiguous) but leave stall detection and restarts opt-in, because
/// both trade determinism-of-behaviour for availability.
struct WatchdogConfig {
  /// > 0 enables stall detection: a running device whose iteration
  /// counter has not advanced for this many seconds is quarantined.
  /// Tune well above the longest legitimate block iteration (see
  /// docs/robustness.md); 0 disables.
  double stall_grace_seconds = 0.0;
  /// Restart budget per device slot. Only devices that *failed* (threw)
  /// are restarted — a stalled device cannot be safely joined, so it
  /// stays quarantined until the run ends.
  std::uint32_t max_restarts = 0;
  /// Minimum delay between a failure and its restart attempt.
  double restart_backoff_seconds = 0.0;
};

struct AbsConfig {
  std::uint32_t num_devices = 1;
  /// Per-device template; device_id is assigned by the solver.
  DeviceConfig device;
  /// m, the solution-pool capacity.
  std::size_t pool_capacity = 128;
  GaConfig ga;
  std::uint64_t seed = 42;
  /// Device failure / stall handling (see WatchdogConfig).
  WatchdogConfig watchdog;
  /// Non-empty enables crash-safe run checkpointing to this path: an
  /// atomic snapshot (pool + seed + elapsed + per-device flips) is
  /// written every checkpoint_interval_seconds and once more on any
  /// graceful end of run() — including cancellation via request_stop().
  std::string checkpoint_path;
  double checkpoint_interval_seconds = 0.0;
  /// Wall-clock seconds already spent by previous incarnations of this
  /// run (from a resumed checkpoint); added to the `elapsed` field of
  /// every checkpoint written.
  double elapsed_offset_seconds = 0.0;
  /// Optional warm start (checkpoint resume): these entries are inserted
  /// into the fresh pool at host Step 1 and preferred as initial targets.
  /// Shared ownership keeps the config copyable across devices/runs.
  std::shared_ptr<const SolutionPool> warm_start;
  /// Called (from the host loop thread) after each *successful* crash-safe
  /// checkpoint write, with the lifetime count of checkpoints this run has
  /// written. The serve layer journals per-job `checkpointed` records
  /// through this; null = no notification. Must not throw.
  std::function<void(std::uint64_t)> on_checkpoint;
  /// > 0 enables periodic RunSnapshot collection at roughly this cadence.
  double snapshot_interval_seconds = 0.0;
  /// Diverse ABS (docs/algorithms.md): island pools, the per-block search
  /// portfolio, and the adaptive (pool, algorithm) controller. The default
  /// (1 island, min-Δ only, controller off) is classic ABS — the single-pool
  /// protocol above, which the lockstep tests pin.
  portfolio::PortfolioConfig portfolio;
  /// Observability sinks, propagated to every device (non-owning; default
  /// = disabled). The solver adds host-side series (pool churn, GA
  /// breeding, incumbent gauges) and trace spans for host rounds. The
  /// registry/tracer must outlive the solver.
  obs::Telemetry telemetry;
};

/// Device health as judged by the solver watchdog.
enum class DeviceHealth : std::uint8_t {
  kHealthy = 0,  ///< running (or ran to completion) normally
  kStalled = 1,  ///< quarantined: iteration counter stopped advancing
  kFailed = 2,   ///< quarantined: a worker threw (restart budget exhausted)
};

[[nodiscard]] const char* to_string(DeviceHealth health);

/// Per-device accounting attached to every result. Counters are lifetime
/// totals across every incarnation of the device slot (restarts included).
struct DeviceSummary {
  std::uint32_t device_id = 0;
  std::uint32_t workers = 0;  ///< worker threads of the device
  std::uint64_t flips = 0;
  std::uint64_t iterations = 0;
  std::uint64_t reports = 0;  ///< solutions pushed (mailbox counter)
  /// Block iterations that found no fresh target (host fell behind).
  std::uint64_t target_misses = 0;
  std::uint64_t targets_dropped = 0;    ///< target-mailbox overwrites
  std::uint64_t solutions_dropped = 0;  ///< solution-mailbox overwrites
  DeviceHealth health = DeviceHealth::kHealthy;  ///< state at run end
  std::uint32_t restarts = 0;  ///< successful watchdog restarts this run
  /// Times any of the device's blocks changed its portfolio member on a
  /// controller request (0 outside diverse mode).
  std::uint64_t algorithm_switches = 0;
  /// what() of the captured exception (or the stall diagnosis) for an
  /// unhealthy device; empty while healthy.
  std::string failure;
};

/// Per-island accounting attached to every result (one entry on classic
/// single-pool runs).
struct IslandSummary {
  std::uint32_t island_id = 0;
  Energy best_energy = 0;  ///< kUnevaluated when nothing reported
  std::size_t pool_evaluated = 0;
  std::uint64_t inserts = 0;        ///< reports this island's pool accepted
  std::uint64_t migrations_in = 0;  ///< elites received over the ring
  std::uint32_t blocks = 0;         ///< blocks assigned at run end
};

/// One periodic observation of a running solve (see
/// AbsConfig::snapshot_interval_seconds).
struct RunSnapshot {
  double seconds = 0.0;
  Energy best_energy = 0;             ///< pool best (kUnevaluated if none)
  std::size_t pool_evaluated = 0;
  std::uint64_t total_flips = 0;
  /// Evaluated solutions per second since the previous snapshot. NaN when
  /// the observation window was empty (e.g. the first snapshot of a
  /// continuation fired immediately) — a near-zero-length window must not
  /// produce an absurd rate, and 0.0 would be indistinguishable from a
  /// genuinely stalled solver.
  double window_rate = 0.0;
};

struct AbsResult {
  BitVector best;
  Energy best_energy = 0;
  bool reached_target = false;
  /// True when the run ended because request_stop() was called.
  bool cancelled = false;

  double seconds = 0.0;
  std::uint64_t total_flips = 0;
  std::uint64_t evaluated_solutions = 0;
  /// Evaluated solutions per second — the paper's "search rate".
  double search_rate = 0.0;

  std::uint64_t reports_received = 0;
  std::uint64_t reports_inserted = 0;
  /// Pool churn: reports rejected as exact duplicates (the premature-
  /// convergence signal) and members evicted for better newcomers.
  std::uint64_t duplicates_rejected = 0;
  std::uint64_t pool_evictions = 0;
  std::uint64_t targets_generated = 0;
  std::uint64_t solutions_dropped = 0;
  std::uint64_t targets_dropped = 0;

  /// (wall-clock seconds, energy) at each improvement of the incumbent —
  /// the raw series behind time-to-solution plots.
  std::vector<std::pair<double, Energy>> best_trace;
  /// Per-device breakdown (the Fig. 8 fairness data).
  std::vector<DeviceSummary> devices;
  /// Per-island breakdown (one island on classic runs), ring-migration
  /// totals and controller activity (both zero on classic runs).
  std::vector<IslandSummary> islands;
  std::uint64_t migrations = 0;        ///< elites copied over the ring
  std::uint64_t migration_events = 0;  ///< times the ring migration ran
  std::uint64_t controller_reassignments = 0;
  /// Periodic observations, when enabled.
  std::vector<RunSnapshot> snapshots;

  /// Device ids quarantined (stalled or failed) at run end. Empty for a
  /// fully healthy run; a device that failed but was restarted within
  /// budget is NOT listed (see DeviceSummary::restarts).
  std::vector<std::uint32_t> failed_devices;
  /// Run checkpoints successfully written / failed to write (a checkpoint
  /// write failure degrades the run's durability, never its progress).
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoints_failed = 0;
};

class AbsSolver {
 public:
  AbsSolver(const WeightMatrix& w, AbsConfig config);
  ~AbsSolver();

  AbsSolver(const AbsSolver&) = delete;
  AbsSolver& operator=(const AbsSolver&) = delete;

  /// Runs until a stop criterion fires. Reusable: each call restarts from a
  /// fresh pool but keeps the devices' accumulated search state (matching
  /// the paper's long-lived blocks).
  AbsResult run(const StopCriteria& stop);

  /// Thread-safe external cancellation: the current (or next) run() ends
  /// with result.cancelled = true — a parked host is woken at once. The
  /// flag is consumed by that run.
  void request_stop() {
    stop_requested_.store(true);
    doorbell_.ring();
  }

  /// The island pools and the (island, algorithm) controller — one island
  /// and one min-Δ arm on classic runs. Host-loop state: read between runs
  /// or from the host thread.
  [[nodiscard]] const portfolio::IslandSet& islands() const {
    return islands_;
  }
  [[nodiscard]] const portfolio::AdaptiveController& controller() const {
    return controller_;
  }
  [[nodiscard]] std::uint32_t num_devices() const {
    return static_cast<std::uint32_t>(devices_.size());
  }
  [[nodiscard]] const Device& device(std::size_t i) const {
    return *devices_[i].device;
  }
  /// Watchdog verdict for device slot `i` (kHealthy between runs).
  [[nodiscard]] DeviceHealth device_health(std::size_t i) const {
    return devices_[i].health;
  }

 private:
  /// The lockstep executor drives the host phases below directly.
  friend class SyncAbsRunner;

  /// One logical device position. The Device object is replaced on
  /// restart; the slot carries the identity, the health verdict, and the
  /// counters accumulated by retired incarnations.
  struct DeviceSlot {
    std::unique_ptr<Device> device;
    DeviceConfig config;  ///< resolved per-device config (restart template)
    DeviceHealth health = DeviceHealth::kHealthy;
    std::uint32_t restarts = 0;     ///< watchdog restarts this run
    std::uint32_t incarnations = 0; ///< devices built beyond the first (ever)
    std::string failure;        ///< diagnosis once unhealthy
    double quarantined_at = 0;  ///< run clock at quarantine (backoff base)
    std::uint64_t seen_counter = 0;  ///< host Step 2 high-water mark
    // Watchdog progress tracking.
    std::uint64_t last_iterations = 0;
    double last_progress_time = 0.0;
    // Lifetime counters of retired (crashed-and-replaced) incarnations.
    std::uint64_t retired_flips = 0;
    std::uint64_t retired_iterations = 0;
    std::uint64_t retired_reports = 0;
    std::uint64_t retired_target_misses = 0;
    std::uint64_t retired_targets_dropped = 0;
    std::uint64_t retired_solutions_dropped = 0;
    std::uint64_t retired_algorithm_switches = 0;
  };

  // --- Host phases (Fig. 5), shared by run() and SyncAbsRunner ----------

  /// Host Step 1: opens a run. Revives slots a previous run left
  /// quarantined, refills the island pools with random vectors (plus any
  /// warm start) and stocks one target per resident block.
  void stock_targets();
  /// Host Steps 2–4 for device slot `d`: poll its counter, drain and insert
  /// the arrivals (best_trace stamped with `now`), breed one replacement
  /// per arrival, then tick the island/controller round clock. Returns
  /// false when the device had nothing new (or is quarantined).
  bool host_round(std::size_t d, double now);
  /// Drains in-flight reports, then returns the run so far with its
  /// per-device and per-island summaries. `seconds` is the wall time the
  /// result covers; the search rate counts the flips committed since
  /// `rate_base_flips`.
  AbsResult finish_run(const StopCriteria& stop, double seconds,
                       std::uint64_t rate_base_flips);

  // --- Host-round helpers -----------------------------------------------

  /// Drains slot `d`'s solution mailbox through receive(); returns the
  /// arrivals so Step 4 can breed one replacement per report.
  std::vector<sim::ReportedSolution> drain(std::size_t d, double now);
  /// Host Step 3 for one report: insert into the island of the reporting
  /// block's arm, credit the arm, and record an incumbent improvement.
  void receive(std::size_t d, const sim::ReportedSolution& report,
               double now);
  /// Island whose pool block `block` of device `d` reports into and draws
  /// its targets from.
  [[nodiscard]] std::uint32_t island_of(std::size_t d,
                                        std::uint32_t block) const;
  std::uint64_t flips_across_devices() const;
  /// Pushes the pool-churn counter deltas since the last sync into the
  /// metrics registry (no-op when metrics are disabled).
  void sync_pool_metrics();
  /// Builds a fresh Device for slot `slot_index`; `incarnation` > 0 remixes
  /// the seed so a restarted device explores a new stream.
  [[nodiscard]] std::unique_ptr<Device> make_device(std::size_t slot_index,
                                                    std::uint32_t incarnation);
  /// Replaces slot `slot_index`'s Device with a fresh, healthy incarnation
  /// (stopped, not started): folds the old one's counters into the
  /// slot's retired_* totals and replays the controller's assignments.
  void rebuild_device(std::size_t slot_index);
  /// Marks a device unhealthy, stops it without joining, salvages its
  /// in-flight reports (no replacement targets), and records telemetry.
  void quarantine(std::size_t slot_index, DeviceHealth health,
                  std::string diagnosis, double now);
  /// Failure/stall detection plus the bounded restart policy; called from
  /// the host loop.
  void poll_device_health(double now);
  /// The earliest run-clock time at which the host loop has work that no
  /// ring announces: the time limit, the next snapshot or checkpoint, a
  /// healthy slot's stall verdict, a failed slot's restart. +∞ when none.
  [[nodiscard]] double next_deadline(const StopCriteria& stop,
                                     double next_snapshot,
                                     double next_checkpoint) const;
  /// Writes a run checkpoint (atomic) and counts it in `result`; failures
  /// are counted, not fatal.
  void write_run_checkpoint(AbsResult& result, double now);
  /// The merged best-first view of all island pools (the checkpoint
  /// payload, capped at pool_capacity, evaluated entries only).
  [[nodiscard]] SolutionPool merged_pool() const;
  /// Re-applies the controller's current (possibly reallocated) member
  /// assignments to a freshly built device incarnation.
  void reapply_algorithms(std::size_t slot_index);

  const WeightMatrix* w_;
  AbsConfig config_;
  /// The island pools and the (island, algorithm) controller. The
  /// controller exists even with portfolio.controller == false — it
  /// carries the static block → arm striping the report router needs.
  portfolio::IslandSet islands_;
  portfolio::AdaptiveController controller_;
  /// What the parked host loop waits on; every device incarnation rings
  /// it. Declared before devices_, so it outlives them.
  sim::Doorbell doorbell_;
  std::vector<DeviceSlot> devices_;
  std::atomic<bool> stop_requested_{false};

  /// The run in progress: what the host phases have accumulated since
  /// stock_targets(). finish_run() returns a summarized copy, so the
  /// lockstep runner can keep accumulating across calls.
  AbsResult run_;
  std::uint64_t run_start_flips_ = 0;
  std::uint64_t run_start_reassignments_ = 0;

  // Host-side telemetry series, resolved at construction (null = off).
  obs::Counter* m_reports_received_ = nullptr;
  obs::Counter* m_reports_inserted_ = nullptr;
  obs::Counter* m_duplicates_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_targets_generated_ = nullptr;
  obs::Counter* m_improvements_ = nullptr;
  obs::Gauge* m_pool_best_energy_ = nullptr;
  obs::Gauge* m_pool_evaluated_ = nullptr;
  obs::Counter* m_device_failures_ = nullptr;
  obs::Counter* m_device_restarts_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;
  obs::Counter* m_targets_dropped_ = nullptr;    ///< mailbox="targets"
  obs::Counter* m_solutions_dropped_ = nullptr;  ///< mailbox="solutions"
  std::vector<obs::Gauge*> m_device_health_;  ///< per slot; DeviceHealth value
  std::uint64_t synced_inserted_ = 0;
  std::uint64_t synced_duplicates_ = 0;
  std::uint64_t synced_evictions_ = 0;
  std::uint64_t synced_targets_dropped_ = 0;
  std::uint64_t synced_solutions_dropped_ = 0;
  /// Job id parsed from the telemetry base labels ({job="<id>"}), stamped
  /// onto this solver's log lines; -1 = standalone run, no job field.
  std::int64_t log_job_ = -1;
};

}  // namespace absq
