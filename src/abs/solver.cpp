#include "abs/solver.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <thread>

#include "ga/pool_io.hpp"
#include "obs/log.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace absq {
namespace {

/// Human-readable diagnosis of a captured exception.
std::string describe(const std::exception_ptr& failure) {
  try {
    std::rethrow_exception(failure);
  } catch (const std::exception& error) {
    return error.what();
  } catch (...) {
    return "unknown exception";
  }
}

portfolio::IslandSet::Config island_config(const AbsConfig& config) {
  portfolio::IslandSet::Config islands;
  islands.islands = config.portfolio.islands;
  islands.pool_capacity = config.pool_capacity;
  islands.ga = config.ga;
  islands.migration_interval =
      config.portfolio.islands > 1
          ? config.portfolio.effective_migration_interval()
          : 0;
  islands.seed = config.seed;
  islands.telemetry = config.telemetry;
  return islands;
}

portfolio::AdaptiveController::Config controller_config(
    const AbsConfig& config) {
  portfolio::AdaptiveController::Config controller;
  controller.islands = config.portfolio.islands;
  controller.algorithms = config.portfolio.algorithm_list();
  controller.enabled = config.portfolio.controller;
  controller.realloc_interval = config.portfolio.realloc_interval;
  controller.seed = config.seed;
  controller.telemetry = config.telemetry;
  return controller;
}

}  // namespace

const char* to_string(DeviceHealth health) {
  switch (health) {
    case DeviceHealth::kHealthy: return "healthy";
    case DeviceHealth::kStalled: return "stalled";
    case DeviceHealth::kFailed: return "failed";
  }
  return "unknown";
}

AbsSolver::AbsSolver(const WeightMatrix& w, AbsConfig config)
    : w_(&w),
      config_(std::move(config)),
      islands_(island_config(config_)),
      controller_(controller_config(config_)) {
  ABSQ_CHECK(config_.num_devices >= 1, "need at least one device");

  // The islands and the controller exist before the devices, so the
  // initial block striping can be baked into every device's algorithm
  // schedule: block b of device d starts on arm (d + b) % num_arms —
  // exactly the assignment register_block records.
  const std::uint32_t num_arms = controller_.num_arms();
  devices_.resize(config_.num_devices);
  for (std::uint32_t d = 0; d < config_.num_devices; ++d) {
    DeviceSlot& slot = devices_[d];
    slot.config = config_.device;
    slot.config.device_id = d;
    slot.config.seed = mix64(config_.seed ^ (d + 1));
    slot.config.telemetry = config_.telemetry;
    if (!slot.config.threads_per_device.has_value()) {
      // Auto: split the host's cores across the simulated devices.
      slot.config.threads_per_device = std::max(
          1u, std::thread::hardware_concurrency() / config_.num_devices);
    }
    slot.config.algorithm_schedule.resize(num_arms);
    for (std::uint32_t j = 0; j < num_arms; ++j) {
      slot.config.algorithm_schedule[j] =
          controller_.arm((d + j) % num_arms).algorithm;
    }
    slot.device = make_device(d, /*incarnation=*/0);
    for (std::uint32_t b = 0; b < slot.device->block_count(); ++b) {
      (void)controller_.register_block(d, b);
    }
  }

  for (const auto& kv : config_.telemetry.labels.pairs()) {
    if (kv.first == "job") {
      // Best effort: a non-numeric job label leaves log lines unstamped.
      try {
        log_job_ = std::stoll(kv.second);
      } catch (const std::exception&) {
      }
    }
  }

  if (obs::MetricsRegistry* registry = config_.telemetry.metrics;
      registry != nullptr) {
    const obs::Labels& base = config_.telemetry.labels;
    m_reports_received_ =
        &registry->counter("absq_reports_received_total", base);
    m_reports_inserted_ =
        &registry->counter("absq_reports_inserted_total", base);
    m_duplicates_ =
        &registry->counter("absq_pool_duplicates_rejected_total", base);
    m_evictions_ = &registry->counter("absq_pool_evictions_total", base);
    m_targets_generated_ =
        &registry->counter("absq_targets_generated_total", base);
    m_improvements_ =
        &registry->counter("absq_incumbent_improvements_total", base);
    m_pool_best_energy_ = &registry->gauge("absq_pool_best_energy", base);
    m_pool_evaluated_ = &registry->gauge("absq_pool_evaluated", base);
    m_device_failures_ =
        &registry->counter("absq_device_failures_total", base);
    m_device_restarts_ =
        &registry->counter("absq_device_restarts_total", base);
    m_checkpoints_ =
        &registry->counter("absq_checkpoints_written_total", base);
    m_targets_dropped_ = &registry->counter(
        "absq_mailbox_dropped_total",
        config_.telemetry.with({{"mailbox", "targets"}}));
    m_solutions_dropped_ = &registry->counter(
        "absq_mailbox_dropped_total",
        config_.telemetry.with({{"mailbox", "solutions"}}));
    m_device_health_.reserve(devices_.size());
    for (std::uint32_t d = 0; d < config_.num_devices; ++d) {
      m_device_health_.push_back(&registry->gauge(
          "absq_device_health",
          config_.telemetry.with({{"device", std::to_string(d)}})));
    }
  }
}

AbsSolver::~AbsSolver() {
  for (auto& slot : devices_) {
    if (slot.device != nullptr) slot.device->request_stop();
  }
  for (auto& slot : devices_) {
    if (slot.device != nullptr) slot.device->stop();
  }
}

std::unique_ptr<Device> AbsSolver::make_device(std::size_t slot_index,
                                               std::uint32_t incarnation) {
  DeviceConfig device_config = devices_[slot_index].config;
  if (incarnation > 0) {
    // A restarted device must not replay the crashed incarnation's stream.
    device_config.seed =
        mix64(device_config.seed ^ (0x9e3779b97f4a7c15ULL * incarnation));
  }
  auto device = std::make_unique<Device>(*w_, device_config);
  device->set_doorbell(&doorbell_);
  return device;
}

void AbsSolver::rebuild_device(std::size_t slot_index) {
  DeviceSlot& slot = devices_[slot_index];
  slot.device->stop();
  // Fold the retiring incarnation's counters into the slot so summaries
  // stay lifetime totals across incarnations.
  slot.retired_flips += slot.device->total_flips();
  slot.retired_iterations += slot.device->total_iterations();
  slot.retired_reports += slot.device->solutions().counter();
  slot.retired_target_misses += slot.device->target_misses();
  slot.retired_targets_dropped += slot.device->targets().dropped();
  slot.retired_solutions_dropped += slot.device->solutions().dropped();
  slot.retired_algorithm_switches += slot.device->total_algorithm_switches();
  slot.device = make_device(slot_index, ++slot.incarnations);
  reapply_algorithms(slot_index);
  slot.health = DeviceHealth::kHealthy;
  slot.failure.clear();
  if (!m_device_health_.empty()) {
    m_device_health_[slot_index]->set(
        static_cast<double>(DeviceHealth::kHealthy));
  }
}

std::uint32_t AbsSolver::island_of(std::size_t d, std::uint32_t block) const {
  return controller_
      .arm(controller_.arm_of(static_cast<std::uint32_t>(d), block))
      .island;
}

void AbsSolver::receive(std::size_t d, const sim::ReportedSolution& report,
                        double now) {
  ++run_.reports_received;
  const std::uint32_t arm =
      controller_.arm_of(static_cast<std::uint32_t>(d), report.block_id);
  if (!islands_.insert(controller_.arm(arm).island, report.bits,
                       report.energy)) {
    return;
  }
  ++run_.reports_inserted;
  controller_.credit_insert(arm);
  const bool improved = run_.best_trace.empty() ||
                        report.energy < run_.best_trace.back().second;
  if (!improved) return;
  run_.best_trace.emplace_back(now, report.energy);
  obs::add(m_improvements_);
  // The incumbent moved: weight this arm's credit heavily.
  controller_.credit_improvement(arm);
  if (obs::EventTracer* tracer = config_.telemetry.tracer;
      tracer != nullptr) {
    tracer->instant("incumbent", "host", config_.telemetry.pid_base,
                    /*tid=*/static_cast<std::uint32_t>(d), "energy",
                    report.energy);
  }
}

std::vector<sim::ReportedSolution> AbsSolver::drain(std::size_t d,
                                                    double now) {
  std::vector<sim::ReportedSolution> arrivals =
      devices_[d].device->solutions().drain();
  obs::add(m_reports_received_, arrivals.size());
  for (const auto& report : arrivals) receive(d, report, now);
  return arrivals;
}

SolutionPool AbsSolver::merged_pool() const {
  // Best-first across all islands; duplicates collapse on insert, so the
  // checkpoint is a classic single pool whatever the island count.
  SolutionPool merged(config_.pool_capacity);
  for (std::uint32_t i = 0; i < islands_.count(); ++i) {
    const SolutionPool& pool = islands_.pool(i);
    for (std::size_t rank = 0; rank < pool.size(); ++rank) {
      const SolutionPool::Entry& entry = pool.entry(rank);
      if (entry.energy == kUnevaluated) break;  // sorted: rest unevaluated
      (void)merged.insert(entry.bits, entry.energy);
    }
  }
  return merged;
}

void AbsSolver::reapply_algorithms(std::size_t slot_index) {
  // A rebuilt device incarnation starts on the *initial* striping baked
  // into its config; replay the controller's current assignments on top.
  DeviceSlot& slot = devices_[slot_index];
  for (std::uint32_t b = 0; b < slot.device->block_count(); ++b) {
    const std::uint32_t arm =
        controller_.arm_of(static_cast<std::uint32_t>(slot_index), b);
    slot.device->request_block_algorithm(b, controller_.arm(arm).algorithm);
  }
}

std::uint64_t AbsSolver::flips_across_devices() const {
  std::uint64_t total = 0;
  for (const auto& slot : devices_) {
    total += slot.retired_flips + slot.device->total_flips();
  }
  return total;
}

void AbsSolver::sync_pool_metrics() {
  if (m_reports_inserted_ == nullptr) return;
  std::uint64_t insertions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t evictions = 0;
  for (std::uint32_t i = 0; i < islands_.count(); ++i) {
    const SolutionPool& pool = islands_.pool(i);
    insertions += pool.insertions();
    duplicates += pool.duplicates_rejected();
    evictions += pool.evictions();
  }
  islands_.sync_metrics();
  m_reports_inserted_->add(insertions - synced_inserted_);
  m_duplicates_->add(duplicates - synced_duplicates_);
  m_evictions_->add(evictions - synced_evictions_);
  synced_inserted_ = insertions;
  synced_duplicates_ = duplicates;
  synced_evictions_ = evictions;
  // Mailbox overflow totals, delta-synced the same way (the mailboxes'
  // dropped() counters are relaxed atomics, safe to read from the host).
  std::uint64_t targets_dropped = 0;
  std::uint64_t solutions_dropped = 0;
  for (const auto& slot : devices_) {
    targets_dropped +=
        slot.retired_targets_dropped + slot.device->targets().dropped();
    solutions_dropped +=
        slot.retired_solutions_dropped + slot.device->solutions().dropped();
  }
  m_targets_dropped_->add(targets_dropped - synced_targets_dropped_);
  m_solutions_dropped_->add(solutions_dropped - synced_solutions_dropped_);
  synced_targets_dropped_ = targets_dropped;
  synced_solutions_dropped_ = solutions_dropped;
  const Energy best = islands_.best_energy();
  if (best != kUnevaluated) {
    m_pool_best_energy_->set(static_cast<double>(best));
  }
  m_pool_evaluated_->set(static_cast<double>(islands_.evaluated_count()));
}

void AbsSolver::quarantine(std::size_t slot_index, DeviceHealth health,
                           std::string diagnosis, double now) {
  DeviceSlot& slot = devices_[slot_index];
  slot.health = health;
  slot.failure = std::move(diagnosis);
  slot.quarantined_at = now;
  // Stop without joining: the host must stay responsive even if the
  // device's threads are hung. The join happens at run end (Device::stop),
  // by which time injected stalls are cancelled.
  slot.device->request_stop();
  // Reports already in the mailbox survive their device's death; no
  // replacement targets are bred — the device is out of the rotation.
  (void)drain(slot_index, now);
  obs::add(m_device_failures_);
  if (!m_device_health_.empty()) {
    m_device_health_[slot_index]->set(static_cast<double>(health));
  }
  obs::log_warn("solver", "device quarantined",
                {{"device", static_cast<std::int64_t>(slot_index)},
                 {"health", to_string(health)},
                 {"diagnosis", slot.failure}},
                log_job_);
  if (obs::EventTracer* tracer = config_.telemetry.tracer;
      tracer != nullptr) {
    tracer->instant("device_failed", "host", config_.telemetry.pid_base,
                    /*tid=*/static_cast<std::uint32_t>(slot_index), "health",
                    static_cast<std::int64_t>(health));
  }
}

void AbsSolver::poll_device_health(double now) {
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    DeviceSlot& slot = devices_[d];
    if (slot.health == DeviceHealth::kHealthy) {
      // A captured exception is unambiguous: quarantine immediately.
      if (std::exception_ptr failure = slot.device->failure();
          failure != nullptr) {
        quarantine(d, DeviceHealth::kFailed,
                   "device worker threw: " + describe(failure), now);
        continue;
      }
      // Stall detection (opt-in): the iteration counter is the heartbeat.
      if (config_.watchdog.stall_grace_seconds > 0.0) {
        const std::uint64_t iterations = slot.device->total_iterations();
        if (iterations != slot.last_iterations) {
          slot.last_iterations = iterations;
          slot.last_progress_time = now;
        } else if (now - slot.last_progress_time >
                   config_.watchdog.stall_grace_seconds) {
          std::string diagnosis = "device stalled: no iteration for ";
          diagnosis += std::to_string(now - slot.last_progress_time);
          diagnosis += " s (grace ";
          diagnosis +=
              std::to_string(config_.watchdog.stall_grace_seconds);
          diagnosis += " s)";
          quarantine(d, DeviceHealth::kStalled, std::move(diagnosis), now);
        }
      }
      continue;
    }

    // Bounded restart policy: failed devices only. A stalled device's
    // threads may be hung, and re-creating the slot requires joining the
    // old incarnation — so stalls stay quarantined.
    if (slot.health == DeviceHealth::kFailed &&
        slot.restarts < config_.watchdog.max_restarts &&
        now - slot.quarantined_at >=
            config_.watchdog.restart_backoff_seconds) {
      slot.device->stop();  // workers are idle after the failure; joins fast
      (void)drain(d, now);  // salvage what arrived since the quarantine
      rebuild_device(d);
      ++slot.restarts;
      slot.seen_counter = 0;
      slot.last_iterations = 0;
      slot.last_progress_time = now;
      slot.device->start();
      for (std::uint32_t b = 0; b < slot.device->block_count(); ++b) {
        slot.device->targets().push(islands_.random_member(island_of(d, b)));
      }
      run_.targets_generated += slot.device->block_count();
      obs::add(m_targets_generated_, slot.device->block_count());
      obs::add(m_device_restarts_);
      obs::log_info("solver", "device restarted",
                    {{"device", static_cast<std::int64_t>(d)},
                     {"restart", static_cast<std::int64_t>(slot.restarts)},
                     {"incarnation",
                      static_cast<std::int64_t>(slot.incarnations)}},
                    log_job_);
      if (obs::EventTracer* tracer = config_.telemetry.tracer;
          tracer != nullptr) {
        tracer->instant("device_restarted", "host",
                        config_.telemetry.pid_base,
                        /*tid=*/static_cast<std::uint32_t>(d), "restart",
                        slot.restarts);
      }
    }
  }
}

double AbsSolver::next_deadline(const StopCriteria& stop,
                                double next_snapshot,
                                double next_checkpoint) const {
  double deadline = std::numeric_limits<double>::infinity();
  if (stop.time_limit_seconds > 0.0) {
    deadline = std::min(deadline, stop.time_limit_seconds);
  }
  if (config_.snapshot_interval_seconds > 0.0) {
    deadline = std::min(deadline, next_snapshot);
  }
  if (!config_.checkpoint_path.empty() &&
      config_.checkpoint_interval_seconds > 0.0) {
    deadline = std::min(deadline, next_checkpoint);
  }
  const WatchdogConfig& watchdog = config_.watchdog;
  for (const DeviceSlot& slot : devices_) {
    if (slot.health == DeviceHealth::kHealthy &&
        watchdog.stall_grace_seconds > 0.0) {
      // A stalled device rings nothing: its verdict is a deadline.
      deadline = std::min(
          deadline, slot.last_progress_time + watchdog.stall_grace_seconds);
    } else if (slot.health == DeviceHealth::kFailed &&
               slot.restarts < watchdog.max_restarts) {
      deadline = std::min(
          deadline, slot.quarantined_at + watchdog.restart_backoff_seconds);
    }
  }
  return deadline;
}

void AbsSolver::write_run_checkpoint(AbsResult& result, double now) {
  RunCheckpoint checkpoint;
  checkpoint.seed = config_.seed;
  checkpoint.elapsed_seconds = config_.elapsed_offset_seconds + now;
  checkpoint.device_flips.reserve(devices_.size());
  for (const auto& slot : devices_) {
    checkpoint.device_flips.push_back(slot.retired_flips +
                                      slot.device->total_flips());
  }
  // The merged best-first view of all islands, so a resume (or a config
  // with another island count) can warm-start from it.
  checkpoint.pool = std::make_shared<const SolutionPool>(merged_pool());
  try {
    write_checkpoint_file(config_.checkpoint_path, checkpoint);
    ++result.checkpoints_written;
    obs::add(m_checkpoints_);
    if (obs::EventTracer* tracer = config_.telemetry.tracer;
        tracer != nullptr) {
      tracer->instant("checkpoint", "host", config_.telemetry.pid_base,
                      /*tid=*/0, "written",
                      static_cast<std::int64_t>(result.checkpoints_written));
    }
    if (config_.on_checkpoint) {
      config_.on_checkpoint(result.checkpoints_written);
    }
  } catch (const std::exception& error) {
    // Durability degrades; the search must not. The previous snapshot is
    // still intact (atomic rename), so keep running and count the miss.
    ++result.checkpoints_failed;
    obs::log_warn("solver", "checkpoint write failed",
                  {{"path", config_.checkpoint_path},
                   {"error", error.what()}},
                  log_job_);
  }
}

void AbsSolver::stock_targets() {
  // Revive slots left unhealthy by a previous run: the device object may
  // hold dead workers, so it is rebuilt from the weight matrix.
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    devices_[d].restarts = 0;
    if (devices_[d].health != DeviceHealth::kHealthy) rebuild_device(d);
  }
  run_ = AbsResult{};
  run_start_flips_ = flips_across_devices();
  run_start_reassignments_ = controller_.reassignments();

  // Random island pools, energies unknown; the target buffers are stocked
  // from them so every block starts on GA-chosen ground.
  islands_.initialize_random(w_->size());
  synced_inserted_ = 0;
  synced_duplicates_ = 0;
  synced_evictions_ = 0;
  if (config_.warm_start != nullptr) {
    for (std::size_t i = 0; i < config_.warm_start->size(); ++i) {
      const auto& entry = config_.warm_start->entry(i);
      ABSQ_CHECK(entry.bits.size() == w_->size(),
                 "warm-start pool is for a different instance size");
      // Round-robin so every island shares the resumed elite.
      (void)islands_.insert(
          static_cast<std::uint32_t>(i % islands_.count()), entry.bits,
          entry.energy);
    }
  }
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    DeviceSlot& slot = devices_[d];
    // Zero (not the current counter value): on a reused solver the first
    // poll then drains leftovers exactly as the pre-watchdog host did.
    slot.seen_counter = 0;
    // One target per resident block; blocks without a target continue from
    // their current solution, so underfill is benign. With a warm start,
    // its entries (sorted best-first in the pool) go out first.
    Device& device = *slot.device;
    for (std::uint32_t b = 0; b < device.block_count(); ++b) {
      const std::uint32_t island = island_of(d, b);
      const SolutionPool& pool = islands_.pool(island);
      device.targets().push(config_.warm_start != nullptr && b < pool.size()
                                ? pool.entry(b).bits
                                : islands_.random_member(island));
    }
    run_.targets_generated += device.block_count();
    obs::add(m_targets_generated_, device.block_count());
  }
}

bool AbsSolver::host_round(std::size_t d, double now) {
  DeviceSlot& slot = devices_[d];
  if (slot.health != DeviceHealth::kHealthy) return false;  // quarantined
  // Host Step 2: poll the global counter; drain only when it moved.
  const std::uint64_t counter = slot.device->solutions().counter();
  if (counter == slot.seen_counter) return false;
  slot.seen_counter = counter;

  obs::EventTracer* const tracer = config_.telemetry.tracer;
  obs::TraceSpan round_span(tracer, "ga_round", "host",
                            config_.telemetry.pid_base,
                            /*tid=*/static_cast<std::uint32_t>(d));

  // Host Step 3: insert the arrivals into their arms' island pools.
  const std::vector<sim::ReportedSolution> arrivals = drain(d, now);
  round_span.set_arg("arrivals", static_cast<std::int64_t>(arrivals.size()));

  // Host Step 4: breed as many fresh targets as solutions arrived, each
  // from the island of the arriving report's arm, with that island's own
  // operators and stream.
  for (const auto& report : arrivals) {
    slot.device->targets().push(islands_.breed(island_of(d, report.block_id)));
  }
  run_.targets_generated += arrivals.size();
  obs::add(m_targets_generated_, arrivals.size());
  if (tracer != nullptr && !arrivals.empty()) {
    tracer->instant("target_push", "host", config_.telemetry.pid_base,
                    /*tid=*/static_cast<std::uint32_t>(d), "targets",
                    static_cast<std::int64_t>(arrivals.size()));
  }
  sync_pool_metrics();

  // Round clock: one drained device = one GA round. The island ring
  // migrates and the controller reallocates on their own cadences over it.
  (void)islands_.note_round();
  (void)controller_.note_round(
      [this](std::uint32_t device, std::uint32_t block, std::uint32_t arm) {
        DeviceSlot& target_slot = devices_[device];
        if (target_slot.health == DeviceHealth::kHealthy) {
          target_slot.device->request_block_algorithm(
              block, controller_.arm(arm).algorithm);
        }
      });
  return true;
}

AbsResult AbsSolver::finish_run(const StopCriteria& stop, double seconds,
                                std::uint64_t rate_base_flips) {
  // Final drain so reports in flight at stop time are not lost (always
  // empty in lockstep, where every round drains what it stepped).
  for (std::size_t d = 0; d < devices_.size(); ++d) (void)drain(d, seconds);
  sync_pool_metrics();

  if (islands_.evaluated_count() == 0) {
    // Nothing was ever reported. If that is because every device died,
    // surface the original fault rather than a misleading configuration
    // hint.
    for (const auto& slot : devices_) {
      if (slot.health == DeviceHealth::kFailed) {
        if (std::exception_ptr failure = slot.device->failure();
            failure != nullptr) {
          std::rethrow_exception(failure);
        }
        throw NoReportError("all devices failed before any report: " +
                            slot.failure);
      }
    }
    // Otherwise name what ended the run; only the lockstep runner ends
    // on none of the criteria below.
    const char* cause = "the lockstep rounds ran out";
    if (run_.cancelled) {
      cause = "the run was cancelled";
    } else if (std::all_of(devices_.begin(), devices_.end(),
                           [](const DeviceSlot& slot) {
                             return slot.health == DeviceHealth::kStalled;
                           })) {
      cause = "every device stalled";
    } else if (stop.max_flips > 0 &&
               flips_across_devices() - rate_base_flips >= stop.max_flips) {
      cause = "the flip budget was spent — raise the flip budget";
    } else if (stop.time_limit_seconds > 0.0 &&
               seconds >= stop.time_limit_seconds) {
      cause = "the time limit passed — raise the time limit";
    }
    throw NoReportError(std::string("run ended before any device reported: ") +
                        cause);
  }

  AbsResult result = run_;
  result.seconds = seconds;
  if (stop.target_energy.has_value() &&
      islands_.best_energy() <= *stop.target_energy) {
    result.reached_target = true;
  }
  for (const auto& slot : devices_) {
    Device& device = *slot.device;
    DeviceSummary summary;
    summary.device_id = slot.config.device_id;
    summary.workers = device.worker_count();
    summary.flips = slot.retired_flips + device.total_flips();
    summary.iterations = slot.retired_iterations + device.total_iterations();
    summary.reports = slot.retired_reports + device.solutions().counter();
    summary.target_misses =
        slot.retired_target_misses + device.target_misses();
    summary.targets_dropped =
        slot.retired_targets_dropped + device.targets().dropped();
    summary.solutions_dropped =
        slot.retired_solutions_dropped + device.solutions().dropped();
    summary.algorithm_switches =
        slot.retired_algorithm_switches + device.total_algorithm_switches();
    summary.health = slot.health;
    summary.restarts = slot.restarts;
    summary.failure = slot.failure;
    result.targets_dropped += summary.targets_dropped;
    result.solutions_dropped += summary.solutions_dropped;
    if (slot.health != DeviceHealth::kHealthy) {
      result.failed_devices.push_back(slot.config.device_id);
    }
    result.devices.push_back(std::move(summary));
  }
  result.islands.reserve(islands_.count());
  for (std::uint32_t i = 0; i < islands_.count(); ++i) {
    const SolutionPool& pool = islands_.pool(i);
    result.duplicates_rejected += pool.duplicates_rejected();
    result.pool_evictions += pool.evictions();
    IslandSummary summary;
    summary.island_id = i;
    summary.best_energy = pool.best_energy();
    summary.pool_evaluated = pool.evaluated_count();
    summary.inserts = islands_.inserts(i);
    for (const auto& event : islands_.migration_log()) {
      if (event.to == i) ++summary.migrations_in;
    }
    summary.blocks = controller_.blocks_on_island(i);
    result.islands.push_back(summary);
  }
  result.migrations = islands_.migrations();
  result.migration_events = islands_.migration_events();
  result.controller_reassignments =
      controller_.reassignments() - run_start_reassignments_;
  result.best = islands_.best().bits;
  result.best_energy = islands_.best().energy;
  const std::uint64_t flips = flips_across_devices();
  result.total_flips = flips - run_start_flips_;
  result.evaluated_solutions = result.total_flips * w_->size();
  result.search_rate =
      seconds > 0.0
          ? static_cast<double>((flips - rate_base_flips) * w_->size()) /
                seconds
          : 0.0;
  return result;
}

AbsResult AbsSolver::run(const StopCriteria& stop) {
  ABSQ_CHECK(stop.bounded(),
             "at least one stop criterion must be set or the run never ends");

  stock_targets();
  Stopwatch watch;
  for (auto& slot : devices_) {
    slot.device->start();
    slot.last_iterations = slot.device->total_iterations();
    slot.last_progress_time = 0.0;
  }

  obs::EventTracer* const tracer = config_.telemetry.tracer;
  const bool checkpointing = !config_.checkpoint_path.empty();
  double next_checkpoint = config_.checkpoint_interval_seconds;
  double next_snapshot = config_.snapshot_interval_seconds;
  double last_snapshot_time = 0.0;
  std::uint64_t last_snapshot_flips = 0;
  bool done = false;
  while (!done) {
    // Read the doorbell before polling: whatever rings after this read
    // cuts the park below short, so no report or failure is slept through.
    const std::uint64_t rung = doorbell_.rings();
    bool any_news = false;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      any_news |= host_round(d, watch.seconds());
    }

    // Watchdog: failure capture, stall detection, bounded restarts.
    poll_device_health(watch.seconds());

    // Periodic observation.
    if (config_.snapshot_interval_seconds > 0.0) {
      const double now = watch.seconds();
      if (now >= next_snapshot) {
        const std::uint64_t flips = flips_across_devices() - run_start_flips_;
        RunSnapshot snapshot;
        snapshot.seconds = now;
        snapshot.best_energy = islands_.best_energy();
        snapshot.pool_evaluated = islands_.evaluated_count();
        snapshot.total_flips = flips;
        // An empty observation window (first snapshot of a continuation,
        // or a poll racing the grid) yields NaN, not a nonsense rate.
        const double window = now - last_snapshot_time;
        snapshot.window_rate =
            window > 0.0 ? static_cast<double>(flips - last_snapshot_flips) *
                               w_->size() / window
                         : std::numeric_limits<double>::quiet_NaN();
        if (tracer != nullptr) {
          tracer->instant("snapshot", "host", config_.telemetry.pid_base,
                          /*tid=*/0, "flips",
                          static_cast<std::int64_t>(flips));
        }
        run_.snapshots.push_back(snapshot);
        last_snapshot_time = now;
        last_snapshot_flips = flips;
        // Advance on the fixed grid so a late poll does not shift the
        // cadence permanently; skip intervals already missed rather than
        // emitting a burst of catch-up snapshots.
        while (next_snapshot <= now) {
          next_snapshot += config_.snapshot_interval_seconds;
        }
      }
    }

    // Periodic crash-safe checkpoint (same fixed-grid cadence).
    if (checkpointing && config_.checkpoint_interval_seconds > 0.0) {
      const double now = watch.seconds();
      if (now >= next_checkpoint) {
        write_run_checkpoint(run_, now);
        while (next_checkpoint <= now) {
          next_checkpoint += config_.checkpoint_interval_seconds;
        }
      }
    }

    // Stop checks.
    if (stop_requested_.exchange(false)) {
      run_.cancelled = true;
      done = true;
    }
    if (stop.target_energy.has_value() &&
        islands_.best_energy() <= *stop.target_energy) {
      done = true;
    }
    if (stop.time_limit_seconds > 0.0 &&
        watch.seconds() >= stop.time_limit_seconds) {
      done = true;
    }
    if (stop.max_flips > 0 &&
        flips_across_devices() - run_start_flips_ >= stop.max_flips) {
      done = true;
    }

    // Degraded-mode floor: when every device is quarantined and none can
    // be restarted, waiting out the clock is pointless.
    if (!done) {
      const bool any_alive_or_restartable = std::any_of(
          devices_.begin(), devices_.end(), [this](const DeviceSlot& slot) {
            return slot.health == DeviceHealth::kHealthy ||
                   (slot.health == DeviceHealth::kFailed &&
                    slot.restarts < config_.watchdog.max_restarts);
          });
      if (!any_alive_or_restartable) done = true;
    }

    if (!done && !any_news) {
      // Nothing arrived: park until a ring or the next deadline, leaving
      // the core to the device workers.
      const double deadline =
          next_deadline(stop, next_snapshot, next_checkpoint);
      doorbell_.park(rung, deadline - watch.seconds());
    }
  }

  // Raise every stop flag before joining any device, so all of them cut
  // their iterations short at once.
  for (auto& slot : devices_) slot.device->request_stop();
  for (auto& slot : devices_) slot.device->stop();
  AbsResult result = finish_run(stop, watch.seconds(), run_start_flips_);

  // Graceful-shutdown checkpoint: a cancelled (SIGINT) or completed run
  // leaves a resumable snapshot behind.
  if (checkpointing) write_run_checkpoint(result, result.seconds);
  return result;
}

}  // namespace absq
