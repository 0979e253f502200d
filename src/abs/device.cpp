#include "abs/device.hpp"
// absq-lint: allow-file(relaxed-order) — flips_/iterations_/target_misses_
// are monotonic statistics counters read independently of the data they
// describe (Fig. 5 counter protocol), and the stop flag only needs
// eventual visibility; none of them publish other memory.

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace absq {
namespace {

/// Default parallel-tempering ladder: 2, 4, 8, ..., n/2.
std::vector<BitIndex> default_window_schedule(BitIndex n) {
  std::vector<BitIndex> ladder;
  for (BitIndex l = 2; l <= n / 2; l *= 2) ladder.push_back(l);
  if (ladder.empty()) ladder.push_back(1);
  return ladder;
}

}  // namespace

std::uint32_t Device::effective_block_count(const sim::Occupancy& occupancy,
                                            const DeviceConfig& config) {
  std::uint32_t count = occupancy.active_blocks;
  if (config.block_limit != 0) count = std::min(count, config.block_limit);
  ABSQ_CHECK(count >= 1, "device must host at least one block");
  return count;
}

std::uint32_t Device::resolve_workers(const DeviceConfig& config) {
  if (config.threads_per_device.has_value()) {
    ABSQ_CHECK(*config.threads_per_device >= 1,
               "threads_per_device must be at least 1 (unset = auto)");
    return *config.threads_per_device;
  }
  // Standalone device: all of the host. Multi-device owners (AbsSolver)
  // resolve the auto default themselves, dividing by the device count.
  return std::max(1u, std::thread::hardware_concurrency());
}

Device::Device(const WeightMatrix& w, const DeviceConfig& config)
    : w_(&w),
      config_(config),
      kernel_(std::make_unique<QuboKernel>(w, config.kernel)),
      occupancy_(sim::compute_occupancy(
          config.spec, w.size(),
          config.bits_per_thread != 0
              ? config.bits_per_thread
              : sim::default_bits_per_thread(config.spec, w.size()))),
      workers_(resolve_workers(config)),
      targets_(config.target_capacity != 0
                   ? config.target_capacity
                   : effective_block_count(occupancy_, config),
               workers_),
      solutions_(config.solution_capacity != 0
                     ? config.solution_capacity
                     : effective_block_count(occupancy_, config),
                 workers_) {
  const std::uint32_t block_count = effective_block_count(occupancy_, config);

  const std::vector<BitIndex> ladder = config.window_schedule.empty()
                                           ? default_window_schedule(w.size())
                                           : config.window_schedule;
  const std::uint64_t local_steps =
      config.local_steps != 0 ? config.local_steps : w.size();

  blocks_.reserve(block_count);
  for (std::uint32_t b = 0; b < block_count; ++b) {
    SearchBlock::Config block_config;
    block_config.device_id = config.device_id;
    block_config.block_id = b;
    block_config.window = ladder[b % ladder.size()];
    block_config.local_steps = local_steps;
    block_config.seed =
        mix64(config.seed ^ (0x9e3779b97f4a7c15ULL * (config.device_id + 1)));
    if (!config.algorithm_schedule.empty()) {
      block_config.algorithm =
          config.algorithm_schedule[b % config.algorithm_schedule.size()];
    }
    block_config.tracer = config.telemetry.tracer;
    block_config.trace_pid_base = config.telemetry.pid_base;
    block_config.kernel = kernel_.get();
    blocks_.push_back(std::make_unique<SearchBlock>(w, block_config));
  }

  // Resolve telemetry series once; the per-iteration path then pays only
  // relaxed atomic adds (or nothing when disabled).
  const std::uint32_t trace_pid =
      config.telemetry.pid_base + config.device_id + 1;
  if (config.telemetry.tracer != nullptr) {
    targets_.set_tracer(config.telemetry.tracer, trace_pid);
    solutions_.set_tracer(config.telemetry.tracer, trace_pid);
  }
  if (obs::MetricsRegistry* registry = config.telemetry.metrics;
      registry != nullptr) {
    const std::string device_label = std::to_string(config.device_id);
    const obs::Labels device_labels =
        config.telemetry.with({{"device", device_label}});
    m_iterations_ =
        &registry->counter("absq_device_iterations_total", device_labels);
    m_flips_ = &registry->counter("absq_device_flips_total", device_labels);
    m_target_misses_ =
        &registry->counter("absq_device_target_misses_total", device_labels);
    m_iteration_flips_ =
        &registry->histogram("absq_iteration_flips", device_labels);
    m_block_flips_.reserve(block_count);
    m_block_iterations_.reserve(block_count);
    for (std::uint32_t b = 0; b < block_count; ++b) {
      const obs::Labels block_labels = config.telemetry.with(
          {{"device", device_label}, {"block", std::to_string(b)}});
      m_block_flips_.push_back(
          &registry->counter("absq_block_flips_total", block_labels));
      m_block_iterations_.push_back(
          &registry->counter("absq_block_iterations_total", block_labels));
    }
  }
}

Device::~Device() { stop(); }

void Device::set_doorbell(sim::Doorbell* doorbell) {
  ABSQ_CHECK(!running_, "attach the doorbell while the device is stopped");
  doorbell_ = doorbell;
}

void Device::start() {
  if (running_) return;
  stop_requested_.store(false, std::memory_order_relaxed);
  // Running before the first spawn: should a later one throw, stop() (or
  // the destructor) still joins the workers already started.
  running_ = true;
  threads_.reserve(workers_);
  for (std::uint32_t worker = 0; worker < workers_; ++worker) {
    threads_.emplace_back([this, worker] { run_shard(worker); });
  }
}

void Device::stop() {
  if (!running_) return;
  stop_requested_.store(true, std::memory_order_relaxed);
  // A worker sleeping inside an injected stall would make the join below
  // wait out the whole stall; orderly shutdown aborts in-flight stalls
  // (the fail point re-arms for the next fire, so other devices under
  // stall injection merely skip one beat).
  if (fail::Registry::instance().any_armed()) {
    fail::Registry::instance().cancel_stalls();
  }
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  running_ = false;
}

void Device::iterate_block(std::size_t index, std::size_t worker,
                           const std::atomic<bool>* stop) {
  // Fault-injection site (scope = device id): a throw here simulates a
  // kernel fault and escapes to the worker's run_shard(); a stall spec
  // hangs this worker. Disarmed cost: one relaxed load.
  fail::maybe_fail("device.iterate", config_.device_id);
  SearchBlock& block = *blocks_[index];
  const auto maybe_target = targets_.poll(worker);
  if (!maybe_target) {
    target_misses_.fetch_add(1, std::memory_order_relaxed);
    obs::add(m_target_misses_);
    if (obs::EventTracer* tracer = config_.telemetry.tracer;
        tracer != nullptr) {
      tracer->instant("target_miss", "device",
                      config_.telemetry.pid_base + config_.device_id + 1,
                      static_cast<std::uint32_t>(index));
    }
  }
  const std::uint64_t before = block.stats().flips;
  // With no fresh target the block continues from where it is: a
  // zero-distance straight search followed by the usual local search.
  sim::ReportedSolution report =
      block.iterate(maybe_target ? *maybe_target : block.current(), stop);
  const std::uint64_t iteration_flips = block.stats().flips - before;
  // Counters first, report second, ring last: the host it wakes sees this
  // iteration's flips (a max_flips crossing), its heartbeat and its report.
  flips_.fetch_add(iteration_flips, std::memory_order_relaxed);
  iterations_.fetch_add(1, std::memory_order_relaxed);
  if (m_iterations_ != nullptr) {  // metrics attached
    m_iterations_->add(1);
    m_flips_->add(iteration_flips);
    m_iteration_flips_->observe(iteration_flips);
    m_block_flips_[index]->add(iteration_flips);
    m_block_iterations_[index]->add(1);
  }
  solutions_.push(std::move(report), worker);
  // Rung whether or not the push reached the mailbox: a host whose every
  // report is dropped still wakes to see the flip budget crossed.
  if (doorbell_ != nullptr) doorbell_->ring();
}

void Device::step_all_blocks_once() {
  ABSQ_CHECK(!running_, "synchronous stepping while the device workers run");
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    iterate_block(i, i, /*stop=*/nullptr);
  }
}

std::uint64_t Device::total_evaluated() const {
  return total_flips() * w_->size();
}

std::uint64_t Device::total_algorithm_switches() const {
  std::uint64_t total = 0;
  for (const auto& block : blocks_) total += block->algorithm_switches();
  return total;
}

void Device::run_shard(std::size_t worker) {
  const auto stopping = [this] {
    return stop_requested_.load(std::memory_order_relaxed);
  };
  try {
    // Worker `worker` owns blocks worker, worker+W, worker+2W, … — a
    // static partition, so every block is touched by exactly one thread
    // and the per-block search state needs no locking. A worker past the
    // block count owns none and ends at once.
    while (worker < blocks_.size() && !stopping()) {
      for (std::size_t i = worker; i < blocks_.size() && !stopping();
           i += workers_) {
        iterate_block(i, worker, &stop_requested_);
      }
    }
  } catch (...) {
    // First failure wins. The worker is dead; the host's watchdog
    // quarantines the device, so one bad kernel cannot take the run down.
    std::lock_guard lock(failure_mutex_);
    if (failure_ == nullptr) failure_ = std::current_exception();
    failed_.store(true, std::memory_order_release);
  }
  // After the capture, so the host this wakes finds failure() set.
  if (doorbell_ != nullptr) doorbell_->ring();
}

}  // namespace absq
