#include "abs/sync_runner.hpp"

#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace absq {
namespace {

AbsConfig lockstep_config(AbsConfig config) {
  // One worker per device: single-shard mailboxes, so the round-based
  // execution is bit-reproducible regardless of the host's core count.
  config.device.threads_per_device = 1;
  return config;
}

}  // namespace

SyncAbsRunner::SyncAbsRunner(const WeightMatrix& w, AbsConfig config)
    : solver_(w, lockstep_config(std::move(config))) {}

AbsResult SyncAbsRunner::run(std::uint64_t max_rounds,
                             const StopCriteria& stop) {
  if (!started_) {
    solver_.stock_targets();
    started_ = true;
  }
  const std::uint64_t flips_before = solver_.flips_across_devices();
  Stopwatch watch;
  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    for (std::size_t d = 0; d < solver_.devices_.size(); ++d) {
      solver_.devices_[d].device->step_all_blocks_once();
      // Deterministic time axis: the round index.
      (void)solver_.host_round(d, static_cast<double>(rounds_));
    }
    ++rounds_;
    if (stop.target_energy.has_value() &&
        solver_.islands_.best_energy() <= *stop.target_energy) {
      break;
    }
  }
  return solver_.finish_run(stop, watch.seconds(), flips_before);
}

AbsResult SyncAbsRunner::run_rounds(std::uint64_t rounds) {
  return run(rounds, StopCriteria{});
}

AbsResult SyncAbsRunner::run_to_target(Energy target,
                                       std::uint64_t max_rounds) {
  ABSQ_CHECK(max_rounds >= 1, "max_rounds must be positive");
  StopCriteria stop;
  stop.target_energy = target;
  return run(max_rounds, stop);
}

}  // namespace absq
