// End-to-end tests of the AbsSolver host loop.
#include "abs/solver.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "problems/random.hpp"
#include "qubo/energy.hpp"
#include "util/check.hpp"

namespace absq {
namespace {

AbsConfig small_config(std::uint32_t devices = 1, std::uint32_t blocks = 4) {
  AbsConfig config;
  config.num_devices = devices;
  config.device.block_limit = blocks;
  config.device.local_steps = 32;
  config.pool_capacity = 16;
  config.seed = 99;
  return config;
}

/// Exhaustive optimum of a small instance.
Energy brute_force_optimum(const WeightMatrix& w) {
  Energy best = 0;
  for (std::uint32_t assignment = 0; assignment < (1u << w.size());
       ++assignment) {
    BitVector x(w.size());
    for (BitIndex b = 0; b < w.size(); ++b) {
      if ((assignment >> b) & 1u) x.set(b, true);
    }
    best = std::min(best, full_energy(w, x));
  }
  return best;
}

TEST(AbsSolver, UnboundedStopCriteriaRejected) {
  const WeightMatrix w = random_qubo(32, 1);
  AbsSolver solver(w, small_config());
  EXPECT_THROW((void)solver.run(StopCriteria{}), CheckError);
}

TEST(AbsSolver, SolvesSmallInstanceToOptimum) {
  const WeightMatrix w = random_qubo(14, 2);
  const Energy optimum = brute_force_optimum(w);

  AbsSolver solver(w, small_config());
  StopCriteria stop;
  stop.target_energy = optimum;
  stop.time_limit_seconds = 30.0;  // safety net
  const AbsResult result = solver.run(stop);
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.best_energy, optimum);
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));
}

TEST(AbsSolver, ReportedEnergiesAreAlwaysExact) {
  const WeightMatrix w = random_qubo(64, 3);
  AbsSolver solver(w, small_config());
  StopCriteria stop;
  stop.max_flips = 20000;
  stop.time_limit_seconds = 30.0;
  const AbsResult result = solver.run(stop);
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));
  // Pool invariants survive the run.
  EXPECT_TRUE(solver.islands().pool(0).check_invariants());
  EXPECT_GT(solver.islands().pool(0).evaluated_count(), 0u);
}

TEST(AbsSolver, FlipBudgetStopsTheRun) {
  const WeightMatrix w = random_qubo(64, 4);
  AbsSolver solver(w, small_config());
  StopCriteria stop;
  stop.max_flips = 5000;
  stop.time_limit_seconds = 30.0;
  const AbsResult result = solver.run(stop);
  EXPECT_GE(result.total_flips, 5000u);
  // Devices overshoot by whatever they complete between host polls; on an
  // oversubscribed single-core box an OS scheduling quantum can be worth
  // hundreds of iterations, so only sanity-bound the overshoot.
  EXPECT_LT(result.total_flips, 50'000'000u);
  EXPECT_EQ(result.evaluated_solutions, result.total_flips * 64);
}

TEST(AbsSolver, TimeLimitIsRespected) {
  const WeightMatrix w = random_qubo(128, 5);
  AbsSolver solver(w, small_config());
  StopCriteria stop;
  stop.time_limit_seconds = 0.3;
  const AbsResult result = solver.run(stop);
  EXPECT_GE(result.seconds, 0.3);
  EXPECT_LT(result.seconds, 5.0);
  EXPECT_FALSE(result.reached_target);
}

TEST(AbsSolver, MultiDeviceRunAggregatesAllDevices) {
  const WeightMatrix w = random_qubo(64, 6);
  AbsSolver solver(w, small_config(3, 2));
  EXPECT_EQ(solver.num_devices(), 3u);
  // A wall-clock stop, not a flip budget: a shared budget of a few
  // thousand flips is about a millisecond of work, which one device can
  // exhaust before a late-scheduled device thread has run at all.
  StopCriteria stop;
  stop.time_limit_seconds = 0.3;
  const AbsResult result = solver.run(stop);
  EXPECT_GT(result.reports_received, 0u);
  std::uint64_t per_device_total = 0;
  for (std::uint32_t d = 0; d < 3; ++d) {
    per_device_total += solver.device(d).total_flips();
  }
  EXPECT_EQ(per_device_total, result.total_flips);
  // All devices contributed.
  for (std::uint32_t d = 0; d < 3; ++d) {
    EXPECT_GT(solver.device(d).total_flips(), 0u) << "device " << d;
  }
}

TEST(AbsSolver, BestTraceIsMonotoneDecreasing) {
  const WeightMatrix w = random_qubo(96, 7);
  AbsSolver solver(w, small_config());
  StopCriteria stop;
  stop.max_flips = 30000;
  stop.time_limit_seconds = 30.0;
  const AbsResult result = solver.run(stop);
  ASSERT_GE(result.best_trace.size(), 1u);
  for (std::size_t i = 1; i < result.best_trace.size(); ++i) {
    EXPECT_LT(result.best_trace[i].second, result.best_trace[i - 1].second);
    EXPECT_GE(result.best_trace[i].first, result.best_trace[i - 1].first);
  }
}

TEST(AbsSolver, SearchRateIsConsistent) {
  const WeightMatrix w = random_qubo(64, 8);
  AbsSolver solver(w, small_config());
  StopCriteria stop;
  stop.max_flips = 10000;
  stop.time_limit_seconds = 30.0;
  const AbsResult result = solver.run(stop);
  EXPECT_GT(result.search_rate, 0.0);
  EXPECT_NEAR(result.search_rate,
              static_cast<double>(result.evaluated_solutions) / result.seconds,
              result.search_rate * 1e-9);
}

TEST(AbsSolver, GaBookkeepingBalances) {
  const WeightMatrix w = random_qubo(64, 9);
  AbsSolver solver(w, small_config());
  StopCriteria stop;
  stop.max_flips = 8000;
  stop.time_limit_seconds = 30.0;
  const AbsResult result = solver.run(stop);
  EXPECT_GE(result.reports_received, result.reports_inserted);
  EXPECT_GT(result.targets_generated, 0u);
}

TEST(AbsSolver, DeviceSummariesMatchTotals) {
  const WeightMatrix w = random_qubo(64, 11);
  AbsSolver solver(w, small_config(2, 3));
  StopCriteria stop;
  stop.time_limit_seconds = 0.3;  // wall clock, as in the test above
  const AbsResult result = solver.run(stop);
  ASSERT_EQ(result.devices.size(), 2u);
  std::uint64_t summary_flips = 0;
  for (const auto& summary : result.devices) {
    summary_flips += summary.flips;
    EXPECT_GT(summary.iterations, 0u) << "device " << summary.device_id;
    EXPECT_GT(summary.reports, 0u);
  }
  EXPECT_EQ(summary_flips, result.total_flips);
}

TEST(AbsSolver, ThreadsPerDeviceRunsShardedWorkers) {
  const WeightMatrix w = random_qubo(64, 14);
  AbsConfig config = small_config(1, 8);
  config.device.threads_per_device = 4;
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.max_flips = 10000;
  stop.time_limit_seconds = 30.0;
  const AbsResult result = solver.run(stop);
  ASSERT_EQ(result.devices.size(), 1u);
  EXPECT_EQ(result.devices[0].workers, 4u);
  EXPECT_EQ(result.devices[0].flips, result.total_flips);
  // Every block iteration pushes exactly one report.
  EXPECT_EQ(result.devices[0].reports, result.devices[0].iterations);
  EXPECT_GT(result.search_rate, 0.0);
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));
}

TEST(AbsSolver, TargetDropsAreCountedAndSurfaced) {
  const WeightMatrix w = random_qubo(64, 15);
  AbsConfig config = small_config(1, 4);
  // A single target slot cannot hold the four Step 1 targets: three drops
  // are guaranteed before the run even starts moving.
  config.device.target_capacity = 1;
  config.device.threads_per_device = 1;
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.max_flips = 2000;
  stop.time_limit_seconds = 30.0;
  const AbsResult result = solver.run(stop);
  EXPECT_GE(result.targets_dropped, 3u);
  ASSERT_EQ(result.devices.size(), 1u);
  EXPECT_EQ(result.devices[0].targets_dropped, result.targets_dropped);
}

TEST(AbsSolver, SnapshotsCollectedAtInterval) {
  const WeightMatrix w = random_qubo(64, 12);
  AbsConfig config = small_config();
  config.snapshot_interval_seconds = 0.05;
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.time_limit_seconds = 0.35;
  const AbsResult result = solver.run(stop);
  EXPECT_GE(result.snapshots.size(), 3u);
  EXPECT_LE(result.snapshots.size(), 20u);
  for (std::size_t i = 1; i < result.snapshots.size(); ++i) {
    EXPECT_GT(result.snapshots[i].seconds, result.snapshots[i - 1].seconds);
    EXPECT_GE(result.snapshots[i].total_flips,
              result.snapshots[i - 1].total_flips);
  }
  // Later snapshots carry a meaningful windowed rate.
  EXPECT_GT(result.snapshots.back().window_rate, 0.0);
}

TEST(AbsSolver, RequestStopCancelsARun) {
  const WeightMatrix w = random_qubo(128, 13);
  AbsSolver solver(w, small_config());
  StopCriteria stop;
  stop.time_limit_seconds = 60.0;  // would run a minute without the cancel
  std::thread canceller([&solver] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    solver.request_stop();
  });
  const AbsResult result = solver.run(stop);
  canceller.join();
  EXPECT_TRUE(result.cancelled);
  EXPECT_LT(result.seconds, 30.0);
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));
}

TEST(AbsSolver, RunAgainAfterRequestStopWorks) {
  // The serving layer reuses solver instances across jobs, so a cancelled
  // run must not poison the next one: the stop request is consumed by the
  // cancelled run, and a fresh run() goes back to honouring its own stop
  // criteria.
  const WeightMatrix w = random_qubo(64, 21);
  AbsSolver solver(w, small_config());
  StopCriteria stop;
  stop.time_limit_seconds = 60.0;
  std::thread canceller([&solver] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    solver.request_stop();
  });
  const AbsResult cancelled = solver.run(stop);
  canceller.join();
  EXPECT_TRUE(cancelled.cancelled);

  StopCriteria rerun_stop;
  rerun_stop.max_flips = 2000;
  rerun_stop.time_limit_seconds = 30.0;
  const AbsResult rerun = solver.run(rerun_stop);
  EXPECT_FALSE(rerun.cancelled);  // the old stop request was consumed
  EXPECT_GT(rerun.total_flips, 0u);
  EXPECT_EQ(rerun.best_energy, full_energy(w, rerun.best));
}

TEST(AbsSolver, RerunStartsFreshPoolButKeepsDevices) {
  const WeightMatrix w = random_qubo(32, 10);
  AbsSolver solver(w, small_config());
  StopCriteria stop;
  stop.max_flips = 2000;
  stop.time_limit_seconds = 30.0;
  const AbsResult first = solver.run(stop);
  const AbsResult second = solver.run(stop);
  EXPECT_GT(first.total_flips, 0u);
  EXPECT_GT(second.total_flips, 0u);
  EXPECT_EQ(second.best_energy, full_energy(w, second.best));
}

}  // namespace
}  // namespace absq
