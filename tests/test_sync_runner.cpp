#include "abs/sync_runner.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "problems/random.hpp"
#include "qubo/energy.hpp"
#include "util/check.hpp"

namespace absq {
namespace {

AbsConfig runner_config(std::uint64_t seed = 7) {
  AbsConfig config;
  config.device.block_limit = 4;
  config.device.local_steps = 32;
  config.pool_capacity = 16;
  config.seed = seed;
  return config;
}

TEST(SyncRunner, RunsAreBitReproducible) {
  const WeightMatrix w = random_qubo(64, 1);
  SyncAbsRunner runner_a(w, runner_config());
  SyncAbsRunner runner_b(w, runner_config());
  const AbsResult a = runner_a.run_rounds(20);
  const AbsResult b = runner_b.run_rounds(20);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.total_flips, b.total_flips);
  EXPECT_EQ(a.reports_inserted, b.reports_inserted);
  ASSERT_EQ(a.best_trace.size(), b.best_trace.size());
  for (std::size_t i = 0; i < a.best_trace.size(); ++i) {
    EXPECT_EQ(a.best_trace[i].second, b.best_trace[i].second);
  }
}

TEST(SyncRunner, DifferentSeedsDiverge) {
  // Different seeds may find the same optimum, but whole 16-entry pools
  // coinciding would mean the seed is ignored somewhere.
  const WeightMatrix w = random_qubo(64, 2);
  SyncAbsRunner runner_a(w, runner_config(1));
  SyncAbsRunner runner_b(w, runner_config(2));
  (void)runner_a.run_rounds(10);
  (void)runner_b.run_rounds(10);
  ASSERT_EQ(runner_a.pool().size(), runner_b.pool().size());
  bool any_difference = false;
  for (std::size_t i = 0; i < runner_a.pool().size(); ++i) {
    any_difference |=
        runner_a.pool().entry(i).bits != runner_b.pool().entry(i).bits;
  }
  EXPECT_TRUE(any_difference);
}

TEST(SyncRunner, EnergiesAreExact) {
  const WeightMatrix w = random_qubo(48, 3);
  SyncAbsRunner runner(w, runner_config());
  const AbsResult result = runner.run_rounds(15);
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));
  EXPECT_TRUE(runner.pool().check_invariants());
}

TEST(SyncRunner, RoundsAccumulateAcrossCalls) {
  const WeightMatrix w = random_qubo(32, 4);
  SyncAbsRunner runner(w, runner_config());
  (void)runner.run_rounds(5);
  EXPECT_EQ(runner.rounds_completed(), 5u);
  const AbsResult result = runner.run_rounds(5);
  EXPECT_EQ(runner.rounds_completed(), 10u);
  // Lifetime flips: 10 rounds × 4 blocks × ≥ local_steps flips each.
  EXPECT_GE(result.total_flips, 10u * 4u * 32u);
}

TEST(SyncRunner, ContinuationNeverLosesTheIncumbent) {
  const WeightMatrix w = random_qubo(48, 5);
  SyncAbsRunner runner(w, runner_config());
  const Energy first = runner.run_rounds(10).best_energy;
  const Energy second = runner.run_rounds(10).best_energy;
  EXPECT_LE(second, first);
}

TEST(SyncRunner, RunToTargetStopsEarly) {
  const WeightMatrix w = random_qubo(32, 6);
  // Establish an easy target with one runner, then verify another stops
  // as soon as it crosses it.
  SyncAbsRunner probe(w, runner_config(11));
  const Energy target = probe.run_rounds(3).best_energy;

  SyncAbsRunner runner(w, runner_config(12));
  const AbsResult result = runner.run_to_target(target, 10000);
  EXPECT_TRUE(result.reached_target);
  EXPECT_LE(result.best_energy, target);
  EXPECT_LT(runner.rounds_completed(), 10000u);
}

TEST(SyncRunner, RunToTargetRespectsRoundCap) {
  const WeightMatrix w = random_qubo(32, 7);
  SyncAbsRunner runner(w, runner_config());
  const AbsResult result =
      runner.run_to_target(std::numeric_limits<Energy>::min(), 3);
  EXPECT_FALSE(result.reached_target);
  EXPECT_EQ(runner.rounds_completed(), 3u);
  EXPECT_THROW((void)runner.run_to_target(0, 0), CheckError);
}

TEST(SyncRunner, WarmStartKeepsIncumbentAndSeedsTargets) {
  const WeightMatrix w = random_qubo(48, 9);
  // Produce a snapshot.
  SyncAbsRunner first(w, runner_config(20));
  const Energy snapshot_best = first.run_rounds(15).best_energy;
  auto snapshot = std::make_shared<SolutionPool>(first.pool());

  // Resume: even a 1-round continuation may not rediscover that energy,
  // but the warm-started pool must already hold it.
  AbsConfig config = runner_config(21);
  config.warm_start = snapshot;
  SyncAbsRunner resumed(w, config);
  const AbsResult result = resumed.run_rounds(1);
  EXPECT_LE(result.best_energy, snapshot_best);
}

TEST(SyncRunner, WarmStartSizeMismatchThrows) {
  const WeightMatrix w = random_qubo(32, 10);
  auto snapshot = std::make_shared<SolutionPool>(4);
  snapshot->insert(BitVector(16), 0);  // wrong width
  AbsConfig config = runner_config();
  config.warm_start = snapshot;
  SyncAbsRunner runner(w, config);
  EXPECT_THROW((void)runner.run_rounds(1), CheckError);
}

TEST(SyncRunner, RunRoundsReportsSearchRateAndEvaluatedSolutions) {
  // Regression: search_rate used to be computed from evaluated_solutions
  // *before* finalize() filled it in, so it was always 0.
  const WeightMatrix w = random_qubo(64, 13);
  SyncAbsRunner runner(w, runner_config());
  const AbsResult result = runner.run_rounds(10);
  EXPECT_GT(result.total_flips, 0u);
  EXPECT_EQ(result.evaluated_solutions, result.total_flips * 64u);
  ASSERT_GT(result.seconds, 0.0);
  EXPECT_GT(result.search_rate, 0.0);
  EXPECT_NEAR(result.search_rate,
              static_cast<double>(result.evaluated_solutions) / result.seconds,
              result.search_rate * 1e-9);
}

TEST(SyncRunner, ContinuationRateCoversOnlyTheCall) {
  // total_flips is a lifetime figure but seconds is per-call, so the rate
  // of a continued run must be computed from this call's flips only —
  // strictly below lifetime-evaluated / seconds.
  const WeightMatrix w = random_qubo(32, 16);
  SyncAbsRunner runner(w, runner_config());
  (void)runner.run_rounds(5);
  const AbsResult second = runner.run_rounds(5);
  ASSERT_GT(second.seconds, 0.0);
  EXPECT_GT(second.search_rate, 0.0);
  EXPECT_LT(second.search_rate,
            static_cast<double>(second.evaluated_solutions) / second.seconds);
}

TEST(SyncRunner, RunToTargetReportsSearchRate) {
  // Regression: run_to_target never set search_rate at all.
  const WeightMatrix w = random_qubo(32, 14);
  SyncAbsRunner runner(w, runner_config());
  const AbsResult result =
      runner.run_to_target(std::numeric_limits<Energy>::min(), 5);
  EXPECT_GT(result.evaluated_solutions, 0u);
  EXPECT_GT(result.search_rate, 0.0);
}

TEST(SyncRunner, DeviceSummariesUseDeterministicSchedule) {
  const WeightMatrix w = random_qubo(32, 15);
  AbsConfig config = runner_config();
  config.num_devices = 2;
  // Even an explicit thread request is overridden for reproducibility.
  config.device.threads_per_device = 4;
  SyncAbsRunner runner(w, config);
  const AbsResult result = runner.run_rounds(3);
  ASSERT_EQ(result.devices.size(), 2u);
  std::uint64_t summary_flips = 0;
  for (const auto& summary : result.devices) {
    EXPECT_EQ(summary.workers, 1u);
    EXPECT_GT(summary.iterations, 0u);
    summary_flips += summary.flips;
  }
  EXPECT_EQ(summary_flips, result.total_flips);
}

TEST(SyncRunner, MultiDeviceDeterminismHolds) {
  const WeightMatrix w = random_qubo(48, 8);
  AbsConfig config = runner_config();
  config.num_devices = 3;
  SyncAbsRunner runner_a(w, config);
  SyncAbsRunner runner_b(w, config);
  EXPECT_EQ(runner_a.run_rounds(8).best_energy,
            runner_b.run_rounds(8).best_energy);
}

}  // namespace
}  // namespace absq
