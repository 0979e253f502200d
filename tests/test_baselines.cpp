#include "baselines/solvers.hpp"

#include <gtest/gtest.h>

#include "problems/random.hpp"
#include "qubo/energy.hpp"
#include "util/check.hpp"

namespace absq {
namespace {

Energy random_floor(const WeightMatrix& w, int samples, std::uint64_t seed) {
  const BaselineResult r = random_sampling(
      w, static_cast<std::uint64_t>(samples), seed);
  return r.best_energy;
}

TEST(SimulatedAnnealing, ReportsExactEnergy) {
  const WeightMatrix w = random_qubo(64, 1);
  const BaselineResult r = simulated_annealing(w, 1e6, 1.0, 20000, 2);
  EXPECT_EQ(r.best_energy, full_energy(w, r.best));
  EXPECT_GT(r.flips, 0u);
}

TEST(SimulatedAnnealing, BeatsRandomSampling) {
  const WeightMatrix w = random_qubo(96, 3);
  const BaselineResult sa = simulated_annealing(w, 1e6, 1.0, 30000, 4);
  EXPECT_LT(sa.best_energy, random_floor(w, 1000, 5));
}

TEST(SimulatedAnnealing, ValidatesSchedule) {
  const WeightMatrix w = random_qubo(16, 6);
  EXPECT_THROW((void)simulated_annealing(w, 1.0, 2.0, 100, 7), CheckError);
  EXPECT_THROW((void)simulated_annealing(w, 1.0, 0.0, 100, 7), CheckError);
}

TEST(GreedyDescent, StopsAtBudgetAndIsExact) {
  const WeightMatrix w = random_qubo(64, 8);
  const BaselineResult r = greedy_descent(w, 2000, 9);
  EXPECT_EQ(r.best_energy, full_energy(w, r.best));
  EXPECT_GE(r.flips, 2000u);            // budget reached
  EXPECT_LT(r.flips, 2000u + 64u * 64); // overshoot ≤ one final descent
}

TEST(GreedyDescent, ReachesOneFlipLocalMinimum) {
  // With an ample budget the last completed descent ends where no single
  // flip improves; the reported best can only be at least that good.
  const WeightMatrix w = random_qubo(32, 10);
  const BaselineResult r = greedy_descent(w, 100000, 11);
  const auto deltas = all_deltas(w, r.best);
  for (const Energy d : deltas) {
    EXPECT_GE(d, 0) << "reported best is not 1-flip minimal";
  }
}

TEST(GreedyDescent, BeatsRandomSampling) {
  const WeightMatrix w = random_qubo(96, 12);
  const BaselineResult r = greedy_descent(w, 5000, 13);
  EXPECT_LT(r.best_energy, random_floor(w, 1000, 14));
}

TEST(RandomSampling, BestOfSamplesIsExact) {
  const WeightMatrix w = random_qubo(32, 15);
  const BaselineResult r = random_sampling(w, 200, 16);
  EXPECT_EQ(r.best_energy, full_energy(w, r.best));
  EXPECT_EQ(r.flips, 0u);
}

TEST(RandomSampling, MoreSamplesNeverWorse) {
  const WeightMatrix w = random_qubo(48, 17);
  // Same seed: the 500-sample run sees a superset of the 50-sample run.
  const BaselineResult small = random_sampling(w, 50, 18);
  const BaselineResult large = random_sampling(w, 500, 18);
  EXPECT_LE(large.best_energy, small.best_energy);
}

TEST(TabuSearch, ReportsExactEnergyAndFlipsEveryStep) {
  const WeightMatrix w = random_qubo(64, 19);
  const BaselineResult r = tabu_search(w, 3000, 16, 20);
  EXPECT_EQ(r.best_energy, full_energy(w, r.best));
  EXPECT_EQ(r.flips, 3000u);  // forced flips
}

TEST(TabuSearch, BeatsRandomSampling) {
  const WeightMatrix w = random_qubo(96, 21);
  const BaselineResult r = tabu_search(w, 5000, 24, 22);
  EXPECT_LT(r.best_energy, random_floor(w, 1000, 23));
}

TEST(TabuSearch, LongerRunsNeverWorse) {
  // Same seed → same trajectory prefix, so the incumbent is monotone in
  // the step budget: tabu provably keeps exploring past local minima.
  const WeightMatrix w = random_qubo(48, 24);
  const BaselineResult short_run = tabu_search(w, 300, 16, 25);
  const BaselineResult long_run = tabu_search(w, 20000, 16, 25);
  EXPECT_LE(long_run.best_energy, short_run.best_energy);
  EXPECT_LT(long_run.best_energy, 0);
}

TEST(Baselines, DeterministicPerSeed) {
  const WeightMatrix w = random_qubo(32, 26);
  const BaselineResult a = tabu_search(w, 500, 8, 42);
  const BaselineResult b = tabu_search(w, 500, 8, 42);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.best, b.best);
}

}  // namespace
}  // namespace absq
