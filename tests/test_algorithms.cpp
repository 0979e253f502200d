// Tests for the Section 2 algorithm ladder, including the search-efficiency
// claims of Lemmas 1–3 and Theorem 1 on the instrumented counters.
#include "search/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "qubo/energy.hpp"
#include "util/rng.hpp"

namespace absq {
namespace {

WeightMatrix random_matrix(BitIndex n, std::uint64_t seed) {
  Rng rng(seed);
  return WeightMatrix::generate_symmetric(n, [&rng](BitIndex, BitIndex) {
    return static_cast<Weight>(rng.range(-100, 100));
  });
}

LocalSearchOptions greedy_options(std::uint64_t steps) {
  LocalSearchOptions opts;
  opts.steps = steps;
  opts.accept = greedy_acceptor();
  return opts;
}

TEST(NaiveLocalSearch, ReportsConsistentEnergies) {
  Rng rng(1);
  const WeightMatrix w = random_matrix(24, 2);
  const BitVector start = BitVector::random(24, rng);
  const auto outcome = naive_local_search(w, start, greedy_options(200), rng);
  EXPECT_EQ(outcome.best_energy, full_energy(w, outcome.best));
  EXPECT_EQ(outcome.last_energy, full_energy(w, outcome.last));
  EXPECT_LE(outcome.best_energy, full_energy(w, start));
}

TEST(NaiveLocalSearch, GreedyNeverWorsens) {
  Rng rng(3);
  const WeightMatrix w = random_matrix(16, 4);
  const BitVector start = BitVector::random(16, rng);
  const auto outcome = naive_local_search(w, start, greedy_options(300), rng);
  // Greedy acceptance: the final solution can never exceed the start.
  EXPECT_LE(outcome.last_energy, full_energy(w, start));
  EXPECT_LE(outcome.best_energy, outcome.last_energy);
}

TEST(NaiveLocalSearch, QuadraticSearchEfficiency) {
  // Lemma 1: ops per evaluated solution grows ~quadratically in n (the
  // exact constant depends on density; we assert super-linear scaling).
  Rng rng(5);
  const std::uint64_t steps = 50;
  const WeightMatrix w_small = random_matrix(32, 6);
  const WeightMatrix w_large = random_matrix(128, 7);
  const auto small = naive_local_search(
      w_small, BitVector::random(32, rng), greedy_options(steps), rng);
  const auto large = naive_local_search(
      w_large, BitVector::random(128, rng), greedy_options(steps), rng);
  // 4× the bits → ~16× the per-solution cost.
  EXPECT_GT(large.stats.efficiency(), 8.0 * small.stats.efficiency());
}

TEST(SingleDeltaLocalSearch, MatchesNaiveBehaviour) {
  // With the same RNG stream and greedy acceptance both algorithms make
  // identical decisions, so they must land on identical solutions.
  const WeightMatrix w = random_matrix(20, 8);
  Rng rng_init(9);
  const BitVector start = BitVector::random(20, rng_init);
  Rng rng_a(77);
  Rng rng_b(77);
  const auto naive = naive_local_search(w, start, greedy_options(150), rng_a);
  const auto fast =
      single_delta_local_search(w, start, greedy_options(150), rng_b);
  EXPECT_EQ(naive.best, fast.best);
  EXPECT_EQ(naive.best_energy, fast.best_energy);
  EXPECT_EQ(naive.last, fast.last);
}

TEST(SingleDeltaLocalSearch, LinearSearchEfficiency) {
  // Lemma 2: for m >> n the efficiency approaches O(n).
  Rng rng(10);
  const BitIndex n = 64;
  const WeightMatrix w = random_matrix(n, 11);
  const auto outcome = single_delta_local_search(
      w, BitVector::random(n, rng), greedy_options(2000), rng);
  // Ops ≈ n per step plus the initial full evaluation.
  EXPECT_LT(outcome.stats.efficiency(), 1.5 * n);
}

TEST(DeltaVectorLocalSearch, WarmUpReachesStart) {
  Rng rng(12);
  const WeightMatrix w = random_matrix(30, 13);
  const BitVector start = BitVector::random(30, rng);
  LocalSearchOptions opts = greedy_options(0);  // warm-up only
  const auto outcome = delta_vector_local_search(w, start, opts, rng);
  EXPECT_EQ(outcome.last, start);
  EXPECT_EQ(outcome.last_energy, full_energy(w, start));
}

TEST(DeltaVectorLocalSearch, StatsCountWarmUpAndSteps) {
  Rng rng(14);
  const WeightMatrix w = random_matrix(30, 15);
  const BitVector start = BitVector::random(30, rng);
  const auto outcome =
      delta_vector_local_search(w, start, greedy_options(100), rng);
  // Warm-up flips equal the popcount of the start vector.
  EXPECT_GE(outcome.stats.flips, start.popcount());
  EXPECT_EQ(outcome.stats.evaluated_solutions,
            1 + start.popcount() + 100);  // init + warm-up + m candidates
}

TEST(DeltaVectorLocalSearch, BestIsConsistent) {
  Rng rng(16);
  const WeightMatrix w = random_matrix(40, 17);
  const auto outcome = delta_vector_local_search(
      w, BitVector::random(40, rng), greedy_options(500), rng);
  EXPECT_EQ(outcome.best_energy, full_energy(w, outcome.best));
  EXPECT_LE(outcome.best_energy, outcome.last_energy);
}

TEST(ProposedLocalSearch, RequiresPolicy) {
  Rng rng(18);
  const WeightMatrix w = random_matrix(8, 19);
  ProposedSearchOptions opts;
  opts.policy = nullptr;
  EXPECT_THROW(
      (void)proposed_local_search(w, BitVector(8), opts, rng), CheckError);
}

TEST(ProposedLocalSearch, ConstantSearchEfficiency) {
  // Theorem 1: ops per evaluated solution is O(1) — and in this
  // implementation exactly 1 matrix read per evaluation.
  Rng rng(20);
  for (const BitIndex n : {32u, 128u, 512u}) {
    const WeightMatrix w = random_matrix(n, 21 + n);
    WindowMinDeltaPolicy policy(8);
    ProposedSearchOptions opts;
    opts.steps = 200;
    opts.policy = &policy;
    const auto outcome =
        proposed_local_search(w, BitVector::random(n, rng), opts, rng);
    EXPECT_NEAR(outcome.stats.efficiency(), 1.0, 0.05)
        << "efficiency not O(1) at n=" << n;
  }
}

TEST(ProposedLocalSearch, CountsTheReadsOfTheSparseKernel) {
  // A CSR-stored instance runs the sparse form, which reads degree(k)
  // entries per flip instead of n, and the ops count must say so. About
  // 0.1 % of the entries are set: CSR under every dense sweep build's rule.
  const BitIndex n = 1024;
  Rng rng(40);
  const WeightMatrix w =
      WeightMatrix::generate_symmetric(n, [&rng](BitIndex, BitIndex) {
        if (!rng.chance(0.001)) return static_cast<Weight>(0);
        return static_cast<Weight>(rng.range(-100, 100));
      });
  ASSERT_NE(w.csr(), nullptr);
  const BitVector start = BitVector::random(n, rng);

  WindowMinDeltaPolicy policy(8);
  ProposedSearchOptions opts;
  opts.steps = 500;
  opts.policy = &policy;
  const auto proposed = proposed_local_search(w, start, opts, rng);
  EXPECT_LT(proposed.stats.ops, proposed.stats.flips * n);
  EXPECT_EQ(proposed.best_energy, full_energy(w, proposed.best));

  const auto delta_vector =
      delta_vector_local_search(w, start, greedy_options(500), rng);
  EXPECT_LT(delta_vector.stats.ops, delta_vector.stats.flips * n);
}

TEST(ProposedLocalSearch, BestEnergyIsExact) {
  Rng rng(22);
  const WeightMatrix w = random_matrix(48, 23);
  WindowMinDeltaPolicy policy(6);
  ProposedSearchOptions opts;
  opts.steps = 300;
  opts.policy = &policy;
  const auto outcome =
      proposed_local_search(w, BitVector::random(48, rng), opts, rng);
  EXPECT_EQ(outcome.best_energy, full_energy(w, outcome.best));
  EXPECT_EQ(outcome.last_energy, full_energy(w, outcome.last));
}

TEST(ProposedLocalSearch, ForcedFlipsAlwaysMove) {
  Rng rng(24);
  const BitIndex n = 32;
  const WeightMatrix w = random_matrix(n, 25);
  WindowMinDeltaPolicy policy(4);
  ProposedSearchOptions opts;
  opts.steps = 123;
  opts.policy = &policy;
  const BitVector start = BitVector::random(n, rng);
  const auto outcome = proposed_local_search(w, start, opts, rng);
  EXPECT_EQ(outcome.stats.flips, start.popcount() + opts.steps);
  EXPECT_EQ(outcome.stats.flips, outcome.stats.accepted);
}

TEST(ProposedLocalSearch, FindsExactOptimumOnSmallInstance) {
  // Exhaustive check: with enough forced flips the proposed search reaches
  // the global optimum of a 12-bit instance.
  const BitIndex n = 12;
  const WeightMatrix w = random_matrix(n, 26);
  Energy optimum = 0;
  for (std::uint32_t assignment = 0; assignment < (1u << n); ++assignment) {
    BitVector x(n);
    for (BitIndex b = 0; b < n; ++b) {
      if ((assignment >> b) & 1u) x.set(b, true);
    }
    optimum = std::min(optimum, full_energy(w, x));
  }

  // A single deterministic window chain can cycle below the optimum (the
  // full ABS escapes via GA targets); restarting from random vectors is the
  // standalone equivalent.
  Rng rng(27);
  Energy best = 0;
  for (int restart = 0; restart < 30 && best != optimum; ++restart) {
    WindowMinDeltaPolicy window(3, static_cast<BitIndex>(restart) % n);
    ProposedSearchOptions opts;
    opts.steps = 500;
    opts.policy = &window;
    const auto outcome =
        proposed_local_search(w, BitVector::random(n, rng), opts, rng);
    best = std::min(best, outcome.best_energy);
  }
  EXPECT_EQ(best, optimum);
}

TEST(ProposedLocalSearch, BeatsRandomSamplingOnMediumInstance) {
  const BitIndex n = 96;
  const WeightMatrix w = random_matrix(n, 28);
  Rng rng(29);

  // Random-sampling floor with the same number of evaluated solutions.
  Energy random_best = 0;
  for (int s = 0; s < 500; ++s) {
    random_best = std::min(random_best,
                           full_energy(w, BitVector::random(n, rng)));
  }

  WindowMinDeltaPolicy policy(8);
  ProposedSearchOptions opts;
  opts.steps = 500;
  opts.policy = &policy;
  const auto outcome =
      proposed_local_search(w, BitVector::random(n, rng), opts, rng);
  EXPECT_LT(outcome.best_energy, random_best);
}

/// A user policy: counts its calls and flips a uniformly random bit.
class CountingPolicy final : public SelectionPolicy {
 public:
  BitIndex select(const DeltaState& state, Rng& rng) override {
    ++selects;
    return static_cast<BitIndex>(rng.below(state.size()));
  }

  void reset() override { ++resets; }

  std::uint64_t selects = 0;
  std::uint64_t resets = 0;
};

TEST(ProposedLocalSearch, CallsACustomPolicyOncePerFlip) {
  // Algorithm 4's extension point: any SelectionPolicy drives the forced
  // flips. The warm-up walk to the start vector asks it nothing, and the
  // search keeps exact energies and one matrix read per evaluated
  // solution whichever bits the policy picks.
  const BitIndex n = 64;
  const WeightMatrix w = random_matrix(n, 32);
  Rng rng(33);
  CountingPolicy policy;
  ProposedSearchOptions opts;
  opts.steps = 250;
  opts.policy = &policy;
  for (std::uint64_t run = 1; run <= 3; ++run) {
    const BitVector start = BitVector::random(n, rng);
    const auto outcome = proposed_local_search(w, start, opts, rng);
    EXPECT_EQ(policy.selects, run * opts.steps);
    EXPECT_EQ(policy.resets, run);
    EXPECT_EQ(outcome.stats.flips, start.popcount() + opts.steps);
    EXPECT_EQ(outcome.best_energy, full_energy(w, outcome.best));
    EXPECT_EQ(outcome.last_energy, full_energy(w, outcome.last));
    EXPECT_NEAR(outcome.stats.efficiency(), 1.0, 1e-3);
  }
}

TEST(Acceptors, GreedyAcceptsOnlyDownhill) {
  Rng rng(30);
  const Acceptor accept = greedy_acceptor();
  EXPECT_TRUE(accept(-5, 0, rng));
  EXPECT_TRUE(accept(0, 0, rng));
  EXPECT_FALSE(accept(1, 0, rng));
}

TEST(Acceptors, AlwaysAcceptorAcceptsUphill) {
  Rng rng(31);
  EXPECT_TRUE(always_acceptor()(1000000, 0, rng));
}

TEST(Acceptors, MetropolisRatesMatchTheory) {
  Rng rng(32);
  const Acceptor accept = metropolis_acceptor(100.0);
  EXPECT_TRUE(accept(-1, 0, rng));
  int taken = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (accept(100, 0, rng)) ++taken;
  }
  const double rate = static_cast<double>(taken) / trials;
  EXPECT_NEAR(rate, std::exp(-1.0), 0.03);  // p = exp(−ΔE/t) = e⁻¹
}

TEST(Acceptors, ZeroTemperatureMetropolisIsGreedy) {
  Rng rng(33);
  const Acceptor accept = metropolis_acceptor(0.0);
  EXPECT_TRUE(accept(-1, 0, rng));
  EXPECT_FALSE(accept(1, 0, rng));
}

TEST(Acceptors, AnnealingCoolsOverTime) {
  Rng rng(34);
  const Acceptor accept = annealing_acceptor(1000.0, 0.1, 10000);
  int early = 0;
  int late = 0;
  for (int i = 0; i < 3000; ++i) {
    if (accept(50, 0, rng)) ++early;
    if (accept(50, 9999, rng)) ++late;
  }
  EXPECT_GT(early, 2500);  // hot: almost everything accepted
  EXPECT_EQ(late, 0);      // cold: ΔE=50 at t≈0.1 is hopeless
}

}  // namespace
}  // namespace absq
