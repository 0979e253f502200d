// Property tests for DeltaState — the Eq. (16) incremental kernel that the
// entire solver rests on. Every test cross-checks against the O(n²)
// reference implementations in qubo/energy.hpp.
#include "qubo/delta_state.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "qubo/energy.hpp"
#include "qubo/kernel.hpp"
#include "util/rng.hpp"

namespace absq {
namespace {

WeightMatrix random_matrix(BitIndex n, std::uint64_t seed) {
  Rng rng(seed);
  return WeightMatrix::generate_symmetric(n, [&rng](BitIndex, BitIndex) {
    return static_cast<Weight>(rng.range(-200, 200));
  });
}

TEST(DeltaState, ZeroInitialization) {
  const WeightMatrix w = random_matrix(20, 1);
  DeltaState state(w);
  EXPECT_EQ(state.energy(), 0);
  EXPECT_EQ(state.bits().popcount(), 0u);
  for (BitIndex i = 0; i < 20; ++i) EXPECT_EQ(state.delta(i), w.at(i, i));
  EXPECT_EQ(state.flips(), 0u);
  EXPECT_EQ(state.evaluated_solutions(), 20u);
}

TEST(DeltaState, ArbitraryStartInitialization) {
  Rng rng(2);
  const WeightMatrix w = random_matrix(30, 3);
  const BitVector x = BitVector::random(30, rng);
  DeltaState state(w, x);
  EXPECT_EQ(state.bits(), x);
  EXPECT_EQ(state.energy(), full_energy(w, x));
  const auto reference = all_deltas(w, x);
  for (BitIndex i = 0; i < 30; ++i) EXPECT_EQ(state.delta(i), reference[i]);
}

TEST(DeltaState, SingleFlipUpdatesEnergyAndBits) {
  const WeightMatrix w = random_matrix(10, 4);
  DeltaState state(w);
  const Energy predicted = state.energy_after_flip(3);
  const Energy actual = state.flip(3);
  EXPECT_EQ(actual, predicted);
  EXPECT_EQ(state.energy(), full_energy(w, state.bits()));
  EXPECT_EQ(state.bits().get(3), 1);
  EXPECT_EQ(state.flips(), 1u);
}

TEST(DeltaState, FlipIsAnInvolutionOnState) {
  const WeightMatrix w = random_matrix(15, 5);
  DeltaState state(w);
  const Energy e0 = state.energy();
  state.flip(7);
  state.flip(7);
  EXPECT_EQ(state.energy(), e0);
  EXPECT_EQ(state.bits().popcount(), 0u);
  for (BitIndex i = 0; i < 15; ++i) EXPECT_EQ(state.delta(i), w.at(i, i));
}

/// The central property: after ANY flip sequence, the maintained Δ vector
/// and energy equal the from-scratch reference. Parameterized over sizes.
class DeltaStateRandomWalk : public ::testing::TestWithParam<BitIndex> {};

TEST_P(DeltaStateRandomWalk, MaintainsInvariantOverLongWalks) {
  const BitIndex n = GetParam();
  const WeightMatrix w = random_matrix(n, 100 + n);

  // The invariant must hold in *every* kernel form — the same walk is
  // replayed through each plan.
  for (const auto& [form, plan_name] :
       std::vector<std::pair<KernelOptions::Form, const char*>>{
           {KernelOptions::Form::kDenseSimd, "dense-simd"},
           {KernelOptions::Form::kSparse, "sparse"}}) {
    KernelOptions options;
    options.form = form;
    const QuboKernel kernel(w, options);
    Rng rng(999 + n);  // identical walk in every plan
    DeltaState state(kernel);

    const int checkpoints = 8;
    const int flips_per_segment = 50;
    for (int segment = 0; segment < checkpoints; ++segment) {
      for (int f = 0; f < flips_per_segment; ++f) {
        state.flip(static_cast<BitIndex>(rng.below(n)));
      }
      // Full cross-check at the checkpoint.
      ASSERT_EQ(state.energy(), full_energy(w, state.bits()))
          << plan_name << ": energy diverged at segment " << segment;
      const auto reference = all_deltas(w, state.bits());
      for (BitIndex i = 0; i < n; ++i) {
        ASSERT_EQ(state.delta(i), reference[i])
            << plan_name << ": Δ_" << i << " diverged at segment " << segment;
      }
    }
    EXPECT_EQ(state.flips(),
              static_cast<std::uint64_t>(checkpoints) * flips_per_segment);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeltaStateRandomWalk,
                         ::testing::Values(1, 2, 3, 17, 64, 65, 130));

TEST(DeltaState, TrackedFlipReturnsTrueMinimumNeighbor) {
  const BitIndex n = 40;
  const WeightMatrix w = random_matrix(n, 7);
  Rng rng(8);
  DeltaState state(w, BitVector::random(n, rng));

  for (int step = 0; step < 30; ++step) {
    const auto k = static_cast<BitIndex>(rng.below(n));
    const auto outcome = state.flip_tracked(k);
    EXPECT_EQ(outcome.energy, full_energy(w, state.bits()));

    // The reported best neighbour must be the true minimum over i ≠ k.
    Energy expected_best = std::numeric_limits<Energy>::max();
    BitIndex expected_bit = n;
    for (BitIndex i = 0; i < n; ++i) {
      if (i == k) continue;
      const Energy e = full_energy(w, state.bits().with_flip(i));
      if (e < expected_best) {
        expected_best = e;
        expected_bit = i;
      }
    }
    EXPECT_EQ(outcome.best_neighbor_energy, expected_best);
    // Ties resolve to the leftmost index — the oracle's strict-< scan finds
    // exactly that, and every kernel form is pinned to the same contract.
    EXPECT_EQ(outcome.best_neighbor_bit, expected_bit);
    EXPECT_NE(outcome.best_neighbor_bit, k);
  }
}

TEST(DeltaState, TrackedFlipSizeOneReportsFlipBack) {
  const WeightMatrix w = random_matrix(1, 9);
  DeltaState state(w);
  const auto outcome = state.flip_tracked(0);
  EXPECT_EQ(outcome.best_neighbor_bit, 0u);
  EXPECT_EQ(outcome.best_neighbor_energy, 0);  // flipping back to zero vector
}

TEST(DeltaState, TrackedAndPlainFlipAgree) {
  const BitIndex n = 25;
  const WeightMatrix w = random_matrix(n, 10);
  Rng rng(11);
  DeltaState plain(w);
  DeltaState tracked(w);
  for (int step = 0; step < 100; ++step) {
    const auto k = static_cast<BitIndex>(rng.below(n));
    const Energy e_plain = plain.flip(k);
    const auto outcome = tracked.flip_tracked(k);
    ASSERT_EQ(e_plain, outcome.energy);
  }
  EXPECT_EQ(plain.bits(), tracked.bits());
  for (BitIndex i = 0; i < n; ++i) {
    EXPECT_EQ(plain.delta(i), tracked.delta(i));
  }
}

TEST(DeltaState, EvaluatedSolutionsCountsNeighborhoods) {
  const WeightMatrix w = random_matrix(16, 12);
  DeltaState state(w);
  state.flip(0);
  state.flip(5);
  // (flips + 1) × n: the initial neighbourhood plus one per flip.
  EXPECT_EQ(state.evaluated_solutions(), 3u * 16u);
}

TEST(DeltaState, WorksAtWeightExtremes) {
  // Saturated ±32768/32767 weights with long walks must never overflow.
  const BitIndex n = 64;
  Rng rng(13);
  const WeightMatrix w =
      WeightMatrix::generate_symmetric(n, [&rng](BitIndex, BitIndex) {
        return rng.chance(0.5) ? kMinWeight : kMaxWeight;
      });
  DeltaState state(w);
  for (int step = 0; step < 500; ++step) {
    state.flip(static_cast<BitIndex>(rng.below(n)));
  }
  EXPECT_EQ(state.energy(), full_energy(w, state.bits()));
  const auto reference = all_deltas(w, state.bits());
  for (BitIndex i = 0; i < n; ++i) EXPECT_EQ(state.delta(i), reference[i]);
}

TEST(DeltaState, EnergyAfterFlipIsEq5) {
  const WeightMatrix w = random_matrix(12, 14);
  Rng rng(15);
  DeltaState state(w, BitVector::random(12, rng));
  for (BitIndex i = 0; i < 12; ++i) {
    EXPECT_EQ(state.energy_after_flip(i),
              full_energy(w, state.bits().with_flip(i)));
  }
}

}  // namespace
}  // namespace absq
