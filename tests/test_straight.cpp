// Tests for the straight search (Algorithm 5) — the bridge that lets a
// block adopt a GA target without recomputing energies.
#include "search/straight.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "qubo/energy.hpp"
#include "qubo/kernel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace absq {
namespace {

WeightMatrix random_matrix(BitIndex n, std::uint64_t seed) {
  Rng rng(seed);
  return WeightMatrix::generate_symmetric(n, [&rng](BitIndex, BitIndex) {
    return static_cast<Weight>(rng.range(-100, 100));
  });
}

TEST(StraightSearch, EndsExactlyAtTarget) {
  Rng rng(1);
  const WeightMatrix w = random_matrix(50, 2);
  DeltaState state(w, BitVector::random(50, rng));
  const BitVector target = BitVector::random(50, rng);
  BestTracker tracker;
  (void)straight_search(state, target, tracker);
  EXPECT_EQ(state.bits(), target);
  EXPECT_EQ(state.energy(), full_energy(w, target));
}

TEST(StraightSearch, FlipCountEqualsHammingDistance) {
  Rng rng(3);
  const WeightMatrix w = random_matrix(64, 4);
  for (int trial = 0; trial < 10; ++trial) {
    DeltaState state(w, BitVector::random(64, rng));
    const BitVector target = BitVector::random(64, rng);
    const BitIndex distance = state.bits().hamming_distance(target);
    BestTracker tracker;
    const SearchStats stats = straight_search(state, target, tracker);
    EXPECT_EQ(stats.flips, distance);
  }
}

TEST(StraightSearch, ZeroDistanceIsNoOp) {
  Rng rng(5);
  const WeightMatrix w = random_matrix(20, 6);
  const BitVector start = BitVector::random(20, rng);
  DeltaState state(w, start);
  BestTracker tracker;
  const SearchStats stats = straight_search(state, start, tracker);
  EXPECT_EQ(stats.flips, 0u);
  EXPECT_EQ(state.bits(), start);
  EXPECT_FALSE(tracker.valid());  // nothing was visited
}

TEST(StraightSearch, DeltaStateRemainsValidAfterWalk) {
  // The whole point: Δ is intact at the target, ready for the local search.
  Rng rng(7);
  const WeightMatrix w = random_matrix(40, 8);
  DeltaState state(w, BitVector::random(40, rng));
  const BitVector target = BitVector::random(40, rng);
  BestTracker tracker;
  (void)straight_search(state, target, tracker);
  const auto reference = all_deltas(w, target);
  for (BitIndex i = 0; i < 40; ++i) {
    EXPECT_EQ(state.delta(i), reference[i]);
  }
}

TEST(StraightSearch, TrackerHoldsBestVisitedOrNeighbor) {
  Rng rng(9);
  const WeightMatrix w = random_matrix(30, 10);
  DeltaState state(w, BitVector::random(30, rng));
  const BitVector target = BitVector::random(30, rng);
  BestTracker tracker;
  (void)straight_search(state, target, tracker);
  ASSERT_TRUE(tracker.valid());
  // The tracker's claim must be exact.
  EXPECT_EQ(tracker.energy(), full_energy(w, tracker.best()));
  // And at least as good as the endpoint (the endpoint was offered).
  EXPECT_LE(tracker.energy(), state.energy());
}

TEST(StraightSearch, GreedyOrderPicksMinimumDeltaFirst) {
  // Construct a case where the greedy rule is observable: two differing
  // bits, one with a clearly lower Δ. The first flip must be that bit.
  WeightMatrixBuilder builder(2);
  builder.add_linear(0, 100);  // flipping bit 0 first costs +100
  builder.add_linear(1, -100); // flipping bit 1 first gains −100
  const WeightMatrix w = builder.build();

  DeltaState state(w);  // start 00
  const BitVector target = BitVector::from_string("11");
  BestTracker tracker;
  (void)straight_search(state, target, tracker);
  // Best intermediate solution is "01" (energy −100): greedy flipped bit 1
  // first. Had it flipped bit 0 first the best intermediate would be +100.
  EXPECT_EQ(tracker.energy(), -100);
}

TEST(StraightSearch, SizeMismatchThrows) {
  const WeightMatrix w = random_matrix(8, 11);
  DeltaState state(w);
  BestTracker tracker;
  EXPECT_THROW((void)straight_search(state, BitVector(9), tracker),
               CheckError);
}

TEST(StraightSearch, EvaluationAccountingMatchesFlips) {
  Rng rng(12);
  const WeightMatrix w = random_matrix(25, 13);
  DeltaState state(w, BitVector::random(25, rng));
  const BitVector target = BitVector::random(25, rng);
  BestTracker tracker;
  const SearchStats stats = straight_search(state, target, tracker);
  EXPECT_EQ(stats.ops, stats.flips * 25);
  EXPECT_EQ(stats.evaluated_solutions, stats.flips * 25);
}

TEST(StraightSearch, TargetMayAliasTheTrackersIncumbent) {
  // MultiStartAlgorithm::restart walks back to tracker.best() while
  // offering every visited state to that same tracker. Start at a local
  // minimum and make a random (much worse) state the incumbent: the very
  // first step beats it, so the aliased target moves mid-walk. The walk
  // must still end at the incumbent as it was on entry.
  Rng rng(16);
  const WeightMatrix w = random_matrix(40, 17);
  DeltaState state(w, BitVector::random(40, rng));
  while (state.delta(state.argmin_window(0, 40)) < 0) {
    (void)state.flip(state.argmin_window(0, 40));
  }
  const BitVector incumbent = BitVector::random(40, rng);
  BestTracker tracker(incumbent, full_energy(w, incumbent));
  ASSERT_GT(tracker.energy(), state.energy());
  const BitIndex distance = state.bits().hamming_distance(incumbent);
  ASSERT_GT(distance, 0u);

  const SearchStats stats = straight_search(state, tracker.best(), tracker);
  EXPECT_EQ(state.bits(), incumbent);
  EXPECT_EQ(state.energy(), full_energy(w, incumbent));
  EXPECT_EQ(stats.flips, distance);
  EXPECT_NE(tracker.best(), incumbent) << "the walk never passed a better "
                                          "state, so the alias was not tested";
  EXPECT_LT(tracker.energy(), full_energy(w, incumbent));
  EXPECT_EQ(tracker.energy(), full_energy(w, tracker.best()));
}

TEST(StraightSearch, ChainedWalksStayConsistent) {
  // A block's whole life is straight search → local flips → straight
  // search → ...; chain several walks and verify the state never drifts.
  Rng rng(14);
  const WeightMatrix w = random_matrix(33, 15);
  DeltaState state(w);
  BestTracker tracker;
  for (int leg = 0; leg < 6; ++leg) {
    const BitVector target = BitVector::random(33, rng);
    (void)straight_search(state, target, tracker);
    ASSERT_EQ(state.energy(), full_energy(w, state.bits())) << "leg " << leg;
  }
}

/// A walk stopped before its end, then a full walk to a new target: the
/// state must match one built fresh at that target.
void check_abandoned_walk(const WeightMatrix& w, const QuboKernel& kernel,
                          std::uint64_t seed) {
  const BitIndex n = w.size();
  Rng rng(seed);
  DeltaState state(kernel, BitVector::random(n, rng));
  const BitVector target = BitVector::random(n, rng);
  ASSERT_GT(state.bits().hamming_distance(target), kStopCheckInterval);

  const std::atomic<bool> stop{true};
  BestTracker tracker;
  const SearchStats stopped = straight_search(state, target, tracker, &stop);
  EXPECT_LE(stopped.flips, kStopCheckInterval);
  EXPECT_NE(state.bits(), target);
  EXPECT_EQ(state.energy(), full_energy(w, state.bits()));
  const std::vector<Energy> deltas = all_deltas(w, state.bits());
  for (BitIndex i = 0; i < n; ++i) {
    ASSERT_EQ(state.delta(i), deltas[i]) << "bit " << i;
  }

  const BitVector next = BitVector::random(n, rng);
  BestTracker next_tracker;
  const BitIndex distance = state.bits().hamming_distance(next);
  const SearchStats walked = straight_search(state, next, next_tracker);
  EXPECT_EQ(walked.flips, distance);
  const DeltaState fresh(w, next);
  EXPECT_EQ(state.bits(), fresh.bits());
  EXPECT_EQ(state.energy(), fresh.energy());
  for (BitIndex i = 0; i < n; ++i) {
    ASSERT_EQ(state.delta(i), fresh.delta(i)) << "bit " << i;
  }
}

TEST(StraightSearch, RaisedStopAbandonsTheWalkConsistently) {
  const WeightMatrix w = random_matrix(200, 18);
  check_abandoned_walk(w, QuboKernel(w), 19);
}

TEST(StraightSearch, RaisedStopAbandonsASparseWalkConsistently) {
  // The CSR form also keeps a pending tree, which the abandoned walk
  // leaves over bits it never flipped, for the next begin_walk to rebuild.
  // About 0.1 % of the entries are set: CSR under every build's rule.
  Rng rng(20);
  const WeightMatrix w = WeightMatrix::generate_symmetric(
      1024, [&rng](BitIndex, BitIndex) {
        return static_cast<Weight>(rng.chance(0.001) ? rng.range(-100, 100)
                                                     : 0);
      });
  const QuboKernel kernel(w);
  ASSERT_EQ(kernel.form(), KernelForm::kSparse);
  check_abandoned_walk(w, kernel, 21);
}

}  // namespace
}  // namespace absq
