#include "search/policy.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace absq {
namespace {

/// A matrix whose zero-vector Δ equals its diagonal, letting tests shape
/// the Δ landscape directly.
WeightMatrix diagonal_matrix(const std::vector<Weight>& diag) {
  return WeightMatrix::generate_symmetric(
      static_cast<BitIndex>(diag.size()),
      [&diag](BitIndex i, BitIndex j) {
        return i == j ? diag[i] : Weight{0};
      });
}

TEST(WindowMinDeltaPolicy, RejectsZeroWindow) {
  EXPECT_THROW(WindowMinDeltaPolicy(0), CheckError);
}

TEST(WindowMinDeltaPolicy, PicksMinimumInsideWindow) {
  // Δ = diag = [5, 3, 9, 1, 7, 2]; window 3 starting at offset 0 sees
  // {5, 3, 9} → bit 1.
  const WeightMatrix w = diagonal_matrix({5, 3, 9, 1, 7, 2});
  DeltaState state(w);
  Rng rng(1);
  WindowMinDeltaPolicy policy(3, 0);
  EXPECT_EQ(policy.select(state, rng), 1u);
}

TEST(WindowMinDeltaPolicy, OffsetAdvancesByWindowLength) {
  const WeightMatrix w = diagonal_matrix({5, 3, 9, 1, 7, 2});
  DeltaState state(w);
  Rng rng(2);
  WindowMinDeltaPolicy policy(3, 0);
  EXPECT_EQ(policy.select(state, rng), 1u);  // window {0,1,2}
  EXPECT_EQ(policy.select(state, rng), 3u);  // window {3,4,5} → Δ=1 at bit 3
  EXPECT_EQ(policy.select(state, rng), 1u);  // wrapped back to {0,1,2}
}

TEST(WindowMinDeltaPolicy, WindowWrapsAroundTheEnd) {
  const WeightMatrix w = diagonal_matrix({0, 9, 9, 9, 9});
  DeltaState state(w);
  Rng rng(3);
  WindowMinDeltaPolicy policy(3, 4);  // window {4, 0, 1} → min at bit 0
  EXPECT_EQ(policy.select(state, rng), 0u);
}

TEST(WindowMinDeltaPolicy, FullWindowIsGreedy) {
  // l = n never moves the offset (n mod n = 0): every step scans all n
  // bits from bit 0 and picks the first global minimum.
  const WeightMatrix w = diagonal_matrix({5, 3, 9, 1, 7, 2});
  DeltaState state(w);
  BitIndex greedy = 0;
  for (BitIndex i = 1; i < state.size(); ++i) {
    if (state.delta(i) < state.delta(greedy)) greedy = i;
  }
  ASSERT_EQ(greedy, 3u);
  Rng rng(4);
  WindowMinDeltaPolicy policy(state.size(), 0);
  EXPECT_EQ(policy.select(state, rng), greedy);
}

TEST(GreedyMinDeltaPolicy, AlwaysPicksGlobalMinimum) {
  // Greedy min-Δ selection is the full-window policy (l = n): a negative
  // Δ is found wherever it sits, and repeated steps keep picking it.
  const WeightMatrix w = diagonal_matrix({5, 3, 9, -1, 7, 2});
  DeltaState state(w);
  Rng rng(10);
  WindowMinDeltaPolicy policy(state.size(), 0);
  EXPECT_EQ(policy.select(state, rng), 3u);
  EXPECT_EQ(policy.select(state, rng), 3u);
}

TEST(WindowMinDeltaPolicy, OversizedWindowIsClamped) {
  const WeightMatrix w = diagonal_matrix({5, 3, 9});
  DeltaState state(w);
  Rng rng(5);
  WindowMinDeltaPolicy policy(100, 0);
  EXPECT_EQ(policy.select(state, rng), 1u);
}

TEST(WindowMinDeltaPolicy, RotationVisitsEveryWindowPosition) {
  // Over n/l consecutive selections the windows tile all n bits.
  const BitIndex n = 12;
  const WeightMatrix w = diagonal_matrix(std::vector<Weight>(n, 1));
  DeltaState state(w);
  Rng rng(6);
  WindowMinDeltaPolicy policy(4, 0);
  std::set<BitIndex> selected;
  for (int round = 0; round < 3; ++round) {
    selected.insert(policy.select(state, rng));
  }
  // All ties: the first index of each window wins, so 0, 4, 8.
  EXPECT_EQ(selected, (std::set<BitIndex>{0, 4, 8}));
}

TEST(WindowMinDeltaPolicy, ResetRestoresStartOffset) {
  const WeightMatrix w = diagonal_matrix({5, 3, 9, 1, 7, 2});
  DeltaState state(w);
  Rng rng(7);
  WindowMinDeltaPolicy policy(3, 0);
  const BitIndex first = policy.select(state, rng);
  (void)policy.select(state, rng);
  policy.reset();
  EXPECT_EQ(policy.select(state, rng), first);
}

TEST(WindowMinDeltaPolicy, SelectUsesNoRandomNumbers) {
  // Fig. 2's policy is RNG-free: the rng state must be untouched.
  const WeightMatrix w = diagonal_matrix({5, 3, 9, 1, 7, 2});
  DeltaState state(w);
  Rng rng(9);
  Rng reference(9);
  WindowMinDeltaPolicy policy(3, 0);
  (void)policy.select(state, rng);
  EXPECT_EQ(rng(), reference());
}

TEST(RandomBitPolicy, CoversAllBits) {
  const WeightMatrix w = diagonal_matrix(std::vector<Weight>(8, 0));
  DeltaState state(w);
  Rng rng(11);
  RandomBitPolicy policy;
  std::set<BitIndex> seen;
  for (int i = 0; i < 200; ++i) {
    const BitIndex k = policy.select(state, rng);
    ASSERT_LT(k, 8u);
    seen.insert(k);
  }
  EXPECT_EQ(seen.size(), 8u);
}

}  // namespace
}  // namespace absq
