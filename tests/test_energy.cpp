#include "qubo/energy.hpp"

#include <gtest/gtest.h>

#include "qubo/weight_matrix.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace absq {
namespace {

/// Literal Eq. (1) over all index pairs — the most direct oracle possible.
Energy brute_force_energy(const WeightMatrix& w, const BitVector& x) {
  Energy total = 0;
  for (BitIndex i = 0; i < w.size(); ++i) {
    for (BitIndex j = 0; j < w.size(); ++j) {
      total += static_cast<Energy>(w.at(i, j)) * x.get(i) * x.get(j);
    }
  }
  return total;
}

WeightMatrix random_matrix(BitIndex n, std::uint64_t seed) {
  Rng rng(seed);
  return WeightMatrix::generate_symmetric(n, [&rng](BitIndex, BitIndex) {
    return static_cast<Weight>(rng.range(-100, 100));
  });
}

/// A CSR-stored instance: ~1% of the entries set, diagonal included.
/// About 0.1 % of the entries set — every 50th diagonal and 0.08 % of the
/// pairs — so the matrix is CSR-stored under every dense sweep build's
/// density rule.
WeightMatrix random_csr_matrix(BitIndex n, std::uint64_t seed) {
  Rng rng(seed);
  return WeightMatrix::generate_symmetric(n, [&rng](BitIndex i, BitIndex j) {
    if (i == j ? i % 50 != 0 : !rng.chance(0.0008)) return Weight{0};
    return static_cast<Weight>(rng.range(-100, 100));
  });
}

TEST(Phi, MatchesDefinition) {
  EXPECT_EQ(phi(0), 1);
  EXPECT_EQ(phi(1), -1);
}

TEST(FullEnergy, ZeroVectorHasZeroEnergy) {
  const WeightMatrix w = random_matrix(16, 1);
  EXPECT_EQ(full_energy(w, BitVector(16)), 0);
}

TEST(FullEnergy, SingleBitEnergyIsDiagonal) {
  const WeightMatrix w = random_matrix(8, 2);
  for (BitIndex k = 0; k < 8; ++k) {
    BitVector x(8);
    x.set(k, true);
    EXPECT_EQ(full_energy(w, x), w.at(k, k));
  }
}

TEST(FullEnergy, TwoBitEnergyIncludesBothCrossTerms) {
  const WeightMatrix w = random_matrix(8, 3);
  BitVector x(8);
  x.set(2, true);
  x.set(5, true);
  EXPECT_EQ(full_energy(w, x),
            static_cast<Energy>(w.at(2, 2)) + w.at(5, 5) + 2 * w.at(2, 5));
}

TEST(FullEnergy, MatchesBruteForce) {
  Rng rng(4);
  for (const BitIndex n : {1u, 2u, 7u, 32u, 65u}) {
    const WeightMatrix w = random_matrix(n, 100 + n);
    for (int trial = 0; trial < 10; ++trial) {
      const BitVector x = BitVector::random(n, rng);
      EXPECT_EQ(full_energy(w, x), brute_force_energy(w, x))
          << "n=" << n << " trial=" << trial;
    }
  }
}

TEST(FullEnergy, SizeMismatchThrows) {
  EXPECT_THROW((void)full_energy(WeightMatrix(4), BitVector(5)), CheckError);
}

TEST(DeltaK, MatchesFlipDifference) {
  // Δ_k(X) must equal E(flip_k(X)) − E(X) for every bit and many vectors —
  // this is the defining property (Eq. 11).
  Rng rng(5);
  for (const BitIndex n : {1u, 3u, 16u, 33u}) {
    const WeightMatrix w = random_matrix(n, 200 + n);
    for (int trial = 0; trial < 5; ++trial) {
      const BitVector x = BitVector::random(n, rng);
      const Energy base = full_energy(w, x);
      for (BitIndex k = 0; k < n; ++k) {
        EXPECT_EQ(delta_k(w, x, k), full_energy(w, x.with_flip(k)) - base)
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(DeltaK, OutOfRangeThrows) {
  const WeightMatrix w = random_matrix(4, 6);
  EXPECT_THROW((void)delta_k(w, BitVector(4), 4), CheckError);
}

TEST(AllDeltas, AgreesWithDeltaK) {
  Rng rng(7);
  const WeightMatrix w = random_matrix(24, 8);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVector x = BitVector::random(24, rng);
    const auto deltas = all_deltas(w, x);
    ASSERT_EQ(deltas.size(), 24u);
    for (BitIndex k = 0; k < 24; ++k) {
      EXPECT_EQ(deltas[k], delta_k(w, x, k));
    }
  }
}

TEST(AllDeltas, ZeroVectorDeltasAreDiagonal) {
  // Δ_i(0) = W_ii — the paper's O(n) initialization identity.
  const WeightMatrix w = random_matrix(12, 9);
  const auto deltas = all_deltas(w, BitVector(12));
  for (BitIndex i = 0; i < 12; ++i) EXPECT_EQ(deltas[i], w.at(i, i));
}

TEST(FullEnergy, CsrStorageMatchesBruteForce) {
  const WeightMatrix w = random_csr_matrix(300, 21);
  ASSERT_NE(w.csr(), nullptr);
  Rng rng(22);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVector x = BitVector::random(300, rng);
    EXPECT_EQ(full_energy(w, x), brute_force_energy(w, x));
  }
  BitVector all(300);
  for (BitIndex i = 0; i < 300; ++i) all.set(i, true);
  EXPECT_EQ(full_energy(w, all), brute_force_energy(w, all));
}

TEST(AllDeltas, CsrStorageMatchesBruteForce) {
  // Δ_k(X) = E(flip_k(X)) − E(X), both sides from the literal Eq. (1).
  const WeightMatrix w = random_csr_matrix(200, 23);
  ASSERT_NE(w.csr(), nullptr);
  Rng rng(24);
  for (int trial = 0; trial < 4; ++trial) {
    const BitVector x = BitVector::random(200, rng);
    const Energy e = brute_force_energy(w, x);
    const auto deltas = all_deltas(w, x);
    ASSERT_EQ(deltas.size(), 200u);
    for (BitIndex k = 0; k < 200; ++k) {
      const Energy expected = brute_force_energy(w, x.with_flip(k)) - e;
      ASSERT_EQ(deltas[k], expected) << "k=" << k;
      ASSERT_EQ(delta_k(w, x, k), expected) << "k=" << k;
    }
  }
}

TEST(Energy, SixteenBitExtremesDoNotOverflow) {
  // All-ones vector on an all-minimum matrix: the most negative energy a
  // 64-bit accumulator must absorb at a given n.
  const BitIndex n = 512;
  const WeightMatrix w = WeightMatrix::generate_symmetric(
      n, [](BitIndex, BitIndex) { return kMinWeight; });
  BitVector x(n);
  for (BitIndex i = 0; i < n; ++i) x.set(i, true);
  const Energy expected =
      static_cast<Energy>(n) * n * kMinWeight;  // n² terms of −32768
  EXPECT_EQ(full_energy(w, x), expected);
  // And the Δ at the extreme: flipping one bit off removes 2n−1 terms.
  EXPECT_EQ(delta_k(w, x, 0),
            -(2 * static_cast<Energy>(n) - 1) * kMinWeight);
}

}  // namespace
}  // namespace absq
