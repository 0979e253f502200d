#include "qubo/weight_matrix.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <map>
#include <sstream>
#include <utility>

#include "abs/sync_runner.hpp"
#include "baselines/solvers.hpp"
#include "problems/maxcut.hpp"
#include "qubo/bit_vector.hpp"
#include "qubo/delta_state.hpp"
#include "qubo/energy.hpp"
#include "qubo/io.hpp"
#include "qubo/kernel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace absq {
namespace {

TEST(WeightMatrix, ZeroConstructed) {
  WeightMatrix w(5);
  EXPECT_EQ(w.size(), 5u);
  EXPECT_EQ(w.nonzeros(), 0u);
  EXPECT_TRUE(w.is_symmetric());
  for (BitIndex i = 0; i < 5; ++i) {
    for (BitIndex j = 0; j < 5; ++j) EXPECT_EQ(w.at(i, j), 0);
  }
}

TEST(WeightMatrix, GenerateSymmetricMirrorsUpperTriangle) {
  const WeightMatrix w = WeightMatrix::generate_symmetric(
      4, [](BitIndex i, BitIndex j) { return static_cast<Weight>(10 * i + j); });
  EXPECT_TRUE(w.is_symmetric());
  EXPECT_EQ(w.at(1, 3), 13);
  EXPECT_EQ(w.at(3, 1), 13);
  EXPECT_EQ(w.at(2, 2), 22);
}

TEST(WeightMatrix, RowSpanMatchesAt) {
  const WeightMatrix w = WeightMatrix::generate_symmetric(
      6, [](BitIndex i, BitIndex j) { return static_cast<Weight>(i + j); });
  for (BitIndex k = 0; k < 6; ++k) {
    const auto row = w.row(k);
    ASSERT_EQ(row.size(), 6u);
    for (BitIndex j = 0; j < 6; ++j) EXPECT_EQ(row[j], w.at(k, j));
  }
}

TEST(WeightMatrix, BytesReportsFootprint) {
  // Dense storage holds n² weights; CSR storage its row offsets and the
  // stored entries only — an empty 100-bit matrix is 101 offsets.
  const WeightMatrix dense(40);
  ASSERT_EQ(dense.csr(), nullptr);
  EXPECT_EQ(dense.bytes(), 40u * 40u * sizeof(Weight));
  const WeightMatrix sparse(100);
  ASSERT_NE(sparse.csr(), nullptr);
  EXPECT_EQ(sparse.bytes(), sparse.csr()->bytes());
  EXPECT_EQ(sparse.bytes(), 101u * sizeof(std::size_t));
}

TEST(WeightMatrixBuilder, RejectsBadSizes) {
  EXPECT_THROW(WeightMatrixBuilder(0), CheckError);
  EXPECT_THROW(WeightMatrixBuilder(kMaxBits + 1), CheckError);
  EXPECT_NO_THROW((void)WeightMatrixBuilder{kMaxBits});
}

TEST(WeightMatrixBuilder, RejectsOutOfRangeIndices) {
  WeightMatrixBuilder b(4);
  EXPECT_THROW(b.add(0, 4, 1), CheckError);
  EXPECT_THROW(b.add(4, 0, 1), CheckError);
}

TEST(WeightMatrixBuilder, DiagonalIsLinearCoefficient) {
  WeightMatrixBuilder b(3);
  b.add_linear(1, 7);
  const WeightMatrix w = b.build();
  EXPECT_EQ(w.at(1, 1), 7);
  EXPECT_EQ(b.energy_scale(), 1);
}

TEST(WeightMatrixBuilder, EvenPairCoefficientSplitsEvenly) {
  WeightMatrixBuilder b(3);
  b.add(0, 2, 6);  // 6·x_0·x_2 → W_02 = W_20 = 3
  const WeightMatrix w = b.build();
  EXPECT_EQ(w.at(0, 2), 3);
  EXPECT_EQ(w.at(2, 0), 3);
  EXPECT_EQ(b.energy_scale(), 1);
}

TEST(WeightMatrixBuilder, OddPairCoefficientDoublesEverything) {
  WeightMatrixBuilder b(3);
  b.add(0, 1, 3);    // odd pair coefficient
  b.add_linear(2, 5);
  const WeightMatrix w = b.build();
  EXPECT_EQ(b.energy_scale(), 2);
  EXPECT_EQ(w.at(0, 1), 3);  // 3·2/2
  EXPECT_EQ(w.at(2, 2), 10); // 5·2
}

TEST(WeightMatrixBuilder, AccumulatesRepeatedTerms) {
  WeightMatrixBuilder b(3);
  b.add(0, 1, 2);
  b.add(1, 0, 2);  // order-insensitive accumulation
  b.add(0, 1, -2);
  const WeightMatrix w = b.build();
  EXPECT_EQ(w.at(0, 1), 1);  // pair coefficient 2 → split 1/1
}

TEST(WeightMatrixBuilder, QuadraticFormPreserved) {
  // For any accumulated terms, X^T W X must equal scale · Σ c_ij x_i x_j.
  Rng rng(5);
  WeightMatrixBuilder b(8);
  std::vector<std::tuple<BitIndex, BitIndex, Energy>> terms;
  for (int t = 0; t < 30; ++t) {
    const auto i = static_cast<BitIndex>(rng.below(8));
    const auto j = static_cast<BitIndex>(rng.below(8));
    const Energy c = rng.range(-50, 50);
    b.add(i, j, c);
    terms.emplace_back(i, j, c);
  }
  const WeightMatrix w = b.build();
  const Energy scale = b.energy_scale();
  for (int trial = 0; trial < 20; ++trial) {
    const BitVector x = BitVector::random(8, rng);
    Energy direct = 0;
    for (const auto& [i, j, c] : terms) {
      if (x.get(i) != 0 && x.get(j) != 0) direct += c;
    }
    EXPECT_EQ(full_energy(w, x), scale * direct);
  }
}

TEST(WeightMatrixBuilder, BuildThrowsOnOverflow) {
  WeightMatrixBuilder b(2);
  b.add_linear(0, 40000);
  EXPECT_THROW((void)b.build(), CheckError);
}

TEST(WeightMatrixBuilder, BuildThrowsWhenDoublingOverflows) {
  WeightMatrixBuilder b(3);
  b.add_linear(0, 20000);  // fine alone
  b.add(1, 2, 3);          // odd → doubling pushes 20000 to 40000
  EXPECT_THROW((void)b.build(), CheckError);
}

TEST(WeightMatrixBuilder, BuildScaledBringsCoefficientsInRange) {
  WeightMatrixBuilder b(2);
  b.add_linear(0, 1 << 20);
  b.add_linear(1, -(1 << 20));
  int shift = -1;
  const WeightMatrix w = b.build_scaled(&shift);
  EXPECT_GT(shift, 0);
  EXPECT_EQ(w.at(0, 0), (1 << 20) >> shift);
  EXPECT_EQ(w.at(1, 1), -(1 << 20) >> shift);
  EXPECT_LE(w.at(0, 0), kMaxWeight);
}

TEST(WeightMatrixBuilder, BuildScaledUsesZeroShiftWhenInRange) {
  WeightMatrixBuilder b(2);
  b.add_linear(0, 100);
  int shift = -1;
  const WeightMatrix w = b.build_scaled(&shift);
  EXPECT_EQ(shift, 0);
  EXPECT_EQ(w.at(0, 0), 100);
}

TEST(WeightMatrixBuilder, BuildScaledTruncatesTowardZeroForBothSigns) {
  // ±c must quantize to ±v with the same magnitude at every shift. The
  // coefficient is deliberately NOT divisible by any power of two (an
  // arithmetic >> would round −c one ULP lower than −(c >> s) and break the
  // symmetry). Each doubling of the coefficient raises the required shift
  // by one, so the loop pins the contract at every shift level.
  for (int level = 0; level < 8; ++level) {
    const Energy magnitude = Energy{100001} << level;  // odd core value
    WeightMatrixBuilder b(2);
    b.add_linear(0, magnitude);
    b.add_linear(1, -magnitude);
    int shift = -1;
    const WeightMatrix w = b.build_scaled(&shift);
    ASSERT_GT(shift, 0) << "level " << level;
    const Energy expected = magnitude >> shift;  // positive: plain shift
    EXPECT_EQ(w.at(0, 0), expected) << "level " << level;
    EXPECT_EQ(w.at(1, 1), -expected)
        << "level " << level << ": negative coefficient must mirror the "
        << "positive one exactly (truncation toward zero)";
    EXPECT_LE(w.at(0, 0), kMaxWeight);
    EXPECT_GE(w.at(1, 1), kMinWeight);
  }
}

TEST(WeightMatrixBuilder, BuildScaledNegativeStaysInRange) {
  // Regression guard for the floor-division bug: with arithmetic shift,
  // −(kMaxWeight·2^s + r) floors to kMinWeight − ... candidates below the
  // legal range. Truncation toward zero keeps |quantized| ≤ |exact|/2^s.
  WeightMatrixBuilder b(2);
  b.add_linear(0, -((Energy{kMaxWeight} << 3) + 7));
  int shift = -1;
  const WeightMatrix w = b.build_scaled(&shift);
  EXPECT_EQ(shift, 3);
  EXPECT_EQ(w.at(0, 0), -kMaxWeight);
  EXPECT_GE(w.at(0, 0), kMinWeight);
}

TEST(WeightMatrixBuilder, MaxAbsCoefficientTracksAccumulation) {
  WeightMatrixBuilder b(3);
  EXPECT_EQ(b.max_abs_coefficient(), 0);
  b.add(0, 1, -500);
  b.add_linear(2, 300);
  EXPECT_EQ(b.max_abs_coefficient(), 500);
}

TEST(WeightMatrixBuilder, ZeroTermsAreIgnored) {
  WeightMatrixBuilder b(3);
  b.add(0, 1, 0);
  EXPECT_EQ(b.build().nonzeros(), 0u);
}

TEST(WeightMatrix, EqualityComparesContents) {
  WeightMatrixBuilder b1(3);
  b1.add_linear(0, 4);
  WeightMatrixBuilder b2(3);
  b2.add_linear(0, 4);
  EXPECT_EQ(b1.build(), b2.build());
  WeightMatrixBuilder b3(3);
  b3.add_linear(0, 5);
  EXPECT_NE(b1.build(), b3.build());
}

TEST(WeightMatrix, DiagonalExtraction) {
  const WeightMatrix w = WeightMatrix::generate_symmetric(
      4, [](BitIndex i, BitIndex j) {
        return static_cast<Weight>(i == j ? static_cast<int>(i) + 1 : 0);
      });
  const std::vector<Weight> expected = {1, 2, 3, 4};
  EXPECT_EQ(w.diagonal(), expected);
}

// ---------------------------------------------------------------------------
// Storage: one rule, chosen when the matrix is finished
// ---------------------------------------------------------------------------

/// An n-bit matrix whose upper triangle holds `pairs` off-diagonal entries
/// (each stored twice) and `diagonal` diagonal ones (each stored once).
WeightMatrix with_entries(BitIndex n, BitIndex pairs, BitIndex diagonal) {
  WeightMatrixBuilder b(n);
  for (BitIndex p = 0; p < pairs; ++p) b.add(p % n, (p % n + 1 + p / n) % n, 2);
  for (BitIndex i = 0; i < diagonal; ++i) b.add_linear(i, 3);
  return b.build();
}

/// The most entries an n-bit matrix stores as CSR: the threshold of the
/// dense sweep build dispatched for this CPU (1/32 portable, lower for the
/// fused x86 builds) times n², rounded down.
std::size_t csr_limit(BitIndex n) {
  const double n2 = static_cast<double>(n) * static_cast<double>(n);
  return static_cast<std::size_t>(WeightMatrix::sparse_density_threshold() *
                                  n2);
}

TEST(WeightMatrix, StorageFollowsTheDensityRule) {
  // n = 256: the rule allows csr_limit(256) stored entries as CSR — 2048
  // under the portable build's 1/32 — and not one more.
  const BitIndex n = 256;
  const std::size_t limit = csr_limit(n);
  ASSERT_GE(limit, 4u);
  const auto pairs = static_cast<BitIndex>(limit / 2);
  const auto odd = static_cast<BitIndex>(limit % 2);
  const WeightMatrix at_limit = with_entries(n, pairs, odd);
  ASSERT_EQ(at_limit.stored_nonzeros(), limit);
  EXPECT_NE(at_limit.csr(), nullptr);
  const WeightMatrix over_limit = with_entries(n, pairs, odd + 1);
  ASSERT_EQ(over_limit.stored_nonzeros(), limit + 1);
  EXPECT_EQ(over_limit.csr(), nullptr);
  EXPECT_EQ(WeightMatrix::stores_csr(n, limit), true);
  EXPECT_EQ(WeightMatrix::stores_csr(n, limit + 1), false);

  // kSparseMinBits: an empty matrix is CSR from 64 bits, dense below.
  EXPECT_EQ(WeightMatrix(WeightMatrix::kSparseMinBits - 1).csr(), nullptr);
  EXPECT_NE(WeightMatrix(WeightMatrix::kSparseMinBits).csr(), nullptr);
  EXPECT_EQ(with_entries(63, 1, 0).csr(), nullptr);
  EXPECT_NE(with_entries(64, 1, 0).csr(), nullptr);
}

TEST(WeightMatrix, RuleCountsFinalWeightsOnly) {
  // Pairs filling the limit; one more whose terms cancel, and two
  // diagonals that build_scaled() quantizes to 0, are not stored and do not
  // count — counted, either would push the matrix over the limit.
  const BitIndex n = 256;
  const auto pairs = static_cast<BitIndex>(csr_limit(n) / 2);
  WeightMatrixBuilder cancelled(n);
  for (BitIndex p = 0; p < pairs; ++p) cancelled.add(p, (p + 1) % n, 2);
  cancelled.add(0, 5, 2);
  cancelled.add(5, 0, -2);
  EXPECT_EQ(cancelled.build().stored_nonzeros(), 2u * pairs);
  EXPECT_NE(cancelled.build().csr(), nullptr);

  WeightMatrixBuilder quantized(n);
  for (BitIndex p = 0; p < pairs; ++p) {
    quantized.add(p, (p + 1) % n, 1 << 20);
  }
  quantized.add_linear(7, 1);  // 1 >> shift == 0
  quantized.add_linear(9, 1);
  int shift = 0;
  const WeightMatrix w = quantized.build_scaled(&shift);
  ASSERT_GT(shift, 0);
  EXPECT_EQ(w.at(7, 7), 0);
  EXPECT_EQ(w.stored_nonzeros(), 2u * pairs);
  EXPECT_NE(w.csr(), nullptr);
}

TEST(WeightMatrix, SameContentSameStorageOnEveryPath) {
  // One sparse and one dense content, each finished by the builder, by
  // generate_symmetric and by a write/read round trip. About 0.08 % and
  // 20 % of the entries are set: CSR and dense under every build's rule.
  for (const double density : {0.0008, 0.2}) {
    const BitIndex n = 400;
    Rng rng(41);
    std::map<std::pair<BitIndex, BitIndex>, Weight> entries;
    for (BitIndex i = 0; i < n; ++i) {
      for (BitIndex j = i; j < n; ++j) {
        if (rng.chance(density)) {
          entries[{i, j}] = static_cast<Weight>(rng.range(1, 50));
        }
      }
    }
    WeightMatrixBuilder b(n);
    for (const auto& [ij, v] : entries) {
      b.add(ij.first, ij.second, ij.first == ij.second ? v : 2 * v);
    }
    const WeightMatrix built = b.build();
    const WeightMatrix generated = WeightMatrix::generate_symmetric(
        n, [&entries](BitIndex i, BitIndex j) {
          const auto it = entries.find({i, j});
          return it == entries.end() ? Weight{0} : it->second;
        });
    std::stringstream text;
    write_qubo(text, built);
    const WeightMatrix parsed = read_qubo(text);

    EXPECT_EQ(built.csr() != nullptr, density < 0.03) << density;
    EXPECT_EQ(generated, built) << density;
    EXPECT_EQ(parsed, built) << density;
    EXPECT_EQ(generated.csr() != nullptr, built.csr() != nullptr) << density;
    EXPECT_EQ(parsed.csr() != nullptr, built.csr() != nullptr) << density;
  }
}

TEST(WeightMatrix, EqualityComparesContentsOnCsrStorage) {
  // 110 of 400² entries stored: CSR under every build's rule.
  const WeightMatrix a = with_entries(400, 50, 10);
  ASSERT_NE(a.csr(), nullptr);
  EXPECT_EQ(a, with_entries(400, 50, 10));
  EXPECT_NE(a, with_entries(400, 50, 11));
  EXPECT_NE(a, with_entries(400, 51, 10));
  EXPECT_NE(a, WeightMatrix(400));
}

TEST(WeightMatrix, CsrAccessorsMatchAnOracle) {
  // At most 240 of 600² entries stored: CSR under every build's rule.
  const BitIndex n = 600;
  Rng rng(43);
  std::map<std::pair<BitIndex, BitIndex>, Weight> oracle;  // i ≤ j
  WeightMatrixBuilder b(n);
  for (int t = 0; t < 120; ++t) {
    auto i = static_cast<BitIndex>(rng.below(n));
    auto j = static_cast<BitIndex>(rng.below(n));
    if (i > j) std::swap(i, j);
    if (oracle.contains({i, j})) continue;
    const auto v = static_cast<Weight>(rng.range(-30, 30));
    if (v == 0) continue;
    oracle[{i, j}] = v;
    b.add(i, j, i == j ? v : 2 * v);
  }
  const WeightMatrix w = b.build();
  ASSERT_NE(w.csr(), nullptr);

  std::size_t stored = 0;
  for (BitIndex i = 0; i < n; ++i) {
    for (BitIndex j = 0; j < n; ++j) {
      const auto it = oracle.find({std::min(i, j), std::max(i, j)});
      const Weight expected = it == oracle.end() ? Weight{0} : it->second;
      ASSERT_EQ(w.at(i, j), expected) << "(" << i << ", " << j << ")";
      if (expected != 0) ++stored;
    }
  }
  EXPECT_EQ(w.nonzeros(), oracle.size());
  EXPECT_EQ(w.stored_nonzeros(), stored);
  EXPECT_TRUE(w.is_symmetric());
  std::vector<Weight> diagonal(n, 0);
  for (const auto& [ij, v] : oracle) {
    if (ij.first == ij.second) diagonal[ij.first] = v;
  }
  EXPECT_EQ(w.diagonal(), diagonal);

  // for_each_upper visits the oracle's entries in row-major order.
  std::vector<std::pair<std::pair<BitIndex, BitIndex>, Weight>> visited;
  w.for_each_upper([&visited](BitIndex i, BitIndex j, Weight v) {
    visited.push_back({{i, j}, v});
  });
  EXPECT_EQ(visited, (std::vector<std::pair<std::pair<BitIndex, BitIndex>,
                                            Weight>>(oracle.begin(),
                                                     oracle.end())));
}

TEST(WeightMatrixBuilder, CsrBuildMatchesTermOracle) {
  // An odd off-diagonal coefficient doubles every coefficient on the CSR
  // path exactly as on the dense one.
  WeightMatrixBuilder b(96);
  b.add(0, 1, 7);  // odd → doubles every coefficient
  b.add(2, 40, -6);
  b.add_linear(3, 11);
  b.add(95, 95, -2);
  b.add(1, 0, 2);  // accumulates onto (0, 1): 9 stays odd
  const WeightMatrix w = b.build();
  ASSERT_NE(w.csr(), nullptr);
  EXPECT_EQ(b.energy_scale(), 2);
  for (BitIndex i = 0; i < 96; ++i) {
    for (BitIndex j = 0; j < 96; ++j) {
      Weight expected = 0;
      const std::pair<BitIndex, BitIndex> ij{std::min(i, j), std::max(i, j)};
      if (ij == std::pair<BitIndex, BitIndex>{0, 1}) expected = 9;   // 18/2
      if (ij == std::pair<BitIndex, BitIndex>{2, 40}) expected = -6;  // −12/2
      if (ij == std::pair<BitIndex, BitIndex>{3, 3}) expected = 22;
      if (ij == std::pair<BitIndex, BitIndex>{95, 95}) expected = -4;
      ASSERT_EQ(w.at(i, j), expected) << "(" << i << ", " << j << ")";
    }
  }
}

TEST(DenseRows, BorrowsDenseStorageAndCopiesCsr) {
  const WeightMatrix dense = WeightMatrix::generate_symmetric(
      8, [](BitIndex i, BitIndex j) { return static_cast<Weight>(i * j + 1); });
  const DenseRows borrowed(dense);
  EXPECT_EQ(borrowed.row(5).data(), dense.row(5).data());

  // 87 of 400² entries stored: CSR under every build's rule.
  const WeightMatrix sparse = with_entries(400, 40, 7);
  ASSERT_NE(sparse.csr(), nullptr);
  const DenseRows copied(sparse);
  const DenseRows shared = copied;
  ASSERT_EQ(copied.size(), 400u);
  EXPECT_EQ(shared.row(0).data(), copied.row(0).data());
  for (BitIndex i = 0; i < 400; ++i) {
    ASSERT_EQ(copied.row(i).size(), 400u);
    for (BitIndex j = 0; j < 400; ++j) {
      ASSERT_EQ(copied.row(i)[j], sparse.at(i, j));
    }
  }
}

// ---------------------------------------------------------------------------
// No n² for sparse instances: at kMaxBits a dense copy would be 2 GiB, so
// every step below finishing in tier-1 time and memory is the guard.
// ---------------------------------------------------------------------------

long peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024;
}

void expect_no_quadratic_step(const WeightMatrix& w) {
  const BitIndex n = w.size();
  ASSERT_EQ(n, kMaxBits);
  ASSERT_NE(w.csr(), nullptr);
  EXPECT_LT(w.bytes(), std::size_t{1} << 20);

  const QuboKernel kernel(w);
  EXPECT_EQ(kernel.form(), KernelForm::kSparse);
  EXPECT_EQ(kernel.sparse(), w.csr());

  AbsConfig config;
  config.device.block_limit = 2;
  config.device.local_steps = 64;
  config.pool_capacity = 8;
  SyncAbsRunner runner(w, config);
  const AbsResult result = runner.run_rounds(1);
  ASSERT_EQ(result.best.size(), n);
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));

  std::stringstream text;
  write_qubo(text, w);
  EXPECT_EQ(read_qubo(text), w);

  // The matrix constructors run the storage's own form, and so do the
  // baselines built on them (small budgets: each touches every bit).
  const DeltaState zero(w);
  EXPECT_EQ(zero.form(), KernelForm::kSparse);
  Rng rng(5);
  const BitVector x = BitVector::random(n, rng);
  const DeltaState seeded(w, x);
  EXPECT_EQ(seeded.form(), KernelForm::kSparse);
  EXPECT_EQ(seeded.energy(), full_energy(w, x));
  for (const BaselineResult& baseline :
       {greedy_descent(w, 64, 1), simulated_annealing(w, 10.0, 1.0, 256, 2),
        tabu_search(w, 4, 8, 3)}) {
    EXPECT_EQ(baseline.best_energy, full_energy(w, baseline.best));
  }

  // A 2 GiB dense matrix anywhere above would show here.
  EXPECT_LT(peak_rss_mb(), 512);
}

TEST(WeightMatrixScale, RingMaxCutAtMaxBitsStaysSparse) {
  WeightedGraph ring(kMaxBits);
  for (BitIndex v = 0; v < kMaxBits; ++v) {
    ring.add_edge(v, (v + 1) % kMaxBits, 1);
  }
  expect_no_quadratic_step(maxcut_to_qubo(ring));
}

TEST(WeightMatrixScale, SeventeenByteQuboAtMaxBitsStaysSparse) {
  const std::string text = "qubo 32768\n0 0 1\n";
  ASSERT_EQ(text.size(), 17u);
  std::istringstream in(text);
  expect_no_quadratic_step(read_qubo(in));
}

}  // namespace
}  // namespace absq
