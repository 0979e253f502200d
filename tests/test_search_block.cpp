#include "abs/search_block.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "dense_sweep_build.hpp"
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

SearchBlock::Config block_config(std::uint64_t local_steps = 64,
                                 BitIndex window = 8) {
  SearchBlock::Config config;
  config.device_id = 1;
  config.block_id = 2;
  config.window = window;
  config.local_steps = local_steps;
  config.seed = 7;
  return config;
}

TEST(SearchBlock, StartsAtZeroVector) {
  const WeightMatrix w = random_matrix(32, 1);
  SearchBlock block(w, block_config());
  EXPECT_EQ(block.current().popcount(), 0u);
  EXPECT_EQ(block.current_energy(), 0);
  EXPECT_EQ(block.iterations(), 0u);
}

TEST(SearchBlock, RejectsZeroLocalSteps) {
  const WeightMatrix w = random_matrix(8, 2);
  auto config = block_config(0);
  EXPECT_THROW(SearchBlock(w, config), CheckError);
}

TEST(SearchBlock, IterateReportsExactEnergy) {
  Rng rng(3);
  const WeightMatrix w = random_matrix(40, 4);
  SearchBlock block(w, block_config());
  for (int iteration = 0; iteration < 5; ++iteration) {
    const BitVector target = BitVector::random(40, rng);
    const auto report = block.iterate(target);
    EXPECT_EQ(report.energy, full_energy(w, report.bits))
        << "iteration " << iteration;
    EXPECT_EQ(report.device_id, 1u);
    EXPECT_EQ(report.block_id, 2u);
  }
  EXPECT_EQ(block.iterations(), 5u);
}

TEST(SearchBlock, CurrentSolutionEnergyStaysConsistent) {
  Rng rng(5);
  const WeightMatrix w = random_matrix(24, 6);
  SearchBlock block(w, block_config(32));
  for (int iteration = 0; iteration < 8; ++iteration) {
    (void)block.iterate(BitVector::random(24, rng));
    ASSERT_EQ(block.current_energy(), full_energy(w, block.current()));
  }
}

TEST(SearchBlock, FlipAccountingMatchesProtocol) {
  // Flips per iteration = Hamming(C, T) + local_steps.
  Rng rng(7);
  const WeightMatrix w = random_matrix(30, 8);
  SearchBlock block(w, block_config(50));
  const BitVector target = BitVector::random(30, rng);
  const BitIndex distance = block.current().hamming_distance(target);
  const std::uint64_t flips_before = block.stats().flips;
  (void)block.iterate(target);
  EXPECT_EQ(block.stats().flips - flips_before, distance + 50);
}

TEST(SearchBlock, BestResetsBetweenIterations) {
  // Step 3: an iteration may report a worse solution than the previous
  // iteration's best — the incumbent does not leak across iterations.
  Rng rng(9);
  const WeightMatrix w = random_matrix(50, 10);
  SearchBlock block(w, block_config(16));
  Energy first = block.iterate(BitVector::random(50, rng)).energy;
  bool saw_worse_report = false;
  for (int iteration = 0; iteration < 30 && !saw_worse_report; ++iteration) {
    const auto report = block.iterate(BitVector::random(50, rng));
    if (report.energy > first) saw_worse_report = true;
    first = std::min(first, report.energy);
  }
  EXPECT_TRUE(saw_worse_report)
      << "30 iterations never reported a non-incumbent solution — the "
         "tracker is probably not being reset";
}

TEST(SearchBlock, TargetSizeMismatchThrows) {
  const WeightMatrix w = random_matrix(16, 11);
  SearchBlock block(w, block_config());
  EXPECT_THROW((void)block.iterate(BitVector(8)), CheckError);
}

TEST(SearchBlock, IterateOnCurrentSolutionIsPureLocalSearch) {
  // Target == current: zero straight-search flips, local steps only.
  const WeightMatrix w = random_matrix(20, 12);
  SearchBlock block(w, block_config(25));
  const BitVector current = block.current();
  const std::uint64_t flips_before = block.stats().flips;
  (void)block.iterate(current);
  EXPECT_EQ(block.stats().flips - flips_before, 25u);
}

TEST(SearchBlock, SearchEfficiencyIsConstant) {
  // The block-level Theorem 1 check: lifetime ops ≈ lifetime evaluations.
  Rng rng(13);
  const WeightMatrix w = random_matrix(64, 14);
  SearchBlock block(w, block_config(64));
  for (int iteration = 0; iteration < 10; ++iteration) {
    (void)block.iterate(BitVector::random(64, rng));
  }
  EXPECT_NEAR(block.stats().efficiency(), 1.0, 0.01);
}

TEST(SearchBlock, DistinctBlocksDiverge) {
  // Blocks with different ids get staggered window offsets, so equal
  // targets must not produce identical search trajectories.
  const WeightMatrix w = random_matrix(48, 15);
  auto config_a = block_config(100, 4);
  config_a.block_id = 0;
  auto config_b = block_config(100, 4);
  config_b.block_id = 1;
  SearchBlock block_a(w, config_a);
  SearchBlock block_b(w, config_b);
  Rng rng(16);
  const BitVector target = BitVector::random(48, rng);
  (void)block_a.iterate(target);
  (void)block_b.iterate(target);
  EXPECT_NE(block_a.current(), block_b.current());
}

class SearchBlockLockstep
    : public ::testing::TestWithParam<portfolio::BlockAlgorithmKind> {};

/// A block on a forced sparse plan and a block on a forced dense-SIMD plan,
/// fed the same targets — fresh random ones and the blocks' own reports, as
/// the GA would — must walk, search and report identically, whichever
/// portfolio member runs Step 4b (multistart also walks back to its
/// incumbent on restart). Both plans are forced: a plan-less block runs the
/// storage's own form, which on CSR storage is the sparse one again.
void run_block_lockstep(const WeightMatrix& w,
                        portfolio::BlockAlgorithmKind algorithm) {
  const BitIndex n = w.size();
  KernelOptions sparse_options;
  sparse_options.form = KernelOptions::Form::kSparse;
  const QuboKernel sparse_kernel(w, sparse_options);
  KernelOptions dense_options;
  dense_options.form = KernelOptions::Form::kDenseSimd;
  const QuboKernel dense_kernel(w, dense_options);
  // Two blocks of one form would agree whatever that form did.
  ASSERT_EQ(sparse_kernel.form(), KernelForm::kSparse);
  ASSERT_EQ(dense_kernel.form(), KernelForm::kDenseSimd);

  auto config = block_config(96, 8);
  config.algorithm = algorithm;
  config.algorithm_options.restart_stall_limit = 8;
  config.kernel = &dense_kernel;
  SearchBlock dense_block(w, config);
  config.kernel = &sparse_kernel;
  SearchBlock sparse_block(w, config);

  Rng rng(18);
  BitVector target = BitVector::random(n, rng);
  for (int iteration = 0; iteration < 30; ++iteration) {
    const auto expected = dense_block.iterate(target);
    const auto got = sparse_block.iterate(target);
    ASSERT_EQ(got.bits, expected.bits) << "iteration " << iteration;
    ASSERT_EQ(got.energy, expected.energy) << "iteration " << iteration;
    ASSERT_EQ(got.device_id, expected.device_id);
    ASSERT_EQ(got.block_id, expected.block_id);
    ASSERT_EQ(got.energy, full_energy(w, got.bits));
    ASSERT_EQ(sparse_block.current(), dense_block.current());
    ASSERT_EQ(sparse_block.current_energy(),
              full_energy(w, sparse_block.current()));
    ASSERT_EQ(sparse_block.stats().flips, dense_block.stats().flips);
    ASSERT_EQ(sparse_block.stats().improvements,
              dense_block.stats().improvements);
    target = iteration % 3 == 2 ? expected.bits : BitVector::random(n, rng);
  }
}

/// A G-set-style n-bit instance with about `density` of its entries set.
WeightMatrix gset_style(BitIndex n, double density) {
  Rng weights(17);
  return WeightMatrix::generate_symmetric(
      n, [&weights, density](BitIndex, BitIndex) {
        if (!weights.chance(density)) return static_cast<Weight>(0);
        return static_cast<Weight>(weights.range(-100, 100));
      });
}

TEST_P(SearchBlockLockstep, SparseKernelBlockMatchesDenseScalarBlock) {
  // ~1.6 nonzeros per row of 1600 (0.1 %): CSR-stored under every build's
  // rule, so the sparse block runs the matrix's own CSR and the dense
  // block, on dense-SIMD (the one dense form), a kernel-owned dense copy.
  const WeightMatrix w = gset_style(1600, 0.001);
  ASSERT_TRUE(w.csr() != nullptr);
  run_block_lockstep(w, GetParam());
}

TEST_P(SearchBlockLockstep, DenseStoredInstanceMatchesToo) {
  // ~10 nonzeros per row of 160 is above every build's rule (the widest is
  // 1/32): dense-stored, so the sparse block runs a CSR conversion and the
  // dense block the rows themselves.
  const WeightMatrix w = gset_style(160, 0.06);
  ASSERT_TRUE(w.csr() == nullptr);
  run_block_lockstep(w, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Members, SearchBlockLockstep,
    ::testing::Values(portfolio::BlockAlgorithmKind::kMinDelta,
                      portfolio::BlockAlgorithmKind::kSa,
                      portfolio::BlockAlgorithmKind::kMultiStart),
    [](const ::testing::TestParamInfo<portfolio::BlockAlgorithmKind>& p) {
      std::string name = portfolio::to_string(p.param);
      std::erase(name, '-');
      return name;
    });

/// The block lockstep once per dense sweep build this CPU supports: the
/// dense block runs the forced build, the sparse block the CSR kernel.
class SearchBlockBuildLockstep : public DenseSweepBuildTest {};

TEST_P(SearchBlockBuildLockstep, EveryMemberMatchesTheSparseBlock) {
  const WeightMatrix csr_stored = gset_style(1600, 0.001);
  const WeightMatrix dense_stored = gset_style(160, 0.06);
  ASSERT_NO_FATAL_FAILURE(assert_forced(dense_stored));
  for (const auto member : {portfolio::BlockAlgorithmKind::kMinDelta,
                            portfolio::BlockAlgorithmKind::kSa,
                            portfolio::BlockAlgorithmKind::kMultiStart}) {
    SCOPED_TRACE(portfolio::to_string(member));
    ASSERT_NO_FATAL_FAILURE(run_block_lockstep(csr_stored, member));
    ASSERT_NO_FATAL_FAILURE(run_block_lockstep(dense_stored, member));
  }
}

INSTANTIATE_TEST_SUITE_P(Builds, SearchBlockBuildLockstep,
                         ::testing::ValuesIn(detail::kDenseIsas),
                         dense_isa_name);

}  // namespace
}  // namespace absq
