// Diverse-ABS tests: the block-search portfolio, island pools with ring
// migration, the adaptive (island, algorithm) controller, and — first and
// foremost — the lockstep pin proving the legacy configuration still runs
// the exact pre-portfolio solver (same energies, same flip sequence).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "abs/search_block.hpp"
#include "abs/solver.hpp"
#include "abs/sync_runner.hpp"
#include "ga/pool_io.hpp"
#include "portfolio/block_algorithm.hpp"
#include "portfolio/controller.hpp"
#include "portfolio/island.hpp"
#include "problems/random.hpp"
#include "qubo/energy.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace absq {
namespace {

using portfolio::AdaptiveController;
using portfolio::BlockAlgorithmKind;
using portfolio::IslandSet;

WeightMatrix golden_matrix(BitIndex n, std::uint64_t seed) {
  Rng rng(seed);
  return WeightMatrix::generate_symmetric(n, [&rng](BitIndex, BitIndex) {
    return static_cast<Weight>(rng.range(-100, 100));
  });
}

/// Order-sensitive FNV-style hash of a bit vector — the exact function the
/// pre-refactor golden capture used, so the pinned constants below stay
/// comparable forever.
std::uint64_t bits_hash(const BitVector& bits) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (BitIndex i = 0; i < bits.size(); ++i) {
    h = mix64(h ^ (bits.get(i) != 0 ? (i * 2 + 1) : (i * 2)));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Lockstep pin — the legacy configuration is bit-identical to the solver as
// it existed before the portfolio subsystem. The constants were captured
// from a pre-refactor build; any drift here means the min-Δ hot path (or
// the host loop feeding it) changed behaviour.
// ---------------------------------------------------------------------------

TEST(PortfolioLockstep, PlainSearchBlockMatchesPreRefactorGolden) {
  const WeightMatrix w = golden_matrix(40, 4);
  SearchBlock::Config config;
  config.device_id = 1;
  config.block_id = 2;
  config.window = 8;
  config.local_steps = 64;
  config.seed = 7;
  SearchBlock block(w, config);
  EXPECT_EQ(block.algorithm_kind(), BlockAlgorithmKind::kMinDelta);

  const Energy expected_energy[6] = {-10025, -10009, -10109,
                                     -10109, -10025, -10109};
  const std::uint64_t expected_hash[6] = {
      11895462623152461719ULL, 2789919423108881244ULL,
      10016519320458806293ULL, 10016519320458806293ULL,
      11895462623152461719ULL, 10016519320458806293ULL};
  Rng rng(3);
  for (int i = 0; i < 6; ++i) {
    const BitVector target = BitVector::random(40, rng);
    const auto report = block.iterate(target);
    EXPECT_EQ(report.energy, expected_energy[i]) << i;
    EXPECT_EQ(bits_hash(report.bits), expected_hash[i]) << i;
  }
  EXPECT_EQ(block.stats().flips, 502u);
  EXPECT_EQ(block.stats().ops, 20120u);
  EXPECT_EQ(block.stats().evaluated_solutions, 20121u);
  EXPECT_EQ(block.stats().improvements, 47u);
  EXPECT_EQ(block.algorithm_switches(), 0u);
}

TEST(PortfolioLockstep, SyncRunnerMatchesPreRefactorGolden) {
  const WeightMatrix w = golden_matrix(64, 21);
  AbsConfig config;
  config.num_devices = 2;
  config.device.block_limit = 4;
  config.device.local_steps = 48;
  config.pool_capacity = 24;
  config.seed = 1234;
  ASSERT_FALSE(config.portfolio.diverse());
  SyncAbsRunner runner(w, config);
  const AbsResult result = runner.run_rounds(20);
  EXPECT_EQ(result.best_energy, -17185);
  EXPECT_EQ(bits_hash(result.best), 7337929160952997101ULL);
  EXPECT_EQ(result.total_flips, 10189u);
  EXPECT_EQ(result.reports_received, 160u);
  EXPECT_EQ(result.reports_inserted, 44u);
  EXPECT_EQ(result.targets_generated, 168u);
}

// ---------------------------------------------------------------------------
// Portfolio parsing
// ---------------------------------------------------------------------------

TEST(PortfolioParse, RoundTripsAndAcceptsAliases) {
  const auto list = portfolio::parse_portfolio("min-delta,sa,multistart");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], BlockAlgorithmKind::kMinDelta);
  EXPECT_EQ(list[1], BlockAlgorithmKind::kSa);
  EXPECT_EQ(list[2], BlockAlgorithmKind::kMultiStart);
  EXPECT_EQ(portfolio::portfolio_to_string(list), "min-delta,sa,multistart");
  EXPECT_EQ(portfolio::parse_portfolio("mindelta")[0],
            BlockAlgorithmKind::kMinDelta);
  EXPECT_EQ(portfolio::parse_portfolio("multi-start")[0],
            BlockAlgorithmKind::kMultiStart);
  EXPECT_THROW((void)portfolio::parse_portfolio("sa,frobnicate"),
               CheckError);
  EXPECT_THROW((void)portfolio::parse_portfolio(""), CheckError);
}

TEST(PortfolioParse, DiversePredicateMatchesItsDocumentation) {
  portfolio::PortfolioConfig config;
  EXPECT_FALSE(config.diverse());
  config.algorithms = {BlockAlgorithmKind::kMinDelta};
  EXPECT_FALSE(config.diverse());  // explicit legacy list is still legacy
  config.algorithms = {BlockAlgorithmKind::kSa};
  EXPECT_TRUE(config.diverse());
  config.algorithms.clear();
  config.islands = 2;
  EXPECT_TRUE(config.diverse());
  config.islands = 1;
  config.controller = true;
  EXPECT_TRUE(config.diverse());
}

TEST(PortfolioParse, ControllerRunsOnlyWithMoreThanOneMember) {
  // `--islands 4` and `--islands 4 --portfolio min-delta` are one config.
  portfolio::PortfolioConfig islands_only;
  islands_only.islands = 4;
  portfolio::PortfolioConfig spelled_out;
  spelled_out.islands = 4;
  spelled_out.set_members("min-delta");
  EXPECT_EQ(spelled_out.algorithm_list(), islands_only.algorithm_list());
  EXPECT_EQ(spelled_out.controller, islands_only.controller);
  EXPECT_FALSE(spelled_out.controller);
  EXPECT_EQ(spelled_out.diverse(), islands_only.diverse());

  spelled_out.set_members("min-delta,sa");
  EXPECT_TRUE(spelled_out.controller);
  spelled_out.set_members("sa");
  EXPECT_FALSE(spelled_out.controller);
}

// ---------------------------------------------------------------------------
// The non-legacy portfolio members, exercised through SearchBlock
// ---------------------------------------------------------------------------

SearchBlock::Config block_config(BlockAlgorithmKind kind,
                                 std::uint64_t seed = 17) {
  SearchBlock::Config config;
  config.block_id = 1;
  config.window = 8;
  config.local_steps = 64;
  config.seed = seed;
  config.algorithm = kind;
  return config;
}

TEST(PortfolioAlgorithms, SaBlockReportsVerifiableEnergies) {
  const WeightMatrix w = golden_matrix(48, 33);
  SearchBlock block(w, block_config(BlockAlgorithmKind::kSa));
  EXPECT_EQ(block.algorithm_kind(), BlockAlgorithmKind::kSa);
  Rng rng(2);
  Energy best = 0;
  for (int i = 0; i < 8; ++i) {
    const auto report = block.iterate(BitVector::random(48, rng));
    EXPECT_EQ(full_energy(w, report.bits), report.energy) << i;
    best = std::min(best, report.energy);
  }
  EXPECT_LT(best, 0);
  EXPECT_GT(block.stats().flips, 0u);
  // SA evaluates exactly one candidate per inner step, accepted or not.
  EXPECT_GE(block.stats().evaluated_solutions, 8u * 64u);
}

TEST(PortfolioAlgorithms, MultiStartBlockReportsVerifiableEnergies) {
  const WeightMatrix w = golden_matrix(48, 34);
  SearchBlock block(w, block_config(BlockAlgorithmKind::kMultiStart));
  EXPECT_EQ(block.algorithm_kind(), BlockAlgorithmKind::kMultiStart);
  Rng rng(2);
  Energy best = 0;
  for (int i = 0; i < 8; ++i) {
    const auto report = block.iterate(BitVector::random(48, rng));
    EXPECT_EQ(full_energy(w, report.bits), report.energy) << i;
    best = std::min(best, report.energy);
  }
  EXPECT_LT(best, 0);
  EXPECT_GT(block.stats().flips, 0u);
}

TEST(PortfolioAlgorithms, DeterministicUnderFixedSeed) {
  const WeightMatrix w = golden_matrix(40, 35);
  for (const auto kind :
       {BlockAlgorithmKind::kSa, BlockAlgorithmKind::kMultiStart}) {
    SearchBlock a(w, block_config(kind));
    SearchBlock b(w, block_config(kind));
    Rng rng_a(9);
    Rng rng_b(9);
    for (int i = 0; i < 6; ++i) {
      const auto ra = a.iterate(BitVector::random(40, rng_a));
      const auto rb = b.iterate(BitVector::random(40, rng_b));
      EXPECT_EQ(ra.energy, rb.energy);
      EXPECT_EQ(bits_hash(ra.bits), bits_hash(rb.bits));
    }
    EXPECT_EQ(a.stats().flips, b.stats().flips);
  }
}

TEST(PortfolioAlgorithms, AtomicHandoffSwitchesAtIterationBoundary) {
  const WeightMatrix w = golden_matrix(40, 36);
  SearchBlock block(w, block_config(BlockAlgorithmKind::kMinDelta));
  Rng rng(4);
  (void)block.iterate(BitVector::random(40, rng));
  EXPECT_EQ(block.algorithm_switches(), 0u);

  block.request_algorithm(BlockAlgorithmKind::kSa);
  (void)block.iterate(BitVector::random(40, rng));
  EXPECT_EQ(block.algorithm_kind(), BlockAlgorithmKind::kSa);
  EXPECT_EQ(block.algorithm_switches(), 1u);

  // Re-requesting the current member is a no-op, not a switch.
  block.request_algorithm(BlockAlgorithmKind::kSa);
  (void)block.iterate(BitVector::random(40, rng));
  EXPECT_EQ(block.algorithm_switches(), 1u);

  block.request_algorithm(BlockAlgorithmKind::kMinDelta);
  const auto report = block.iterate(BitVector::random(40, rng));
  EXPECT_EQ(block.algorithm_kind(), BlockAlgorithmKind::kMinDelta);
  EXPECT_EQ(block.algorithm_switches(), 2u);
  EXPECT_EQ(full_energy(w, report.bits), report.energy);
}

// ---------------------------------------------------------------------------
// Island pools and ring migration
// ---------------------------------------------------------------------------

IslandSet::Config island_config(std::uint32_t islands,
                                std::uint64_t interval,
                                std::uint64_t seed = 21) {
  IslandSet::Config config;
  config.islands = islands;
  config.pool_capacity = 8;
  config.migration_interval = interval;
  config.seed = seed;
  return config;
}

/// A deterministic insert stream: `count` vectors with distinct energies.
void feed(IslandSet& set, std::uint32_t rounds, std::uint64_t seed) {
  Rng rng(seed);
  for (std::uint32_t r = 0; r < rounds; ++r) {
    for (std::uint32_t i = 0; i < set.count(); ++i) {
      const BitVector bits = BitVector::random(32, rng);
      (void)set.insert(i, bits, rng.range(-5000, -100));
    }
    (void)set.note_round();
  }
}

TEST(IslandPools, MigrationScheduleIsDeterministic) {
  IslandSet a(island_config(3, 4));
  IslandSet b(island_config(3, 4));
  feed(a, 20, 77);
  feed(b, 20, 77);

  EXPECT_GT(a.migration_events(), 0u);
  EXPECT_GT(a.migrations(), 0u);
  ASSERT_EQ(a.migration_log().size(), b.migration_log().size());
  for (std::size_t i = 0; i < a.migration_log().size(); ++i) {
    const auto& ea = a.migration_log()[i];
    const auto& eb = b.migration_log()[i];
    EXPECT_EQ(ea.round, eb.round) << i;
    EXPECT_EQ(ea.from, eb.from) << i;
    EXPECT_EQ(ea.to, eb.to) << i;
    EXPECT_EQ(ea.energy, eb.energy) << i;
    EXPECT_EQ(ea.inserted, eb.inserted) << i;
  }
  EXPECT_EQ(a.best_energy(), b.best_energy());
  // The ring fires on the cadence: every event's round is a multiple of 4.
  for (const auto& event : a.migration_log()) {
    EXPECT_EQ(event.round % 4, 0u);
  }
}

TEST(IslandPools, RingMigrationCopiesElitesToTheNextIsland) {
  IslandSet set(island_config(2, 1));
  Rng rng(5);
  const BitVector elite = BitVector::random(32, rng);
  ASSERT_TRUE(set.insert(0, elite, -9999));
  (void)set.insert(1, BitVector::random(32, rng), -10);
  const std::size_t moved = set.note_round();
  EXPECT_GT(moved, 0u);
  // Island 1 now holds the elite: its best matches island 0's.
  EXPECT_EQ(set.pool(1).best_energy(), -9999);
  EXPECT_EQ(set.best_energy(), -9999);
  ASSERT_FALSE(set.migration_log().empty());
  EXPECT_EQ(set.migration_log()[0].from, 0u);
  EXPECT_EQ(set.migration_log()[0].to, 1u);
}

TEST(IslandPools, ZeroIntervalDisablesMigration) {
  IslandSet set(island_config(2, 0));
  feed(set, 16, 3);
  EXPECT_EQ(set.migration_events(), 0u);
  EXPECT_EQ(set.migrations(), 0u);
}

TEST(IslandPools, DiversifiedGaKeepsIslandZeroOnBaseOperators) {
  GaConfig base;
  base.crossover_prob = 0.42;
  EXPECT_EQ(portfolio::diversified_ga(base, 0).crossover_prob, 0.42);
  // The schedule genuinely varies the mixes across the first islands.
  std::set<double> crossover;
  for (std::uint32_t i = 0; i < 4; ++i) {
    crossover.insert(portfolio::diversified_ga(base, i).crossover_prob);
  }
  EXPECT_GE(crossover.size(), 3u);
}

// ---------------------------------------------------------------------------
// Adaptive controller
// ---------------------------------------------------------------------------

AdaptiveController::Config controller_config(bool enabled) {
  AdaptiveController::Config config;
  config.islands = 1;
  config.algorithms = {BlockAlgorithmKind::kMinDelta,
                       BlockAlgorithmKind::kSa};
  config.enabled = enabled;
  config.realloc_interval = 4;
  config.seed = 1;
  return config;
}

TEST(Controller, StripesBlocksAcrossArmsAtRegistration) {
  AdaptiveController controller(controller_config(true));
  ASSERT_EQ(controller.num_arms(), 2u);
  for (std::uint32_t b = 0; b < 8; ++b) {
    EXPECT_EQ(controller.register_block(0, b), b % 2) << b;
  }
  EXPECT_EQ(controller.arm_of(0, 3), 1u);
  EXPECT_EQ(controller.arm(0).blocks, 4u);
  EXPECT_EQ(controller.arm(1).blocks, 4u);
}

TEST(Controller, AlwaysImprovingArmAbsorbsBlocks) {
  AdaptiveController controller(controller_config(true));
  for (std::uint32_t b = 0; b < 16; ++b) {
    (void)controller.register_block(0, b);
  }
  // Rig arm 1: every round it lands inserts and incumbent improvements
  // while arm 0 produces nothing.
  std::size_t reassignments = 0;
  for (int round = 0; round < 32; ++round) {
    for (int k = 0; k < 4; ++k) {
      controller.credit_insert(1);
      controller.credit_improvement(1);
    }
    reassignments += controller.note_round(
        [](std::uint32_t, std::uint32_t, std::uint32_t) {});
  }
  EXPECT_GT(reassignments, 0u);
  EXPECT_EQ(controller.reassignments(), reassignments);
  EXPECT_GT(controller.arm(1).blocks, controller.arm(0).blocks);
  EXPECT_GT(controller.arm(1).credit, controller.arm(0).credit);
}

TEST(Controller, ExplorationFloorKeepsEveryArmAlive) {
  AdaptiveController controller(controller_config(true));
  for (std::uint32_t b = 0; b < 16; ++b) {
    (void)controller.register_block(0, b);
  }
  for (int round = 0; round < 64; ++round) {
    controller.credit_insert(1);
    controller.credit_improvement(1);
    (void)controller.note_round(
        [](std::uint32_t, std::uint32_t, std::uint32_t) {});
  }
  // However lopsided the credits, the sampling distribution never puts an
  // arm below ε / num_arms.
  const std::vector<double> distribution = controller.distribution();
  ASSERT_EQ(distribution.size(), 2u);
  double sum = 0.0;
  for (const double p : distribution) {
    EXPECT_GE(p, 0.1 / 2.0 - 1e-12);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Controller, DisabledControllerNeverReallocates) {
  AdaptiveController controller(controller_config(false));
  for (std::uint32_t b = 0; b < 8; ++b) {
    (void)controller.register_block(0, b);
  }
  for (int round = 0; round < 32; ++round) {
    controller.credit_improvement(1);
    EXPECT_EQ(controller.note_round(
                  [](std::uint32_t, std::uint32_t, std::uint32_t) {}),
              0u);
  }
  EXPECT_EQ(controller.reassignments(), 0u);
  EXPECT_EQ(controller.arm(0).blocks, 4u);  // striping untouched
}

// ---------------------------------------------------------------------------
// Diverse AbsSolver end to end
// ---------------------------------------------------------------------------

AbsConfig diverse_config(std::uint32_t threads) {
  AbsConfig config;
  config.num_devices = 2;
  config.device.block_limit = 4;
  config.device.local_steps = 32;
  config.device.threads_per_device = threads;
  config.pool_capacity = 16;
  config.seed = 99;
  config.portfolio.islands = 2;
  config.portfolio.algorithms = {BlockAlgorithmKind::kMinDelta,
                                 BlockAlgorithmKind::kSa,
                                 BlockAlgorithmKind::kMultiStart};
  config.portfolio.controller = true;
  config.portfolio.migration_interval = 2;
  config.portfolio.realloc_interval = 4;
  return config;
}

void check_diverse_result(const AbsConfig& config, const WeightMatrix& w,
                          const AbsResult& result) {
  EXPECT_EQ(full_energy(w, result.best), result.best_energy);
  EXPECT_LT(result.best_energy, 0);
  ASSERT_EQ(result.islands.size(), 2u);
  std::uint32_t blocks = 0;
  for (const auto& island : result.islands) {
    EXPECT_GT(island.pool_evaluated, 0u) << island.island_id;
    blocks += island.blocks;
  }
  EXPECT_EQ(blocks, config.num_devices * config.device.block_limit);
  // The global best lives in (at least) one island.
  EXPECT_TRUE(std::any_of(result.islands.begin(), result.islands.end(),
                          [&](const IslandSummary& island) {
                            return island.best_energy == result.best_energy;
                          }));
}

TEST(DiverseSolver, RunsOnOneWorkerPerDevice) {
  const WeightMatrix w = random_qubo(64, 41);
  const AbsConfig config = diverse_config(1);
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.time_limit_seconds = 0.6;
  const AbsResult result = solver.run(stop);
  check_diverse_result(config, w, result);
  EXPECT_GT(result.migration_events, 0u);
  EXPECT_GT(result.migrations, 0u);
}

TEST(DiverseSolver, RunsOnTheShardedWorkerPath) {
  const WeightMatrix w = random_qubo(64, 42);
  const AbsConfig config = diverse_config(2);
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.time_limit_seconds = 0.6;
  const AbsResult result = solver.run(stop);
  check_diverse_result(config, w, result);
}

TEST(DiverseSolver, CheckpointMergesTheIslandPools) {
  const WeightMatrix w = random_qubo(64, 43);
  AbsConfig config = diverse_config(1);
  const std::string path =
      ::testing::TempDir() + "/diverse_checkpoint.absq";
  config.checkpoint_path = path;
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.time_limit_seconds = 0.4;
  const AbsResult result = solver.run(stop);

  const RunCheckpoint checkpoint =
      read_checkpoint_file(path, config.pool_capacity);
  ASSERT_NE(checkpoint.pool, nullptr);
  EXPECT_GT(checkpoint.pool->size(), 0u);
  EXPECT_EQ(checkpoint.pool->best_energy(), result.best_energy);
  std::remove(path.c_str());
}

TEST(DiverseSolver, SyncRunnerIsReproducibleOnDiverseConfigs) {
  // The lockstep runner drives the solver's own host phases, islands and
  // controller included, so two runners on one diverse config agree on
  // the whole trajectory.
  const WeightMatrix w = random_qubo(64, 44);
  const AbsConfig config = diverse_config(2);  // the runner forces 1
  SyncAbsRunner runner_a(w, config);
  SyncAbsRunner runner_b(w, config);
  const AbsResult a = runner_a.run_rounds(40);
  const AbsResult b = runner_b.run_rounds(40);
  EXPECT_EQ(a.best_energy, b.best_energy);
  EXPECT_EQ(a.total_flips, b.total_flips);
  EXPECT_EQ(a.controller_reassignments, b.controller_reassignments);
  EXPECT_GT(a.controller_reassignments, 0u);
  const auto& log_a = runner_a.solver().islands().migration_log();
  const auto& log_b = runner_b.solver().islands().migration_log();
  ASSERT_FALSE(log_a.empty());
  ASSERT_EQ(log_a.size(), log_b.size());
  for (std::size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].round, log_b[i].round) << i;
    EXPECT_EQ(log_a[i].from, log_b[i].from) << i;
    EXPECT_EQ(log_a[i].to, log_b[i].to) << i;
    EXPECT_EQ(log_a[i].energy, log_b[i].energy) << i;
    EXPECT_EQ(log_a[i].inserted, log_b[i].inserted) << i;
  }
  check_diverse_result(config, w, a);
}

// ---------------------------------------------------------------------------
// Diverse configs under the fault-tolerance machinery
// ---------------------------------------------------------------------------

class DiverseFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::Registry::instance().disarm_all(); }
};

TEST_F(DiverseFaultTest, ThrownDeviceIsQuarantinedMidDiverseRun) {
  const WeightMatrix w = random_qubo(64, 45);
  fail::Registry::instance().arm_from_directives("device.iterate@1=once");
  AbsConfig config = diverse_config(1);
  config.num_devices = 3;
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.time_limit_seconds = 0.8;
  const AbsResult result = solver.run(stop);

  ASSERT_EQ(result.failed_devices.size(), 1u);
  EXPECT_EQ(result.failed_devices[0], 1u);
  EXPECT_EQ(full_energy(w, result.best), result.best_energy);
  ASSERT_EQ(result.islands.size(), 2u);
}

TEST_F(DiverseFaultTest, RestartReappliesTheArmAssignments) {
  const WeightMatrix w = random_qubo(64, 46);
  fail::Registry::instance().arm_from_directives("device.iterate@0=once");
  AbsConfig config = diverse_config(1);
  config.watchdog.max_restarts = 2;
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.time_limit_seconds = 0.8;
  const AbsResult result = solver.run(stop);

  EXPECT_TRUE(result.failed_devices.empty());
  ASSERT_EQ(result.devices.size(), 2u);
  EXPECT_EQ(result.devices[0].health, DeviceHealth::kHealthy);
  EXPECT_EQ(result.devices[0].restarts, 1u);
  EXPECT_EQ(full_energy(w, result.best), result.best_energy);
  check_diverse_result(config, w, result);
}

}  // namespace
}  // namespace absq
