// Breadth coverage of behaviours the per-module suites do not reach:
// secondary configuration knobs, less-travelled parser branches, and
// cross-feature interactions.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>

#include "abs/solver.hpp"
#include "ga/operators.hpp"
#include "problems/maxcut.hpp"
#include "problems/random.hpp"
#include "problems/tsp.hpp"
#include "qubo/energy.hpp"
#include "qubo/io.hpp"
#include "qubo/ising.hpp"
#include "util/rng.hpp"

namespace absq {
namespace {

TEST(DeviceExtras, DefaultWindowLadderIsGeometric) {
  const WeightMatrix w = random_qubo(64, 1);
  DeviceConfig config;
  config.block_limit = 5;
  Device device(w, config);
  // Default ladder 2, 4, 8, ..., n/2 = 32; round-robin across blocks.
  EXPECT_EQ(device.block(0).config().window, 2u);
  EXPECT_EQ(device.block(1).config().window, 4u);
  EXPECT_EQ(device.block(2).config().window, 8u);
  EXPECT_EQ(device.block(3).config().window, 16u);
  EXPECT_EQ(device.block(4).config().window, 32u);
}

TEST(DeviceExtras, MailboxCapacityOverrides) {
  // The mailboxes shard per worker, yet a configured capacity is the exact
  // total at every worker count.
  const WeightMatrix w = random_qubo(32, 2);
  for (const std::uint32_t workers : {1u, 2u, 4u}) {
    DeviceConfig config;
    config.block_limit = 4;
    config.threads_per_device = workers;
    config.target_capacity = 2;
    config.solution_capacity = 3;
    Device device(w, config);
    // Pushing more targets than capacity drops the oldest.
    Rng rng(3);
    for (int i = 0; i < 5; ++i) {
      device.targets().push(BitVector::random(32, rng));
    }
    EXPECT_EQ(device.targets().pending(), 2u) << workers;
    EXPECT_EQ(device.targets().pushed(), 5u) << workers;
    EXPECT_EQ(device.targets().dropped(), 3u) << workers;
    // Four blocks report into three solution slots.
    device.step_all_blocks_once();
    EXPECT_EQ(device.solutions().drain().size(), 3u) << workers;
    EXPECT_EQ(device.solutions().dropped(), 1u) << workers;
  }
}

TEST(DeviceExtras, BlockOffsetsAreStaggered) {
  // Blocks with equal window length must not start at equal offsets —
  // otherwise co-scheduled blocks duplicate work.
  const WeightMatrix w = random_qubo(64, 4);
  DeviceConfig config;
  config.block_limit = 3;
  config.window_schedule = {8};  // all blocks same l
  Device device(w, config);
  device.step_all_blocks_once();  // no targets: pure local search
  std::set<BitVector> currents;
  for (std::uint32_t b = 0; b < device.block_count(); ++b) {
    currents.insert(device.block(b).current());
  }
  EXPECT_EQ(currents.size(), 3u) << "equal-l blocks walked identical paths";
}

TEST(SolverExtras, WarmStartWorksThroughAbsSolver) {
  const WeightMatrix w = random_qubo(48, 6);
  // Find something decent first.
  AbsConfig config;
  config.device.block_limit = 4;
  config.seed = 7;
  AbsSolver first(w, config);
  StopCriteria stop;
  stop.max_flips = 10000;
  stop.time_limit_seconds = 30.0;
  const AbsResult initial = first.run(stop);

  auto snapshot = std::make_shared<SolutionPool>(8);
  snapshot->insert(initial.best, initial.best_energy);

  AbsConfig warm = config;
  warm.seed = 8;
  warm.warm_start = snapshot;
  AbsSolver resumed(w, warm);
  StopCriteria short_stop;
  short_stop.max_flips = 500;
  short_stop.time_limit_seconds = 30.0;
  const AbsResult result = resumed.run(short_stop);
  // The warm-started pool holds the incumbent from the first run.
  EXPECT_LE(result.best_energy, initial.best_energy);
}

TEST(SolverExtras, PoolCapacityOneStillSolves) {
  const WeightMatrix w = random_qubo(32, 9);
  AbsConfig config;
  config.device.block_limit = 2;
  config.pool_capacity = 1;
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.max_flips = 5000;
  stop.time_limit_seconds = 30.0;
  const AbsResult result = solver.run(stop);
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));
}

TEST(IsingExtras, HandBuiltModelHasUnitScale) {
  IsingModel m(3);
  EXPECT_EQ(m.scale(), 1);
  EXPECT_EQ(m.offset(), 0);
  m.set_offset(5);
  EXPECT_EQ(m.hamiltonian({1, 1, 1}), 5);
}

TEST(MaxCutExtras, NeighborhoodGraphEnergyIdentity) {
  Rng rng(12);
  const WeightedGraph graph =
      toroidal_neighborhood_graph(8, 10, 200, EdgeWeights::kPlusMinusOne,
                                  rng);
  const WeightMatrix w = maxcut_to_qubo(graph);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVector x = BitVector::random(80, rng);
    EXPECT_EQ(full_energy(w, x), -cut_weight(graph, x));
  }
}

TEST(TsplibExtras, Att48StyleDistances) {
  // ATT pseudo-Euclidean: d = ceil-round of sqrt((dx²+dy²)/10).
  std::istringstream in(
      "NAME: att3\n"
      "DIMENSION: 3\n"
      "EDGE_WEIGHT_TYPE: ATT\n"
      "NODE_COORD_SECTION\n"
      "1 0 0\n"
      "2 10 0\n"
      "3 0 31\n"
      "EOF\n");
  const TspInstance tsp = read_tsplib(in);
  // d(1,2): sqrt(100/10) = 3.162 → round 3, 3 < 3.162 → 4.
  EXPECT_EQ(tsp.distance(0, 1), 4);
  // d(1,3): sqrt(961/10) = 9.80 → round 10, 10 > 9.80 → 10.
  EXPECT_EQ(tsp.distance(0, 2), 10);
}

TEST(TsplibExtras, Ceil2dRoundsUp) {
  std::istringstream in(
      "NAME: c3\n"
      "DIMENSION: 3\n"
      "EDGE_WEIGHT_TYPE: CEIL_2D\n"
      "NODE_COORD_SECTION\n"
      "1 0 0\n"
      "2 1 1\n"
      "3 3 0\n"
      "EOF\n");
  const TspInstance tsp = read_tsplib(in);
  EXPECT_EQ(tsp.distance(0, 1), 2);  // ceil(1.414)
  EXPECT_EQ(tsp.distance(0, 2), 3);  // exact
}

TEST(TsplibExtras, LowerRowAndDisplayDataHandled) {
  std::istringstream in(
      "NAME: l4\n"
      "DIMENSION: 4\n"
      "EDGE_WEIGHT_TYPE: EXPLICIT\n"
      "EDGE_WEIGHT_FORMAT: LOWER_ROW\n"
      "EDGE_WEIGHT_SECTION\n"
      "1\n"
      "2 3\n"
      "4 5 6\n"
      "DISPLAY_DATA_SECTION\n"
      "1 0 0\n2 1 0\n3 0 1\n4 1 1\n"
      "EOF\n");
  const TspInstance tsp = read_tsplib(in);
  EXPECT_EQ(tsp.distance(1, 0), 1);
  EXPECT_EQ(tsp.distance(2, 0), 2);
  EXPECT_EQ(tsp.distance(2, 1), 3);
  EXPECT_EQ(tsp.distance(3, 2), 6);
}

TEST(IoExtras, ReadPreservesEnergySemantics) {
  // The file stores symmetric entries; reading back must not rescale.
  const WeightMatrix original = random_qubo(24, 13);
  std::stringstream buffer;
  write_qubo(buffer, original);
  const WeightMatrix loaded = read_qubo(buffer);
  Rng rng(14);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVector x = BitVector::random(24, rng);
    EXPECT_EQ(full_energy(loaded, x), full_energy(original, x));
  }
}

TEST(GaExtras, SelectionBiasOneIsUniform) {
  Rng rng(15);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[pick_parent_rank(10, 1.0, rng)];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

}  // namespace
}  // namespace absq
