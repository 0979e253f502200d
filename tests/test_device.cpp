#include "abs/device.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "problems/random.hpp"
#include "qubo/energy.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace absq {
namespace {

DeviceConfig small_device_config(std::uint32_t blocks = 4,
                                 std::uint64_t local_steps = 32) {
  DeviceConfig config;
  config.device_id = 0;
  config.block_limit = blocks;
  config.local_steps = local_steps;
  config.seed = 11;
  return config;
}

TEST(Device, BlockCountFollowsOccupancyModel) {
  const WeightMatrix w = random_qubo(1024, 1);
  DeviceConfig config;
  config.bits_per_thread = 16;
  config.block_limit = 0;  // no cap
  Device device(w, config);
  EXPECT_EQ(device.block_count(), 1088u);  // Table 2: 1k bits, p=16
  EXPECT_EQ(device.occupancy().active_blocks, 1088u);
}

TEST(Device, BlockLimitCapsResidentBlocks) {
  const WeightMatrix w = random_qubo(256, 2);
  Device device(w, small_device_config(3));
  EXPECT_EQ(device.block_count(), 3u);
  // The occupancy model still reports the hardware-derived value.
  EXPECT_GT(device.occupancy().active_blocks, 3u);
}

TEST(Device, WindowLadderAssignedRoundRobin) {
  const WeightMatrix w = random_qubo(64, 3);
  DeviceConfig config = small_device_config(4);
  config.window_schedule = {2, 16};
  Device device(w, config);
  EXPECT_EQ(device.block(0).config().window, 2u);
  EXPECT_EQ(device.block(1).config().window, 16u);
  EXPECT_EQ(device.block(2).config().window, 2u);
  EXPECT_EQ(device.block(3).config().window, 16u);
}

TEST(Device, SynchronousSteppingProcessesEveryBlock) {
  const WeightMatrix w = random_qubo(64, 4);
  Device device(w, small_device_config(4, 16));
  Rng rng(5);
  for (std::uint32_t b = 0; b < device.block_count(); ++b) {
    device.targets().push(BitVector::random(64, rng));
  }
  device.step_all_blocks_once();
  EXPECT_EQ(device.total_iterations(), 4u);
  EXPECT_EQ(device.solutions().counter(), 4u);
  const auto reports = device.solutions().drain();
  ASSERT_EQ(reports.size(), 4u);
  for (const auto& report : reports) {
    EXPECT_EQ(report.energy, full_energy(w, report.bits));
  }
}

TEST(Device, BlocksWithoutTargetsContinueSearching) {
  const WeightMatrix w = random_qubo(64, 6);
  Device device(w, small_device_config(2, 16));
  // No targets at all: blocks iterate on their own current solutions.
  device.step_all_blocks_once();
  device.step_all_blocks_once();
  EXPECT_EQ(device.total_iterations(), 4u);
  EXPECT_GT(device.total_flips(), 0u);
}

TEST(Device, FlipAccountingAggregatesBlocks) {
  const WeightMatrix w = random_qubo(64, 7);
  Device device(w, small_device_config(3, 20));
  device.step_all_blocks_once();  // no targets: 20 local flips per block
  EXPECT_EQ(device.total_flips(), 3u * 20u);
  EXPECT_EQ(device.total_evaluated(), 3u * 20u * 64u);
}

TEST(Device, AsyncStartStopIsIdempotentAndMakesProgress) {
  const WeightMatrix w = random_qubo(128, 8);
  Device device(w, small_device_config(2, 64));
  Rng rng(9);
  for (int i = 0; i < 8; ++i) device.targets().push(BitVector::random(128, rng));

  device.start();
  device.start();  // idempotent
  EXPECT_TRUE(device.running());
  // Wait until the device demonstrably worked.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (device.solutions().counter() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  device.stop();
  device.stop();  // idempotent
  EXPECT_FALSE(device.running());
  EXPECT_GT(device.solutions().counter(), 0u);
  EXPECT_GT(device.total_flips(), 0u);
}

TEST(Device, AsyncProgressDoesNotRequireHost) {
  // Fidelity of the asynchronous protocol: a stalled host (nobody drains,
  // nobody pushes targets) must not stop the device from searching.
  const WeightMatrix w = random_qubo(64, 10);
  Device device(w, small_device_config(2, 32));
  device.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (device.total_iterations() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  device.stop();
  EXPECT_GE(device.total_iterations(), 10u);
}

TEST(Device, SynchronousSteppingWhileRunningThrows) {
  const WeightMatrix w = random_qubo(64, 11);
  Device device(w, small_device_config(1, 8));
  device.start();
  EXPECT_THROW(device.step_all_blocks_once(), CheckError);
  device.stop();
}

TEST(Device, MultiThreadedWorkersKeepCountersConsistent) {
  // 4 workers over 8 blocks: every block iteration pushes exactly one
  // report, so after stop() the counters must balance — no lost or
  // double-counted reports across the sharded mailboxes.
  const WeightMatrix w = random_qubo(64, 20);
  DeviceConfig config = small_device_config(8, 16);
  config.threads_per_device = 4;
  // Ample capacity so this test exercises sharding, not overflow.
  config.solution_capacity = 1 << 16;
  Device device(w, config);
  EXPECT_EQ(device.worker_count(), 4u);
  EXPECT_EQ(device.targets().shard_count(), 4u);
  EXPECT_EQ(device.solutions().shard_count(), 4u);

  Rng rng(21);
  for (int i = 0; i < 32; ++i) device.targets().push(BitVector::random(64, rng));
  device.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (device.total_iterations() < 64 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  device.stop();

  const std::uint64_t iterations = device.total_iterations();
  EXPECT_GE(iterations, 64u);
  // One report per iteration, none lost before the overflow threshold.
  EXPECT_EQ(device.solutions().counter(), iterations);
  const auto drained = device.solutions().drain();
  EXPECT_EQ(drained.size() + device.solutions().dropped(), iterations);
  // Step 4b alone commits local_steps flips per iteration.
  EXPECT_GE(device.total_flips(), iterations * 16u);
  EXPECT_EQ(device.total_evaluated(), device.total_flips() * 64u);
  for (const auto& report : drained) {
    EXPECT_EQ(report.energy, full_energy(w, report.bits));
  }
}

TEST(Device, SingleWorkerVisitsEveryBlockOnOneShard) {
  const WeightMatrix w = random_qubo(64, 22);
  DeviceConfig config = small_device_config(3, 16);
  config.threads_per_device = 1;
  Device device(w, config);
  EXPECT_EQ(device.worker_count(), 1u);
  EXPECT_EQ(device.targets().shard_count(), 1u);
  EXPECT_EQ(device.solutions().shard_count(), 1u);
  device.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (device.total_iterations() < 6 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  device.stop();
  EXPECT_GE(device.total_iterations(), 6u);
  // The one worker owns every block and visits them round-robin.
  for (std::uint32_t b = 0; b < device.block_count(); ++b) {
    EXPECT_GE(device.block(b).iterations(), 1u) << b;
  }
}

TEST(Device, ExplicitZeroThreadsIsRejected) {
  const WeightMatrix w = random_qubo(64, 22);
  DeviceConfig config = small_device_config(3, 16);
  config.threads_per_device = 0;
  EXPECT_THROW((void)Device(w, config), CheckError);
}

TEST(Device, MoreWorkersThanBlocksStillProgressesAndJoins) {
  const WeightMatrix w = random_qubo(64, 23);
  DeviceConfig config = small_device_config(2, 16);
  config.threads_per_device = 8;  // 6 workers get empty shards
  Device device(w, config);
  device.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (device.total_iterations() < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  device.stop();
  EXPECT_GE(device.total_iterations(), 4u);
  EXPECT_EQ(device.solutions().counter(), device.total_iterations());
}

TEST(Device, TargetMissesCountStarvedIterations) {
  const WeightMatrix w = random_qubo(64, 24);
  Device device(w, small_device_config(2, 16));
  // No targets at all: every visit is a miss.
  device.step_all_blocks_once();
  EXPECT_EQ(device.target_misses(), 2u);
}

TEST(Device, FirstWorkerFailureIsKeptPastStop) {
  const WeightMatrix w = random_qubo(64, 25);
  DeviceConfig config = small_device_config(8, 16);
  config.threads_per_device = 4;
  Device device(w, config);
  sim::Doorbell bell;
  device.set_doorbell(&bell);
  EXPECT_EQ(device.failure(), nullptr);

  // Every iteration throws, so each worker dies on its first block and
  // rings once as its shard loop ends, after the capture.
  fail::Registry::instance().arm_from_directives("device.iterate=every:1");
  device.start();
  device.start();  // idempotent
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (bell.rings() < 4 && std::chrono::steady_clock::now() < deadline) {
    bell.park(bell.rings(), 0.1);
  }
  fail::Registry::instance().disarm_all();

  const std::exception_ptr failure = device.failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_EQ(device.failure(), failure);  // the first failure, every call
  EXPECT_THROW(std::rethrow_exception(failure), fail::FailPointError);
  device.stop();
  device.stop();  // idempotent
  EXPECT_FALSE(device.running());
  EXPECT_EQ(device.failure(), failure);  // still reported once stopped
  EXPECT_EQ(bell.rings(), 4u);
  EXPECT_EQ(device.total_iterations(), 0u);
}

TEST(Device, EveryIterationRingsOnceDroppedReportOrNot) {
  const WeightMatrix w = random_qubo(64, 26);
  for (const bool drop_reports : {false, true}) {
    SCOPED_TRACE(drop_reports ? "every report dropped" : "no fail point");
    Device device(w, small_device_config(4, 16));
    sim::Doorbell bell;
    device.set_doorbell(&bell);
    if (drop_reports) {
      fail::Registry::instance().arm_from_directives(
          "mailbox.solution_push=every:1");
    }
    for (int k = 0; k < 3; ++k) device.step_all_blocks_once();
    fail::Registry::instance().disarm_all();
    EXPECT_EQ(device.total_iterations(), 12u);
    EXPECT_EQ(bell.rings(), device.total_iterations());
    EXPECT_EQ(device.solutions().counter(), drop_reports ? 0u : 12u);
  }
}

TEST(Device, DefaultLocalStepsIsOneSweep) {
  const WeightMatrix w = random_qubo(64, 12);
  DeviceConfig config = small_device_config(1);
  config.local_steps = 0;  // default: n
  Device device(w, config);
  device.step_all_blocks_once();
  EXPECT_EQ(device.total_flips(), 64u);
}

}  // namespace
}  // namespace absq
