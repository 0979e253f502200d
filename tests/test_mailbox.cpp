#include "sim/mailbox.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace absq::sim {
namespace {

BitVector bits(const std::string& s) { return BitVector::from_string(s); }

TEST(TargetBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(TargetBuffer(0), CheckError);
}

TEST(TargetBuffer, FifoOrder) {
  TargetBuffer buffer(4);
  buffer.push(bits("00"));
  buffer.push(bits("01"));
  buffer.push(bits("10"));
  EXPECT_EQ(buffer.poll().value(), bits("00"));
  EXPECT_EQ(buffer.poll().value(), bits("01"));
  EXPECT_EQ(buffer.poll().value(), bits("10"));
  EXPECT_FALSE(buffer.poll().has_value());
}

TEST(TargetBuffer, EmptyPollDoesNotBlock) {
  TargetBuffer buffer(2);
  EXPECT_FALSE(buffer.poll().has_value());
  EXPECT_EQ(buffer.pending(), 0u);
}

TEST(TargetBuffer, FullBufferDropsOldest) {
  TargetBuffer buffer(2);
  buffer.push(bits("00"));
  buffer.push(bits("01"));
  buffer.push(bits("10"));  // evicts "00"
  EXPECT_EQ(buffer.pending(), 2u);
  EXPECT_EQ(buffer.poll().value(), bits("01"));
  EXPECT_EQ(buffer.poll().value(), bits("10"));
}

TEST(TargetBuffer, PushedCounterIsMonotonicTotal) {
  TargetBuffer buffer(1);
  EXPECT_EQ(buffer.pushed(), 0u);
  buffer.push(bits("0"));
  buffer.push(bits("1"));  // overwrites, still counts
  EXPECT_EQ(buffer.pushed(), 2u);
}

TEST(SolutionBuffer, DrainReturnsEverythingInOrder) {
  SolutionBuffer buffer(8);
  buffer.push({bits("00"), -1, 0, 0});
  buffer.push({bits("01"), -2, 0, 1});
  const auto drained = buffer.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].energy, -1);
  EXPECT_EQ(drained[0].block_id, 0u);
  EXPECT_EQ(drained[1].energy, -2);
  EXPECT_EQ(drained[1].block_id, 1u);
  EXPECT_TRUE(buffer.drain().empty());
}

TEST(SolutionBuffer, CounterSurvivesDrain) {
  // The paper's host detects arrivals by a monotonic counter, so draining
  // must not reset it.
  SolutionBuffer buffer(8);
  buffer.push({bits("0"), 0, 0, 0});
  (void)buffer.drain();
  buffer.push({bits("1"), 0, 0, 0});
  EXPECT_EQ(buffer.counter(), 2u);
}

TEST(SolutionBuffer, OverflowDropsOldestAndCounts) {
  SolutionBuffer buffer(2);
  buffer.push({bits("00"), 1, 0, 0});
  buffer.push({bits("01"), 2, 0, 0});
  buffer.push({bits("10"), 3, 0, 0});
  EXPECT_EQ(buffer.dropped(), 1u);
  const auto drained = buffer.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].energy, 2);
  EXPECT_EQ(drained[1].energy, 3);
}

TEST(TargetBuffer, OverflowCountsDrops) {
  TargetBuffer buffer(2);
  EXPECT_EQ(buffer.dropped(), 0u);
  buffer.push(bits("00"));
  buffer.push(bits("01"));
  buffer.push(bits("10"));  // evicts "00"
  EXPECT_EQ(buffer.dropped(), 1u);
  EXPECT_EQ(buffer.pushed(), 3u);
}

TEST(TargetBuffer, ShardedPushSpreadsAndPollSteals) {
  TargetBuffer buffer(8, 4);
  EXPECT_EQ(buffer.shard_count(), 4u);
  for (int i = 0; i < 8; ++i) buffer.push(BitVector(4));
  EXPECT_EQ(buffer.pending(), 8u);
  EXPECT_EQ(buffer.dropped(), 0u);
  // A single worker's hint drains everything: its own shard first, then
  // stealing from the others — no target is stranded in a foreign shard.
  int polled = 0;
  while (buffer.poll(/*hint=*/2).has_value()) ++polled;
  EXPECT_EQ(polled, 8);
  EXPECT_EQ(buffer.pending(), 0u);
}

TEST(TargetBuffer, ShardedOverflowDropsWithinTheFullShard) {
  TargetBuffer buffer(4, 2);  // 2 slots per shard
  for (int i = 0; i < 6; ++i) buffer.push(BitVector(4));  // 3 per shard
  EXPECT_EQ(buffer.dropped(), 2u);
  EXPECT_EQ(buffer.pending(), 4u);
}

TEST(TargetBuffer, ShardCapacitiesSumToTheConfiguredTotal) {
  // 5 slots over 4 shards: the remainder goes to the first shard, so a
  // round-robin fill of exactly 5 drops nothing and holds exactly 5.
  TargetBuffer uneven(5, 4);
  EXPECT_EQ(uneven.shard_count(), 4u);
  for (int i = 0; i < 5; ++i) uneven.push(BitVector(4));
  EXPECT_EQ(uneven.dropped(), 0u);
  EXPECT_EQ(uneven.pending(), 5u);
  // Fewer slots than shards: one shard per slot, never more slots.
  TargetBuffer narrow(2, 4);
  EXPECT_EQ(narrow.shard_count(), 2u);
  for (int i = 0; i < 5; ++i) narrow.push(BitVector(4));
  EXPECT_EQ(narrow.pending(), 2u);
  EXPECT_EQ(narrow.dropped(), 3u);
}

TEST(SolutionBuffer, FewerSlotsThanShardsKeepsTheExactTotal) {
  SolutionBuffer buffer(3, 4);
  EXPECT_EQ(buffer.shard_count(), 3u);
  for (std::size_t worker = 0; worker < 4; ++worker) {
    buffer.push({bits("0"), static_cast<Energy>(worker), 0, 0}, worker);
  }
  EXPECT_EQ(buffer.drain().size(), 3u);
  EXPECT_EQ(buffer.dropped(), 1u);
}

TEST(SolutionBuffer, ShardedPushAndDrainCollectEverything) {
  SolutionBuffer buffer(16, 4);
  EXPECT_EQ(buffer.shard_count(), 4u);
  for (int worker = 0; worker < 4; ++worker) {
    for (int i = 0; i < 3; ++i) {
      buffer.push({bits("0"), worker * 10 + i, 0,
                   static_cast<std::uint32_t>(worker)},
                  static_cast<std::size_t>(worker));
    }
  }
  EXPECT_EQ(buffer.counter(), 12u);
  const auto drained = buffer.drain();
  ASSERT_EQ(drained.size(), 12u);
  // FIFO within each worker's shard.
  for (int worker = 0; worker < 4; ++worker) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(drained[static_cast<std::size_t>(worker * 3 + i)].energy,
                worker * 10 + i);
    }
  }
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(Mailboxes, ShardedConcurrentWorkersLoseNothingWithinCapacity) {
  // 4 "workers" each push into their own shard while the host drains —
  // the Device's exact traffic pattern.
  constexpr int kPerWorker = 500;
  constexpr int kWorkers = 4;
  SolutionBuffer buffer(kPerWorker * kWorkers, kWorkers);
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&buffer, w] {
      for (int i = 0; i < kPerWorker; ++i) {
        buffer.push({BitVector(8), w * kPerWorker + i, 0,
                     static_cast<std::uint32_t>(w)},
                    static_cast<std::size_t>(w));
      }
    });
  }
  std::vector<ReportedSolution> received;
  while (received.size() < kPerWorker * kWorkers) {
    auto batch = buffer.drain();
    received.insert(received.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(received.size(),
            static_cast<std::size_t>(kPerWorker * kWorkers));
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_EQ(buffer.counter(),
            static_cast<std::uint64_t>(kPerWorker * kWorkers));
  // Every pushed energy arrives exactly once.
  std::vector<bool> seen(kPerWorker * kWorkers, false);
  for (const auto& report : received) {
    const auto index = static_cast<std::size_t>(report.energy);
    EXPECT_FALSE(seen[index]);
    seen[index] = true;
  }
}

TEST(Mailboxes, ConcurrentProducerConsumerLosesNothingWithinCapacity) {
  // One producer thread, one consumer thread, capacity ample: every pushed
  // solution must be drained exactly once.
  constexpr int kCount = 2000;
  SolutionBuffer buffer(kCount);
  std::thread producer([&buffer] {
    for (int i = 0; i < kCount; ++i) {
      buffer.push({BitVector(8), i, 0, 0});
    }
  });
  std::vector<ReportedSolution> received;
  while (received.size() < kCount) {
    auto batch = buffer.drain();
    received.insert(received.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
  }
  producer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)].energy, i);
  }
  EXPECT_EQ(buffer.dropped(), 0u);
  EXPECT_EQ(buffer.counter(), static_cast<std::uint64_t>(kCount));
}

TEST(Mailboxes, ConcurrentTargetTraffic) {
  TargetBuffer buffer(64);
  constexpr int kCount = 1000;
  std::thread producer([&buffer] {
    for (int i = 0; i < kCount; ++i) buffer.push(BitVector(16));
  });
  int polled = 0;
  while (buffer.pushed() < kCount || buffer.pending() > 0) {
    if (buffer.poll().has_value()) ++polled;
  }
  producer.join();
  EXPECT_LE(polled, kCount);
  EXPECT_GT(polled, 0);
}

TEST(Doorbell, ParkReturnsAtOnceAfterARingSinceTheReading) {
  Doorbell bell;
  const std::uint64_t seen = bell.rings();
  bell.ring();
  const Stopwatch watch;
  bell.park(seen, 30.0);
  EXPECT_LT(watch.seconds(), 5.0);
  EXPECT_EQ(bell.rings(), seen + 1);
}

TEST(Doorbell, ParkWithoutARingWaitsOutItsTimeout) {
  Doorbell bell;
  const Stopwatch watch;
  bell.park(bell.rings(), 0.05);
  EXPECT_GE(watch.seconds(), 0.05);
}

TEST(Doorbell, RingWakesAParkedThread) {
  Doorbell bell;
  const std::uint64_t seen = bell.rings();
  const Stopwatch watch;
  std::thread ringer([&bell] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    bell.ring();
  });
  bell.park(seen, 30.0);
  ringer.join();
  EXPECT_LT(watch.seconds(), 5.0);
}

TEST(Doorbell, NoRingIsLostToConcurrentRingers) {
  // A host parking over and over against more ringers than cores, each
  // pausing at random between rings: every park must end at a ring (or
  // soon after the next one), never at its 1 s timeout. A notify that
  // reached the wrong park, or a flag left saying "not parked", would
  // leave one park deaf to every later ring.
  Doorbell bell;
  std::atomic<bool> stop{false};
  std::vector<std::thread> ringers;
  for (unsigned r = 0; r < 8; ++r) {
    ringers.emplace_back([&bell, &stop, r] {
      std::uint64_t state = r + 1;
      while (!stop.load()) {
        bell.ring();
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        std::this_thread::sleep_for(std::chrono::microseconds(state >> 57));
      }
    });
  }
  double longest = 0.0;
  const Stopwatch total;
  for (int park = 0; park < 20000 && total.seconds() < 3.0; ++park) {
    const std::uint64_t seen = bell.rings();
    const Stopwatch watch;
    bell.park(seen, 1.0);
    longest = std::max(longest, watch.seconds());
    if (longest >= 0.5) break;
  }
  stop.store(true);
  for (auto& ringer : ringers) ringer.join();
  EXPECT_LT(longest, 0.5);
}

}  // namespace
}  // namespace absq::sim
