#include "sim/mailbox.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace absq::sim {
namespace {

/// Splits `capacity` slots over at most `shards` shards — never more
/// shards than slots, the remainder spread one slot each over the first
/// shards — so the shard capacities sum to exactly `capacity`.
template <typename Shard>
std::vector<std::unique_ptr<Shard>> make_shards(std::size_t capacity,
                                                std::size_t shards) {
  ABSQ_CHECK(capacity >= 1, "mailbox needs capacity >= 1");
  ABSQ_CHECK(shards >= 1, "mailbox needs at least one shard");
  const std::size_t count = std::min(shards, capacity);
  std::vector<std::unique_ptr<Shard>> result;
  result.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    result.push_back(std::make_unique<Shard>());
    result.back()->capacity = capacity / count + (s < capacity % count ? 1 : 0);
  }
  return result;
}

/// The longest single park: any finite timeout converts to the clock's
/// ticks without overflow, and a host with no deadline re-polls daily.
constexpr double kLongestParkSeconds = 86400.0;

}  // namespace

void Doorbell::ring() {
  rings_.fetch_add(1);
  // Only the host clears the flag. A ringer that cleared it could hit the
  // host's *next* park with a notify meant for this one, leaving that park
  // flagged unparked and deaf to every later ring.
  if (!parked_.load()) return;
  // Passing through the lock orders the notify after the parker's check of
  // rings_: it either saw the increment or is already waiting. Notifying
  // after the unlock lets the woken host run without blocking on it.
  { std::lock_guard lock(mutex_); }
  wake_.notify_one();
}

void Doorbell::park(std::uint64_t seen, double timeout_seconds) {
  const std::chrono::duration<double> timeout(
      std::clamp(timeout_seconds, 0.0, kLongestParkSeconds));
  std::unique_lock lock(mutex_);
  parked_.store(true);
  (void)wake_.wait_for(lock, timeout, [&] { return rings_.load() != seen; });
  parked_.store(false);
}

TargetBuffer::TargetBuffer(std::size_t capacity, std::size_t shards)
    : shards_(make_shards<Shard>(capacity, shards)) {}

void TargetBuffer::push(BitVector target) {
  if (fail::triggered("mailbox.target_push")) {
    // Injected transfer loss: the target vanishes before reaching any
    // shard. Counted as a drop so the storm is visible in run statistics.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t index =
      push_cursor_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  Shard& shard = *shards_[index];
  bool overwrote = false;
  {
    std::lock_guard lock(shard.mutex);
    if (shard.queue.size() >= shard.capacity) {
      shard.queue.pop_front();
      dropped_.fetch_add(1, std::memory_order_relaxed);
      overwrote = true;
    }
    shard.queue.push_back(std::move(target));
  }
  pushed_.fetch_add(1, std::memory_order_relaxed);
  if (overwrote && tracer_ != nullptr) {
    tracer_->instant("target_drop", "mailbox", trace_pid_,
                     static_cast<std::uint32_t>(index));
  }
}

std::optional<BitVector> TargetBuffer::poll() {
  return poll(poll_cursor_.fetch_add(1, std::memory_order_relaxed));
}

std::optional<BitVector> TargetBuffer::poll(std::size_t hint) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[(hint + i) % shards_.size()];
    std::lock_guard lock(shard.mutex);
    if (shard.queue.empty()) continue;
    BitVector target = std::move(shard.queue.front());
    shard.queue.pop_front();
    return target;
  }
  return std::nullopt;
}

std::size_t TargetBuffer::pending() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->queue.size();
  }
  return total;
}

SolutionBuffer::SolutionBuffer(std::size_t capacity, std::size_t shards)
    : shards_(make_shards<Shard>(capacity, shards)) {}

void SolutionBuffer::push(ReportedSolution solution) {
  push(std::move(solution),
       push_cursor_.fetch_add(1, std::memory_order_relaxed));
}

void SolutionBuffer::push(ReportedSolution solution, std::size_t hint) {
  if (fail::triggered("mailbox.solution_push")) {
    // Injected transfer loss: the report is gone before the counter the
    // host polls ever moves — exactly what a dropped DMA write looks like.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::size_t index = hint % shards_.size();
  Shard& shard = *shards_[index];
  bool overwrote = false;
  {
    std::lock_guard lock(shard.mutex);
    if (shard.queue.size() >= shard.capacity) {
      shard.queue.pop_front();
      dropped_.fetch_add(1, std::memory_order_relaxed);
      overwrote = true;
    }
    shard.queue.push_back(std::move(solution));
  }
  pushed_.fetch_add(1, std::memory_order_relaxed);
  if (overwrote && tracer_ != nullptr) {
    tracer_->instant("solution_drop", "mailbox", trace_pid_,
                     static_cast<std::uint32_t>(index));
  }
}

std::vector<ReportedSolution> SolutionBuffer::drain() {
  std::vector<ReportedSolution> result;
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    result.insert(result.end(), std::make_move_iterator(shard->queue.begin()),
                  std::make_move_iterator(shard->queue.end()));
    shard->queue.clear();
  }
  return result;
}

}  // namespace absq::sim
