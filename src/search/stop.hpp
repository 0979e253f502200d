// Cooperative stop for the search loops.
//
// A device's workers run block iterations of thousands of flips; when a
// run is over, the device raises its stop flag and every loop that was
// handed the flag returns within kStopCheckInterval steps instead of
// finishing the iteration. The flag is read once per interval, so an
// unstopped loop pays one counter test per step. A null flag (the
// lockstep runner, the baselines, the tests) is never read: those loops
// run exactly as before.
#pragma once

#include <atomic>
#include <cstdint>

namespace absq {

/// Steps between two reads of a stop flag.
inline constexpr std::uint64_t kStopCheckInterval = 64;

/// True when `stop` is set and raised.
[[nodiscard]] inline bool stop_raised(const std::atomic<bool>* stop) {
  return stop != nullptr && stop->load(std::memory_order_acquire);
}

/// The per-step test of a loop: reads the flag before steps 0, 64, 128, …
/// only, so a loop whose flag is raised takes at most 64 more steps.
[[nodiscard]] inline bool stop_due(const std::atomic<bool>* stop,
                                   std::uint64_t step) {
  return step % kStopCheckInterval == 0 && stop_raised(stop);
}

}  // namespace absq
