// SyncAbsRunner — a deterministic, single-threaded executor of the ABS
// protocol.
//
// AbsSolver::run lets devices free-run on worker threads, which is faithful
// to the paper's asynchronous design but makes runs depend on OS
// scheduling. For experiments that must be bit-reproducible (regression
// baselines, paired A/B ablations, debugging) this runner drives the same
// AbsSolver — its host phases, island pools, controller and the same
// Device/SearchBlock code — in strict rounds:
//
//   round := for each device: step all its blocks once (synchronously),
//            then run the solver's host round for it (drain, insert, breed,
//            tick the island/controller clock).
//
// Identical (instance, config) always produces identical results, classic
// or diverse — a property the test suite pins down. The trade-off is
// fidelity: there is no asynchrony, so host/device overlap effects are
// absent by design.
#pragma once

#include <cstdint>

#include "abs/solver.hpp"

namespace absq {

class SyncAbsRunner {
 public:
  /// Uses the same configuration type as AbsSolver. threads_per_device is
  /// forced to 1 (single-shard mailboxes) and no device is ever started, so
  /// results stay bit-reproducible across machines regardless of core count.
  SyncAbsRunner(const WeightMatrix& w, AbsConfig config);

  /// Runs `rounds` synchronous rounds (starting from a fresh pool on the
  /// first call; subsequent calls continue). Returns the result so far:
  /// counters and best_trace are lifetime totals over the round-index time
  /// axis, while seconds and search_rate cover this call.
  AbsResult run_rounds(std::uint64_t rounds);

  /// Runs rounds until the pool's best energy is ≤ target or `max_rounds`
  /// elapsed (0 = unlimited is rejected).
  AbsResult run_to_target(Energy target, std::uint64_t max_rounds);

  /// Island 0's pool — the whole pool of a classic config.
  [[nodiscard]] const SolutionPool& pool() const {
    return solver_.islands().pool(0);
  }
  [[nodiscard]] std::uint64_t rounds_completed() const { return rounds_; }
  [[nodiscard]] const Device& device(std::size_t i) const {
    return solver_.device(i);
  }
  /// The driven solver (islands, controller, devices), for inspection
  /// between calls.
  [[nodiscard]] const AbsSolver& solver() const { return solver_; }

 private:
  /// Runs up to `max_rounds` rounds, stopping early once the pool reaches
  /// `stop.target_energy` (when set).
  AbsResult run(std::uint64_t max_rounds, const StopCriteria& stop);

  AbsSolver solver_;
  bool started_ = false;
  std::uint64_t rounds_ = 0;
};

}  // namespace absq
