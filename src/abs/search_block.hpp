// SearchBlock — the CUDA-block analogue (Section 3.2, device Steps 2–5).
//
// One block owns one persistent Δ-maintained search state. Per iteration it
//
//   Step 2:  takes a target solution T bred by the host GA,
//   Step 3:  resets its best-found incumbent (premature-convergence guard:
//            already-reported solutions are not reported again),
//   Step 4a: runs a straight search from its current solution C to T,
//   Step 4b: runs its portfolio member's local search for a fixed number
//            of steps, ending at C′ — the start of the next iteration,
//   Step 5:  reports the best solution found during Steps 4a+4b.
//
// Because C′ feeds the next straight search, the Δ state is never rebuilt:
// the block achieves the O(1) search efficiency of Theorem 1 for its entire
// lifetime.
//
// The Step 4b search is one member of the Diverse-ABS portfolio
// (portfolio/block_algorithm.hpp). By default each block runs the paper's
// windowed min-Δ policy (Fig. 2) with its own window length l — the
// temperature analogue, so a device runs a parallel-tempering-like ladder —
// and that default is bit-identical to the pre-portfolio solver. The
// portfolio is the one way a block varies its search (the paper's "each
// CUDA block would perform different algorithms and possibly they are
// changed automatically"): a block can run SA-scheduled acceptance or
// Lewis-2017 multi-start instead, each with its own stagnation reheat or
// restart, and the adaptive controller can re-assign the member at
// runtime through the lock-free request_algorithm handoff.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "obs/trace.hpp"
#include "portfolio/block_algorithm.hpp"
#include "qubo/bit_vector.hpp"
#include "qubo/delta_state.hpp"
#include "qubo/kernel.hpp"
#include "qubo/weight_matrix.hpp"
#include "search/stats.hpp"
#include "search/tracker.hpp"
#include "sim/mailbox.hpp"
#include "util/rng.hpp"

namespace absq {

class SearchBlock {
 public:
  struct Config {
    std::uint32_t device_id = 0;
    std::uint32_t block_id = 0;
    /// Window length l of the default selection policy (Fig. 2).
    BitIndex window = 16;
    /// Fixed flip count of the Step 4b local search.
    std::uint64_t local_steps = 1024;
    /// Seed for the RNG handed to the portfolio member.
    std::uint64_t seed = 1;
    /// Initial portfolio member for Step 4b (Diverse ABS). kMinDelta is
    /// the legacy solver.
    portfolio::BlockAlgorithmKind algorithm =
        portfolio::BlockAlgorithmKind::kMinDelta;
    /// Tuning knobs of the non-default members.
    portfolio::AlgorithmOptions algorithm_options;
    /// Optional event tracer (not owned; null = tracing disabled). The
    /// block emits one "straight" and one "local" span per iteration —
    /// pid = trace_pid_base + device_id + 1, tid = block_id, so every
    /// block is a lane of its device's process in the trace viewer.
    obs::EventTracer* tracer = nullptr;
    /// Trace pid offset (obs::Telemetry::pid_base) — strided per job by
    /// the serving layer so concurrent jobs occupy disjoint pid ranges.
    std::uint32_t trace_pid_base = 0;
    /// Kernel plan shared by the device's blocks (not owned; must outlive
    /// the block). Null = the storage's own form, as a kAuto plan runs it.
    /// Every plan is bit-identical, so this only changes the block's
    /// throughput.
    const QuboKernel* kernel = nullptr;
  };

  /// The matrix is shared by all blocks and must outlive them.
  SearchBlock(const WeightMatrix& w, const Config& config);

  /// One full Step 2→5 iteration against `target`. Returns the report the
  /// block would store into the solution buffer.
  ///
  /// `stop` is the owning device's stop flag (null = never stopped). Once
  /// it is raised the straight walk and the Step 4b loop each return
  /// within 64 steps, and the iteration reports its best so far — an
  /// exact energy, or the current solution when nothing was flipped. The
  /// block stays consistent for a later iteration.
  [[nodiscard]] sim::ReportedSolution iterate(
      const BitVector& target, const std::atomic<bool>* stop = nullptr);

  /// Current solution C (the start of the next straight search).
  [[nodiscard]] const BitVector& current() const { return state_.bits(); }
  [[nodiscard]] Energy current_energy() const { return state_.energy(); }

  [[nodiscard]] const Config& config() const { return config_; }

  /// Asks the block to switch its Step 4b portfolio member at the start
  /// of its next iteration — the controller's reallocation primitive.
  /// Thread-safe against a concurrently iterating device worker (a single
  /// atomic slot: the latest request wins).
  void request_algorithm(portfolio::BlockAlgorithmKind kind) {
    requested_algorithm_.store(static_cast<std::uint8_t>(kind),
                               std::memory_order_release);
  }

  /// Current portfolio member. Read from the owning worker thread, or
  /// from the host only while the device is stopped.
  [[nodiscard]] portfolio::BlockAlgorithmKind algorithm_kind() const {
    return algorithm_->kind();
  }

  /// Times a request_algorithm handoff actually changed the member.
  [[nodiscard]] std::uint64_t algorithm_switches() const {
    return algorithm_switches_;
  }

  /// Lifetime totals across all iterations.
  [[nodiscard]] const SearchStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t iterations() const { return iterations_; }

 private:
  /// Sentinel for "no pending algorithm request".
  static constexpr std::uint8_t kNoAlgorithmRequest = 0xff;

  [[nodiscard]] BitIndex staggered_offset() const;
  /// Replaces the active portfolio member with a fresh one.
  void set_algorithm(portfolio::BlockAlgorithmKind kind);

  const WeightMatrix* w_;
  Config config_;
  DeltaState state_;
  BestTracker tracker_;
  std::unique_ptr<portfolio::BlockAlgorithm> algorithm_;
  std::atomic<std::uint8_t> requested_algorithm_{kNoAlgorithmRequest};
  std::uint64_t algorithm_switches_ = 0;
  Rng rng_;
  SearchStats stats_;
  std::uint64_t iterations_ = 0;
};

}  // namespace absq
