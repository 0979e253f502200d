// BlockAlgorithm — the per-block search portfolio of Diverse ABS.
//
// The follow-up paper (Diverse Adaptive Bulk Search, arXiv:2207.03069)
// generalizes the single windowed-min-Δ local search into a *portfolio*:
// every CUDA block runs one member algorithm and an adaptive controller
// reallocates blocks toward the members that are currently productive.
// This interface factors SearchBlock's Step 4b loop behind that seam.
//
// Three members are provided:
//
//   * kMinDelta    — the paper's windowed min-Δ forced-flip search,
//                    byte-for-byte the loop SearchBlock always ran (the
//                    lockstep test in test_portfolio.cpp pins this);
//   * kSa          — simulated-annealing acceptance over uniform random
//                    candidate bits, geometric cooling with an adaptive
//                    reheat once progress dries up;
//   * kMultiStart  — diversified multi-start descent à la Lewis 2017
//                    (arXiv:1706.00037): tabu tenure on recently flipped
//                    bits, and on stagnation a restart at a randomized
//                    distance from the iteration incumbent.
//
// All three run on the device-worker hot path (absq_lint ABSQ003 covers
// every step() implementation): no blocking calls, no I/O, no allocation
// after warm-up. Each step() loop honours its device's stop flag within 64
// steps (search/stop.hpp), so a finished run does not wait out a phase.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qubo/delta_state.hpp"
#include "qubo/types.hpp"
#include "search/policy.hpp"
#include "search/stats.hpp"
#include "search/tracker.hpp"
#include "util/rng.hpp"

namespace absq::portfolio {

enum class BlockAlgorithmKind : std::uint8_t {
  kMinDelta = 0,
  kSa = 1,
  kMultiStart = 2,
};

[[nodiscard]] const char* to_string(BlockAlgorithmKind kind);
/// Parses "min-delta" / "sa" / "multistart"; throws CheckError otherwise.
[[nodiscard]] BlockAlgorithmKind block_algorithm_from_string(
    const std::string& text);
/// Parses a comma-separated list, e.g. "min-delta,sa,multistart". Throws
/// CheckError on an unknown name or an empty list.
[[nodiscard]] std::vector<BlockAlgorithmKind> parse_portfolio(
    const std::string& text);
[[nodiscard]] std::string portfolio_to_string(
    const std::vector<BlockAlgorithmKind>& algorithms);

/// Tuning knobs of the non-default portfolio members. Every 0 value means
/// "auto": resolved against the instance size at first use, so one options
/// struct serves all instances.
struct AlgorithmOptions {
  // --- kSa ---------------------------------------------------------------
  /// Starting temperature. 0 = calibrated to the mean |Δ| observed at the
  /// first step (the classic "accept ~60% of uphill moves at T0" regime).
  double sa_initial_temperature = 0.0;
  /// Geometric cooling factor applied once per SA step.
  double sa_cooling = 0.999;
  /// Temperature floor (cooling stops here).
  double sa_min_temperature = 1e-3;
  /// Steps without an incumbent improvement before reheating. 0 = 4n.
  std::uint64_t sa_reheat_after = 0;
  /// Multiplier applied on reheat (capped at the starting temperature).
  double sa_reheat_factor = 8.0;

  // --- kMultiStart -------------------------------------------------------
  /// Steps a flipped bit stays tabu. 0 = n/10 clamped to [4, 64].
  std::uint32_t tabu_tenure = 0;
  /// Restart distance drawn uniformly from [min, max] × n bits.
  double restart_min_fraction = 0.05;
  double restart_max_fraction = 0.25;
  /// Steps without an incumbent improvement before restarting. 0 = 2n.
  std::uint64_t restart_stall_limit = 0;
};

/// One member of the block search portfolio. Owns whatever schedule state
/// the member needs (window offsets, temperature, tabu list); that state
/// persists across iterations exactly like the legacy policy's offset did.
class BlockAlgorithm {
 public:
  virtual ~BlockAlgorithm() = default;

  [[nodiscard]] virtual BlockAlgorithmKind kind() const = 0;

  /// One Step 4b local-search phase: `local_steps` selection steps against
  /// `state`, offering every evaluated solution to `tracker` and
  /// accounting matrix reads / flips / evaluations into `stats`. A raised
  /// `stop` flag ends the phase within 64 steps, leaving `state` and the
  /// member's schedule consistent for a later phase. Hot path: must never
  /// block (ABSQ003).
  virtual void step(DeltaState& state, BestTracker& tracker,
                    SearchStats& stats, Rng& rng, std::uint64_t local_steps,
                    const std::atomic<bool>* stop = nullptr) = 0;
};

/// The legacy windowed min-Δ member: runs SearchBlock's historical Step 4b
/// loop over the paper's window policy (Fig. 2), which it owns. It is
/// bit-identical to the pre-portfolio solver (no RNG draws, same flip
/// sequence) — the compatibility pin of the refactor.
class MinDeltaAlgorithm final : public BlockAlgorithm {
 public:
  /// `window` = l; `start_offset` = the block's staggered first window.
  MinDeltaAlgorithm(BitIndex window, BitIndex start_offset)
      : policy_(window, start_offset) {}

  [[nodiscard]] BlockAlgorithmKind kind() const override {
    return BlockAlgorithmKind::kMinDelta;
  }

  void step(DeltaState& state, BestTracker& tracker, SearchStats& stats,
            Rng& rng, std::uint64_t local_steps,
            const std::atomic<bool>* stop = nullptr) override;

 private:
  WindowMinDeltaPolicy policy_;
};

/// SA-style temperature-scheduled acceptance. Candidates are uniform
/// random bits; downhill moves always commit, uphill moves commit with
/// probability exp(−Δ/T). Geometric cooling per step plus an adaptive
/// reheat when the incumbent stops improving.
class SaAlgorithm final : public BlockAlgorithm {
 public:
  explicit SaAlgorithm(const AlgorithmOptions& options);

  [[nodiscard]] BlockAlgorithmKind kind() const override {
    return BlockAlgorithmKind::kSa;
  }

  void step(DeltaState& state, BestTracker& tracker, SearchStats& stats,
            Rng& rng, std::uint64_t local_steps,
            const std::atomic<bool>* stop = nullptr) override;

  [[nodiscard]] double temperature() const { return temperature_; }
  [[nodiscard]] std::uint64_t reheats() const { return reheats_; }

 private:
  AlgorithmOptions options_;
  double temperature_ = 0.0;  ///< 0 until calibrated at the first step
  double initial_temperature_ = 0.0;
  std::uint64_t since_improvement_ = 0;
  std::uint64_t reheats_ = 0;
};

/// Diversified multi-start descent (Lewis 2017): forced min-Δ flips over
/// the non-tabu bits (aspiration lifts the tabu when a flip would beat the
/// incumbent), and once progress stalls, a restart — walk back to the
/// incumbent, then kick a random distance away and clear the tabu state.
class MultiStartAlgorithm final : public BlockAlgorithm {
 public:
  explicit MultiStartAlgorithm(const AlgorithmOptions& options);

  [[nodiscard]] BlockAlgorithmKind kind() const override {
    return BlockAlgorithmKind::kMultiStart;
  }

  void step(DeltaState& state, BestTracker& tracker, SearchStats& stats,
            Rng& rng, std::uint64_t local_steps,
            const std::atomic<bool>* stop = nullptr) override;

  [[nodiscard]] std::uint64_t restarts() const { return restarts_; }

 private:
  /// Returns false when a raised `stop` cut the walk back short.
  bool restart(DeltaState& state, BestTracker& tracker, SearchStats& stats,
               Rng& rng, const std::atomic<bool>* stop);

  AlgorithmOptions options_;
  /// step_counter_ value when bit i was last flipped; bits within
  /// `tenure_` steps are tabu. Sized on first use.
  std::vector<std::uint64_t> last_flip_step_;
  std::uint64_t step_counter_ = 0;
  std::uint32_t tenure_ = 0;           ///< resolved from options at first use
  std::uint64_t stall_limit_ = 0;      ///< resolved from options at first use
  std::uint64_t since_improvement_ = 0;
  std::uint64_t restarts_ = 0;
};

/// Builds a portfolio member. `window` and `start_offset` configure
/// kMinDelta's window policy, `options` the other members; each kind
/// ignores the rest.
[[nodiscard]] std::unique_ptr<BlockAlgorithm> make_block_algorithm(
    BlockAlgorithmKind kind, const AlgorithmOptions& options,
    BitIndex window, BitIndex start_offset);

}  // namespace absq::portfolio
