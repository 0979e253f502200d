// AdaptiveController — the (island, algorithm) bandit of Diverse ABS.
//
// Every block is assigned to one *arm* = (island pool, portfolio member).
// The host loop credits an arm whenever one of its blocks' reports is
// accepted by its island pool (and extra when it improves the global
// incumbent), decays the credits every GA round (an EWMA memory), and on
// a fixed cadence re-stripes the blocks across the arms by sampling from
//
//     p(arm) = (1 − ε) · softmax(credit / τ) + ε / num_arms
//
// — credit-weighted exploitation with an exploration floor ε that keeps
// every arm alive (the "no member ever starves" guarantee the tests pin).
// The credit decay (0.9 per round), τ = 4 and ε = 0.1 are fixed
// (controller.cpp). Moving blocks between members is the one way a run
// changes its blocks' search at runtime.
//
// Single-threaded: lives on the host loop thread; the only cross-thread
// effect is Device::request_block_algorithm, an atomic handoff applied by
// the block at its next iteration.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/telemetry.hpp"
#include "portfolio/block_algorithm.hpp"
#include "util/rng.hpp"

namespace absq::portfolio {

class AdaptiveController {
 public:
  struct Config {
    std::uint32_t islands = 1;
    std::vector<BlockAlgorithmKind> algorithms = {
        BlockAlgorithmKind::kMinDelta};
    /// false = static striping only (credits are still tracked, but
    /// note_round never reallocates).
    bool enabled = false;
    /// GA rounds between reallocation passes.
    std::uint64_t realloc_interval = 16;
    std::uint64_t seed = 1;
    obs::Telemetry telemetry;
  };

  struct Arm {
    std::uint32_t island = 0;
    BlockAlgorithmKind algorithm = BlockAlgorithmKind::kMinDelta;
    double credit = 0.0;
    std::uint64_t inserts = 0;            ///< lifetime credited inserts
    std::uint64_t best_improvements = 0;  ///< lifetime incumbent credits
    std::uint32_t blocks = 0;             ///< blocks currently assigned
  };

  explicit AdaptiveController(const Config& config);

  [[nodiscard]] std::uint32_t num_arms() const {
    return static_cast<std::uint32_t>(arms_.size());
  }
  [[nodiscard]] const Arm& arm(std::uint32_t index) const {
    return arms_[index];
  }

  /// Registers block (device, block) with its initial arm — the striped
  /// assignment arm ((device + block) % num_arms). Returns the arm index
  /// (also what DeviceConfig::algorithm_schedule must encode).
  std::uint32_t register_block(std::uint32_t device, std::uint32_t block);

  /// Current arm of a registered block — O(1), called per host report.
  [[nodiscard]] std::uint32_t arm_of(std::uint32_t device,
                                     std::uint32_t block) const;

  /// Credit: one of the arm's reports was accepted by its island pool.
  void credit_insert(std::uint32_t arm);
  /// Credit: the accepted report improved the global incumbent (weighted
  /// heavier — quality over churn).
  void credit_improvement(std::uint32_t arm);

  /// One GA round: decays credits; on the reallocation grid (and only when
  /// enabled) re-stripes the blocks, invoking `apply(device, block, arm)`
  /// for every block whose arm changed. Returns reassignments this call.
  std::size_t note_round(
      const std::function<void(std::uint32_t device, std::uint32_t block,
                               std::uint32_t arm)>& apply);

  /// The assignment distribution the next reallocation would sample from.
  [[nodiscard]] std::vector<double> distribution() const;

  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  [[nodiscard]] std::uint64_t reassignments() const {
    return reassignments_;
  }
  /// Blocks currently assigned to arms of `island`.
  [[nodiscard]] std::uint32_t blocks_on_island(std::uint32_t island) const;

 private:
  struct BlockRef {
    std::uint32_t device = 0;
    std::uint32_t block = 0;
    std::uint32_t arm = 0;
  };

  static constexpr std::uint32_t kUnregistered = 0xffffffffu;

  Config config_;
  std::vector<Arm> arms_;
  /// Registration order — also the reallocation draw order.
  std::vector<BlockRef> blocks_;
  /// [device][block] → index into blocks_, or kUnregistered.
  std::vector<std::vector<std::uint32_t>> ref_index_;
  Rng rng_;
  std::uint64_t rounds_ = 0;
  std::uint64_t reassignments_ = 0;
  obs::Counter* m_reassignments_ = nullptr;
  std::vector<obs::Gauge*> m_island_blocks_;  ///< per island
};

}  // namespace absq::portfolio
