#include "portfolio/controller.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.hpp"

namespace absq::portfolio {
namespace {

/// Per-round multiplicative credit decay (the EWMA memory).
constexpr double kCreditDecay = 0.9;
/// Softmax temperature τ over arm credits (higher = flatter).
constexpr double kSoftmaxTemperature = 4.0;
/// Exploration floor ε: every arm keeps at least ε/num_arms of the
/// assignment probability, so no member ever starves.
constexpr double kExplorationFloor = 0.1;

static_assert(kCreditDecay >= 0.0 && kCreditDecay <= 1.0);
static_assert(kSoftmaxTemperature > 0.0);
static_assert(kExplorationFloor >= 0.0 && kExplorationFloor <= 1.0);

}  // namespace

AdaptiveController::AdaptiveController(const Config& config)
    : config_(config), rng_(Rng(config.seed).split(0x9b97)) {
  ABSQ_CHECK(config.islands >= 1, "need at least one island");
  ABSQ_CHECK(!config.algorithms.empty(), "need at least one algorithm");
  arms_.reserve(static_cast<std::size_t>(config.islands) *
                config.algorithms.size());
  for (std::uint32_t island = 0; island < config.islands; ++island) {
    for (const BlockAlgorithmKind algorithm : config.algorithms) {
      Arm arm;
      arm.island = island;
      arm.algorithm = algorithm;
      arms_.push_back(arm);
    }
  }
  if (obs::MetricsRegistry* registry = config.telemetry.metrics;
      registry != nullptr) {
    m_reassignments_ = &registry->counter(
        "absq_controller_reassignments_total", config.telemetry.labels);
    m_island_blocks_.reserve(config.islands);
    for (std::uint32_t island = 0; island < config.islands; ++island) {
      m_island_blocks_.push_back(&registry->gauge(
          "absq_island_blocks",
          config.telemetry.with({{"island", std::to_string(island)}})));
    }
  }
}

std::uint32_t AdaptiveController::register_block(std::uint32_t device,
                                                 std::uint32_t block) {
  const auto arm = (device + block) % num_arms();
  if (device >= ref_index_.size()) ref_index_.resize(device + 1);
  std::vector<std::uint32_t>& row = ref_index_[device];
  if (block >= row.size()) row.resize(block + 1, kUnregistered);
  // A repeated registration is recorded but never looked up: the first
  // one keeps answering arm_of.
  if (row[block] == kUnregistered) {
    row[block] = static_cast<std::uint32_t>(blocks_.size());
  }
  blocks_.push_back({device, block, arm});
  ++arms_[arm].blocks;
  return arm;
}

std::uint32_t AdaptiveController::arm_of(std::uint32_t device,
                                         std::uint32_t block) const {
  if (device < ref_index_.size() && block < ref_index_[device].size()) {
    const std::uint32_t ref = ref_index_[device][block];
    if (ref != kUnregistered) return blocks_[ref].arm;
  }
  // A report from an unregistered block (a restarted device grew — cannot
  // happen with a fixed config, but stay total): the striped default.
  return (device + block) % num_arms();
}

void AdaptiveController::credit_insert(std::uint32_t arm) {
  arms_[arm].credit += 1.0;
  ++arms_[arm].inserts;
}

void AdaptiveController::credit_improvement(std::uint32_t arm) {
  // An incumbent improvement is worth an order of magnitude more than a
  // mere pool insert: the bandit optimizes quality, not churn.
  arms_[arm].credit += 10.0;
  ++arms_[arm].best_improvements;
}

std::vector<double> AdaptiveController::distribution() const {
  // (1 − ε) · softmax(credit / τ) + ε / A, max-shifted for stability.
  const std::size_t n = arms_.size();
  std::vector<double> probs(n, 0.0);
  double max_credit = arms_[0].credit;
  for (const Arm& arm : arms_) max_credit = std::max(max_credit, arm.credit);
  double total = 0.0;
  for (std::size_t a = 0; a < n; ++a) {
    probs[a] = std::exp((arms_[a].credit - max_credit) / kSoftmaxTemperature);
    total += probs[a];
  }
  const double floor = kExplorationFloor / static_cast<double>(n);
  for (std::size_t a = 0; a < n; ++a) {
    probs[a] = (1.0 - kExplorationFloor) * (probs[a] / total) + floor;
  }
  return probs;
}

std::size_t AdaptiveController::note_round(
    const std::function<void(std::uint32_t, std::uint32_t, std::uint32_t)>&
        apply) {
  ++rounds_;
  for (Arm& arm : arms_) arm.credit *= kCreditDecay;
  if (!config_.enabled || config_.realloc_interval == 0 ||
      rounds_ % config_.realloc_interval != 0 || blocks_.empty()) {
    return 0;
  }

  const std::vector<double> probs = distribution();
  std::size_t moved = 0;
  for (BlockRef& ref : blocks_) {
    // Inverse-CDF sample per block; the host loop is single-threaded, so
    // the draw order (and with it the whole assignment) is a pure
    // function of the seed and the credit history.
    double draw = rng_.uniform01();
    std::uint32_t chosen = num_arms() - 1;
    for (std::uint32_t a = 0; a < num_arms(); ++a) {
      draw -= probs[a];
      if (draw <= 0.0) {
        chosen = a;
        break;
      }
    }
    if (chosen == ref.arm) continue;
    --arms_[ref.arm].blocks;
    ++arms_[chosen].blocks;
    ref.arm = chosen;
    ++moved;
    apply(ref.device, ref.block, chosen);
  }
  reassignments_ += moved;
  obs::add(m_reassignments_, moved);
  if (!m_island_blocks_.empty()) {
    for (std::uint32_t island = 0; island < config_.islands; ++island) {
      m_island_blocks_[island]->set(
          static_cast<double>(blocks_on_island(island)));
    }
  }
  return moved;
}

std::uint32_t AdaptiveController::blocks_on_island(
    std::uint32_t island) const {
  std::uint32_t total = 0;
  for (const Arm& arm : arms_) {
    if (arm.island == island) total += arm.blocks;
  }
  return total;
}

}  // namespace absq::portfolio
