#include "portfolio/block_algorithm.hpp"

#include <algorithm>
#include <cmath>

#include "search/stop.hpp"
#include "search/straight.hpp"
#include "util/check.hpp"

namespace absq::portfolio {
namespace {

/// Mean |Δ| over a bounded sample of bits — the SA auto-calibration scale.
/// Reads only the cached Δ vector (no matrix traffic).
double mean_abs_delta(const DeltaState& state) {
  const BitIndex n = state.size();
  const BitIndex sample = std::min<BitIndex>(n, 64);
  double total = 0.0;
  for (BitIndex i = 0; i < sample; ++i) {
    total += std::abs(static_cast<double>(state.delta(i)));
  }
  return sample > 0 ? total / static_cast<double>(sample) : 1.0;
}

/// The legacy Step 4b accounting for one committed flip: matrix reads
/// actually paid, n neighbours evaluated, incumbent offers. Shared by all
/// members so their per-flip stats stay comparable.
inline void commit_flip(DeltaState& state, BestTracker& tracker,
                        SearchStats& stats, BitIndex k) {
  const std::uint64_t reads_before = state.matrix_reads();
  const auto outcome = state.flip_tracked(k);
  ++stats.flips;
  ++stats.accepted;
  stats.ops += state.matrix_reads() - reads_before;
  stats.evaluated_solutions += state.size();
  if (tracker.offer(state.bits(), outcome.energy)) ++stats.improvements;
  if (tracker.offer_neighbor(state.bits(), outcome.best_neighbor_bit,
                             outcome.best_neighbor_energy)) {
    ++stats.improvements;
  }
}

}  // namespace

const char* to_string(BlockAlgorithmKind kind) {
  switch (kind) {
    case BlockAlgorithmKind::kMinDelta: return "min-delta";
    case BlockAlgorithmKind::kSa: return "sa";
    case BlockAlgorithmKind::kMultiStart: return "multistart";
  }
  return "unknown";
}

BlockAlgorithmKind block_algorithm_from_string(const std::string& text) {
  if (text == "min-delta" || text == "mindelta") {
    return BlockAlgorithmKind::kMinDelta;
  }
  if (text == "sa") return BlockAlgorithmKind::kSa;
  if (text == "multistart" || text == "multi-start") {
    return BlockAlgorithmKind::kMultiStart;
  }
  ABSQ_CHECK(false, "unknown block algorithm '"
                        << text << "' (want min-delta, sa or multistart)");
}

std::vector<BlockAlgorithmKind> parse_portfolio(const std::string& text) {
  std::vector<BlockAlgorithmKind> algorithms;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(begin, end - begin);
    ABSQ_CHECK(!item.empty(), "empty entry in portfolio list '" << text
                                                                << "'");
    algorithms.push_back(block_algorithm_from_string(item));
    begin = end + 1;
  }
  ABSQ_CHECK(!algorithms.empty(), "portfolio list must not be empty");
  return algorithms;
}

std::string portfolio_to_string(
    const std::vector<BlockAlgorithmKind>& algorithms) {
  std::string text;
  for (const BlockAlgorithmKind kind : algorithms) {
    if (!text.empty()) text += ',';
    text += to_string(kind);
  }
  return text;
}

// --- MinDeltaAlgorithm -----------------------------------------------------

void MinDeltaAlgorithm::step(DeltaState& state, BestTracker& tracker,
                             SearchStats& stats, Rng& rng,
                             std::uint64_t local_steps,
                             const std::atomic<bool>* stop) {
  // The historical SearchBlock Step 4b loop, verbatim: selection order,
  // flip accounting and incumbent offers are pinned bit-identical by the
  // lockstep test — change nothing here without updating that pin. (The
  // stop test reads nothing when the flag is null, as the pin passes it.)
  for (std::uint64_t s = 0; s < local_steps; ++s) {
    if (stop_due(stop, s)) return;
    const BitIndex k = policy_.select(state, rng);
    commit_flip(state, tracker, stats, k);
  }
}

// --- SaAlgorithm -----------------------------------------------------------

SaAlgorithm::SaAlgorithm(const AlgorithmOptions& options)
    : options_(options) {
  ABSQ_CHECK(options.sa_cooling > 0.0 && options.sa_cooling <= 1.0,
             "sa_cooling must be in (0, 1]");
  ABSQ_CHECK(options.sa_reheat_factor >= 1.0,
             "sa_reheat_factor must be >= 1");
}

void SaAlgorithm::step(DeltaState& state, BestTracker& tracker,
                       SearchStats& stats, Rng& rng,
                       std::uint64_t local_steps,
                       const std::atomic<bool>* stop) {
  if (temperature_ <= 0.0) {
    // First phase: calibrate T0 against the instance's Δ scale so one
    // options struct serves every matrix.
    initial_temperature_ = options_.sa_initial_temperature > 0.0
                               ? options_.sa_initial_temperature
                               : std::max(1.0, mean_abs_delta(state));
    temperature_ = initial_temperature_;
  }
  const std::uint64_t reheat_after =
      options_.sa_reheat_after > 0
          ? options_.sa_reheat_after
          : static_cast<std::uint64_t>(state.size()) * 4;
  const double floor = std::max(options_.sa_min_temperature, 1e-9);

  for (std::uint64_t s = 0; s < local_steps; ++s) {
    if (stop_due(stop, s)) return;
    const BitIndex k = static_cast<BitIndex>(rng.below(state.size()));
    const Energy delta = state.delta(k);
    const bool accepted =
        delta <= 0 ||
        rng.uniform01() <
            std::exp(-static_cast<double>(delta) / temperature_);
    if (accepted) {
      const std::uint64_t improvements_before = stats.improvements;
      commit_flip(state, tracker, stats, k);
      since_improvement_ = stats.improvements != improvements_before
                               ? 0
                               : since_improvement_ + 1;
    } else {
      // The candidate's exact energy was evaluated (E + Δ_k) and turned
      // down — one evaluated solution, no matrix traffic.
      ++stats.evaluated_solutions;
      ++since_improvement_;
    }
    temperature_ = std::max(floor, temperature_ * options_.sa_cooling);
    if (since_improvement_ >= reheat_after) {
      // Adaptive reheat: progress dried up at this temperature band.
      temperature_ = std::min(initial_temperature_,
                              temperature_ * options_.sa_reheat_factor);
      since_improvement_ = 0;
      ++reheats_;
    }
  }
}

// --- MultiStartAlgorithm ---------------------------------------------------

MultiStartAlgorithm::MultiStartAlgorithm(const AlgorithmOptions& options)
    : options_(options) {
  ABSQ_CHECK(options.restart_min_fraction >= 0.0 &&
                 options.restart_max_fraction <= 1.0 &&
                 options.restart_min_fraction <=
                     options.restart_max_fraction,
             "restart fractions must satisfy 0 <= min <= max <= 1");
}

bool MultiStartAlgorithm::restart(DeltaState& state, BestTracker& tracker,
                                  SearchStats& stats, Rng& rng,
                                  const std::atomic<bool>* stop) {
  ++restarts_;
  // Walk back to the iteration incumbent (Δ state stays valid — the same
  // straight search that reaches GA targets), then kick a randomized
  // distance away from it (Lewis 2017's restart diversification). The walk
  // feeds this same tracker, so tracker.best() can move mid-walk;
  // straight_search reads its target once, at entry.
  if (tracker.valid()) {
    stats += straight_search(state, tracker.best(), tracker, stop);
  }
  // A stopped run has no descent left for the kick to diversify. The
  // stall count stays, so the next phase restarts first thing.
  if (stop_raised(stop)) return false;
  const BitIndex n = state.size();
  const double span =
      options_.restart_max_fraction - options_.restart_min_fraction;
  const double fraction =
      options_.restart_min_fraction + rng.uniform01() * span;
  const auto distance = std::max<BitIndex>(
      1, static_cast<BitIndex>(fraction * static_cast<double>(n)));
  // Tabu is cleared first so only the kick bits carry tenure: the descent
  // may not immediately unwind the perturbation.
  std::fill(last_flip_step_.begin(), last_flip_step_.end(), 0);
  for (BitIndex d = 0; d < distance; ++d) {
    // Sampling with replacement: a repeat shortens the realized distance,
    // which only widens the sampled distance distribution.
    const BitIndex k = static_cast<BitIndex>(rng.below(n));
    commit_flip(state, tracker, stats, k);
    last_flip_step_[k] = step_counter_;
  }
  since_improvement_ = 0;
  return true;
}

void MultiStartAlgorithm::step(DeltaState& state, BestTracker& tracker,
                               SearchStats& stats, Rng& rng,
                               std::uint64_t local_steps,
                               const std::atomic<bool>* stop) {
  const BitIndex n = state.size();
  if (last_flip_step_.size() != n) {
    last_flip_step_.assign(n, 0);
    tenure_ = options_.tabu_tenure > 0
                  ? options_.tabu_tenure
                  : std::clamp<std::uint32_t>(n / 10, 4, 64);
    stall_limit_ = options_.restart_stall_limit > 0
                       ? options_.restart_stall_limit
                       : static_cast<std::uint64_t>(n) * 2;
    step_counter_ = static_cast<std::uint64_t>(tenure_) + 1;  // nothing tabu
  }

  for (std::uint64_t s = 0; s < local_steps; ++s) {
    if (stop_due(stop, s)) return;
    ++step_counter_;
    // Forced min-Δ flip over the non-tabu bits; aspiration lifts the tabu
    // when the flip would beat the incumbent outright.
    BitIndex best_k = n;
    Energy best_delta = 0;
    for (BitIndex i = 0; i < n; ++i) {
      if (step_counter_ - last_flip_step_[i] <= tenure_ &&
          !(state.energy_after_flip(i) < tracker.energy())) {
        continue;
      }
      const Energy delta = state.delta(i);
      if (best_k == n || delta < best_delta) {
        best_k = i;
        best_delta = delta;
      }
    }
    if (best_k == n) {
      // Everything tabu (tiny instance / long tenure): random kick.
      best_k = static_cast<BitIndex>(rng.below(n));
    }
    const std::uint64_t improvements_before = stats.improvements;
    commit_flip(state, tracker, stats, best_k);
    last_flip_step_[best_k] = step_counter_;
    since_improvement_ = stats.improvements != improvements_before
                             ? 0
                             : since_improvement_ + 1;
    if (since_improvement_ >= stall_limit_ &&
        !restart(state, tracker, stats, rng, stop)) {
      return;
    }
  }
}

std::unique_ptr<BlockAlgorithm> make_block_algorithm(
    BlockAlgorithmKind kind, const AlgorithmOptions& options,
    BitIndex window, BitIndex start_offset) {
  switch (kind) {
    case BlockAlgorithmKind::kMinDelta:
      return std::make_unique<MinDeltaAlgorithm>(window, start_offset);
    case BlockAlgorithmKind::kSa:
      return std::make_unique<SaAlgorithm>(options);
    case BlockAlgorithmKind::kMultiStart:
      return std::make_unique<MultiStartAlgorithm>(options);
  }
  ABSQ_CHECK(false, "unknown block algorithm kind");
}

}  // namespace absq::portfolio
