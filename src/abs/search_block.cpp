#include "abs/search_block.hpp"

#include "search/stop.hpp"
#include "search/straight.hpp"
#include "util/check.hpp"

namespace absq {
namespace {

// Zero-vector start: E(0) = 0, Δ_i = W_ii (device Step 1), in the planned
// kernel form when one is supplied.
DeltaState make_block_state(const WeightMatrix& w,
                            const SearchBlock::Config& config) {
  if (config.kernel != nullptr) {
    ABSQ_CHECK(&config.kernel->matrix() == &w,
               "kernel plan built for a different matrix");
    return DeltaState(*config.kernel);
  }
  return DeltaState(w);
}

}  // namespace

BitIndex SearchBlock::staggered_offset() const {
  // Stagger window offsets across blocks so co-scheduled blocks with equal
  // l do not walk identical flip sequences.
  return (config_.block_id * 97u) % w_->size();
}

std::unique_ptr<SelectionPolicy> SearchBlock::make_min_delta_policy() {
  if (config_.policy_prototype != nullptr) {
    current_window_ = 0;  // unknown for custom policies
    return config_.policy_prototype->clone();
  }
  BitIndex window = config_.window;
  if (!config_.adaptive_windows.empty()) {
    window = config_.adaptive_windows[ladder_index_];
  }
  current_window_ = window;
  return std::make_unique<WindowMinDeltaPolicy>(window, staggered_offset());
}

void SearchBlock::set_algorithm(portfolio::BlockAlgorithmKind kind) {
  if (kind == portfolio::BlockAlgorithmKind::kMinDelta) {
    auto algorithm =
        std::make_unique<portfolio::MinDeltaAlgorithm>(make_min_delta_policy());
    min_delta_ = algorithm.get();
    algorithm_ = std::move(algorithm);
  } else {
    min_delta_ = nullptr;
    current_window_ = 0;
    algorithm_ = portfolio::make_block_algorithm(
        kind, config_.algorithm_options, nullptr);
  }
  kind_ = kind;
}

SearchBlock::SearchBlock(const WeightMatrix& w, const Config& config)
    : w_(&w),
      config_(config),
      state_(make_block_state(w, config)),
      rng_(Rng(config.seed).split(config.block_id)) {
  ABSQ_CHECK(config.local_steps >= 1, "local_steps must be at least 1");
  if (config_.policy_prototype == nullptr &&
      !config_.adaptive_windows.empty()) {
    ABSQ_CHECK(config_.stagnation_limit >= 1,
               "stagnation_limit must be at least 1");
    // Start each block at its own ladder rung.
    ladder_index_ = config_.block_id % config_.adaptive_windows.size();
  }
  set_algorithm(config_.algorithm);
  stats_.ops += state_.matrix_reads();  // Step 1 initialization (diagonal)
  stats_.evaluated_solutions += state_.size() + 1;
}

void SearchBlock::adapt_on_stagnation(Energy reported_energy) {
  if (config_.adaptive_windows.empty() ||
      config_.policy_prototype != nullptr || min_delta_ == nullptr) {
    return;
  }
  if (!any_report_ || reported_energy < best_reported_) {
    best_reported_ = reported_energy;
    any_report_ = true;
    stagnant_iterations_ = 0;
    return;
  }
  if (++stagnant_iterations_ < config_.stagnation_limit) return;

  // Advance the ladder: a stuck cold block warms up (and vice versa).
  stagnant_iterations_ = 0;
  ++policy_switches_;
  ladder_index_ = (ladder_index_ + 1) % config_.adaptive_windows.size();
  current_window_ = config_.adaptive_windows[ladder_index_];
  min_delta_->set_policy(std::make_unique<WindowMinDeltaPolicy>(
      current_window_, staggered_offset()));
}

sim::ReportedSolution SearchBlock::iterate(const BitVector& target,
                                           const std::atomic<bool>* stop) {
  ABSQ_CHECK(target.size() == state_.size(), "target size mismatch");

  // Apply a pending controller reallocation before this iteration starts,
  // so the whole Step 4b phase runs one member.
  const std::uint8_t requested = requested_algorithm_.exchange(
      kNoAlgorithmRequest, std::memory_order_acq_rel);
  if (requested != kNoAlgorithmRequest) {
    const auto kind = static_cast<portfolio::BlockAlgorithmKind>(requested);
    if (kind != kind_) {
      set_algorithm(kind);
      ++algorithm_switches_;
    }
  }

  // Step 3: reset the incumbent so this iteration reports something new.
  tracker_.reset();

  const std::uint32_t trace_pid =
      config_.trace_pid_base + config_.device_id + 1;

  // Step 4a: straight search C → T (flip count = Hamming distance).
  {
    obs::TraceSpan span(config_.tracer, "straight", "search", trace_pid,
                        config_.block_id);
    const std::uint64_t flips_before = stats_.flips;
    stats_ += straight_search(state_, target, tracker_, stop);
    span.set_arg("walk_flips",
                 static_cast<std::int64_t>(stats_.flips - flips_before));
  }

  // Step 4b: fixed-length local search from T, run by the active
  // portfolio member.
  {
    obs::TraceSpan span(config_.tracer, "local", "search", trace_pid,
                        config_.block_id);
    span.set_arg("flips", static_cast<std::int64_t>(config_.local_steps));
    algorithm_->step(state_, tracker_, stats_, rng_, config_.local_steps,
                     stop);
  }
  ++iterations_;

  // Step 5: report the iteration's best. A complete iteration flipped at
  // least once (local_steps >= 1), so its tracker is valid; a stopped one
  // may have flipped nothing and reports where it stands. Its truncated
  // best says nothing about stagnation.
  if (stop_raised(stop)) {
    if (!tracker_.valid()) (void)tracker_.offer(state_.bits(), state_.energy());
  } else {
    adapt_on_stagnation(tracker_.energy());
  }
  return sim::ReportedSolution{tracker_.best(), tracker_.energy(),
                               config_.device_id, config_.block_id};
}

}  // namespace absq
