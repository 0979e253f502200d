#include "abs/search_block.hpp"

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

void SearchBlock::set_algorithm(portfolio::BlockAlgorithmKind kind) {
  algorithm_ = portfolio::make_block_algorithm(
      kind, config_.algorithm_options, config_.window, staggered_offset());
}

SearchBlock::SearchBlock(const WeightMatrix& w, const Config& config)
    : w_(&w),
      config_(config),
      state_(make_block_state(w, config)),
      rng_(Rng(config.seed).split(config.block_id)) {
  ABSQ_CHECK(config.local_steps >= 1, "local_steps must be at least 1");
  set_algorithm(config_.algorithm);
  stats_.ops += state_.matrix_reads();  // Step 1 initialization (diagonal)
  stats_.evaluated_solutions += state_.size() + 1;
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
    if (kind != algorithm_->kind()) {
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
  // may have flipped nothing and reports where it stands.
  if (!tracker_.valid()) (void)tracker_.offer(state_.bits(), state_.energy());
  return sim::ReportedSolution{tracker_.best(), tracker_.energy(),
                               config_.device_id, config_.block_id};
}

}  // namespace absq
