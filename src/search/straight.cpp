#include "search/straight.hpp"

#include "util/check.hpp"

namespace absq {

SearchStats straight_search(DeltaState& state, const BitVector& target,
                            BestTracker& tracker,
                            const std::atomic<bool>* stop) {
  SearchStats stats;
  // `target` is read once, here: the tracker fed below may alias it.
  const BitIndex distance = state.begin_walk(target);
  for (BitIndex step = 0; step < distance; ++step) {
    // Abandoned walk: Δ is exact at every step, and the next begin_walk
    // resets the bits still pending.
    if (stop_due(stop, step)) return stats;
    // Greedy rule of Algorithm 5: minimum Δ_k among the bits still
    // differing from the target, leftmost on ties.
    const BitIndex k = state.argmin_pending();
    const std::uint64_t reads_before = state.matrix_reads();
    const auto outcome = state.flip_tracked(k);
    ++stats.flips;
    ++stats.accepted;
    // Honest per-flip cost: n matrix reads dense, degree(k) sparse.
    stats.ops += state.matrix_reads() - reads_before;
    stats.evaluated_solutions += state.size();
    if (tracker.offer(state.bits(), outcome.energy)) ++stats.improvements;
    if (tracker.offer_neighbor(state.bits(), outcome.best_neighbor_bit,
                               outcome.best_neighbor_energy)) {
      ++stats.improvements;
    }
  }
  // Completed walks only: an abandoned one returned above.
  ABSQ_DCHECK(state.argmin_pending() == state.size(),
              "straight search must end at target");
  return stats;
}

}  // namespace absq
