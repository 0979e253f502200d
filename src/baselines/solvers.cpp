#include "baselines/solvers.hpp"

#include <utility>
#include <vector>

#include "qubo/delta_state.hpp"
#include "qubo/energy.hpp"
#include "search/accept.hpp"
#include "search/algorithms.hpp"
#include "search/tracker.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace absq {

BaselineResult simulated_annealing(const WeightMatrix& w, double t_start,
                                   double t_end, std::uint64_t steps,
                                   std::uint64_t seed) {
  ABSQ_CHECK(t_start >= t_end && t_end > 0.0, "bad temperature schedule");
  Stopwatch watch;
  Rng rng(mix64(seed));
  const BitVector start = BitVector::random(w.size(), rng);
  LocalSearchOptions options;
  options.steps = steps;
  options.accept = annealing_acceptor(t_start, t_end, steps);
  SearchOutcome outcome = delta_vector_local_search(w, start, options, rng);
  return BaselineResult{std::move(outcome.best), outcome.best_energy,
                        outcome.stats.flips, watch.seconds()};
}

BaselineResult greedy_descent(const WeightMatrix& w,
                              std::uint64_t flip_budget, std::uint64_t seed) {
  Stopwatch watch;
  Rng rng(mix64(seed));
  BestTracker tracker;
  std::uint64_t flips = 0;
  while (flips < flip_budget) {
    DeltaState state(w, BitVector::random(w.size(), rng));
    tracker.offer(state.bits(), state.energy());
    // Steepest descent to a 1-flip local minimum. Descents always run to
    // completion (bounded overshoot past the budget) so the reported best
    // is guaranteed to be 1-flip minimal.
    for (;;) {
      const BitIndex best_bit = state.argmin_window(0, state.size());
      if (state.delta(best_bit) >= 0) break;  // local minimum
      state.flip(best_bit);
      ++flips;
      tracker.offer(state.bits(), state.energy());
    }
  }
  return BaselineResult{tracker.best(), tracker.energy(), flips,
                        watch.seconds()};
}

BaselineResult random_sampling(const WeightMatrix& w, std::uint64_t samples,
                               std::uint64_t seed) {
  ABSQ_CHECK(samples >= 1, "need at least one sample");
  Stopwatch watch;
  Rng rng(mix64(seed));
  BestTracker tracker;
  for (std::uint64_t s = 0; s < samples; ++s) {
    const BitVector x = BitVector::random(w.size(), rng);
    tracker.offer(x, full_energy(w, x));
  }
  return BaselineResult{tracker.best(), tracker.energy(), 0, watch.seconds()};
}

BaselineResult tabu_search(const WeightMatrix& w, std::uint64_t steps,
                           std::uint32_t tenure, std::uint64_t seed) {
  Stopwatch watch;
  Rng rng(mix64(seed));
  DeltaState state(w, BitVector::random(w.size(), rng));
  BestTracker tracker(state.bits(), state.energy());

  // tabu_until[i] = first step at which bit i may be flipped again.
  std::vector<std::uint64_t> tabu_until(w.size(), 0);
  std::uint64_t flips = 0;
  for (std::uint64_t step = 0; step < steps; ++step) {
    const Energy incumbent = tracker.energy();
    BitIndex chosen = state.size();
    Energy chosen_delta = 0;
    for (BitIndex i = 0; i < state.size(); ++i) {
      const Energy delta = state.delta(i);
      const bool tabu = tabu_until[i] > step;
      // Aspiration: ignore tabu when the move beats the incumbent.
      if (tabu && state.energy() + delta >= incumbent) continue;
      if (chosen == state.size() || delta < chosen_delta) {
        chosen = i;
        chosen_delta = delta;
      }
    }
    if (chosen == state.size()) {
      // Everything tabu and nothing aspirates — flip a random bit.
      chosen = static_cast<BitIndex>(rng.below(state.size()));
    }
    state.flip(chosen);
    ++flips;
    tabu_until[chosen] = step + 1 + tenure;
    tracker.offer(state.bits(), state.energy());
  }
  return BaselineResult{tracker.best(), tracker.energy(), flips,
                        watch.seconds()};
}

}  // namespace absq
