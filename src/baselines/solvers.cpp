#include "baselines/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "qubo/delta_state.hpp"
#include "qubo/energy.hpp"
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

  DeltaState state(w, BitVector::random(w.size(), rng));
  BestTracker tracker(state.bits(), state.energy());

  const double ratio =
      steps > 1 ? std::pow(t_end / t_start, 1.0 / static_cast<double>(steps - 1))
                : 1.0;
  double temperature = t_start;
  std::uint64_t flips = 0;
  for (std::uint64_t step = 0; step < steps; ++step, temperature *= ratio) {
    const auto k = static_cast<BitIndex>(rng.below(state.size()));
    const Energy delta = state.delta(k);
    const bool take =
        delta <= 0 ||
        rng.chance(std::exp(-static_cast<double>(delta) / temperature));
    if (take) {
      state.flip(k);
      ++flips;
      tracker.offer(state.bits(), state.energy());
    }
  }
  return BaselineResult{tracker.best(), tracker.energy(), flips,
                        watch.seconds()};
}

BaselineResult greedy_descent(const WeightMatrix& w,
                              std::uint64_t flip_budget, std::uint64_t seed) {
  Stopwatch watch;
  Rng rng(mix64(seed));
  BestTracker tracker;
  std::uint64_t flips = 0;
  // One scalar dense plan serves every restart, so a CSR-stored matrix is
  // copied to dense rows once rather than once per descent.
  KernelOptions scalar;
  scalar.form = KernelOptions::Form::kDense;
  const QuboKernel kernel(w, scalar);

  while (flips < flip_budget) {
    DeltaState state(kernel, BitVector::random(w.size(), rng));
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

BaselineResult simulated_bifurcation(const WeightMatrix& w,
                                     std::uint64_t steps, double dt,
                                     std::uint64_t seed) {
  ABSQ_CHECK(steps >= 1, "need at least one step");
  ABSQ_CHECK(dt > 0.0, "time step must be positive");
  Stopwatch watch;
  Rng rng(mix64(seed));
  const BitIndex n = w.size();

  // Equivalent Ising couplings: J_ij = −2·W_ij (i ≠ j),
  // h_i = −2·W_ii − 2·Σ_{j≠i} W_ij (see qubo/ising.hpp). The local field
  // Σ_j J_ij x_j + h_i is evaluated directly from dense W rows.
  const DenseRows rows(w);
  std::vector<double> h(n);
  double j_square_sum = 0.0;
  for (BitIndex i = 0; i < n; ++i) {
    const auto row = rows.row(i);
    Energy row_sum = 0;
    for (BitIndex j = 0; j < n; ++j) {
      if (j == i) continue;
      row_sum += row[j];
      const double j_ij = -2.0 * static_cast<double>(row[j]);
      j_square_sum += j_ij * j_ij;
    }
    h[i] = -2.0 * (static_cast<double>(row[i]) + static_cast<double>(row_sum));
  }
  // Goto et al.'s coupling scale: c0 = 0.5 / (σ_J · √n).
  const double sigma_j = std::sqrt(
      j_square_sum / (static_cast<double>(n) * std::max<BitIndex>(n - 1, 1)));
  const double c0 =
      sigma_j > 0.0 ? 0.5 / (sigma_j * std::sqrt(static_cast<double>(n)))
                    : 0.5;
  constexpr double kA0 = 1.0;

  std::vector<double> x(n);
  std::vector<double> y(n);
  for (BitIndex i = 0; i < n; ++i) {
    x[i] = (rng.uniform01() - 0.5) * 0.2;  // small random start
    y[i] = (rng.uniform01() - 0.5) * 0.2;
  }

  BestTracker tracker;
  const auto sample = [&] {
    BitVector bits(n);
    for (BitIndex i = 0; i < n; ++i) {
      if (x[i] > 0.0) bits.set(i, true);
    }
    tracker.offer(bits, full_energy(w, bits));
  };

  const std::uint64_t sample_interval = 8;
  for (std::uint64_t step = 0; step < steps; ++step) {
    const double a =
        kA0 * static_cast<double>(step) / static_cast<double>(steps);
    // Symplectic Euler: momenta first (local field from W rows), then
    // positions, then the inelastic walls of bSB.
    for (BitIndex i = 0; i < n; ++i) {
      const auto row = rows.row(i);
      double field = h[i];
      for (BitIndex j = 0; j < n; ++j) {
        if (j != i) field += -2.0 * static_cast<double>(row[j]) * x[j];
      }
      y[i] += (-(kA0 - a) * x[i] + c0 * field) * dt;
    }
    for (BitIndex i = 0; i < n; ++i) {
      x[i] += kA0 * y[i] * dt;
      if (x[i] > 1.0) {
        x[i] = 1.0;
        y[i] = 0.0;
      } else if (x[i] < -1.0) {
        x[i] = -1.0;
        y[i] = 0.0;
      }
    }
    if (step % sample_interval == 0 || step + 1 == steps) sample();
  }
  sample();
  return BaselineResult{tracker.best(), tracker.energy(), 0, watch.seconds()};
}

}  // namespace absq
