// Acceptance policies for the Accept() hook of Algorithms 1–3.
//
// The paper leaves Accept() open ("depending on metaheuristics") and gives
// simulated annealing, Eq. (7), as the canonical instance. The proposed
// Algorithm 4 / ABS search does not use acceptance at all (it force-flips),
// so these policies only drive Algorithms 1–3. Algorithm 3 under
// annealing_acceptor is the simulated-annealing baseline
// (baselines/solvers.hpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>

#include "qubo/types.hpp"
#include "util/rng.hpp"

namespace absq {

/// Decides whether a move with energy change `delta_e` is taken at step
/// `step` of the search.
using Acceptor =
    std::function<bool(Energy delta_e, std::uint64_t step, Rng& rng)>;

/// Downhill-only (greedy) acceptance: take the move iff ΔE ≤ 0.
inline Acceptor greedy_acceptor() {
  return [](Energy delta_e, std::uint64_t, Rng&) { return delta_e <= 0; };
}

/// Accept everything — degenerates a local search into a random walk;
/// useful as a floor in comparisons.
inline Acceptor always_acceptor() {
  return [](Energy, std::uint64_t, Rng&) { return true; };
}

/// Metropolis rule at fixed temperature t (Eq. 7 with k_B = 1):
/// p(ΔE) = 1 for ΔE ≤ 0, exp(−ΔE/t) otherwise.
inline Acceptor metropolis_acceptor(double temperature) {
  return [temperature](Energy delta_e, std::uint64_t, Rng& rng) {
    if (delta_e <= 0) return true;
    if (temperature <= 0.0) return false;
    return rng.chance(std::exp(-static_cast<double>(delta_e) / temperature));
  };
}

/// Classic simulated annealing: geometric cooling from t_start to t_end
/// over `total_steps` steps, Metropolis acceptance at the current
/// temperature.
inline Acceptor annealing_acceptor(double t_start, double t_end,
                                   std::uint64_t total_steps) {
  const double ratio = (t_start > 0.0 && t_end > 0.0 && total_steps > 1)
                           ? std::pow(t_end / t_start,
                                      1.0 / static_cast<double>(total_steps - 1))
                           : 1.0;
  return [t_start, ratio](Energy delta_e, std::uint64_t step, Rng& rng) {
    if (delta_e <= 0) return true;
    const double t =
        t_start * std::pow(ratio, static_cast<double>(step));
    if (t <= 0.0) return false;
    return rng.chance(std::exp(-static_cast<double>(delta_e) / t));
  };
}

}  // namespace absq
