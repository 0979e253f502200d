// Reference single-thread solvers used as baselines in the ablation benches
// and as independent oracles in the tests.
//
// All run on top of the same DeltaState kernel as the ABS blocks, in the
// storage's own form (sparse on CSR, dense-SIMD on dense rows), so
// comparisons isolate the *search strategy* (GA + straight search + window
// policy vs SA / greedy restarts / tabu / random sampling) rather than
// implementation quality. Simulated annealing is Algorithm 3 under a
// cooling schedule.
#pragma once

#include <cstdint>

#include "qubo/bit_vector.hpp"
#include "qubo/types.hpp"
#include "qubo/weight_matrix.hpp"

namespace absq {

struct BaselineResult {
  BitVector best;
  Energy best_energy = 0;
  std::uint64_t flips = 0;  ///< committed flips (n evaluations each)
  double seconds = 0.0;
};

/// Classic simulated annealing: Algorithm 3 (delta_vector_local_search in
/// search/algorithms.hpp) from a random start vector, with Eq. (7)
/// acceptance under geometric cooling t_start → t_end over `steps`
/// proposals (annealing_acceptor in search/accept.hpp). `flips` counts
/// Algorithm 3's warm-up walk from the zero vector to the start vector as
/// well as the accepted proposals.
[[nodiscard]] BaselineResult simulated_annealing(const WeightMatrix& w,
                                                 double t_start, double t_end,
                                                 std::uint64_t steps,
                                                 std::uint64_t seed);

/// Steepest-descent to a 1-flip local minimum, restarted from fresh random
/// vectors until the flip budget is spent.
[[nodiscard]] BaselineResult greedy_descent(const WeightMatrix& w,
                                            std::uint64_t flip_budget,
                                            std::uint64_t seed);

/// Uniform random sampling of `samples` vectors (the floor any search must
/// beat).
[[nodiscard]] BaselineResult random_sampling(const WeightMatrix& w,
                                             std::uint64_t samples,
                                             std::uint64_t seed);

/// 1-flip tabu search: each step flips the bit minimizing the next energy
/// among non-tabu bits (aspiration: a tabu flip is allowed when it would
/// beat the incumbent), recently flipped bits stay tabu for `tenure` steps.
[[nodiscard]] BaselineResult tabu_search(const WeightMatrix& w,
                                         std::uint64_t steps,
                                         std::uint32_t tenure,
                                         std::uint64_t seed);

}  // namespace absq
