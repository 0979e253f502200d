// The four local-search algorithms of Section 2, as instrumented host-side
// kernels.
//
// Algorithms 1–3 are the paper's derivation ladder (naive O(n²) → single-Δ
// O(n + n²/m) → Δ-vector O(n)); Algorithm 4 is the proposed O(1)-efficiency
// forced-flip search the ABS blocks run. All four share one result type and
// count their work in SearchStats so bench_search_efficiency can regenerate
// the Lemma 1–3 / Theorem 1 comparison, and the unit tests can assert each
// algorithm finds identical best solutions when run with the same decisions.
// Algorithms 3 and 4 run DeltaState in the storage's own form and report
// the matrix reads it made: n per dense flip, degree(k) per sparse flip.
#pragma once

#include <cstdint>

#include "qubo/bit_vector.hpp"
#include "qubo/weight_matrix.hpp"
#include "search/accept.hpp"
#include "search/policy.hpp"
#include "search/stats.hpp"
#include "search/tracker.hpp"
#include "util/rng.hpp"

namespace absq {

struct SearchOutcome {
  BitVector best;      ///< best solution B found
  Energy best_energy;  ///< E(B)
  BitVector last;      ///< solution X at the end of the run
  Energy last_energy;  ///< E(X) at the end of the run
  SearchStats stats;
};

/// Shared knobs for Algorithms 1–3.
struct LocalSearchOptions {
  std::uint64_t steps = 1000;  ///< m, iterations of the search loop
  Acceptor accept;             ///< Accept() hook; default greedy
};

/// Algorithm 1 — naive local search. Recomputes E(flip_k(X)) from Eq. (1)
/// every step: O(n²) search efficiency (Lemma 1).
[[nodiscard]] SearchOutcome naive_local_search(const WeightMatrix& w,
                                               const BitVector& start,
                                               const LocalSearchOptions& opts,
                                               Rng& rng);

/// Algorithm 2 — difference computation of a single candidate, Eq. (10):
/// O(n + n²/m) search efficiency (Lemma 2).
[[nodiscard]] SearchOutcome single_delta_local_search(
    const WeightMatrix& w, const BitVector& start,
    const LocalSearchOptions& opts, Rng& rng);

/// Algorithm 3 — full Δ-vector maintenance, Eq. (16), random candidate bit,
/// Accept() decides: O(n) search efficiency (Lemma 3). The required
/// zero-vector warm-up walk to `start` is part of the algorithm and its
/// cost is included in the stats.
[[nodiscard]] SearchOutcome delta_vector_local_search(
    const WeightMatrix& w, const BitVector& start,
    const LocalSearchOptions& opts, Rng& rng);

/// Options for the proposed search (Algorithm 4).
struct ProposedSearchOptions {
  std::uint64_t steps = 1000;        ///< m, forced flips after the warm-up
  SelectionPolicy* policy = nullptr; ///< required; not owned
};

/// Algorithm 4 — the proposed O(1)-efficiency search (Theorem 1): walk from
/// the zero vector to `start`, then perform `steps` forced flips chosen by
/// the selection policy, evaluating all n neighbours per flip through the
/// fused Δ-repair/best-tracking pass.
[[nodiscard]] SearchOutcome proposed_local_search(
    const WeightMatrix& w, const BitVector& start,
    const ProposedSearchOptions& opts, Rng& rng);

}  // namespace absq
