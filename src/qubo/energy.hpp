// Reference (non-incremental) energy computations — Eq. (1) and Eq. (4).
//
// These are the O(n²) and O(n) formulas the paper starts from. The solver
// never calls them in its hot path (that is the whole point of the paper);
// they exist as the ground truth the incremental DeltaState is verified
// against, and as the kernels of the baseline Algorithms 1 and 2. On a
// CSR-stored matrix each walks stored entries only, so the O(n²) bounds
// below become O(nnz).
#pragma once

#include <vector>

#include "qubo/bit_vector.hpp"
#include "qubo/types.hpp"
#include "qubo/weight_matrix.hpp"

namespace absq {

/// E(X) = Σ_{i,j} W_ij x_i x_j — Eq. (1), O(n²) over set bits' rows.
[[nodiscard]] Energy full_energy(const WeightMatrix& w, const BitVector& x);

/// Δ_k(X) = E(flip_k(X)) − E(X) = φ(x_k)(2 Σ_{i≠k} W_ki x_i + W_kk) —
/// Eq. (4), O(n).
[[nodiscard]] Energy delta_k(const WeightMatrix& w, const BitVector& x,
                             BitIndex k);

/// Δ_k(X) for every k — Eq. (4) applied n times, O(n²). Used to seed
/// DeltaState from an arbitrary starting vector and in tests.
[[nodiscard]] std::vector<Energy> all_deltas(const WeightMatrix& w,
                                             const BitVector& x);

}  // namespace absq
