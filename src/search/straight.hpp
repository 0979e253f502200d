// Straight search — Algorithm 5.
//
// Walks an existing Δ-maintained search state from its current solution X to
// a GA-generated target X', one bit per step, always flipping the *differing*
// bit with minimum Δ. The walk terminates in exactly Hamming(X, X') flips
// (each flip removes one differing bit and can never re-create one), keeps
// the incremental Δ state valid throughout — which is the whole point: a new
// GA target is reached without ever recomputing E from scratch — and doubles
// as a local search because the best solution seen is recorded. Because
// every step moves closer to X', the walk can escape the local minimum it
// started in.
//
// The differing bits are the state's *pending* set (DeltaState::begin_walk)
// and each step reads the next one off DeltaState::argmin_pending, so one
// loop serves every kernel form. A walk of d flips costs, per flip:
//
//   * dense form — O(d) word-mask scan for the selection beside the O(n)
//     Δ repair that dominates it;
//   * sparse form — O(degree · log n): the repair also updates a tournament
//     tree over the pending bits, whose root is the next step, and the best
//     neighbour is read off the Δ tree's root.
#pragma once

#include <atomic>

#include "qubo/bit_vector.hpp"
#include "qubo/delta_state.hpp"
#include "search/stats.hpp"
#include "search/stop.hpp"
#include "search/tracker.hpp"

namespace absq {

/// Runs the straight search in place. `state` ends exactly at `target` as
/// it was on entry. The tracker is offered every visited solution and
/// (going beyond the letter of Algorithm 5, at no extra asymptotic cost)
/// every evaluated neighbour via the fused Δ-repair pass. `target` may
/// alias `tracker.best()`: it is read once, before the first flip.
///
/// A raised `stop` flag (search/stop.hpp) abandons the walk within 64
/// flips: `state` is then a valid Δ state short of the target, and the
/// bits it left pending are reset by the next walk's begin_walk().
SearchStats straight_search(DeltaState& state, const BitVector& target,
                            BestTracker& tracker,
                            const std::atomic<bool>* stop = nullptr);

}  // namespace absq
