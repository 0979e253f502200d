// Bit-selection policies for the forced-flip local search (Algorithm 4).
//
// A policy answers one question per step: which bit gets flipped next, given
// the current Δ vector. The paper's policy (Fig. 2) scans a window of l
// consecutive bits starting at a rotating offset and flips the bit with
// minimum Δ inside it; l acts as an inverse temperature (l = 1 ≈ random
// walk, l = n = steepest descent) and needs no random numbers in the inner
// loop. We provide that policy and the random-walk end as named types; the
// SelectionPolicy interface lets callers of Algorithm 4
// (proposed_local_search) plug in their own. In the bulk search a block
// varies its search only by running a portfolio member
// (portfolio/block_algorithm.hpp), whose min-Δ member owns a
// WindowMinDeltaPolicy.
#pragma once

#include "qubo/delta_state.hpp"
#include "qubo/types.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace absq {

/// Interface: pick the next bit to flip.
class SelectionPolicy {
 public:
  virtual ~SelectionPolicy() = default;

  /// Returns the bit to flip given the current search state. Called once
  /// per local-search step; must return an index < state.size().
  virtual BitIndex select(const DeltaState& state, Rng& rng) = 0;

  /// Restarts any internal schedule (e.g. the window offset). Called when a
  /// block begins a new local-search phase.
  virtual void reset() {}
};

/// The paper's windowed min-Δ policy (Fig. 2): deterministic offset
/// rotation, no RNG use. With l ≥ n and start offset 0 it is steepest
/// descent: the offset advances by n mod n = 0, so every step scans all n
/// bits from bit 0.
class WindowMinDeltaPolicy final : public SelectionPolicy {
 public:
  /// `window` = l, the number of bits compared per step (≥ 1). The window
  /// wraps around the end of the bit vector, keeping every bit eligible at
  /// the same frequency regardless of n mod l.
  explicit WindowMinDeltaPolicy(BitIndex window, BitIndex start_offset = 0)
      : window_(window), start_offset_(start_offset), offset_(start_offset) {
    ABSQ_CHECK(window >= 1, "window length must be at least 1");
  }

  BitIndex select(const DeltaState& state, Rng&) override {
    const BitIndex n = state.size();
    const BitIndex len = window_ < n ? window_ : n;
    // argmin_window replicates this policy's historical linear scan
    // (wrapping, strict <, first-seen minimum) in whichever kernel form
    // the state runs — O(log n) range queries under the sparse kernel.
    const BitIndex best = state.argmin_window(offset_, len);
    offset_ = (offset_ + len) % n;
    return best;
  }

  void reset() override { offset_ = start_offset_; }

 private:
  BitIndex window_;
  BitIndex start_offset_;
  BitIndex offset_;
};

/// Uniform random bit (the l = 1 end — "infinite temperature").
class RandomBitPolicy final : public SelectionPolicy {
 public:
  BitIndex select(const DeltaState& state, Rng& rng) override {
    return static_cast<BitIndex>(rng.below(state.size()));
  }
};

}  // namespace absq
