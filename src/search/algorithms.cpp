#include "search/algorithms.hpp"

#include <utility>

#include "qubo/delta_state.hpp"
#include "util/check.hpp"

namespace absq {
namespace {

// Algorithms 1 and 2 read dense rows and count the paper's dense matrix
// reads, on either storage (DenseRows copies CSR storage out once).

/// Instrumented Eq. (1): counts one matrix read per (set, set) index pair.
Energy instrumented_full_energy(const DenseRows& w, const BitVector& x,
                                SearchStats& stats) {
  Energy total = 0;
  const auto set_bits = x.ones();
  for (const BitIndex i : set_bits) {
    const auto row = w.row(i);
    for (const BitIndex j : set_bits) total += row[j];
  }
  stats.ops += std::uint64_t{set_bits.size()} * set_bits.size();
  ++stats.evaluated_solutions;
  return total;
}

/// Instrumented Eq. (10): Δ_k via one full row read (n matrix reads).
Energy instrumented_delta_k(const DenseRows& w, const BitVector& x,
                            BitIndex k, SearchStats& stats) {
  const auto row = w.row(k);
  Energy sum = 0;
  for (BitIndex j = 0; j < x.size(); ++j) {
    if (j != k && x.get(j) != 0) sum += row[j];
  }
  stats.ops += x.size();
  return phi(x.get(k)) * (2 * sum + row[k]);
}

Acceptor effective_acceptor(const LocalSearchOptions& opts) {
  return opts.accept ? opts.accept : greedy_acceptor();
}

SearchOutcome make_outcome(BitVector best, Energy best_energy, BitVector last,
                           Energy last_energy, SearchStats stats) {
  return SearchOutcome{std::move(best), best_energy, std::move(last),
                       last_energy, stats};
}

}  // namespace

SearchOutcome naive_local_search(const WeightMatrix& w, const BitVector& start,
                                 const LocalSearchOptions& opts, Rng& rng) {
  ABSQ_CHECK(w.size() == start.size(), "matrix/start size mismatch");
  SearchStats stats;
  const Acceptor accept = effective_acceptor(opts);

  const DenseRows rows(w);
  BitVector x = start;
  Energy e_x = instrumented_full_energy(rows, x, stats);
  BitVector best = x;
  Energy e_best = e_x;

  for (std::uint64_t step = 0; step < opts.steps; ++step) {
    const auto k = static_cast<BitIndex>(rng.below(x.size()));
    // Generate the neighbour and evaluate it from scratch — Alg. 1 line 6.
    BitVector candidate = x.with_flip(k);
    const Energy e_candidate =
        instrumented_full_energy(rows, candidate, stats);
    if (accept(e_candidate - e_x, step, rng)) {
      x = std::move(candidate);
      e_x = e_candidate;
      ++stats.accepted;
      ++stats.flips;
      if (e_x < e_best) {
        best = x;
        e_best = e_x;
        ++stats.improvements;
      }
    }
  }
  return make_outcome(std::move(best), e_best, std::move(x), e_x, stats);
}

SearchOutcome single_delta_local_search(const WeightMatrix& w,
                                        const BitVector& start,
                                        const LocalSearchOptions& opts,
                                        Rng& rng) {
  ABSQ_CHECK(w.size() == start.size(), "matrix/start size mismatch");
  SearchStats stats;
  const Acceptor accept = effective_acceptor(opts);

  const DenseRows rows(w);
  BitVector x = start;
  Energy e_x = instrumented_full_energy(rows, x, stats);
  BitVector best = x;
  Energy e_best = e_x;

  for (std::uint64_t step = 0; step < opts.steps; ++step) {
    const auto k = static_cast<BitIndex>(rng.below(x.size()));
    // E(flip_k(X)) by the O(n) difference formula — Alg. 2 line 6.
    const Energy delta = instrumented_delta_k(rows, x, k, stats);
    ++stats.evaluated_solutions;
    if (accept(delta, step, rng)) {
      x.flip(k);
      e_x += delta;
      ++stats.accepted;
      ++stats.flips;
      if (e_x < e_best) {
        best = x;
        e_best = e_x;
        ++stats.improvements;
      }
    }
  }
  return make_outcome(std::move(best), e_best, std::move(x), e_x, stats);
}

SearchOutcome delta_vector_local_search(const WeightMatrix& w,
                                        const BitVector& start,
                                        const LocalSearchOptions& opts,
                                        Rng& rng) {
  ABSQ_CHECK(w.size() == start.size(), "matrix/start size mismatch");
  SearchStats stats;
  const Acceptor accept = effective_acceptor(opts);

  // Zero-vector initialization: E(0) = 0, Δ_i = W_ii (n diagonal reads).
  DeltaState state(w);
  ++stats.evaluated_solutions;
  BitVector best = state.bits();
  Energy e_best = state.energy();

  // Warm-up: flip every set bit of `start`. Starting from the zero vector,
  // the "select k with x'_k = 1" rule admits any order.
  for (const BitIndex k : start.ones()) {
    state.flip(k);
    ++stats.evaluated_solutions;
    ++stats.flips;
    if (state.energy() < e_best) {
      best = state.bits();
      e_best = state.energy();
      ++stats.improvements;
    }
  }

  // Main loop: random candidate, Accept() decides, Δ repaired on accept.
  for (std::uint64_t step = 0; step < opts.steps; ++step) {
    const auto k = static_cast<BitIndex>(rng.below(state.size()));
    const Energy delta = state.delta(k);  // O(1): already maintained
    ++stats.evaluated_solutions;
    if (accept(delta, step, rng)) {
      state.flip(k);
      ++stats.accepted;
      ++stats.flips;
      if (state.energy() < e_best) {
        best = state.bits();
        e_best = state.energy();
        ++stats.improvements;
      }
    }
  }
  // The reads the kernel made: n per dense flip, degree(k) per sparse one.
  stats.ops = state.matrix_reads();
  return make_outcome(std::move(best), e_best, state.bits(), state.energy(),
                      stats);
}

SearchOutcome proposed_local_search(const WeightMatrix& w,
                                    const BitVector& start,
                                    const ProposedSearchOptions& opts,
                                    Rng& rng) {
  ABSQ_CHECK(w.size() == start.size(), "matrix/start size mismatch");
  ABSQ_CHECK(opts.policy != nullptr, "a selection policy is required");
  SearchStats stats;

  // Zero-vector initialization knows E(0) and all n neighbour energies.
  DeltaState state(w);
  stats.evaluated_solutions += state.size() + 1;
  BestTracker tracker(state.bits(), state.energy());

  const auto track = [&](const DeltaState::FlipOutcome& outcome) {
    ++stats.flips;
    ++stats.accepted;
    stats.evaluated_solutions += state.size();
    if (tracker.offer(state.bits(), outcome.energy)) ++stats.improvements;
    if (tracker.offer_neighbor(state.bits(), outcome.best_neighbor_bit,
                               outcome.best_neighbor_energy)) {
      ++stats.improvements;
    }
  };

  // Warm-up walk to `start`, evaluating all neighbours along the way — the
  // first half of Algorithm 4.
  for (const BitIndex k : start.ones()) track(state.flip_tracked(k));

  // Forced-flip loop driven by the selection policy — the second half.
  opts.policy->reset();
  for (std::uint64_t step = 0; step < opts.steps; ++step) {
    const BitIndex k = opts.policy->select(state, rng);
    track(state.flip_tracked(k));
  }
  stats.ops = state.matrix_reads();
  return make_outcome(tracker.best(), tracker.energy(), state.bits(),
                      state.energy(), stats);
}

}  // namespace absq
