// DeltaState — the incremental-energy kernel of the paper.
//
// Holds the per-search state a CUDA block keeps in its register file:
// the current solution X, its energy E(X), and the full difference vector
// Δ_k(X) = E(flip_k(X)) − E(X) for every k. After any single-bit flip the
// vector is repaired using Eq. (16)
//
//     Δ_i(flip_k(X)) = Δ_i(X) + 2·W_ik·φ(x_i)·φ(x_k)     (i ≠ k)
//     Δ_k(flip_k(X)) = −Δ_k(X)
//
// which means every flip *re-evaluates all n neighbour energies* — the O(1)
// amortized search efficiency of Theorem 1.
//
// The repair runs in one of two forms, planned per instance by QuboKernel
// (see qubo/kernel.hpp and docs/kernels.md):
//
//   * dense-simd   — O(n): one sweep repairs Δ and tracks the argmin,
//                    compiled per ISA and picked once per process
//                    (qubo/detail/dense_sweep.hpp);
//   * sparse       — O(degree(k)) CSR repair, with the leftmost minimum of
//                    each 64-entry chunk of Δ (and, during a straight
//                    walk, of each chunk's pending bits) kept in O(1) per
//                    repaired entry; a chunk whose minimum rose is
//                    rescanned once after the row. The selections read the
//                    chunk minima — the paper's two-level reduction.
//
// Every form stores Δ as int32: the exact bound |Δ_k(X)| ≤ (2n − 1)·2^15
// stays below INT32_MAX for every accepted instance (a static_assert in
// qubo/types.hpp), so no value can overflow and no plan-time check runs.
// Energies stay int64. Both forms are pinned to the int64 Eq. (4) oracle —
// same energies, same Δ, same FlipOutcome including tie-breaks — at every
// step of the lockstep property tests, so which one runs is purely a
// throughput decision.
//
// The class deliberately exposes the Δ vector read-only: every search
// algorithm in this library (Algorithms 3–5, the ABS SearchBlock, the
// baselines) makes its decisions by reading delta()/argmin_window()/
// argmin_pending() and commits them exclusively through flip(), so the
// Eq. (16) invariant can never be bypassed. The invariant itself is
// property-tested against the Eq. (4) reference for thousands of random
// flip sequences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "qubo/bit_vector.hpp"
#include "qubo/kernel.hpp"
#include "qubo/types.hpp"
#include "qubo/weight_matrix.hpp"

namespace absq {

namespace detail {
struct DenseSweep;
}  // namespace detail

class DeltaState {
 public:
  /// Result of one tracked flip; see flip_tracked().
  struct FlipOutcome {
    Energy energy;                ///< E(X) after the flip.
    Energy best_neighbor_energy;  ///< min over i≠k of E(new X) + Δ_i(new X).
    BitIndex best_neighbor_bit;   ///< the argmin above.
  };

  /// State for the all-zero vector: E(0) = 0 and Δ_i(0) = W_ii — the O(n)
  /// initialization the paper performs in device Step 1. Runs the
  /// storage's own form, as a kAuto plan does: sparse on the matrix's CSR,
  /// dense-SIMD (the dispatched sweep) on its dense rows. Nothing is
  /// copied.
  explicit DeltaState(const WeightMatrix& w);

  /// State for an arbitrary starting vector, in the storage's own form.
  /// Costs O(n²) (Eq. 4 per bit) on dense storage, O(nnz) on CSR; used by
  /// baselines and tests, never by the ABS hot path.
  DeltaState(const WeightMatrix& w, const BitVector& x);

  /// Same two constructors, but running the form and dense sweep the
  /// kernel plan selected — a forced form included. The kernel (and the
  /// matrix it references) must outlive the state; one plan is shared
  /// read-only by many states.
  explicit DeltaState(const QuboKernel& kernel);
  DeltaState(const QuboKernel& kernel, const BitVector& x);

  // The weight matrix / kernel plan is referenced, not copied: one matrix
  // is shared by every search block. It must outlive the state.
  DeltaState(const DeltaState&) = default;
  DeltaState& operator=(const DeltaState&) = delete;

  [[nodiscard]] BitIndex size() const { return x_.size(); }
  [[nodiscard]] const BitVector& bits() const { return x_; }
  [[nodiscard]] Energy energy() const { return energy_; }

  /// Δ_i(X).
  [[nodiscard]] Energy delta(BitIndex i) const { return deltas_[i]; }

  /// First-in-traversal-order argmin of Δ over the wrapping window of `len`
  /// bits starting at `offset % n` (strict improvement only, so the
  /// earliest minimum wins — the exact tie-break of the Fig. 2 window
  /// policy's linear scan). O(len) dense; sparse, O(len/64) chunk minima
  /// plus a scan of at most two partial edge chunks. `len` ≤ n.
  [[nodiscard]] BitIndex argmin_window(BitIndex offset, BitIndex len) const;

  /// Starts a straight walk (Algorithm 5) toward `target`: every bit where
  /// bits() and `target` differ becomes *pending*, and every later flip of
  /// a pending bit settles it. Returns the number of pending bits, the
  /// Hamming distance. `target` is read only here, so it may change during
  /// the walk — e.g. alias the incumbent of a tracker the walk feeds.
  /// O(n/64) dense; sparse also scans the pending bits of each chunk that
  /// holds one, for its walk minimum.
  BitIndex begin_walk(const BitVector& target);

  /// The next walk step: the leftmost minimum-Δ pending bit — exactly what
  /// an ascending strict-< scan of the pending bits returns — or size()
  /// when no bit is pending. O(n/64 + pending) dense (a word-mask scan);
  /// O(n/64) sparse (the leftmost of the chunks' walk minima, which every
  /// flip keeps current).
  [[nodiscard]] BitIndex argmin_pending() const;

  /// E(flip_i(X)) without changing state — Eq. (5).
  [[nodiscard]] Energy energy_after_flip(BitIndex i) const {
    return energy_ + delta(i);
  }

  /// Flips bit k and repairs Δ. Returns the new energy.
  Energy flip(BitIndex k);

  /// Flips bit k, repairs Δ, and — fused into the same pass, as in
  /// Algorithm 4 — finds the best neighbour of the *new* solution. The
  /// caller compares `best_neighbor_energy` against its incumbent and, on
  /// improvement, materializes the neighbour as bits().with_flip(bit).
  ///
  /// The reported bit is the *leftmost* (lowest-index) argmin over i ≠ k,
  /// in every kernel form — pinned by tests so the dense-SIMD and sparse
  /// kernels are interchangeable mid-run. For n == 1 the new solution has
  /// no neighbour other than flipping k back, so that flip-back (bit k,
  /// the pre-flip energy) is reported.
  FlipOutcome flip_tracked(BitIndex k);

  /// Number of flips applied since construction. One flip evaluates n
  /// neighbour solutions, so `flips() * size()` is the evaluated-solution
  /// count that defines the paper's search rate.
  [[nodiscard]] std::uint64_t flips() const { return flips_; }

  /// Total evaluated solutions: n per flip, plus the n from initialization.
  /// Identical in every kernel form — the sparse kernel still *evaluates*
  /// all n neighbours per flip (Theorem 1); it just pays fewer matrix
  /// reads to do so.
  [[nodiscard]] std::uint64_t evaluated_solutions() const {
    return (flips_ + 1) * size();
  }

  /// Matrix entries read since construction: n per dense flip, degree(k)
  /// per sparse flip (plus the initialization cost). The honest "ops"
  /// measure for search efficiency — evaluated-solutions per matrix read
  /// exceeds 1 under the sparse kernel.
  [[nodiscard]] std::uint64_t matrix_reads() const { return matrix_reads_; }

  [[nodiscard]] KernelForm form() const { return form_; }

 private:
  void use_storage_form();
  void init_zero_state();
  void init_from_bits(const BitVector& x);

  Energy flip_dense(BitIndex k);
  FlipOutcome flip_tracked_dense_simd(BitIndex k);
  Energy finish_dense_flip(BitIndex k, std::int32_t old_delta_k);
  bool repair_sparse(BitIndex k);
  Energy flip_sparse(BitIndex k);
  FlipOutcome flip_tracked_sparse(BitIndex k);
  void settle(BitIndex k);

  // The sparse form's chunk minima (see the members below).
  void init_chunk_minima();
  void init_walk_minima();
  bool offer_delta(BitIndex i, std::int32_t d);
  void rescan_chunk(std::size_t c);
  void rescan_walk_chunk(std::size_t c);
  void rescan_dirty_chunks(bool keep_best);
  void rescan_best();
  [[nodiscard]] BitIndex leftmost_in(BitIndex lo, BitIndex hi) const;
  [[nodiscard]] BitIndex argmin_window_sparse(BitIndex offset, BitIndex first,
                                              BitIndex len) const;
  [[nodiscard]] BitIndex argmin_pending_sparse() const;

  const WeightMatrix* w_;
  const SparseWeightMatrix* sparse_ = nullptr;  // non-null iff form_ sparse
  DenseRows dense_;                             // empty iff form_ sparse
  BitVector x_;
  std::vector<std::int32_t> deltas_;
  // φ(x_i) ∈ {+1, −1} cached per bit so the repair loop reads a byte
  // instead of extracting a bit.
  std::vector<std::int8_t> signs_;
  // Straight-walk state: bit i of pending_ is set while the walk still has
  // to flip i.
  std::vector<std::uint64_t> pending_;
  BitIndex pending_count_ = 0;
  Energy energy_ = 0;
  std::uint64_t flips_ = 0;
  std::uint64_t matrix_reads_ = 0;
  KernelForm form_ = KernelForm::kDenseSimd;
  const detail::DenseSweep* sweep_;  // the dense form's build

  // Sparse form only; a dense state leaves these empty. Chunk c is the 64
  // entries of Δ that pending_[c] covers, [64c, 64c + 64) cut at n. Per
  // chunk: the leftmost minimum of Δ (chunk_min_, chunk_at_), and the
  // leftmost minimum of its pending bits (walk_min_, walk_at_; +∞ and n
  // when none is pending). A repair that lowers an entry below its chunk's
  // minimum takes it in O(1); one that raises the chunk's argmin sets the
  // chunk's bit in chunk_dirty_ or walk_dirty_, and the chunk is rescanned
  // once after the row. The values sit in their own int32 arrays, so the
  // scans over them vectorize.
  std::vector<std::int32_t> chunk_min_;
  std::vector<BitIndex> chunk_at_;
  std::vector<std::int32_t> walk_min_;
  std::vector<BitIndex> walk_at_;
  std::vector<std::uint64_t> chunk_dirty_;
  std::vector<std::uint64_t> walk_dirty_;
  // The leftmost minimum of all of Δ, which a flip's best neighbour reads:
  // each new chunk minimum is offered to it in O(1), and the chunk minima
  // are scanned again only when the entry holding it rises.
  std::int32_t best_min_ = 0;
  BitIndex best_at_ = 0;
};

}  // namespace absq
