#include "qubo/delta_state.hpp"

#include <bit>
#include <limits>

#include "qubo/detail/dense_sweep.hpp"
#include "qubo/energy.hpp"
#include "util/check.hpp"

namespace absq {

namespace {

using detail::add_repair;

// +∞ of the minima: a chunk with no pending bit, and the start of every
// strict-< scan. No Δ reaches it (qubo/types.hpp proves |Δ| < INT32_MAX).
constexpr std::int32_t kNoDelta = std::numeric_limits<std::int32_t>::max();

// A chunk of Δ is one pending_ word: chunk c holds bits [64c, 64c + 64).
constexpr unsigned kChunkShift = 6;
constexpr BitIndex kChunkBits = BitIndex{1} << kChunkShift;

/// Offset of the leftmost minimum of v[0, count), count ≥ 1 — what an
/// ascending strict-< scan returns. Two passes, like the portable dense
/// sweep: a value-min reduction GCC vectorizes, then the first offset
/// holding that value.
inline BitIndex leftmost_min(const std::int32_t* v, std::size_t count) {
  std::int32_t best = kNoDelta;
#pragma omp simd reduction(min : best)
  for (std::size_t i = 0; i < count; ++i) best = v[i] < best ? v[i] : best;
  BitIndex at = 0;
  while (v[at] != best) ++at;
  return at;
}

/// Offers entry i, now d, to a leftmost minimum (min, at) — a chunk's, a
/// chunk's walk minimum or the state's: it takes the minimum when below
/// it, or equal and not right of it. Returns true when i held the minimum
/// and rose past it, so that only a rescan can restore it.
inline bool offer(std::int32_t& min, BitIndex& at, BitIndex i,
                  std::int32_t d) {
  if (d < min || (d == min && i <= at)) {
    min = d;
    at = i;
    return false;
  }
  return i == at;
}

inline void mark(std::vector<std::uint64_t>& dirty, std::size_t c) {
  dirty[c >> 6] |= std::uint64_t{1} << (c & 63);
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction.

DeltaState::DeltaState(const WeightMatrix& w)
    : w_(&w), x_(w.size()), sweep_(&detail::active_dense_sweep()) {
  use_storage_form();
  init_zero_state();
}

DeltaState::DeltaState(const WeightMatrix& w, const BitVector& x)
    : w_(&w), x_(x), sweep_(&detail::active_dense_sweep()) {
  use_storage_form();
  init_from_bits(x);
}

DeltaState::DeltaState(const QuboKernel& kernel)
    : w_(&kernel.matrix()),
      sparse_(kernel.sparse()),
      dense_(kernel.dense_rows()),
      x_(kernel.matrix().size()),
      form_(kernel.form()),
      sweep_(&kernel.dense_sweep()) {
  init_zero_state();
}

DeltaState::DeltaState(const QuboKernel& kernel, const BitVector& x)
    : w_(&kernel.matrix()),
      sparse_(kernel.sparse()),
      dense_(kernel.dense_rows()),
      x_(x),
      form_(kernel.form()),
      sweep_(&kernel.dense_sweep()) {
  init_from_bits(x);
}

void DeltaState::use_storage_form() {
  // What a kAuto plan runs: the sparse form on the matrix's own CSR, or
  // dense-SIMD on its own dense rows — never a copy of either.
  sparse_ = w_->csr();
  if (sparse_ != nullptr) {
    form_ = KernelForm::kSparse;
    return;
  }
  dense_ = DenseRows(*w_);
  form_ = KernelForm::kDenseSimd;
}

void DeltaState::init_zero_state() {
  // X = 0: E(0) = 0, Δ_i(0) = W_ii.
  const BitIndex n = w_->size();
  signs_.assign(n, +1);
  deltas_.resize(n);
  for (BitIndex i = 0; i < n; ++i) deltas_[i] = w_->at(i, i);
  energy_ = 0;
  matrix_reads_ = n;
  pending_.assign(x_.words().size(), 0);
  if (form_ == KernelForm::kSparse) init_chunk_minima();
}

void DeltaState::init_from_bits(const BitVector& x) {
  ABSQ_CHECK(w_->size() == x.size(), "matrix/vector size mismatch");
  const BitIndex n = w_->size();
  signs_.resize(n);
  for (BitIndex i = 0; i < n; ++i) {
    signs_[i] = static_cast<std::int8_t>(phi(x.get(i)));
  }
  const std::vector<Energy> d = all_deltas(*w_, x);
  deltas_.resize(n);
  for (BitIndex i = 0; i < n; ++i) {
    deltas_[i] = static_cast<std::int32_t>(d[i]);
  }
  energy_ = full_energy(*w_, x);
  matrix_reads_ = static_cast<std::uint64_t>(n) * n;
  pending_.assign(x_.words().size(), 0);
  if (form_ == KernelForm::kSparse) init_chunk_minima();
}

// ---------------------------------------------------------------------------
// Dense-SIMD form: one sweep of the state's build (qubo/detail/
// dense_sweep.hpp), then the k = i case of Eq. (6).

Energy DeltaState::flip_dense(BitIndex k) {
  const std::int32_t old_delta_k = deltas_[k];
  // Eq. (16) applies the pre-flip signs.
  sweep_->repair(deltas_.data(), signs_.data(), dense_.row(k).data(), size(),
                 signs_[k]);
  return finish_dense_flip(k, old_delta_k);
}

DeltaState::FlipOutcome DeltaState::flip_tracked_dense_simd(BitIndex k) {
  const std::int32_t old_delta_k = deltas_[k];
  const detail::SweepMin best =
      sweep_->repair_argmin(deltas_.data(), signs_.data(),
                            dense_.row(k).data(), size(), signs_[k], k);
  const Energy new_energy = finish_dense_flip(k, old_delta_k);
  // n == 1 has no neighbour other than k itself; report flipping back.
  if (size() == 1) return FlipOutcome{new_energy, new_energy + deltas_[k], k};
  return FlipOutcome{new_energy, new_energy + best.delta, best.bit};
}

Energy DeltaState::finish_dense_flip(BitIndex k, std::int32_t old_delta_k) {
  // The sweep touched i == k with the i ≠ k rule; the k = i case of
  // Eq. (6) is Δ_k ← −Δ_k (pre-flip value), so overwrite it.
  energy_ += old_delta_k;
  deltas_[k] = -old_delta_k;
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += size();
  return energy_;
}

// ---------------------------------------------------------------------------
// Sparse form: the CSR repair, and the chunk minima that answer the three
// selections — the paper's two-level reduction (Table 2), where each thread
// keeps the minimum of its bits and the block reduces the thread minima.

void DeltaState::init_chunk_minima() {
  const std::size_t chunks = pending_.size();
  chunk_min_.resize(chunks);
  chunk_at_.resize(chunks);
  walk_min_.assign(chunks, kNoDelta);
  walk_at_.assign(chunks, size());
  chunk_dirty_.assign((chunks + 63) / 64, 0);
  walk_dirty_.assign((chunks + 63) / 64, 0);
  for (std::size_t c = 0; c < chunks; ++c) rescan_chunk(c);
  rescan_best();
}

[[gnu::noinline]] void DeltaState::init_walk_minima() {
  for (std::size_t c = 0; c < pending_.size(); ++c) rescan_walk_chunk(c);
}

bool DeltaState::offer_delta(BitIndex i, std::int32_t d) {
  const std::size_t c = i >> kChunkShift;
  if (offer(chunk_min_[c], chunk_at_[c], i, d)) {
    // i held its chunk's minimum and rose: the chunk is rescanned after the
    // row, and if i also held the state's minimum, so are the chunk minima.
    mark(chunk_dirty_, c);
    return i != best_at_;
  }
  // A new chunk minimum goes on to the state's.
  if (chunk_at_[c] == i) (void)offer(best_min_, best_at_, i, d);
  return true;
}

void DeltaState::rescan_chunk(std::size_t c) {
  const BitIndex base = static_cast<BitIndex>(c) << kChunkShift;
  const BitIndex count =
      size() - base < kChunkBits ? size() - base : kChunkBits;
  const BitIndex at = base + leftmost_min(deltas_.data() + base, count);
  chunk_min_[c] = deltas_[at];
  chunk_at_[c] = at;
}

void DeltaState::rescan_walk_chunk(std::size_t c) {
  // The pending word is the lane mask: an ascending strict-< scan of the
  // chunk's pending bits.
  std::int32_t best = kNoDelta;
  BitIndex at = size();
  const BitIndex base = static_cast<BitIndex>(c) << kChunkShift;
  for (std::uint64_t word = pending_[c]; word != 0; word &= word - 1) {
    const BitIndex b = base + static_cast<BitIndex>(std::countr_zero(word));
    if (deltas_[b] < best) {
      best = deltas_[b];
      at = b;
    }
  }
  walk_min_[c] = best;
  walk_at_[c] = at;
}

void DeltaState::rescan_dirty_chunks(bool keep_best) {
  for (std::size_t wi = 0; wi < chunk_dirty_.size(); ++wi) {
    for (std::uint64_t word = chunk_dirty_[wi]; word != 0; word &= word - 1) {
      const std::size_t c =
          wi * 64 + static_cast<std::size_t>(std::countr_zero(word));
      rescan_chunk(c);
      if (keep_best) {
        (void)offer(best_min_, best_at_, chunk_at_[c], chunk_min_[c]);
      }
    }
    chunk_dirty_[wi] = 0;
    for (std::uint64_t word = walk_dirty_[wi]; word != 0; word &= word - 1) {
      rescan_walk_chunk(wi * 64 +
                        static_cast<std::size_t>(std::countr_zero(word)));
    }
    walk_dirty_[wi] = 0;
  }
  if (!keep_best) rescan_best();
}

void DeltaState::rescan_best() {
  best_at_ = chunk_at_[leftmost_min(chunk_min_.data(), chunk_min_.size())];
  best_min_ = deltas_[best_at_];
}

bool DeltaState::repair_sparse(BitIndex k) {
  const SparseWeightMatrix::Row row = sparse_->row(k);
  const int two_phi_k = 2 * signs_[k];
  const std::size_t deg = row.size();
  const std::uint64_t* pending = pending_.data();
  bool keep_best = true;
  for (std::size_t p = 0; p < deg; ++p) {
    const BitIndex i = row.cols[p];
    if (i == k) continue;  // Δ_k gets the negation rule, not Eq. (16)
    const std::int32_t d = add_repair(
        deltas_[i], two_phi_k * signs_[i] * static_cast<int>(row.weights[p]));
    deltas_[i] = d;
    keep_best &= offer_delta(i, d);
    // Outside a walk no bit is pending, so the walk minima stay untouched.
    const std::size_t c = i >> kChunkShift;
    if (((pending[c] >> (i & 63)) & 1) != 0 &&
        offer(walk_min_[c], walk_at_[c], i, d)) {
      mark(walk_dirty_, c);
    }
  }
  return keep_best;
}

Energy DeltaState::flip_sparse(BitIndex k) {
  // The dispatcher settled k; if k was its chunk's next walk bit, the
  // chunk's walk minimum goes with it.
  const std::size_t c = k >> kChunkShift;
  if (walk_at_[c] == k) mark(walk_dirty_, c);
  const std::int32_t old_delta_k = deltas_[k];
  bool keep_best = repair_sparse(k);
  deltas_[k] = -old_delta_k;
  keep_best &= offer_delta(k, -old_delta_k);
  rescan_dirty_chunks(keep_best);
  energy_ += old_delta_k;
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += sparse_->degree(k);
  return energy_;
}

DeltaState::FlipOutcome DeltaState::flip_tracked_sparse(BitIndex k) {
  const Energy new_energy = flip_sparse(k);
  // The leftmost minimum over every i; unless that is k, it is also the
  // leftmost minimum over i ≠ k — the argmin of the dense form.
  BitIndex best = best_at_;
  if (best == k) {
    // k holds the minimum: the best neighbour lies left or right of it.
    const BitIndex n = size();
    if (n == 1) {  // the only neighbour is flipping k back
      return FlipOutcome{new_energy, new_energy + delta(k), k};
    }
    const BitIndex left = k > 0 ? leftmost_in(0, k) : n;
    const BitIndex right = k + 1 < n ? leftmost_in(k + 1, n) : n;
    best = left == n || (right != n && deltas_[right] < deltas_[left]) ? right
                                                                       : left;
  }
  return FlipOutcome{new_energy, new_energy + deltas_[best], best};
}

BitIndex DeltaState::leftmost_in(BitIndex lo, BitIndex hi) const {
  // A part of one chunk: the chunk's own argmin when it lies inside (the
  // leftmost of the whole chunk is the leftmost of any part holding it),
  // else a scan of the part.
  const auto part = [this](std::size_t c, BitIndex from, BitIndex to) {
    const BitIndex at = chunk_at_[c];
    if (at >= from && at < to) return at;
    return from + leftmost_min(deltas_.data() + from, to - from);
  };
  const std::size_t first = lo >> kChunkShift;
  const std::size_t last = (hi - 1) >> kChunkShift;
  if (first == last) return part(first, lo, hi);
  BitIndex best =
      part(first, lo, static_cast<BitIndex>(first + 1) << kChunkShift);
  if (last > first + 1) {
    // The whole chunks between: the leftmost of their minima.
    const std::size_t c =
        first + 1 + leftmost_min(chunk_min_.data() + first + 1,
                                 last - first - 1);
    if (chunk_min_[c] < deltas_[best]) best = chunk_at_[c];
  }
  const BitIndex tail =
      part(last, static_cast<BitIndex>(last) << kChunkShift, hi);
  return deltas_[tail] < deltas_[best] ? tail : best;
}

[[gnu::noinline]] BitIndex DeltaState::argmin_window_sparse(
    BitIndex offset, BitIndex first, BitIndex len) const {
  // The wrapping window in traversal order: [offset, offset + first), then
  // [0, len − first); the later segment wins only on a strict improvement.
  const BitIndex best = leftmost_in(offset, offset + first);
  if (len == first) return best;
  const BitIndex wrapped = leftmost_in(0, len - first);
  return deltas_[wrapped] < deltas_[best] ? wrapped : best;
}

[[gnu::noinline]] BitIndex DeltaState::argmin_pending_sparse() const {
  return walk_at_[leftmost_min(walk_min_.data(), walk_min_.size())];
}

// ---------------------------------------------------------------------------
// Straight walk (Algorithm 5).

BitIndex DeltaState::begin_walk(const BitVector& target) {
  ABSQ_CHECK(target.size() == size(), "state/target size mismatch");
  const std::span<const std::uint64_t> xw = x_.words();
  const std::span<const std::uint64_t> tw = target.words();
  pending_count_ = 0;
  for (std::size_t wi = 0; wi < pending_.size(); ++wi) {
    pending_[wi] = xw[wi] ^ tw[wi];
    pending_count_ += static_cast<BitIndex>(std::popcount(pending_[wi]));
  }
  if (form_ == KernelForm::kSparse) init_walk_minima();
  return pending_count_;
}

void DeltaState::settle(BitIndex k) {
  std::uint64_t& word = pending_[k >> 6];
  const std::uint64_t bit = 1ULL << (k & 63);
  if ((word & bit) == 0) return;
  word &= ~bit;
  --pending_count_;
}

BitIndex DeltaState::argmin_pending() const {
  if (pending_count_ == 0) return size();
  if (form_ == KernelForm::kSparse) return argmin_pending_sparse();
  // Ascending strict-< scan of the pending bits, 64 candidates per word via
  // countr_zero: the first-seen minimum wins ties. A pending bit always
  // beats the +∞ start, since no Δ reaches kNoDelta.
  std::int32_t best_delta = kNoDelta;
  BitIndex best = size();
  for (std::size_t wi = 0; wi < pending_.size(); ++wi) {
    for (std::uint64_t word = pending_[wi]; word != 0; word &= word - 1) {
      const auto b = static_cast<BitIndex>(
          wi * 64 + static_cast<std::size_t>(std::countr_zero(word)));
      if (deltas_[b] < best_delta) {
        best_delta = deltas_[b];
        best = b;
      }
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Public dispatch.

Energy DeltaState::flip(BitIndex k) {
  ABSQ_DCHECK(k < size(), "flip index out of range");
  settle(k);
  if (form_ == KernelForm::kSparse) return flip_sparse(k);
  return flip_dense(k);
}

DeltaState::FlipOutcome DeltaState::flip_tracked(BitIndex k) {
  ABSQ_DCHECK(k < size(), "flip index out of range");
  settle(k);
  if (form_ == KernelForm::kSparse) return flip_tracked_sparse(k);
  return flip_tracked_dense_simd(k);
}

BitIndex DeltaState::argmin_window(BitIndex offset, BitIndex len) const {
  const BitIndex n = size();
  ABSQ_DCHECK(len >= 1 && len <= n, "window length outside [1, n]");
  offset %= n;
  const BitIndex first = len < n - offset ? len : n - offset;
  if (form_ == KernelForm::kSparse) {
    return argmin_window_sparse(offset, first, len);
  }
  // Wrapping strict-< scan: first segment [offset, offset+first), then
  // [0, rest). First-seen minimum wins, exactly like the Fig. 2 policy.
  BitIndex best = offset;
  std::int32_t best_delta = deltas_[offset];
  for (BitIndex i = offset + 1; i < offset + first; ++i) {
    if (deltas_[i] < best_delta) {
      best_delta = deltas_[i];
      best = i;
    }
  }
  for (BitIndex i = 0; i < len - first; ++i) {
    if (deltas_[i] < best_delta) {
      best_delta = deltas_[i];
      best = i;
    }
  }
  return best;
}

}  // namespace absq
