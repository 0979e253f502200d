#include "qubo/delta_state.hpp"

#include <bit>
#include <limits>

#include "qubo/energy.hpp"
#include "util/check.hpp"

namespace absq {

namespace {

// Repair step d + adj in the Δ storage type. In the 32-bit width the dense
// loops also touch i == k with the i ≠ k rule (branchless, exactly like the
// 64-bit reference); that one transient value can exceed int32 range, so
// the addition runs on uint32 (defined wraparound, identical bits for every
// in-range value) and the k slot is overwritten with −Δ_k right after.
template <class D>
inline D add_repair(D d, int adj) {
  if constexpr (sizeof(D) == sizeof(std::int32_t)) {
    return static_cast<D>(static_cast<std::uint32_t>(d) +
                          static_cast<std::uint32_t>(adj));
  } else {
    return d + adj;
  }
}

constexpr Energy kNoDelta = std::numeric_limits<Energy>::max();

}  // namespace

// ---------------------------------------------------------------------------
// MinTree — leftmost-min tournament tree (sparse form only).

void DeltaState::MinTree::build(const DeltaState& s,
                                const std::uint64_t* only) {
  n = s.size();
  m = std::bit_ceil(n > 1 ? n : 1);
  // The padding leaves [m + n, 2m) hold +∞ for good, so they are written
  // only when the storage is first sized: a rebuild (one per straight
  // walk) rewrites the n leaves and recombines, allocating nothing.
  if (nodes.size() != static_cast<std::size_t>(m) * 2) {
    nodes.assign(static_cast<std::size_t>(m) * 2, Entry{kNoDelta, n});
  }
  for (BitIndex i = 0; i < n; ++i) {
    const bool kept =
        only == nullptr || ((only[i >> 6] >> (i & 63)) & 1) != 0;
    nodes[m + i] = Entry{kept ? s.delta(i) : kNoDelta, i};
  }
  for (BitIndex p = m; p-- > 1;) {
    const Entry& a = nodes[2 * p];
    const Entry& b = nodes[2 * p + 1];
    nodes[p] = b.val < a.val ? b : a;
  }
}

void DeltaState::MinTree::update(BitIndex i, Energy v) {
  std::size_t p = static_cast<std::size_t>(m) + i;
  nodes[p].val = v;
  for (p >>= 1; p >= 1; p >>= 1) {
    const Entry& a = nodes[2 * p];
    const Entry& b = nodes[2 * p + 1];
    const Entry next = b.val < a.val ? b : a;
    // An ancestor depends on this subtree only through nodes[p]; once the
    // recombined node is unchanged the climb can stop. Typical updates
    // (leaf is not its subtree's minimum) terminate after one level, which
    // is what makes the O(deg · log n) sparse repair O(deg) in practice.
    if (next.val == nodes[p].val && next.idx == nodes[p].idx) return;
    nodes[p] = next;
  }
}

DeltaState::MinTree::Entry DeltaState::MinTree::query(BitIndex lo,
                                                      BitIndex hi) const {
  // Ordered two-accumulator walk on the power-of-two tree: `left` combines
  // visited segments left-to-right, `right` right-to-left, so the tie-break
  // (left operand wins on equal values) yields the leftmost minimum — the
  // same answer as a left-to-right strict-< scan of [lo, hi).
  Entry left{kNoDelta, n};
  Entry right{kNoDelta, n};
  std::size_t l = static_cast<std::size_t>(m) + lo;
  std::size_t r = static_cast<std::size_t>(m) + hi;
  for (; l < r; l >>= 1, r >>= 1) {
    if (l & 1) {
      const Entry& e = nodes[l++];
      if (e.val < left.val) left = e;
    }
    if (r & 1) {
      const Entry& e = nodes[--r];
      if (right.val < e.val) {
        // keep right
      } else {
        right = e;
      }
    }
  }
  return right.val < left.val ? right : left;
}

// ---------------------------------------------------------------------------
// Construction.

DeltaState::DeltaState(const WeightMatrix& w) : w_(&w), x_(w.size()) {
  init_zero_state();
}

DeltaState::DeltaState(const WeightMatrix& w, const BitVector& x)
    : w_(&w), x_(x) {
  init_from_bits(x);
}

DeltaState::DeltaState(const QuboKernel& kernel)
    : w_(&kernel.dense()),
      sparse_(kernel.sparse()),
      x_(kernel.dense().size()),
      form_(kernel.form()),
      width_(kernel.width()) {
  init_zero_state();
}

DeltaState::DeltaState(const QuboKernel& kernel, const BitVector& x)
    : w_(&kernel.dense()),
      sparse_(kernel.sparse()),
      x_(x),
      form_(kernel.form()),
      width_(kernel.width()) {
  init_from_bits(x);
}

void DeltaState::init_zero_state() {
  // X = 0: E(0) = 0, Δ_i(0) = W_ii.
  const BitIndex n = w_->size();
  signs_.assign(n, +1);
  if (width_ == DeltaWidth::kNarrow32) {
    deltas32_.resize(n);
    for (BitIndex i = 0; i < n; ++i) {
      deltas32_[i] = static_cast<std::int32_t>(w_->at(i, i));
    }
  } else {
    deltas_.resize(n);
    for (BitIndex i = 0; i < n; ++i) deltas_[i] = w_->at(i, i);
  }
  energy_ = 0;
  matrix_reads_ = n;
  pending_.assign(x_.words().size(), 0);
  if (form_ == KernelForm::kSparse) tree_.build(*this, nullptr);
}

void DeltaState::init_from_bits(const BitVector& x) {
  ABSQ_CHECK(w_->size() == x.size(), "matrix/vector size mismatch");
  const BitIndex n = w_->size();
  signs_.resize(n);
  for (BitIndex i = 0; i < n; ++i) {
    signs_[i] = static_cast<std::int8_t>(phi(x.get(i)));
  }
  const std::vector<Energy> d = all_deltas(*w_, x);
  if (width_ == DeltaWidth::kNarrow32) {
    // Safe: the kernel plan only selects the narrow width when the
    // worst-case bound max_k B_k fits, and every Δ is within that bound.
    deltas32_.resize(n);
    for (BitIndex i = 0; i < n; ++i) {
      deltas32_[i] = static_cast<std::int32_t>(d[i]);
    }
  } else {
    deltas_ = d;
  }
  energy_ = full_energy(*w_, x);
  matrix_reads_ = static_cast<std::uint64_t>(n) * n;
  pending_.assign(x_.words().size(), 0);
  if (form_ == KernelForm::kSparse) tree_.build(*this, nullptr);
}

std::span<const Energy> DeltaState::deltas() const {
  ABSQ_CHECK(width_ == DeltaWidth::kWide64,
             "deltas() span is unavailable in the 32-bit Δ mode; use "
             "delta()/argmin_window()");
  return deltas_;
}

// ---------------------------------------------------------------------------
// Dense forms.

template <class D>
Energy DeltaState::flip_dense(D* deltas, BitIndex k) {
  const auto row = w_->row(k);
  // 2·φ(x_k) before the flip; Eq. (16) applies the pre-flip signs.
  const int two_phi_k = 2 * signs_[k];
  const Energy old_delta_k = static_cast<Energy>(deltas[k]);
  const BitIndex n = size();
  const std::int8_t* signs = signs_.data();
  if (form_ == KernelForm::kDenseSimd) {
#pragma omp simd
    for (BitIndex i = 0; i < n; ++i) {
      deltas[i] =
          add_repair(deltas[i], two_phi_k * signs[i] * static_cast<int>(row[i]));
    }
  } else {
    for (BitIndex i = 0; i < n; ++i) {
      deltas[i] =
          add_repair(deltas[i], two_phi_k * signs[i] * static_cast<int>(row[i]));
    }
  }
  // The loop touched i == k with the i ≠ k rule; the k = i case of Eq. (6)
  // is Δ_k ← −Δ_k (pre-flip value), so overwrite it.
  energy_ += old_delta_k;
  deltas[k] = static_cast<D>(-old_delta_k);
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += n;
  return energy_;
}

template <class D>
DeltaState::FlipOutcome DeltaState::flip_tracked_dense_scalar(D* deltas,
                                                              BitIndex k) {
  const auto row = w_->row(k);
  const int two_phi_k = 2 * signs_[k];
  const Energy old_delta_k = static_cast<Energy>(deltas[k]);
  const Energy new_energy = energy_ + old_delta_k;

  // Single fused pass: repair Δ_i and track min_{i≠k} Δ_i(new X). Strict <
  // keeps the leftmost minimum — the tie-break every form must match.
  D best_delta = 0;
  BitIndex best_bit = k;
  bool have_best = false;
  const BitIndex n = size();
  for (BitIndex i = 0; i < n; ++i) {
    const D d =
        add_repair(deltas[i], two_phi_k * signs_[i] * static_cast<int>(row[i]));
    deltas[i] = d;
    if (i != k && (!have_best || d < best_delta)) {
      best_delta = d;
      best_bit = i;
      have_best = true;
    }
  }
  deltas[k] = static_cast<D>(-old_delta_k);
  energy_ = new_energy;
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += n;

  // n == 1 has no neighbour other than k itself; report flipping back.
  if (!have_best) {
    return FlipOutcome{new_energy, new_energy + static_cast<Energy>(deltas[k]),
                       k};
  }
  return FlipOutcome{new_energy, new_energy + static_cast<Energy>(best_delta),
                     best_bit};
}

template <class D>
DeltaState::FlipOutcome DeltaState::flip_tracked_dense_simd(D* deltas,
                                                            BitIndex k) {
  const auto row = w_->row(k);
  const int two_phi_k = 2 * signs_[k];
  const Energy old_delta_k = static_cast<Energy>(deltas[k]);
  const Energy new_energy = energy_ + old_delta_k;
  const BitIndex n = size();
  const std::int8_t* signs = signs_.data();

  // Pass 1: branchless repair (the argmin is hoisted out so this loop
  // vectorizes — the fused scalar loop's per-element compare defeats GCC's
  // vectorizer on the int64 path).
#pragma omp simd
  for (BitIndex i = 0; i < n; ++i) {
    deltas[i] =
        add_repair(deltas[i], two_phi_k * signs[i] * static_cast<int>(row[i]));
  }
  deltas[k] = static_cast<D>(-old_delta_k);
  energy_ = new_energy;
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += n;

  if (n == 1) {
    return FlipOutcome{new_energy, new_energy + static_cast<Energy>(deltas[k]),
                       k};
  }

  // Pass 2: min value over i ≠ k (vectorizable reductions), then the
  // leftmost index attaining it — integer min is order-independent, so the
  // result is bit-identical to the fused scalar pass.
  D best = std::numeric_limits<D>::max();
#pragma omp simd reduction(min : best)
  for (BitIndex i = 0; i < k; ++i) {
    best = deltas[i] < best ? deltas[i] : best;
  }
#pragma omp simd reduction(min : best)
  for (BitIndex i = k + 1; i < n; ++i) {
    best = deltas[i] < best ? deltas[i] : best;
  }
  BitIndex best_bit = k;
  for (BitIndex i = 0; i < k; ++i) {
    if (deltas[i] == best) {
      best_bit = i;
      break;
    }
  }
  if (best_bit == k) {
    for (BitIndex i = k + 1; i < n; ++i) {
      if (deltas[i] == best) {
        best_bit = i;
        break;
      }
    }
  }
  return FlipOutcome{new_energy, new_energy + static_cast<Energy>(best),
                     best_bit};
}

// ---------------------------------------------------------------------------
// Sparse form.

template <class D>
void DeltaState::repair_sparse(D* deltas, BitIndex k) {
  const SparseWeightMatrix::Row row = sparse_->row(k);
  const int two_phi_k = 2 * signs_[k];
  const std::size_t deg = row.size();
  const std::uint64_t* pending = pending_.data();
  for (std::size_t p = 0; p < deg; ++p) {
    const BitIndex i = row.cols[p];
    if (i == k) continue;  // Δ_k gets the negation rule, not Eq. (16)
    const D d = add_repair(
        deltas[i], two_phi_k * signs_[i] * static_cast<int>(row.weights[p]));
    deltas[i] = d;
    tree_.update(i, static_cast<Energy>(d));
    // Outside a walk no bit is pending, so walk_tree_ is never touched.
    if (((pending[i >> 6] >> (i & 63)) & 1) != 0) {
      walk_tree_.update(i, static_cast<Energy>(d));
    }
  }
}

Energy DeltaState::flip_sparse(BitIndex k) {
  const Energy old_delta_k = delta(k);
  if (width_ == DeltaWidth::kNarrow32) {
    repair_sparse(deltas32_.data(), k);
    deltas32_[k] = static_cast<std::int32_t>(-old_delta_k);
  } else {
    repair_sparse(deltas_.data(), k);
    deltas_[k] = -old_delta_k;
  }
  tree_.update(k, -old_delta_k);
  energy_ += old_delta_k;
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += sparse_->degree(k);
  return energy_;
}

DeltaState::FlipOutcome DeltaState::flip_tracked_sparse(BitIndex k) {
  const Energy new_energy = flip_sparse(k);
  // The repair already refreshed the tournament tree. Its root is the
  // leftmost minimum over every i; unless that is k, it is also the
  // leftmost minimum over i ≠ k — the fused argmin of the dense forms —
  // read in O(1).
  MinTree::Entry best = tree_.root();
  if (best.idx == k) {
    // k holds the minimum: two leftmost-min range queries around it.
    const BitIndex n = size();
    const MinTree::Entry a = tree_.query(0, k);
    const MinTree::Entry b = tree_.query(k + 1, n);
    best = b.val < a.val ? b : a;
    if (best.idx >= n) {  // n == 1: only neighbour is flipping k back
      return FlipOutcome{new_energy, new_energy + delta(k), k};
    }
  }
  return FlipOutcome{new_energy, new_energy + best.val, best.idx};
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
  if (form_ == KernelForm::kSparse) walk_tree_.build(*this, pending_.data());
  return pending_count_;
}

void DeltaState::settle(BitIndex k) {
  std::uint64_t& word = pending_[k >> 6];
  const std::uint64_t bit = 1ULL << (k & 63);
  if ((word & bit) == 0) return;
  word &= ~bit;
  --pending_count_;
  if (form_ == KernelForm::kSparse) walk_tree_.update(k, kNoDelta);
}

template <class D>
BitIndex DeltaState::argmin_pending_scan(const D* deltas) const {
  // Ascending strict-< scan of the pending bits, 64 candidates per word via
  // countr_zero: the first-seen minimum wins ties.
  Energy best_delta = kNoDelta;
  BitIndex best = size();
  for (std::size_t wi = 0; wi < pending_.size(); ++wi) {
    for (std::uint64_t word = pending_[wi]; word != 0; word &= word - 1) {
      const auto b = static_cast<BitIndex>(
          wi * 64 + static_cast<std::size_t>(std::countr_zero(word)));
      const auto d = static_cast<Energy>(deltas[b]);
      if (d < best_delta) {
        best_delta = d;
        best = b;
      }
    }
  }
  return best;
}

BitIndex DeltaState::argmin_pending() const {
  if (pending_count_ == 0) return size();
  if (form_ == KernelForm::kSparse) return walk_tree_.root().idx;
  return width_ == DeltaWidth::kWide64 ? argmin_pending_scan(deltas_.data())
                                       : argmin_pending_scan(deltas32_.data());
}

// ---------------------------------------------------------------------------
// Public dispatch.

Energy DeltaState::flip(BitIndex k) {
  ABSQ_DCHECK(k < size(), "flip index out of range");
  settle(k);
  if (form_ == KernelForm::kSparse) return flip_sparse(k);
  return width_ == DeltaWidth::kWide64
             ? flip_dense(deltas_.data(), k)
             : flip_dense(deltas32_.data(), k);
}

DeltaState::FlipOutcome DeltaState::flip_tracked(BitIndex k) {
  ABSQ_DCHECK(k < size(), "flip index out of range");
  settle(k);
  switch (form_) {
    case KernelForm::kSparse:
      return flip_tracked_sparse(k);
    case KernelForm::kDenseSimd:
      return width_ == DeltaWidth::kWide64
                 ? flip_tracked_dense_simd(deltas_.data(), k)
                 : flip_tracked_dense_simd(deltas32_.data(), k);
    case KernelForm::kDenseScalar:
      break;
  }
  return width_ == DeltaWidth::kWide64
             ? flip_tracked_dense_scalar(deltas_.data(), k)
             : flip_tracked_dense_scalar(deltas32_.data(), k);
}

template <class D>
BitIndex DeltaState::argmin_span(const D* deltas, BitIndex offset,
                                 BitIndex len) const {
  // Wrapping strict-< scan: first segment [offset, offset+first), then
  // [0, rest). First-seen minimum wins, exactly like the Fig. 2 policy.
  const BitIndex n = size();
  const BitIndex first = len < n - offset ? len : n - offset;
  BitIndex best = offset;
  D best_delta = deltas[offset];
  for (BitIndex i = offset + 1; i < offset + first; ++i) {
    if (deltas[i] < best_delta) {
      best_delta = deltas[i];
      best = i;
    }
  }
  for (BitIndex i = 0; i < len - first; ++i) {
    if (deltas[i] < best_delta) {
      best_delta = deltas[i];
      best = i;
    }
  }
  return best;
}

BitIndex DeltaState::argmin_window(BitIndex offset, BitIndex len) const {
  const BitIndex n = size();
  ABSQ_DCHECK(len >= 1 && len <= n, "window length outside [1, n]");
  offset %= n;
  if (form_ == KernelForm::kSparse) {
    const BitIndex first = len < n - offset ? len : n - offset;
    const MinTree::Entry a = tree_.query(offset, offset + first);
    if (len == first) return a.idx;
    const MinTree::Entry b = tree_.query(0, len - first);
    return b.val < a.val ? b.idx : a.idx;
  }
  return width_ == DeltaWidth::kWide64
             ? argmin_span(deltas_.data(), offset, len)
             : argmin_span(deltas32_.data(), offset, len);
}

}  // namespace absq
