#include "qubo/delta_state.hpp"

#include <bit>
#include <limits>

#include "qubo/energy.hpp"
#include "util/check.hpp"

namespace absq {

namespace {

// Repair step d + adj of Eq. (16). The branchless dense loops also apply
// the i ≠ k rule at i == k before they overwrite that slot with −Δ_k; that
// one transient value can leave the int32 range (|Δ_k| + 2·|W_kk| may
// exceed 2^31 − 1), so the addition runs on uint32: defined wraparound,
// identical bits for every in-range value.
inline std::int32_t add_repair(std::int32_t d, int adj) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(d) +
                                   static_cast<std::uint32_t>(adj));
}

// +∞ of the tournament trees: settled and padding leaves. No Δ reaches it
// (qubo/types.hpp proves |Δ| < INT32_MAX).
constexpr std::int32_t kNoDelta = std::numeric_limits<std::int32_t>::max();

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
    nodes[m + i] = Entry{kept ? s.deltas_[i] : kNoDelta, i};
  }
  for (BitIndex p = m; p-- > 1;) {
    const Entry& a = nodes[2 * p];
    const Entry& b = nodes[2 * p + 1];
    nodes[p] = b.val < a.val ? b : a;
  }
}

void DeltaState::MinTree::update(BitIndex i, std::int32_t v) {
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
      form_(kernel.form()) {
  init_zero_state();
}

DeltaState::DeltaState(const QuboKernel& kernel, const BitVector& x)
    : w_(&kernel.dense()),
      sparse_(kernel.sparse()),
      x_(x),
      form_(kernel.form()) {
  init_from_bits(x);
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
  deltas_.resize(n);
  for (BitIndex i = 0; i < n; ++i) {
    deltas_[i] = static_cast<std::int32_t>(d[i]);
  }
  energy_ = full_energy(*w_, x);
  matrix_reads_ = static_cast<std::uint64_t>(n) * n;
  pending_.assign(x_.words().size(), 0);
  if (form_ == KernelForm::kSparse) tree_.build(*this, nullptr);
}

// ---------------------------------------------------------------------------
// Dense forms.

Energy DeltaState::flip_dense(BitIndex k) {
  const auto row = w_->row(k);
  // 2·φ(x_k) before the flip; Eq. (16) applies the pre-flip signs.
  const int two_phi_k = 2 * signs_[k];
  std::int32_t* deltas = deltas_.data();
  const std::int32_t old_delta_k = deltas[k];
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
  deltas[k] = -old_delta_k;
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += n;
  return energy_;
}

DeltaState::FlipOutcome DeltaState::flip_tracked_dense_scalar(BitIndex k) {
  const auto row = w_->row(k);
  const int two_phi_k = 2 * signs_[k];
  std::int32_t* deltas = deltas_.data();
  const std::int32_t old_delta_k = deltas[k];
  const Energy new_energy = energy_ + old_delta_k;

  // Single fused pass: repair Δ_i and track min_{i≠k} Δ_i(new X). Strict <
  // keeps the leftmost minimum — the tie-break every form must match.
  std::int32_t best_delta = 0;
  BitIndex best_bit = k;
  bool have_best = false;
  const BitIndex n = size();
  for (BitIndex i = 0; i < n; ++i) {
    const std::int32_t d =
        add_repair(deltas[i], two_phi_k * signs_[i] * static_cast<int>(row[i]));
    deltas[i] = d;
    if (i != k && (!have_best || d < best_delta)) {
      best_delta = d;
      best_bit = i;
      have_best = true;
    }
  }
  deltas[k] = -old_delta_k;
  energy_ = new_energy;
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += n;

  // n == 1 has no neighbour other than k itself; report flipping back.
  if (!have_best) return FlipOutcome{new_energy, new_energy + deltas[k], k};
  return FlipOutcome{new_energy, new_energy + best_delta, best_bit};
}

DeltaState::FlipOutcome DeltaState::flip_tracked_dense_simd(BitIndex k) {
  const auto row = w_->row(k);
  const int two_phi_k = 2 * signs_[k];
  std::int32_t* deltas = deltas_.data();
  const std::int32_t old_delta_k = deltas[k];
  const Energy new_energy = energy_ + old_delta_k;
  const BitIndex n = size();
  const std::int8_t* signs = signs_.data();

  // Pass 1: branchless repair (the argmin is hoisted out so this loop
  // vectorizes without the fused scalar loop's per-element compare).
#pragma omp simd
  for (BitIndex i = 0; i < n; ++i) {
    deltas[i] =
        add_repair(deltas[i], two_phi_k * signs[i] * static_cast<int>(row[i]));
  }
  deltas[k] = -old_delta_k;
  energy_ = new_energy;
  signs_[k] = static_cast<std::int8_t>(-signs_[k]);
  x_.flip(k);
  ++flips_;
  matrix_reads_ += n;

  if (n == 1) return FlipOutcome{new_energy, new_energy + deltas[k], k};

  // Pass 2: min value over i ≠ k (vectorizable reductions), then the
  // leftmost index attaining it — integer min is order-independent, so the
  // result is bit-identical to the fused scalar pass.
  std::int32_t best = std::numeric_limits<std::int32_t>::max();
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
  return FlipOutcome{new_energy, new_energy + best, best_bit};
}

// ---------------------------------------------------------------------------
// Sparse form.

void DeltaState::repair_sparse(BitIndex k) {
  const SparseWeightMatrix::Row row = sparse_->row(k);
  const int two_phi_k = 2 * signs_[k];
  const std::size_t deg = row.size();
  const std::uint64_t* pending = pending_.data();
  for (std::size_t p = 0; p < deg; ++p) {
    const BitIndex i = row.cols[p];
    if (i == k) continue;  // Δ_k gets the negation rule, not Eq. (16)
    const std::int32_t d = add_repair(
        deltas_[i], two_phi_k * signs_[i] * static_cast<int>(row.weights[p]));
    deltas_[i] = d;
    tree_.update(i, d);
    // Outside a walk no bit is pending, so walk_tree_ is never touched.
    if (((pending[i >> 6] >> (i & 63)) & 1) != 0) walk_tree_.update(i, d);
  }
}

Energy DeltaState::flip_sparse(BitIndex k) {
  const std::int32_t old_delta_k = deltas_[k];
  repair_sparse(k);
  deltas_[k] = -old_delta_k;
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

BitIndex DeltaState::argmin_pending() const {
  if (pending_count_ == 0) return size();
  if (form_ == KernelForm::kSparse) return walk_tree_.root().idx;
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
  switch (form_) {
    case KernelForm::kSparse:
      return flip_tracked_sparse(k);
    case KernelForm::kDenseSimd:
      return flip_tracked_dense_simd(k);
    case KernelForm::kDenseScalar:
      break;
  }
  return flip_tracked_dense_scalar(k);
}

BitIndex DeltaState::argmin_window(BitIndex offset, BitIndex len) const {
  const BitIndex n = size();
  ABSQ_DCHECK(len >= 1 && len <= n, "window length outside [1, n]");
  offset %= n;
  const BitIndex first = len < n - offset ? len : n - offset;
  if (form_ == KernelForm::kSparse) {
    const MinTree::Entry a = tree_.query(offset, offset + first);
    if (len == first) return a.idx;
    const MinTree::Entry b = tree_.query(0, len - first);
    return b.val < a.val ? b.idx : a.idx;
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
