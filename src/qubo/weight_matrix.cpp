#include "qubo/weight_matrix.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "qubo/detail/dense_sweep.hpp"

namespace absq {

double WeightMatrix::sparse_density_threshold() {
  return detail::dispatched_dense_sweep().sparse_density_threshold;
}

std::size_t WeightMatrix::csr_limit(BitIndex n) {
  const double n2 = static_cast<double>(n) * static_cast<double>(n);
  return static_cast<std::size_t>(sparse_density_threshold() * n2);
}

WeightMatrix::WeightMatrix(BitIndex n) : WeightMatrix(Fill(n).finish()) {}

std::vector<Weight> WeightMatrix::diagonal() const {
  std::vector<Weight> diag(n_);
  for (BitIndex i = 0; i < n_; ++i) diag[i] = at(i, i);
  return diag;
}

double WeightMatrix::density() const {
  if (n_ == 0) return 0.0;
  return static_cast<double>(stored_) /
         (static_cast<double>(n_) * static_cast<double>(n_));
}

bool WeightMatrix::is_symmetric() const {
  if (csr_ != nullptr) {
    for (BitIndex i = 0; i < n_; ++i) {
      const SparseWeightMatrix::Row r = csr_->row(i);
      for (std::size_t p = 0; p < r.size(); ++p) {
        if (csr_->at(r.cols[p], i) != r.weights[p]) return false;
      }
    }
    return true;
  }
  for (BitIndex i = 0; i < n_; ++i) {
    for (BitIndex j = i + 1; j < n_; ++j) {
      if (at(i, j) != at(j, i)) return false;
    }
  }
  return true;
}

bool operator==(const WeightMatrix& a, const WeightMatrix& b) {
  // The storage is a function of n and the stored count (stores_csr), so
  // matrices that agree on both are stored alike and compare storage to
  // storage.
  if (a.n_ != b.n_ || a.stored_ != b.stored_) return false;
  if (a.csr_ != nullptr) return *a.csr_ == *b.csr_;
  return a.dense_ == b.dense_;
}

// ---------------------------------------------------------------------------
// Fill — the one place a matrix's storage is chosen.

WeightMatrix::Fill::Fill(BitIndex n) : n_(n), csr_limit_(csr_limit(n)) {
  if (!stores_csr(n, 0)) {
    dense_mode_ = true;
    dense_.assign(static_cast<std::size_t>(n) * n, 0);
  }
}

void WeightMatrix::Fill::go_dense() {
  dense_mode_ = true;
  dense_.assign(static_cast<std::size_t>(n_) * n_, 0);
  for (const SparseWeightMatrix::Triplet& t : triplets_) {
    dense_[static_cast<std::size_t>(t.i) * n_ + t.j] = t.w;
    dense_[static_cast<std::size_t>(t.j) * n_ + t.i] = t.w;
  }
  std::vector<SparseWeightMatrix::Triplet>().swap(triplets_);
}

WeightMatrix WeightMatrix::Fill::finish() && {
  WeightMatrix w;
  w.n_ = n_;
  w.nonzeros_ = nonzeros_;
  w.stored_ = stored_;
  if (dense_mode_) {
    w.dense_ = std::move(dense_);
  } else {
    w.csr_ = std::make_shared<const SparseWeightMatrix>(
        SparseWeightMatrix::from_triplets(n_, triplets_));
  }
  return w;
}

// ---------------------------------------------------------------------------
// DenseRows

DenseRows::DenseRows(const WeightMatrix& w) : n_(w.size()) {
  const SparseWeightMatrix* csr = w.csr();
  if (csr == nullptr) {
    data_ = w.dense_.data();
    return;
  }
  auto copy = std::make_shared<std::vector<Weight>>(
      static_cast<std::size_t>(n_) * n_, Weight{0});
  for (BitIndex i = 0; i < n_; ++i) {
    const SparseWeightMatrix::Row r = csr->row(i);
    for (std::size_t p = 0; p < r.size(); ++p) {
      (*copy)[static_cast<std::size_t>(i) * n_ + r.cols[p]] = r.weights[p];
    }
  }
  data_ = copy->data();
  copy_ = std::move(copy);
}

// ---------------------------------------------------------------------------
// WeightMatrixBuilder

WeightMatrixBuilder::WeightMatrixBuilder(BitIndex n) : n_(n) {
  ABSQ_CHECK(n >= 1 && n <= kMaxBits,
             "instance size " << n << " outside [1, " << kMaxBits << "]");
}

std::uint64_t WeightMatrixBuilder::key(BitIndex i, BitIndex j) const {
  if (i > j) std::swap(i, j);
  return static_cast<std::uint64_t>(i) * n_ + j;
}

void WeightMatrixBuilder::add(BitIndex i, BitIndex j, Energy w) {
  ABSQ_CHECK(i < n_ && j < n_,
             "term (" << i << ", " << j << ") outside instance of size " << n_);
  if (w == 0) return;
  terms_.push_back(Term{key(i, j), w});
}

void WeightMatrixBuilder::merge() const {
  const auto by_key = [](const Term& a, const Term& b) {
    return a.key < b.key;
  };
  if (!std::is_sorted(terms_.begin(), terms_.end(), by_key)) {
    std::sort(terms_.begin(), terms_.end(), by_key);
  }
  std::size_t out = 0;
  for (const Term& t : terms_) {
    if (out > 0 && terms_[out - 1].key == t.key) {
      terms_[out - 1].coeff += t.coeff;
    } else {
      terms_[out++] = t;
    }
  }
  terms_.resize(out);
}

Energy WeightMatrixBuilder::max_abs_coefficient() const {
  merge();
  Energy max_abs = 0;
  for (const Term& t : terms_) max_abs = std::max(max_abs, std::abs(t.coeff));
  return max_abs;
}

bool WeightMatrixBuilder::any_odd_offdiagonal() const {
  for (const Term& t : terms_) {
    const bool diagonal = t.key / n_ == t.key % n_;
    if (!diagonal && (t.coeff & 1) != 0) return true;
  }
  return false;
}

// Quantizes one split coefficient by 2^shift, truncating toward zero for
// both signs. Arithmetic >> would round negative values toward −∞, biasing
// every negative coefficient of a quantized instance one ULP low (and even
// pushing −(kMaxWeight+1)·2^s past kMinWeight) — the symmetric truncation
// matches the documented E_true ≈ E_scaled · 2^shift decode contract.
Energy WeightMatrixBuilder::quantize(Energy value, int shift) {
  return value < 0 ? -(-value >> shift) : value >> shift;
}

WeightMatrix WeightMatrixBuilder::assemble(Energy scale, int shift) const {
  WeightMatrix::Fill fill(n_);
  for (const Term& t : terms_) {
    const BitIndex i = static_cast<BitIndex>(t.key / n_);
    const BitIndex j = static_cast<BitIndex>(t.key % n_);
    const Energy scaled = t.coeff * scale;
    const Energy v = quantize((i == j) ? scaled : scaled / 2, shift);
    ABSQ_CHECK(v >= kMinWeight && v <= kMaxWeight,
               "coefficient of x_" << i << "·x_" << j << " = " << v
                                   << " exceeds 16-bit weight range; "
                                      "consider build_scaled()");
    fill.set(i, j, static_cast<Weight>(v));
  }
  return std::move(fill).finish();
}

WeightMatrix WeightMatrixBuilder::build() const {
  merge();
  const Energy scale = any_odd_offdiagonal() ? 2 : 1;
  energy_scale_ = static_cast<int>(scale);
  return assemble(scale, /*shift=*/0);
}

WeightMatrix WeightMatrixBuilder::build_scaled(int* shift_out) const {
  merge();
  const Energy scale = any_odd_offdiagonal() ? 2 : 1;
  energy_scale_ = static_cast<int>(scale);

  Energy max_abs = 0;
  for (const Term& t : terms_) {
    const Energy scaled = t.coeff * scale;
    const bool diagonal = t.key / n_ == t.key % n_;
    max_abs = std::max(max_abs, std::abs(diagonal ? scaled : scaled / 2));
  }
  int shift = 0;
  while ((max_abs >> shift) > kMaxWeight) ++shift;
  if (shift_out != nullptr) *shift_out = shift;
  return assemble(scale, shift);
}

}  // namespace absq
