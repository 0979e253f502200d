#include "qubo/sparse_matrix.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "qubo/weight_matrix.hpp"
#include "util/check.hpp"

namespace absq {

SparseWeightMatrix::SparseWeightMatrix(const WeightMatrix& w) {
  if (const SparseWeightMatrix* csr = w.csr(); csr != nullptr) {
    *this = *csr;
    return;
  }
  n_ = w.size();
  row_ptr_.assign(static_cast<std::size_t>(n_) + 1, 0);
  cols_.reserve(w.stored_nonzeros());
  weights_.reserve(w.stored_nonzeros());
  for (BitIndex i = 0; i < n_; ++i) {
    const auto row = w.row(i);
    for (BitIndex j = 0; j < n_; ++j) {
      if (row[j] != 0) {
        cols_.push_back(j);
        weights_.push_back(row[j]);
      }
    }
    row_ptr_[i + 1] = cols_.size();
  }
}

SparseWeightMatrix SparseWeightMatrix::from_triplets(
    BitIndex n, const std::vector<Triplet>& terms) {
  ABSQ_CHECK(n >= 1 && n <= kMaxBits,
             "instance size " << n << " outside [1, " << kMaxBits << "]");
  SparseWeightMatrix m;
  m.n_ = n;
  m.row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);

  // Two-pass CSR fill: count stored entries per row, prefix-sum, scatter.
  for (const Triplet& t : terms) {
    ABSQ_CHECK(t.i <= t.j && t.j < n,
               "triplet (" << t.i << ", " << t.j
                           << ") must be upper-triangle within size " << n);
    if (t.w == 0) continue;
    ++m.row_ptr_[t.i + 1];
    if (t.i != t.j) ++m.row_ptr_[t.j + 1];
  }
  for (BitIndex i = 0; i < n; ++i) m.row_ptr_[i + 1] += m.row_ptr_[i];
  const std::size_t nnz = m.row_ptr_[n];
  m.cols_.resize(nnz);
  m.weights_.resize(nnz);
  std::vector<std::size_t> cursor(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
  for (const Triplet& t : terms) {
    if (t.w == 0) continue;
    m.cols_[cursor[t.i]] = t.j;
    m.weights_[cursor[t.i]++] = t.w;
    if (t.i != t.j) {
      m.cols_[cursor[t.j]] = t.i;
      m.weights_[cursor[t.j]++] = t.w;
    }
  }
  // Scatter order within a row follows the triplet order; the kernels (and
  // at()) rely on strictly ascending columns. Row-major triplets already
  // scatter that way (a row receives its mirrored entries, then its own);
  // any other row is sorted once, which also exposes duplicate keys.
  std::vector<std::pair<BitIndex, Weight>> entries;
  for (BitIndex i = 0; i < n; ++i) {
    const std::size_t begin = m.row_ptr_[i];
    const std::size_t end = m.row_ptr_[i + 1];
    const BitIndex* cols = m.cols_.data();
    if (std::adjacent_find(cols + begin, cols + end, std::greater_equal<>()) ==
        cols + end) {
      continue;
    }
    entries.clear();
    for (std::size_t p = begin; p < end; ++p) {
      entries.emplace_back(m.cols_[p], m.weights_[p]);
    }
    std::sort(entries.begin(), entries.end());
    for (std::size_t p = begin; p < end; ++p) {
      const auto& [col, weight] = entries[p - begin];
      ABSQ_CHECK(p == begin || col != entries[p - begin - 1].first,
                 "duplicate triplet for entry (" << i << ", " << col << ")");
      m.cols_[p] = col;
      m.weights_[p] = weight;
    }
  }
  return m;
}

Weight SparseWeightMatrix::at(BitIndex i, BitIndex j) const {
  const Row r = row(i);
  const auto it = std::lower_bound(r.cols.begin(), r.cols.end(), j);
  if (it == r.cols.end() || *it != j) return 0;
  return r.weights[static_cast<std::size_t>(it - r.cols.begin())];
}

double SparseWeightMatrix::density() const {
  if (n_ == 0) return 0.0;
  return static_cast<double>(stored_nonzeros()) /
         (static_cast<double>(n_) * static_cast<double>(n_));
}

std::size_t SparseWeightMatrix::max_degree() const {
  std::size_t max = 0;
  for (BitIndex i = 0; i < n_; ++i) max = std::max(max, degree(i));
  return max;
}

}  // namespace absq
