// CSR (compressed sparse row) form of a QUBO weight matrix W.
//
// G-set-style instances have rows with ~10 nonzeros out of thousands, yet
// the dense Δ-repair of Eq. (16) walks the whole row on every flip. The
// sparse kernel walks only a row's stored nonzeros, turning the per-flip
// cost from O(n) into O(degree(k)) matrix reads. Both triangles are stored
// (exactly as the dense WeightMatrix materializes both) so row k is one
// contiguous, ascending-index scan.
//
// A SparseWeightMatrix is immutable once built. It is the CSR storage of a
// WeightMatrix the density rule stores sparse (built by from_triplets while
// the matrix is finished, never through an n² array), or a conversion of a
// dense-stored matrix when a caller forces the sparse kernel form.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "qubo/types.hpp"

namespace absq {

class WeightMatrix;

class SparseWeightMatrix {
 public:
  SparseWeightMatrix() = default;

  /// CSR of every nonzero of `w` (both triangles, diagonal included): a
  /// copy of CSR storage, or one O(n²) pass over dense storage.
  explicit SparseWeightMatrix(const WeightMatrix& w);

  /// One (i, j, w) energy term with i ≤ j; the off-diagonal mirror entry is
  /// added implicitly.
  struct Triplet {
    BitIndex i = 0;
    BitIndex j = 0;
    Weight w = 0;
  };

  /// Builds from upper-triangle triplets (i ≤ j, no duplicate (i, j) keys,
  /// zero weights ignored). Triplets in row-major order need no sort.
  static SparseWeightMatrix from_triplets(BitIndex n,
                                          const std::vector<Triplet>& terms);

  [[nodiscard]] BitIndex size() const { return n_; }

  /// One matrix row: ascending column indices and the matching weights.
  /// This is the whole access pattern of the sparse Δ-repair loop.
  struct Row {
    std::span<const BitIndex> cols;
    std::span<const Weight> weights;

    [[nodiscard]] std::size_t size() const { return cols.size(); }
  };
  [[nodiscard]] Row row(BitIndex k) const {
    const std::size_t begin = row_ptr_[k];
    const std::size_t end = row_ptr_[k + 1];
    return Row{{cols_.data() + begin, end - begin},
               {weights_.data() + begin, end - begin}};
  }

  /// Stored entries per row (the per-flip matrix-read cost of the sparse
  /// kernel for bit k).
  [[nodiscard]] std::size_t degree(BitIndex k) const {
    return row_ptr_[k + 1] - row_ptr_[k];
  }

  /// W_ij by binary search within row i — O(log degree). Convenience for
  /// tests and the diagonal; the kernels never random-access.
  [[nodiscard]] Weight at(BitIndex i, BitIndex j) const;

  /// Total stored entries (both triangles + diagonal).
  [[nodiscard]] std::size_t stored_nonzeros() const { return cols_.size(); }

  /// Stored entries over n² — the kernel-selection statistic.
  [[nodiscard]] double density() const;

  [[nodiscard]] std::size_t max_degree() const;

  /// Memory footprint of the index + weight arrays in bytes.
  [[nodiscard]] std::size_t bytes() const {
    return row_ptr_.size() * sizeof(std::size_t) +
           cols_.size() * sizeof(BitIndex) + weights_.size() * sizeof(Weight);
  }

  friend bool operator==(const SparseWeightMatrix& a,
                         const SparseWeightMatrix& b) = default;

 private:
  BitIndex n_ = 0;
  std::vector<std::size_t> row_ptr_;  ///< n + 1 offsets into cols_/weights_
  std::vector<BitIndex> cols_;
  std::vector<Weight> weights_;
};

}  // namespace absq
