// Symmetric weight matrix W of a QUBO instance, in one of two storages.
//
// Every matrix is stored exactly one way, chosen once, when it is finished,
// by the density rule below applied to n and the number of stored entries:
//
//   * dense rows — row-major n×n int16, both triangles materialized, so the
//     hot loop of the dense Δ update — a streaming read of row k — is a
//     contiguous, prefetch-friendly scan, exactly as the CUDA kernel in the
//     paper reads one matrix row per flip from global memory. For n = 32k
//     that is 2 GiB of int16, matching the paper's memory budget on an
//     11 GB GPU.
//   * CSR (SparseWeightMatrix) — the stored nonzeros only, which is what
//     the sparse flip kernel walks. A G-set-style graph never allocates n².
//
// A matrix is finished by WeightMatrixBuilder::build()/build_scaled(),
// generate_symmetric() or WeightMatrix(n). Each collects the upper-triangle
// entries as triplets while the stored count allows CSR and moves them into
// a dense array the moment it no longer does, so a CSR matrix never touches
// n² at any step. QuboKernel then runs the storage's own form (CSR →
// sparse, dense → dense-SIMD) without re-counting anything.
//
// Construction paths:
//   * WeightMatrixBuilder — accumulates arbitrary (i, j, w) energy terms
//     in 64-bit, folds them into a symmetric matrix, and range-checks the
//     final 16-bit weights. All problem converters (Max-Cut, TSP, ...)
//     target the builder so saturation bugs surface at build time, not as
//     silent wrap-around during a search.
//   * WeightMatrix::generate_symmetric — fill from a callable evaluated once
//     per upper-triangle position; used by the synthetic random workload.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "qubo/sparse_matrix.hpp"
#include "qubo/types.hpp"
#include "util/check.hpp"

namespace absq {

class WeightMatrix {
 public:
  /// The density rule's threshold: a matrix is stored as CSR when its
  /// stored entries over n² are at or below this. It belongs to the dense
  /// sweep build dispatched for this CPU (qubo/detail/dense_sweep.hpp):
  /// the density below which the sparse form still reads at least twice
  /// that build's dense flip — 1/32 for the portable loop, lower for the
  /// fused x86 sweeps. docs/kernels.md records the measured crossovers.
  [[nodiscard]] static double sparse_density_threshold();

  /// Matrices smaller than this stay dense whatever their density: their
  /// sparse state would be less than one 64-entry chunk of Δ, and every
  /// rise of its minimum would rescan all of it — the dense row's scan
  /// without its vector sweep.
  static constexpr BitIndex kSparseMinBits = 64;

  /// The most entries (both triangles, the diagonal once) an n-bit matrix
  /// may store as CSR: ⌊sparse_density_threshold() · n²⌋.
  [[nodiscard]] static std::size_t csr_limit(BitIndex n);

  /// True when an n-bit matrix with `stored` entries is stored as CSR. The
  /// one home of the density rule.
  [[nodiscard]] static bool stores_csr(BitIndex n, std::size_t stored) {
    return n >= kSparseMinBits && stored <= csr_limit(n);
  }

  WeightMatrix() = default;

  /// An n×n all-zero matrix.
  explicit WeightMatrix(BitIndex n);

  /// Builds a symmetric matrix by calling `entry(i, j)` once per
  /// upper-triangle position (i ≤ j) and mirroring the result.
  template <std::invocable<BitIndex, BitIndex> F>
  static WeightMatrix generate_symmetric(BitIndex n, F&& entry) {
    Fill fill(n);
    for (BitIndex i = 0; i < n; ++i) {
      for (BitIndex j = i; j < n; ++j) {
        fill.set(i, j, static_cast<Weight>(entry(i, j)));
      }
    }
    return std::move(fill).finish();
  }

  [[nodiscard]] BitIndex size() const { return n_; }

  /// W_ij in either storage (O(log degree) on CSR). Symmetry (W_ij == W_ji)
  /// is a class invariant.
  [[nodiscard]] Weight at(BitIndex i, BitIndex j) const {
    if (csr_ != nullptr) return csr_->at(i, j);
    return dense_[static_cast<std::size_t>(i) * n_ + j];
  }

  /// Contiguous row k of a dense-stored matrix — the access pattern of the
  /// dense Δ update loop. Code that may meet CSR storage reads DenseRows.
  [[nodiscard]] std::span<const Weight> row(BitIndex k) const {
    ABSQ_DCHECK(csr_ == nullptr, "row() of a CSR-stored matrix");
    return {dense_.data() + static_cast<std::size_t>(k) * n_, n_};
  }

  /// The CSR storage, or null when the matrix is dense-stored.
  [[nodiscard]] const SparseWeightMatrix* csr() const { return csr_.get(); }

  /// The diagonal W_kk, used to initialize Δ_k(0) = W_kk.
  [[nodiscard]] std::vector<Weight> diagonal() const;

  /// Number of nonzero entries in the upper triangle incl. diagonal. O(1).
  [[nodiscard]] std::size_t nonzeros() const { return nonzeros_; }

  /// Nonzero entries of both triangles (the diagonal once) — the count the
  /// density rule reads. O(1).
  [[nodiscard]] std::size_t stored_nonzeros() const { return stored_; }

  /// stored_nonzeros() / n².
  [[nodiscard]] double density() const;

  /// True if W_ij == W_ji for all pairs. Always true for matrices produced
  /// by the builder/factory; exposed for tests.
  [[nodiscard]] bool is_symmetric() const;

  /// Memory footprint of the weight storage in bytes.
  [[nodiscard]] std::size_t bytes() const {
    return csr_ != nullptr ? csr_->bytes() : dense_.size() * sizeof(Weight);
  }

  /// Calls `visit(i, j, w)` for every nonzero entry with i ≤ j, row by row
  /// in ascending column order: O(nnz) on CSR, an upper-triangle scan on
  /// dense storage.
  template <std::invocable<BitIndex, BitIndex, Weight> F>
  void for_each_upper(F&& visit) const {
    if (csr_ != nullptr) {
      for (BitIndex i = 0; i < n_; ++i) {
        const SparseWeightMatrix::Row r = csr_->row(i);
        for (std::size_t p = 0; p < r.size(); ++p) {
          if (r.cols[p] >= i) visit(i, r.cols[p], r.weights[p]);
        }
      }
      return;
    }
    for (BitIndex i = 0; i < n_; ++i) {
      const std::span<const Weight> r = row(i);
      for (BitIndex j = i; j < n_; ++j) {
        if (r[j] != 0) visit(i, j, r[j]);
      }
    }
  }

  /// Compares contents, whatever the storage.
  friend bool operator==(const WeightMatrix& a, const WeightMatrix& b);

 private:
  friend class WeightMatrixBuilder;
  friend class DenseRows;

  // Finishes a matrix from its upper-triangle entries (each position set at
  // most once) and picks its storage by stores_csr(): entries stay triplets
  // while the stored count allows CSR, and move into a dense array the
  // moment it does not.
  class Fill {
   public:
    explicit Fill(BitIndex n);
    void set(BitIndex i, BitIndex j, Weight w) {
      if (w == 0) return;
      ++nonzeros_;
      stored_ += i == j ? 1 : 2;
      if (dense_mode_) {
        dense_[static_cast<std::size_t>(i) * n_ + j] = w;
        dense_[static_cast<std::size_t>(j) * n_ + i] = w;
        return;
      }
      triplets_.push_back({i, j, w});
      if (stored_ > csr_limit_) go_dense();
    }
    [[nodiscard]] WeightMatrix finish() &&;

   private:
    void go_dense();

    BitIndex n_;
    std::size_t csr_limit_ = 0;  // stores_csr(n_, s) ⟺ s ≤ csr_limit_
    std::size_t nonzeros_ = 0;
    std::size_t stored_ = 0;
    bool dense_mode_ = false;
    std::vector<SparseWeightMatrix::Triplet> triplets_;
    std::vector<Weight> dense_;
  };

  BitIndex n_ = 0;
  std::size_t nonzeros_ = 0;
  std::size_t stored_ = 0;
  std::vector<Weight> dense_;                      // dense storage, or empty
  std::shared_ptr<const SparseWeightMatrix> csr_;  // CSR storage, or null
};

/// Dense rows of a matrix for the dense-SIMD kernel and the instrumented
/// Algorithms 1–2. Borrows the rows of a dense-stored matrix — which must
/// then outlive the view — or owns a private dense copy built from CSR
/// storage, which only a forced dense-SIMD plan and Algorithms 1–2 ask
/// for; copies of a view share it.
class DenseRows {
 public:
  DenseRows() = default;
  explicit DenseRows(const WeightMatrix& w);

  [[nodiscard]] BitIndex size() const { return n_; }
  [[nodiscard]] std::span<const Weight> row(BitIndex k) const {
    return {data_ + static_cast<std::size_t>(k) * n_, n_};
  }

 private:
  BitIndex n_ = 0;
  const Weight* data_ = nullptr;
  std::shared_ptr<const std::vector<Weight>> copy_;  // set for CSR storage
};

/// Accumulating builder; see file comment.
class WeightMatrixBuilder {
 public:
  /// Prepares an n-bit instance. n must be in [1, kMaxBits].
  explicit WeightMatrixBuilder(BitIndex n);

  [[nodiscard]] BitIndex size() const { return n_; }

  /// Adds `w · x_i · x_j` to the energy function (order of i, j irrelevant).
  /// At build time an off-diagonal pair coefficient c is split evenly as
  /// W_ij = W_ji = c/2; if any off-diagonal coefficient is odd, *all*
  /// coefficients are doubled first (a positive rescaling, so the argmin is
  /// unchanged; reported via energy_scale()). Accumulation is 64-bit; the
  /// 16-bit range is enforced at build().
  void add(BitIndex i, BitIndex j, Energy w);

  /// Adds `w` to the linear coefficient of x_i (the diagonal W_ii, since
  /// x_i² = x_i for binary variables).
  void add_linear(BitIndex i, Energy w) { add(i, i, w); }

  /// Largest |accumulated coefficient| so far — converters use this to size
  /// penalty terms before calling build().
  [[nodiscard]] Energy max_abs_coefficient() const;

  /// Validates the 16-bit weight range and produces the symmetric matrix,
  /// stored as the density rule picks. Throws CheckError when any resulting
  /// weight would fall outside [kMinWeight, kMaxWeight].
  [[nodiscard]] WeightMatrix build() const;

  /// Like build(), but right-shifts all coefficients by the smallest shift
  /// that brings them into 16-bit range, returning the shift used. Shifting
  /// truncates *toward zero* for both signs (so +c and −c quantize to ±v
  /// with the same magnitude), making this a *lossy quantization*: the
  /// argmin of the scaled instance may differ from the exact one when
  /// coefficients are not divisible — callers must treat decoded energies
  /// as E_true ≈ E_scaled · 2^shift. Used by TSP conversions whose raw
  /// penalties can exceed 16 bits. An entry that quantizes to 0 is not
  /// stored.
  [[nodiscard]] WeightMatrix build_scaled(int* shift_out = nullptr) const;

  /// Factor build() multiplied the energy function by (1 or 2, see add()).
  /// Valid after build().
  [[nodiscard]] int energy_scale() const { return energy_scale_; }

 private:
  /// One accumulated coefficient at packed upper-triangle key i·n + j.
  struct Term {
    std::uint64_t key;
    Energy coeff;
  };

  [[nodiscard]] std::uint64_t key(BitIndex i, BitIndex j) const;
  /// Sorts the terms by key and sums repeated keys, in place — one entry
  /// per position, ascending (row-major upper-triangle) order. Idempotent.
  void merge() const;
  [[nodiscard]] bool any_odd_offdiagonal() const;
  /// value / 2^shift, truncated toward zero for both signs.
  [[nodiscard]] static Energy quantize(Energy value, int shift);
  [[nodiscard]] WeightMatrix assemble(Energy scale, int shift) const;

  BitIndex n_;
  // Appended by add(), merged on demand by the const readers; merging only
  // reorders and combines terms, never changes the accumulated function.
  mutable std::vector<Term> terms_;
  mutable int energy_scale_ = 1;
};

}  // namespace absq
