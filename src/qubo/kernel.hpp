// QuboKernel — per-instance flip-kernel plan (form selection).
//
// The Δ-update of Eq. (16) is the hot loop of the whole system, and the
// cheapest correct implementation depends on the instance:
//
//   * kSparse    — CSR rows, O(degree) matrix reads per flip plus an
//                  O(degree·log n) tournament-tree repair that keeps the
//                  fused best-neighbour argmin exact. Wins whenever the
//                  matrix is sparse (G-set-style graphs).
//   * kDenseSimd — contiguous dense row, repaired and reduced to the
//                  argmin in one sweep, compiled per ISA (AVX-512, AVX2, or
//                  the portable two-pass loop) and picked once per process
//                  (qubo/detail/dense_sweep.hpp). Wins on dense instances
//                  (synthetic random, TSP permutation QUBOs).
//
// Every form stores Δ as int32. QUBO++'s ABS3 omits overflow checks on its
// 32-bit coefficients "for performance"; here no check is needed, because
// the exact worst case |Δ_k(X)| ≤ (2n − 1)·2^15 of every accepted instance
// is proved below INT32_MAX by a static_assert in qubo/types.hpp. Every
// form produces the energies, Δ vectors and flip outcomes of the int64
// Eq. (4) oracle — pinned step by step by the lockstep property tests — so
// kernel selection is purely a performance decision. Which form kAuto runs
// is not decided here: the matrix's storage already is the density rule's
// verdict (qubo/weight_matrix.hpp), so the plan reads it in O(1).
// docs/kernels.md records the rule and the measured crossovers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "qubo/sparse_matrix.hpp"
#include "qubo/types.hpp"
#include "qubo/weight_matrix.hpp"

namespace absq {

namespace detail {
struct DenseSweep;
}  // namespace detail

/// Implementation form of the Δ-repair loop.
enum class KernelForm : std::uint8_t {
  kDenseSimd = 0,  ///< dense rows, one repair + argmin sweep per flip
  kSparse = 1,     ///< CSR rows + tournament tree for the argmin
};

/// Storage width of the Δ vector. Every plan stores int32; kWide64 names
/// the retired 64-bit lane only so that code pricing a flip's bytes from
/// width() (the absbench harness) keeps compiling.
enum class DeltaWidth : std::uint8_t {
  kWide64 = 0,
  kNarrow32 = 1,
};

[[nodiscard]] const char* to_string(KernelForm form);

struct KernelOptions {
  enum class Form : std::uint8_t {
    kAuto = 0,  ///< the storage's form: CSR → sparse, dense → dense-SIMD
    kDenseSimd = 1,
    kSparse = 2,
  };
  Form form = Form::kAuto;
};

[[nodiscard]] KernelOptions::Form parse_kernel_form(const std::string& name);

/// The planned kernel for one instance: the matrix, the chosen form, the
/// rows that form reads, and the dense sweep build. kAuto runs the
/// storage's own form — the
/// density rule already ran when the matrix was finished — and shares the
/// matrix's CSR or dense rows, so planning is O(1). Only a forced form that
/// differs from the storage converts: a CSR copy of dense storage, or a
/// kernel-owned dense copy of CSR storage. One plan is shared read-only by
/// every search block of a device.
class QuboKernel {
 public:
  /// Plans the kernel. `w` must outlive the kernel.
  explicit QuboKernel(const WeightMatrix& w, const KernelOptions& options = {});

  [[nodiscard]] const WeightMatrix& matrix() const { return *w_; }
  /// Non-null exactly when form() == KernelForm::kSparse.
  [[nodiscard]] const SparseWeightMatrix* sparse() const { return sparse_; }
  /// The rows the dense-SIMD form reads; empty when form() is kSparse.
  [[nodiscard]] const DenseRows& dense_rows() const { return dense_; }
  /// The dense sweep build the plan's states run: the build dispatched for
  /// this CPU, unless a test forced another while the plan was built.
  [[nodiscard]] const detail::DenseSweep& dense_sweep() const {
    return *sweep_;
  }

  [[nodiscard]] KernelForm form() const { return form_; }
  /// Always kNarrow32: every form stores Δ as int32.
  [[nodiscard]] DeltaWidth width() const { return DeltaWidth::kNarrow32; }

  [[nodiscard]] std::size_t stored_nonzeros() const {
    return w_->stored_nonzeros();
  }
  [[nodiscard]] double density() const { return w_->density(); }

  /// e.g. "sparse/32-bit (n=5000, density 0.08%)" or
  /// "dense-simd/avx512/32-bit (n=256, density 100.00%)" — the form, the
  /// dense sweep build that runs it, and the Δ width, for logs and benches.
  [[nodiscard]] std::string description() const;

 private:
  const WeightMatrix* w_;
  const SparseWeightMatrix* sparse_ = nullptr;
  std::shared_ptr<const SparseWeightMatrix> converted_;  // forced sparse
  DenseRows dense_;
  const detail::DenseSweep* sweep_;
  KernelForm form_ = KernelForm::kDenseSimd;
};

}  // namespace absq
