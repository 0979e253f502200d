// QuboKernel — per-instance flip-kernel plan (form selection).
//
// The Δ-update of Eq. (16) is the hot loop of the whole system, and the
// cheapest correct implementation depends on the instance:
//
//   * kSparse      — CSR rows, O(degree) matrix reads per flip plus an
//                    O(degree·log n) tournament-tree repair that keeps the
//                    fused best-neighbour argmin exact. Wins whenever the
//                    matrix is sparse (G-set-style graphs).
//   * kDenseSimd   — contiguous dense row, repair and argmin as separate
//                    vectorizable passes (#pragma omp simd). Wins on dense
//                    instances (synthetic random, TSP permutation QUBOs).
//   * kDenseScalar — the original fused single-pass loop.
//
// Every form stores Δ as int32. QUBO++'s ABS3 omits overflow checks on its
// 32-bit coefficients "for performance"; here no check is needed, because
// the exact worst case |Δ_k(X)| ≤ (2n − 1)·2^15 of every accepted instance
// is proved below INT32_MAX by a static_assert in qubo/types.hpp. Every
// form produces bit-identical energies, Δ vectors and flip outcomes —
// pinned by the lockstep property tests — so kernel selection is purely a
// performance decision. docs/kernels.md records selection rules and the
// measured crossover.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "qubo/sparse_matrix.hpp"
#include "qubo/types.hpp"
#include "qubo/weight_matrix.hpp"

namespace absq {

/// Implementation form of the Δ-repair loop.
enum class KernelForm : std::uint8_t {
  kDenseScalar = 0,  ///< original fused single-pass dense loop
  kDenseSimd = 1,    ///< dense two-pass, vectorizable repair + argmin
  kSparse = 2,       ///< CSR rows + tournament tree for the argmin
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
    kAuto = 0,    ///< sparse when profitable, dense-SIMD otherwise
    kDense = 1,   ///< force the scalar dense kernel
    kDenseSimd = 2,
    kSparse = 3,
  };
  Form form = Form::kAuto;
};

[[nodiscard]] KernelOptions::Form parse_kernel_form(const std::string& name);

/// The planned kernel for one instance: the dense matrix (always kept —
/// reference energies, baselines and the dense forms read it), the CSR
/// form when the plan selected it, and the chosen form. One plan is
/// shared read-only by every search block of a device.
class QuboKernel {
 public:
  /// kAuto picks the sparse form when stored-nonzeros/n² is at or below
  /// this. From the measured crossover in EXPERIMENTS.md: with the
  /// early-exit tournament tree the CSR kernel wins ~3× at 1% density
  /// (G22) and loses at 6% (G1), so the break-even sits near 3%.
  static constexpr double kSparseDensityThreshold = 1.0 / 32;

  /// kAuto never picks sparse below this size — for tiny instances the
  /// tournament tree costs more than the dense row it replaces.
  static constexpr BitIndex kSparseMinBits = 64;

  /// Plans the kernel. One O(n²) pass counts the nonzeros; builds the CSR
  /// form only when selected. `w` must outlive the kernel.
  explicit QuboKernel(const WeightMatrix& w, const KernelOptions& options = {});

  [[nodiscard]] const WeightMatrix& dense() const { return *w_; }
  /// Non-null exactly when form() == KernelForm::kSparse.
  [[nodiscard]] const SparseWeightMatrix* sparse() const {
    return sparse_.get();
  }

  [[nodiscard]] KernelForm form() const { return form_; }
  /// Always kNarrow32: every form stores Δ as int32.
  [[nodiscard]] DeltaWidth width() const { return DeltaWidth::kNarrow32; }

  [[nodiscard]] std::size_t stored_nonzeros() const { return nonzeros_; }
  [[nodiscard]] double density() const;

  /// e.g. "sparse/32-bit (n=5000, density 0.08%)" — for logs/benches.
  [[nodiscard]] std::string description() const;

 private:
  const WeightMatrix* w_;
  std::shared_ptr<const SparseWeightMatrix> sparse_;
  KernelForm form_ = KernelForm::kDenseScalar;
  std::size_t nonzeros_ = 0;
};

}  // namespace absq
