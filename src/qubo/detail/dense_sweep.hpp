// The dense Eq. (16) sweep, compiled once per ISA and picked at run time.
//
// A dense flip of bit k repairs every Δ_i from row k of W,
//
//     Δ_i ← Δ_i + 2·W_ik·φ(x_i)·φ(x_k),
//
// and a tracked flip also needs the leftmost minimum of the repaired Δ over
// i ≠ k. The x86 builds do both in one sweep: each vector lane keeps its
// own (minimum, first index), and the lanes reduce to the leftmost minimum
// at the end — the paper's search block, whose threads repair their bits
// and then reduce the block minimum. Three builds exist:
//
//   * avx512   — 16 lanes (avx512f, avx512bw, avx512vl); the tail shorter
//                than a vector runs under a lane mask;
//   * avx2     — 8 lanes; the tail runs the scalar step;
//   * portable — the two-pass loop: a `#pragma omp simd` repair, then a
//                vectorizable value-min and a leftmost-index scan. Built
//                for the baseline ISA; the only build off x86.
//
// dispatched_dense_sweep() picks the widest build the CPU runs, once per
// process, with __builtin_cpu_supports. Every build writes the same Δ bits
// and returns the same index: the leftmost minimum over i ≠ k. Each build
// also carries the density below which the sparse form still reads at
// least twice its speed — the storage rule's threshold on a host running
// it (WeightMatrix::sparse_density_threshold()).
//
// The selector at the bottom is for tests: it forces a build, so the
// lockstep suites pin every build the CPU supports to the int64 oracle.
#pragma once

#include <cstdint>

#include "qubo/types.hpp"

namespace absq::detail {

/// Repair step d + adj of Eq. (16) on uint32: defined wraparound, and the
/// same bits as int32 addition for every in-range value. The dense sweep
/// also applies the i ≠ k rule at i == k before the caller overwrites that
/// slot with −Δ_k, and that one transient value can leave the int32 range
/// (|Δ_k| + 2·|W_kk| may exceed 2^31 − 1).
inline std::int32_t add_repair(std::int32_t d, int adj) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(d) +
                                   static_cast<std::uint32_t>(adj));
}

/// The leftmost minimum Δ over i ≠ k of a repaired vector. Meaningless for
/// n == 1, which has no i ≠ k.
struct SweepMin {
  std::int32_t delta;
  BitIndex bit;
};

/// One compiled build of the dense sweep. Both functions repair all n
/// entries, slot k included (its transient is the caller's to overwrite),
/// and load and store nothing past index n.
struct DenseSweep {
  /// "avx512", "avx2" or "portable"; QuboKernel::description() names it.
  const char* name;
  /// The storage rule's density threshold on a host running this build.
  double sparse_density_threshold;
  /// The Eq. (16) repair of every Δ_i from `row` (row k of W); `signs`
  /// holds every φ(x_i) and `phi_k` is φ(x_k), all before the flip.
  void (*repair)(std::int32_t* deltas, const std::int8_t* signs,
                 const Weight* row, BitIndex n, std::int8_t phi_k);
  /// The same repair, returning the leftmost minimum over i ≠ k.
  SweepMin (*repair_argmin)(std::int32_t* deltas, const std::int8_t* signs,
                            const Weight* row, BitIndex n, std::int8_t phi_k,
                            BitIndex k);
};

/// The widest build this CPU runs, picked on first use.
[[nodiscard]] const DenseSweep& dispatched_dense_sweep();

/// The build a kernel planned, or a state constructed, now binds to: the
/// dispatched one unless a ForceDenseSweep is alive.
[[nodiscard]] const DenseSweep& active_dense_sweep();

// ---------------------------------------------------------------------------
// Test selector — no flag, config field or environment variable reaches it.

enum class DenseIsa : std::uint8_t { kAvx512, kAvx2, kPortable };

/// Every build, widest first.
inline constexpr DenseIsa kDenseIsas[] = {DenseIsa::kAvx512, DenseIsa::kAvx2,
                                          DenseIsa::kPortable};

[[nodiscard]] const char* to_string(DenseIsa isa);

/// The build for `isa`, or null when this binary lacks it (off x86) or this
/// CPU cannot run it.
[[nodiscard]] const DenseSweep* supported_dense_sweep(DenseIsa isa);

/// While alive, kernels planned and states constructed from a matrix bind
/// to `sweep` instead of the dispatched build; states keep their build for
/// life. Scopes nest. Create and destroy on one thread, with no plan being
/// built on another.
class ForceDenseSweep {
 public:
  explicit ForceDenseSweep(const DenseSweep& sweep);
  ~ForceDenseSweep();
  ForceDenseSweep(const ForceDenseSweep&) = delete;
  ForceDenseSweep& operator=(const ForceDenseSweep&) = delete;

 private:
  const DenseSweep* previous_;
};

}  // namespace absq::detail
