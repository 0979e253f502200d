// Ising model representation and exact QUBO ↔ Ising conversion.
//
// The paper frames QUBO as equivalent to finding the ground state of a
// fully-connected Ising model H(S) = −Σ_{i<j} J_ij s_i s_j − Σ h_i s_i with
// s_i ∈ {+1, −1}. The two directions of the equivalence used here are exact
// over the integers:
//
//   Ising → QUBO:  substituting s = 2x − 1 gives integer QUBO coefficients
//                  directly; E(x) = H(s) + offset.
//   QUBO → Ising:  substituting x = (s + 1)/2 introduces a factor 1/4, so we
//                  return an Ising model with H(S) = 4·E(X) − offset. The
//                  scale (always 4) and offset are carried in the model, and
//                  minimizers are preserved.
//
// No solver in src/ calls the conversions: they serve the partition
// example and the tests that cross-check energies through a round trip.
#pragma once

#include <cstdint>
#include <vector>

#include "qubo/bit_vector.hpp"
#include "qubo/types.hpp"
#include "qubo/weight_matrix.hpp"

namespace absq {

/// Spin vector S ∈ {+1, −1}ⁿ, with the paper's mapping s_i = 2x_i − 1.
using SpinVector = std::vector<int>;

/// Fully-connected Ising model with integer couplings.
class IsingModel {
 public:
  IsingModel() = default;

  /// An n-spin model with all couplings and fields zero.
  explicit IsingModel(BitIndex n);

  [[nodiscard]] BitIndex size() const { return n_; }

  /// Coupling J_ij (symmetric; stored once per unordered pair, i ≠ j).
  [[nodiscard]] std::int64_t coupling(BitIndex i, BitIndex j) const;
  void set_coupling(BitIndex i, BitIndex j, std::int64_t value);

  [[nodiscard]] std::int64_t field(BitIndex i) const { return h_[i]; }
  void set_field(BitIndex i, std::int64_t value) { h_[i] = value; }

  /// Constant added to H so that H(S) = scale·E(X) holds exactly after a
  /// QUBO → Ising conversion (0 for hand-built models).
  [[nodiscard]] std::int64_t offset() const { return offset_; }
  void set_offset(std::int64_t value) { offset_ = value; }

  /// Multiplier relating this model to an originating QUBO instance
  /// (4 after from_qubo, 1 otherwise).
  [[nodiscard]] std::int64_t scale() const { return scale_; }

  /// H(S) = −Σ_{i<j} J_ij s_i s_j − Σ h_i s_i + offset.
  [[nodiscard]] std::int64_t hamiltonian(const SpinVector& s) const;

  /// Exact conversion with H(S) = 4·E(X) (minimizers preserved).
  static IsingModel from_qubo(const WeightMatrix& w);

  /// Exact inverse substitution: builds a QUBO instance with
  /// E(x) = H(s)|_{s=2x−1} − const; the constant is returned via
  /// `offset_out` so callers can recover absolute Hamiltonian values.
  /// Throws if a resulting coefficient exceeds the 16-bit weight range.
  [[nodiscard]] WeightMatrix to_qubo(std::int64_t* offset_out = nullptr) const;

  /// s_i = 2x_i − 1 elementwise.
  static SpinVector spins_from_bits(const BitVector& x);

  /// x_i = (s_i + 1)/2 elementwise; entries must be ±1.
  static BitVector bits_from_spins(const SpinVector& s);

 private:
  std::size_t pair_index(BitIndex i, BitIndex j) const;

  BitIndex n_ = 0;
  // Upper-triangle (i < j) couplings, packed row-wise.
  std::vector<std::int64_t> j_;
  std::vector<std::int64_t> h_;
  std::int64_t offset_ = 0;
  std::int64_t scale_ = 1;
};

}  // namespace absq
