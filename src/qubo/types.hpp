// Fundamental scalar types and limits for the QUBO library.
//
// The paper's system supports fully-connected instances with up to 32k bits
// and 16-bit weights. With those bounds the energy E(X) = Σ W_ij x_i x_j is
// bounded in magnitude by n² · 2^15 ≈ 2^30 · 2^15 = 2^45, so energies are
// int64. A single Δ_k(X) is bounded exactly by (2n − 1) · 2^15, which at
// n = kMaxBits is 2^31 − 2^15: every Δ of every accepted instance fits
// int32, the width the flip kernels store (see max_row_delta below; the
// test suite enumerates the extreme instances that reach it).
#pragma once

#include <cstdint>
#include <limits>

namespace absq {

/// One QUBO weight W_ij. The paper's hardware supports 16-bit weights; we
/// keep the same representation so the memory footprint (and hence the
/// occupancy model of the simulated device) matches.
using Weight = std::int16_t;

/// An energy value E(X) or energy difference Δ_k(X).
using Energy = std::int64_t;

/// Index of a bit/spin within a solution vector.
using BitIndex = std::uint32_t;

/// Inclusive weight bounds (16-bit signed, as in the paper: W_ij ∈
/// [-32768, 32767]).
inline constexpr Weight kMinWeight = -32768;
inline constexpr Weight kMaxWeight = 32767;

/// Largest supported problem size (32k bits, the paper's limit for a single
/// RTX 2080 Ti with 64 registers per thread).
inline constexpr BitIndex kMaxBits = 32768;

/// φ(x) = 1 − 2x ∈ {+1, −1}: the sign factor of Eq. (3). `x` must be 0 or 1.
constexpr Energy phi(int x) { return 1 - 2 * static_cast<Energy>(x); }

/// max_X |Δ_k(X)| for a row k whose n entries all equal `w`. By Eq. (4),
/// Δ_k(X) = φ(x_k)(2 Σ_{i≠k} W_ki x_i + W_kk), and over every X
///
///     max_X |Δ_k(X)| = max(W_kk + 2·Σ_{i≠k} max(W_ki, 0),
///                          2·Σ_{i≠k} max(−W_ki, 0) − W_kk),
///
/// both extremes reached by X selecting exactly the positive (negative)
/// entries. The first term only grows with each weight, the second only
/// shrinks, so over every n-bit instance the worst row is all kMaxWeight
/// ((2n − 1)·32767) or all kMinWeight ((2n − 1)·32768).
constexpr Energy max_row_delta(BitIndex n, Weight w) {
  const Energy off = 2 * (static_cast<Energy>(n) - 1);
  const Energy pos = w > 0 ? w : 0;
  const Energy neg = w < 0 ? -static_cast<Energy>(w) : 0;
  const Energy up = w + off * pos;
  const Energy down = off * neg - w;
  return up > down ? up : down;
}

// The int32 Δ proof. Every Weight value is in range, BitVector rejects
// n > kMaxBits, and the bound stays strictly below INT32_MAX, which the
// sparse form's chunk minima reserve as +∞ for a chunk with no pending bit.
static_assert(kMinWeight == std::numeric_limits<Weight>::min() &&
              kMaxWeight == std::numeric_limits<Weight>::max());
static_assert(max_row_delta(kMaxBits, kMinWeight) <
                  std::numeric_limits<std::int32_t>::max() &&
              max_row_delta(kMaxBits, kMaxWeight) <
                  std::numeric_limits<std::int32_t>::max());

}  // namespace absq
