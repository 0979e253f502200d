#include <algorithm>
#include <atomic>
#include <limits>

#include "qubo/detail/dense_sweep.hpp"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define ABSQ_X86_SWEEPS 1
#include <immintrin.h>
#define ABSQ_AVX512 __attribute__((target("avx512f,avx512bw,avx512vl")))
#define ABSQ_AVX2 __attribute__((target("avx2")))
#define ABSQ_INLINE inline __attribute__((always_inline))
#else
#define ABSQ_X86_SWEEPS 0
#endif

namespace absq::detail {

namespace {

constexpr std::int32_t kNoDelta = std::numeric_limits<std::int32_t>::max();

/// The scalar step: repairs Δ_i and returns it. φ(x_k) is an int8, so the
/// compiler knows φ(x_k)·φ(x_i) fits 16 bits.
inline std::int32_t repair_one(std::int32_t* deltas, const std::int8_t* signs,
                               const Weight* row, BitIndex i,
                               std::int8_t phi_k) {
  const int two_phi_k = 2 * phi_k;
  deltas[i] =
      add_repair(deltas[i], two_phi_k * signs[i] * static_cast<int>(row[i]));
  return deltas[i];
}

// ---------------------------------------------------------------------------
// Portable: the two-pass loop.

struct PortableSweep {
  static void repair(std::int32_t* deltas, const std::int8_t* signs,
                     const Weight* row, BitIndex n, std::int8_t phi_k);
  static SweepMin repair_argmin(std::int32_t* deltas, const std::int8_t* signs,
                                const Weight* row, BitIndex n,
                                std::int8_t phi_k, BitIndex k);
};

void PortableSweep::repair(std::int32_t* deltas, const std::int8_t* signs,
                           const Weight* row, BitIndex n, std::int8_t phi_k) {
  // Branchless, so the loop vectorizes at the baseline ISA.
#pragma omp simd
  for (BitIndex i = 0; i < n; ++i) {
    (void)repair_one(deltas, signs, row, i, phi_k);
  }
}

SweepMin PortableSweep::repair_argmin(std::int32_t* deltas,
                                      const std::int8_t* signs,
                                      const Weight* row, BitIndex n,
                                      std::int8_t phi_k, BitIndex k) {
  repair(deltas, signs, row, n, phi_k);
  // The min value over i ≠ k (vectorizable reductions), then the leftmost
  // index attaining it — integer min is order-independent, so this is the
  // leftmost minimum a strict-< scan finds.
  std::int32_t best = kNoDelta;
#pragma omp simd reduction(min : best)
  for (BitIndex i = 0; i < k; ++i) {
    best = deltas[i] < best ? deltas[i] : best;
  }
#pragma omp simd reduction(min : best)
  for (BitIndex i = k + 1; i < n; ++i) {
    best = deltas[i] < best ? deltas[i] : best;
  }
  for (BitIndex i = 0; i < k; ++i) {
    if (deltas[i] == best) return SweepMin{best, i};
  }
  for (BitIndex i = k + 1; i < n; ++i) {
    if (deltas[i] == best) return SweepMin{best, i};
  }
  return SweepMin{best, k};
}

#if ABSQ_X86_SWEEPS

/// Leftmost minimum of per-lane (minimum, first index) pairs. Each lane saw
/// its indices in ascending order, so its first minimum is its leftmost;
/// across lanes the smaller index wins a tie. Ordering the pairs as one
/// int64, Δ high and the index (< 2^15) low, makes that a branchless min.
SweepMin leftmost_of_lanes(const std::int32_t* best, const std::int32_t* at,
                           int lanes) {
  constexpr std::int64_t kHalf = std::int64_t{1} << 32;
  std::int64_t key = std::numeric_limits<std::int64_t>::max();
  for (int j = 0; j < lanes; ++j) {
    key = std::min(key, std::int64_t{best[j]} * kHalf + at[j]);
  }
  const std::int64_t bit = key & (kHalf - 1);
  return SweepMin{static_cast<std::int32_t>((key - bit) / kHalf),
                  static_cast<BitIndex>(bit)};
}

// ---------------------------------------------------------------------------
// AVX-512: 16 lanes, the tail under a lane mask. Only the maskz forms of the
// widening and load intrinsics are used: GCC 12's unmasked ones start from
// an undefined vector, which -Wmaybe-uninitialized reports.

struct Avx512Sweep {
  ABSQ_AVX512 static void repair(std::int32_t* deltas,
                                 const std::int8_t* signs, const Weight* row,
                                 BitIndex n, std::int8_t phi_k);
  ABSQ_AVX512 static SweepMin repair_argmin(std::int32_t* deltas,
                                            const std::int8_t* signs,
                                            const Weight* row, BitIndex n,
                                            std::int8_t phi_k, BitIndex k);
};

/// Repairs the `live` lanes of [i, i + 16) and returns them; lanes outside
/// `live` are neither loaded nor stored. `negate_all` is all ones when
/// φ(x_k) < 0.
ABSQ_AVX512 ABSQ_INLINE __m512i avx512_step(std::int32_t* deltas,
                                            const std::int8_t* signs,
                                            const Weight* row, BitIndex i,
                                            __mmask16 live,
                                            __mmask16 negate_all) {
  const __m512i w = _mm512_maskz_cvtepi16_epi32(
      live, _mm256_maskz_loadu_epi16(live, row + i));
  // φ(x_i)·φ(x_k) < 0 exactly where one sign byte (±1) has its top bit set.
  const __mmask16 negate =
      _mm_movepi8_mask(_mm_maskz_loadu_epi8(live, signs + i)) ^ negate_all;
  const __m512i two_w = _mm512_add_epi32(w, w);
  const __m512i adj =
      _mm512_mask_sub_epi32(two_w, negate, _mm512_setzero_si512(), two_w);
  const __m512i d =
      _mm512_add_epi32(_mm512_maskz_loadu_epi32(live, deltas + i), adj);
  _mm512_mask_storeu_epi32(deltas + i, live, d);
  return d;
}

ABSQ_AVX512 ABSQ_INLINE __mmask16 avx512_tail(BitIndex i, BitIndex n) {
  return static_cast<__mmask16>((1u << (n - i)) - 1u);
}

ABSQ_AVX512 ABSQ_INLINE __mmask16 avx512_negate_all(std::int8_t phi_k) {
  return static_cast<__mmask16>(phi_k < 0 ? 0xFFFF : 0);
}

void Avx512Sweep::repair(std::int32_t* deltas, const std::int8_t* signs,
                         const Weight* row, BitIndex n, std::int8_t phi_k) {
  const __mmask16 negate_all = avx512_negate_all(phi_k);
  BitIndex i = 0;
  for (; i + 16 <= n; i += 16) {
    (void)avx512_step(deltas, signs, row, i, 0xFFFF, negate_all);
  }
  if (i < n) {
    (void)avx512_step(deltas, signs, row, i, avx512_tail(i, n), negate_all);
  }
}

SweepMin Avx512Sweep::repair_argmin(std::int32_t* deltas,
                                    const std::int8_t* signs,
                                    const Weight* row, BitIndex n,
                                    std::int8_t phi_k, BitIndex k) {
  const __mmask16 negate_all = avx512_negate_all(phi_k);
  const __m512i skip = _mm512_set1_epi32(static_cast<int>(k));
  const __m512i stride = _mm512_set1_epi32(16);
  __m512i index =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  __m512i best = _mm512_set1_epi32(kNoDelta);
  __m512i best_at = _mm512_setzero_si512();
  BitIndex i = 0;
  // Strict < keeps each lane's first minimum; lane k never competes. The
  // running minimum is a masked min, so the loop-carried chain is one
  // instruction; the index update hangs off it.
  for (; i + 16 <= n; i += 16) {
    const __m512i d = avx512_step(deltas, signs, row, i, 0xFFFF, negate_all);
    const __mmask16 keep = _mm512_cmpneq_epi32_mask(index, skip);
    best_at = _mm512_mask_mov_epi32(
        best_at, _mm512_mask_cmplt_epi32_mask(keep, d, best), index);
    best = _mm512_mask_min_epi32(best, keep, best, d);
    index = _mm512_add_epi32(index, stride);
  }
  if (i < n) {
    const __mmask16 live = avx512_tail(i, n);
    const __m512i d = avx512_step(deltas, signs, row, i, live, negate_all);
    const __mmask16 keep = live & _mm512_cmpneq_epi32_mask(index, skip);
    best_at = _mm512_mask_mov_epi32(
        best_at, _mm512_mask_cmplt_epi32_mask(keep, d, best), index);
    best = _mm512_mask_min_epi32(best, keep, best, d);
  }
  alignas(64) std::int32_t lane_best[16];
  alignas(64) std::int32_t lane_at[16];
  _mm512_store_si512(lane_best, best);
  _mm512_store_si512(lane_at, best_at);
  return leftmost_of_lanes(lane_best, lane_at, 16);
}

// ---------------------------------------------------------------------------
// AVX2: 8 lanes; the tail shorter than a vector runs the scalar step.

struct Avx2Sweep {
  ABSQ_AVX2 static void repair(std::int32_t* deltas, const std::int8_t* signs,
                               const Weight* row, BitIndex n,
                               std::int8_t phi_k);
  ABSQ_AVX2 static SweepMin repair_argmin(std::int32_t* deltas,
                                          const std::int8_t* signs,
                                          const Weight* row, BitIndex n,
                                          std::int8_t phi_k, BitIndex k);
};

/// Repairs [i, i + 8) and returns it. Every lane of `phi_k` holds φ(x_k).
ABSQ_AVX2 ABSQ_INLINE __m256i avx2_step(std::int32_t* deltas,
                                        const std::int8_t* signs,
                                        const Weight* row, BitIndex i,
                                        __m256i phi_k) {
  const __m256i w = _mm256_cvtepi16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + i)));
  const __m256i phi_i = _mm256_cvtepi8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(signs + i)));
  // vpsignd negates where its second operand is negative: 2·W·φ_i·φ_k.
  const __m256i adj = _mm256_sign_epi32(
      _mm256_sign_epi32(_mm256_add_epi32(w, w), phi_i), phi_k);
  auto* at = reinterpret_cast<__m256i*>(deltas + i);
  const __m256i d = _mm256_add_epi32(_mm256_loadu_si256(at), adj);
  _mm256_storeu_si256(at, d);
  return d;
}

void Avx2Sweep::repair(std::int32_t* deltas, const std::int8_t* signs,
                       const Weight* row, BitIndex n, std::int8_t phi_k) {
  const __m256i phi_k_lanes = _mm256_set1_epi32(phi_k);
  BitIndex i = 0;
  for (; i + 8 <= n; i += 8) {
    (void)avx2_step(deltas, signs, row, i, phi_k_lanes);
  }
  for (; i < n; ++i) (void)repair_one(deltas, signs, row, i, phi_k);
}

SweepMin Avx2Sweep::repair_argmin(std::int32_t* deltas,
                                  const std::int8_t* signs, const Weight* row,
                                  BitIndex n, std::int8_t phi_k, BitIndex k) {
  const __m256i phi_k_lanes = _mm256_set1_epi32(phi_k);
  const __m256i skip = _mm256_set1_epi32(static_cast<int>(k));
  const __m256i stride = _mm256_set1_epi32(8);
  const __m256i none = _mm256_set1_epi32(kNoDelta);
  __m256i index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i best = none;
  __m256i best_at = _mm256_setzero_si256();
  BitIndex i = 0;
  // Strict < keeps each lane's first minimum; lane k never competes (it
  // enters as +∞). The running minimum is one vpminsd per step.
  for (; i + 8 <= n; i += 8) {
    const __m256i d =
        _mm256_blendv_epi8(avx2_step(deltas, signs, row, i, phi_k_lanes), none,
                           _mm256_cmpeq_epi32(index, skip));
    best_at = _mm256_blendv_epi8(best_at, index, _mm256_cmpgt_epi32(best, d));
    best = _mm256_min_epi32(best, d);
    index = _mm256_add_epi32(index, stride);
  }
  alignas(32) std::int32_t lane_best[8];
  alignas(32) std::int32_t lane_at[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_best), best);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_at), best_at);
  SweepMin out = leftmost_of_lanes(lane_best, lane_at, 8);
  // The tail lies right of every lane, so strict < keeps the leftmost.
  for (; i < n; ++i) {
    const std::int32_t d = repair_one(deltas, signs, row, i, phi_k);
    if (i != k && d < out.delta) out = SweepMin{d, i};
  }
  return out;
}

#endif  // ABSQ_X86_SWEEPS

// Each build's storage threshold: the density below which the sparse form
// still reads at least 2× the build's tracked dense flip on a 2000-bit
// G-set-style graph (docs/kernels.md, EXPERIMENTS.md "One sweep per dense
// flip"). The portable loop keeps the rule the two-pass form had.
constexpr DenseSweep kPortable{"portable", 1.0 / 32, &PortableSweep::repair,
                               &PortableSweep::repair_argmin};
#if ABSQ_X86_SWEEPS
constexpr DenseSweep kAvx2{"avx2", 0.003, &Avx2Sweep::repair,
                           &Avx2Sweep::repair_argmin};
constexpr DenseSweep kAvx512{"avx512", 0.0015, &Avx512Sweep::repair,
                             &Avx512Sweep::repair_argmin};
#endif

const DenseSweep& pick_dense_sweep() {
#if ABSQ_X86_SWEEPS
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    return kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return kAvx2;
#endif
  return kPortable;
}

std::atomic<const DenseSweep*> g_forced{nullptr};

}  // namespace

const DenseSweep& dispatched_dense_sweep() {
  static const DenseSweep& picked = pick_dense_sweep();
  return picked;
}

const DenseSweep& active_dense_sweep() {
  const DenseSweep* forced = g_forced.load(std::memory_order_acquire);
  return forced != nullptr ? *forced : dispatched_dense_sweep();
}

const char* to_string(DenseIsa isa) {
  switch (isa) {
    case DenseIsa::kAvx512:
      return "avx512";
    case DenseIsa::kAvx2:
      return "avx2";
    case DenseIsa::kPortable:
      return "portable";
  }
  return "?";
}

const DenseSweep* supported_dense_sweep(DenseIsa isa) {
  if (isa == DenseIsa::kPortable) return &kPortable;
#if ABSQ_X86_SWEEPS
  // A build is supported when the dispatcher could pick it: the dispatched
  // build or a narrower one.
  const DenseSweep& widest = dispatched_dense_sweep();
  if (isa == DenseIsa::kAvx512) return &widest == &kAvx512 ? &kAvx512 : nullptr;
  if (&widest != &kPortable) return &kAvx2;
#endif
  return nullptr;
}

ForceDenseSweep::ForceDenseSweep(const DenseSweep& sweep)
    : previous_(g_forced.exchange(&sweep, std::memory_order_acq_rel)) {}

ForceDenseSweep::~ForceDenseSweep() {
  g_forced.store(previous_, std::memory_order_release);
}

}  // namespace absq::detail
