// Tests for the per-instance kernel plan (QuboKernel), the int32 Δ bound,
// the CSR SparseWeightMatrix, and — the load-bearing part — the lockstep
// contract: every kernel form must match the int64 Eq. (4) oracle
// (full_energy/all_deltas) step by step on energies, Δ vectors, argmin
// windows, FlipOutcomes (including tie-breaks) and straight-search walks,
// so kernel selection is purely a throughput choice.
#include "qubo/kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dense_sweep_build.hpp"
#include "qubo/delta_state.hpp"
#include "qubo/energy.hpp"
#include "qubo/sparse_matrix.hpp"
#include "search/straight.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace absq {
namespace {

WeightMatrix random_dense(BitIndex n, std::uint64_t seed) {
  Rng rng(seed);
  return WeightMatrix::generate_symmetric(n, [&rng](BitIndex, BitIndex) {
    return static_cast<Weight>(rng.range(-200, 200));
  });
}

/// G-set-style instance: most entries zero, nonzeros small.
WeightMatrix random_sparse(BitIndex n, double density, std::uint64_t seed) {
  Rng rng(seed);
  return WeightMatrix::generate_symmetric(
      n, [&rng, density](BitIndex, BitIndex) {
        if (!rng.chance(density)) return static_cast<Weight>(0);
        return static_cast<Weight>(rng.range(-100, 100));
      });
}

// ---------------------------------------------------------------------------
// SparseWeightMatrix
// ---------------------------------------------------------------------------

TEST(SparseMatrix, MatchesDenseScan) {
  const BitIndex n = 40;
  const WeightMatrix w = random_sparse(n, 0.15, 21);
  const SparseWeightMatrix sp(w);

  ASSERT_EQ(sp.size(), n);
  std::size_t dense_nonzeros = 0;
  for (BitIndex i = 0; i < n; ++i) {
    for (BitIndex j = 0; j < n; ++j) {
      EXPECT_EQ(sp.at(i, j), w.at(i, j)) << "(" << i << ", " << j << ")";
      if (w.at(i, j) != 0) ++dense_nonzeros;
    }
  }
  EXPECT_EQ(sp.stored_nonzeros(), dense_nonzeros);
  EXPECT_DOUBLE_EQ(sp.density(),
                   static_cast<double>(dense_nonzeros) / (double{n} * n));

  std::size_t max_deg = 0;
  for (BitIndex k = 0; k < n; ++k) {
    const auto row = sp.row(k);
    EXPECT_EQ(row.size(), sp.degree(k));
    max_deg = std::max(max_deg, sp.degree(k));
    std::size_t nz = 0;
    for (BitIndex j = 0; j < n; ++j) {
      if (w.at(k, j) != 0) ++nz;
    }
    EXPECT_EQ(sp.degree(k), nz);
    for (std::size_t t = 0; t + 1 < row.size(); ++t) {
      EXPECT_LT(row.cols[t], row.cols[t + 1]) << "row " << k << " not sorted";
    }
    for (std::size_t t = 0; t < row.size(); ++t) {
      EXPECT_EQ(row.weights[t], w.at(k, row.cols[t]));
    }
  }
  EXPECT_EQ(sp.max_degree(), max_deg);
  EXPECT_GT(sp.bytes(), 0u);
}

TEST(SparseMatrix, FromTripletsMirrorsOffDiagonal) {
  const std::vector<SparseWeightMatrix::Triplet> terms = {
      {0, 0, 5}, {0, 2, -3}, {1, 3, 7}, {2, 2, -1}, {1, 2, 0} /* dropped */};
  const SparseWeightMatrix sp = SparseWeightMatrix::from_triplets(4, terms);

  EXPECT_EQ(sp.at(0, 0), 5);
  EXPECT_EQ(sp.at(0, 2), -3);
  EXPECT_EQ(sp.at(2, 0), -3);  // mirror added implicitly
  EXPECT_EQ(sp.at(1, 3), 7);
  EXPECT_EQ(sp.at(3, 1), 7);
  EXPECT_EQ(sp.at(2, 2), -1);
  EXPECT_EQ(sp.at(1, 2), 0);  // zero-weight triplet ignored
  EXPECT_EQ(sp.at(3, 3), 0);
  // Diagonal stored once, off-diagonals twice: 2 + 2·2 = 6 entries.
  EXPECT_EQ(sp.stored_nonzeros(), 6u);
  EXPECT_EQ(sp.degree(0), 2u);  // (0,0) and (0,2)
  EXPECT_EQ(sp.degree(3), 1u);  // mirror of (1,3)
}

TEST(SparseMatrix, FromTripletsRejectsDuplicateKeys) {
  const std::vector<SparseWeightMatrix::Triplet> terms = {{0, 1, 2}, {0, 1, 3}};
  EXPECT_THROW((void)SparseWeightMatrix::from_triplets(3, terms), CheckError);
}

// ---------------------------------------------------------------------------
// QuboKernel planning
// ---------------------------------------------------------------------------

TEST(QuboKernel, AutoSelectsSparseForLargeLowDensityInstances) {
  // About 0.1 % of the entries set: CSR under every dense sweep build.
  const WeightMatrix w = random_sparse(1024, 0.001, 31);
  ASSERT_NE(w.csr(), nullptr);
  const QuboKernel kernel(w);
  EXPECT_EQ(kernel.form(), KernelForm::kSparse);
  // The plan runs the matrix's own CSR rather than a copy of it.
  EXPECT_EQ(kernel.sparse(), w.csr());
  EXPECT_EQ(kernel.width(), DeltaWidth::kNarrow32);
  EXPECT_EQ(kernel.stored_nonzeros(), w.csr()->stored_nonzeros());
  EXPECT_LE(kernel.density(), WeightMatrix::sparse_density_threshold());
}

TEST(QuboKernel, AutoKeepsDenseInstancesOnSimd) {
  const WeightMatrix w = random_dense(80, 32);
  ASSERT_EQ(w.csr(), nullptr);
  const QuboKernel kernel(w);
  EXPECT_EQ(kernel.form(), KernelForm::kDenseSimd);
  EXPECT_EQ(kernel.sparse(), nullptr);
  EXPECT_EQ(kernel.dense_rows().row(3).data(), w.row(3).data());
}

TEST(QuboKernel, AutoKeepsTinyInstancesDense) {
  // Sparse but below kSparseMinBits: the tournament tree would cost more
  // than the dense row it replaces.
  const WeightMatrix w = random_sparse(32, 0.05, 33);
  ASSERT_EQ(w.csr(), nullptr);
  const QuboKernel kernel(w);
  EXPECT_EQ(kernel.form(), KernelForm::kDenseSimd);
  EXPECT_EQ(kernel.sparse(), nullptr);
}

TEST(QuboKernel, ForcedDenseFormsOnCsrStorageOwnTheirRows) {
  const WeightMatrix w = random_sparse(512, 0.001, 35);
  ASSERT_NE(w.csr(), nullptr);
  KernelOptions options;
  options.form = KernelOptions::Form::kDenseSimd;
  const QuboKernel kernel(w, options);
  EXPECT_EQ(kernel.sparse(), nullptr);
  ASSERT_EQ(kernel.dense_rows().size(), w.size());
  for (BitIndex i = 0; i < w.size(); ++i) {
    for (BitIndex j = 0; j < w.size(); ++j) {
      ASSERT_EQ(kernel.dense_rows().row(i)[j], w.at(i, j))
          << "(" << i << ", " << j << ")";
    }
  }
}

TEST(QuboKernel, ForcedFormsAreRespected) {
  const WeightMatrix w = random_sparse(70, 0.05, 34);
  for (const auto& [requested, planned] :
       std::vector<std::pair<KernelOptions::Form, KernelForm>>{
           {KernelOptions::Form::kDenseSimd, KernelForm::kDenseSimd},
           {KernelOptions::Form::kSparse, KernelForm::kSparse}}) {
    KernelOptions options;
    options.form = requested;
    const QuboKernel kernel(w, options);
    EXPECT_EQ(kernel.form(), planned);
    EXPECT_EQ(kernel.sparse() != nullptr, planned == KernelForm::kSparse);
  }
}

TEST(QuboKernel, ParseKernelFormRoundTrips) {
  EXPECT_EQ(parse_kernel_form("auto"), KernelOptions::Form::kAuto);
  EXPECT_EQ(parse_kernel_form("dense-simd"), KernelOptions::Form::kDenseSimd);
  EXPECT_EQ(parse_kernel_form("sparse"), KernelOptions::Form::kSparse);
  EXPECT_THROW((void)parse_kernel_form("cuda"), CheckError);
  // `dense` names no form: dense-simd is the one dense form.
  EXPECT_THROW((void)parse_kernel_form("dense"), CheckError);
}

TEST(QuboKernel, ExtremeInstancesReachTheInt32DeltaBound) {
  // The int32 Δ proof (qubo/types.hpp) rests on max_row_delta being the
  // exact max_X |Δ_k(X)|, reached by a row of all kMinWeight. Enumerate
  // every state of the two extreme instances, every entry kMinWeight and
  // every entry kMaxWeight, and check the bound is met exactly; then walk
  // each form to the maximizing state by flips and check Eq. (4) there.
  static_assert(max_row_delta(kMaxBits, kMinWeight) == 2147450880);
  for (BitIndex n = 1; n <= 12; ++n) {
    for (const Weight weight : {kMinWeight, kMaxWeight}) {
      const WeightMatrix w = WeightMatrix::generate_symmetric(
          n, [weight](BitIndex, BitIndex) { return weight; });
      Energy max_abs = -1;
      BitVector argmax(n);
      for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        BitVector x(n);
        for (BitIndex i = 0; i < n; ++i) x.set(i, (mask >> i) & 1u);
        for (const Energy d : all_deltas(w, x)) {
          if ((d < 0 ? -d : d) > max_abs) {
            max_abs = d < 0 ? -d : d;
            argmax = x;
          }
        }
      }
      const Energy magnitude = weight < 0 ? 32768 : 32767;
      ASSERT_EQ(max_abs, (2 * Energy{n} - 1) * magnitude)
          << "n=" << n << " w=" << weight;
      ASSERT_EQ(max_row_delta(n, weight), max_abs)
          << "n=" << n << " w=" << weight;

      const std::vector<Energy> expected = all_deltas(w, argmax);
      for (const auto form :
           {KernelOptions::Form::kDenseSimd, KernelOptions::Form::kSparse}) {
        KernelOptions options;
        options.form = form;
        const QuboKernel kernel(w, options);
        DeltaState state(kernel);
        for (const BitIndex k : state.bits().differing_bits(argmax)) {
          state.flip_tracked(k);
        }
        ASSERT_EQ(state.bits(), argmax);
        ASSERT_EQ(state.energy(), full_energy(w, argmax))
            << kernel.description();
        for (BitIndex i = 0; i < n; ++i) {
          ASSERT_EQ(state.delta(i), expected[i])
              << kernel.description() << " w=" << weight << " Δ_" << i;
        }
      }
    }
  }
}

TEST(QuboKernel, DescriptionNamesFormAndWidth) {
  KernelOptions options;
  options.form = KernelOptions::Form::kSparse;
  // The plan references its matrix, which must outlive it.
  const WeightMatrix w = random_sparse(64, 0.05, 45);
  const QuboKernel kernel(w, options);
  const std::string text = kernel.description();
  EXPECT_NE(text.find("sparse"), std::string::npos) << text;
  EXPECT_NE(text.find("32-bit"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Lockstep: every form, each on a forced plan, is held to the int64 Eq. (4)
// oracle — which shares no code with DeltaState — at every step of long
// random mixed flip/flip_tracked sequences: energy, every Δ, and the
// FlipOutcome including its tie-break. Windowed argmins are checked every
// 16 steps.
// ---------------------------------------------------------------------------

struct KernelCase {
  std::string name;
  KernelOptions options;
};

std::vector<KernelCase> all_kernel_cases() {
  std::vector<KernelCase> cases;
  for (const auto& [form, form_name] :
       std::vector<std::pair<KernelOptions::Form, const char*>>{
           {KernelOptions::Form::kDenseSimd, "dense-simd"},
           {KernelOptions::Form::kSparse, "sparse"}}) {
    KernelOptions options;
    options.form = form;
    cases.push_back({form_name, options});
  }
  return cases;
}

/// The int64 Eq. (4) oracle: the solution X, with E(X) and every Δ_i(X)
/// recomputed from scratch after each flip.
struct Oracle {
  Oracle(const WeightMatrix& matrix, BitVector start) : w(&matrix) {
    reset(std::move(start));
  }

  void reset(BitVector to) {
    x = std::move(to);
    recompute();
  }
  void flip(BitIndex k) {
    x.flip(k);
    recompute();
  }
  void recompute() {
    energy = full_energy(*w, x);
    deltas = all_deltas(*w, x);
  }

  /// The leftmost minimum Δ over i ≠ k: the best neighbour after flipping
  /// k. For n == 1 that is flipping k back.
  [[nodiscard]] BitIndex best_neighbor(BitIndex k) const {
    BitIndex best = k;
    for (BitIndex i = 0; i < x.size(); ++i) {
      if (i != k && (best == k || deltas[i] < deltas[best])) best = i;
    }
    return best;
  }

  /// First-in-traversal-order (strict <) argmin of the wrapping window.
  [[nodiscard]] BitIndex argmin_window(BitIndex offset, BitIndex len) const {
    const BitIndex n = x.size();
    BitIndex best = offset % n;
    for (BitIndex t = 1; t < len; ++t) {
      const BitIndex i = (offset + t) % n;
      if (deltas[i] < deltas[best]) best = i;
    }
    return best;
  }

  /// The next walk bit as an ascending strict-< scan of the bits still
  /// differing from `target` finds it; size() when none differs.
  [[nodiscard]] BitIndex walk_step(const BitVector& target) const {
    BitIndex best = x.size();
    for (BitIndex i = 0; i < x.size(); ++i) {
      if (x.get(i) != target.get(i) &&
          (best == x.size() || deltas[i] < deltas[best])) {
        best = i;
      }
    }
    return best;
  }

  const WeightMatrix* w;
  BitVector x;
  Energy energy = 0;
  std::vector<Energy> deltas;
};

struct Lane {
  std::string name;
  std::unique_ptr<QuboKernel> kernel;
  std::unique_ptr<DeltaState> state;
  BestTracker tracker;
};

/// One lane per form, on a forced plan, from `start` (null: the zero-vector
/// constructor).
std::vector<Lane> make_lanes(const WeightMatrix& w, const BitVector* start) {
  std::vector<Lane> lanes;
  for (const auto& c : all_kernel_cases()) {
    auto kernel = std::make_unique<QuboKernel>(w, c.options);
    auto state = start != nullptr
                     ? std::make_unique<DeltaState>(*kernel, *start)
                     : std::make_unique<DeltaState>(*kernel);
    lanes.push_back(
        Lane{c.name, std::move(kernel), std::move(state), BestTracker()});
  }
  return lanes;
}

/// Two lanes of one form would agree whatever that form did, so no
/// lockstep may pair a form with itself.
void assert_distinct_forms(const std::vector<Lane>& lanes) {
  ASSERT_GE(lanes.size(), 2u);
  for (std::size_t a = 0; a < lanes.size(); ++a) {
    for (std::size_t b = a + 1; b < lanes.size(); ++b) {
      ASSERT_NE(lanes[a].state->form(), lanes[b].state->form())
          << lanes[a].name << " and " << lanes[b].name;
    }
  }
}

void assert_at_oracle(const Lane& lane, const Oracle& oracle,
                      const std::string& where) {
  ASSERT_EQ(lane.state->bits(), oracle.x) << lane.name << where;
  ASSERT_EQ(lane.state->energy(), oracle.energy) << lane.name << where;
  for (BitIndex i = 0; i < oracle.x.size(); ++i) {
    ASSERT_EQ(lane.state->delta(i), oracle.deltas[i])
        << lane.name << where << " Δ_" << i;
  }
}

/// flip_tracked(k) in every lane; each outcome and resulting state must be
/// the oracle's.
void tracked_flip(std::vector<Lane>& lanes, Oracle& oracle, BitIndex k,
                  const std::string& where) {
  oracle.flip(k);
  const BitIndex best = oracle.best_neighbor(k);
  for (auto& lane : lanes) {
    const auto got = lane.state->flip_tracked(k);
    ASSERT_EQ(got.energy, oracle.energy) << lane.name << where;
    ASSERT_EQ(got.best_neighbor_bit, best) << lane.name << where;
    ASSERT_EQ(got.best_neighbor_energy, oracle.energy + oracle.deltas[best])
        << lane.name << where;
    ASSERT_NO_FATAL_FAILURE(assert_at_oracle(lane, oracle, where));
  }
}

/// Which storage a lockstep instance must have: with one instance of each
/// per suite, every suite runs both storages and both forced-form
/// conversions (the sparse lane on dense storage, the dense lane on CSR).
enum class Storage { kDense, kCsr };

void run_lockstep(const WeightMatrix& w, Storage storage, std::uint64_t seed,
                  int steps, bool random_start) {
  ASSERT_EQ(w.csr() != nullptr, storage == Storage::kCsr);
  const BitIndex n = w.size();
  Rng rng(seed);
  Oracle oracle(w, random_start ? BitVector::random(n, rng) : BitVector(n));
  std::vector<Lane> lanes = make_lanes(w, &oracle.x);
  ASSERT_NO_FATAL_FAILURE(assert_distinct_forms(lanes));
  for (const auto& lane : lanes) {
    ASSERT_NO_FATAL_FAILURE(assert_at_oracle(lane, oracle, " at start"));
  }

  for (int step = 0; step < steps; ++step) {
    const auto k = static_cast<BitIndex>(rng.below(n));
    const std::string where = " step " + std::to_string(step);
    if (rng.chance(0.5)) {
      ASSERT_NO_FATAL_FAILURE(tracked_flip(lanes, oracle, k, where));
    } else {
      oracle.flip(k);
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->flip(k), oracle.energy) << lane.name << where;
        ASSERT_NO_FATAL_FAILURE(assert_at_oracle(lane, oracle, where));
      }
    }

    if (step % 16 == 0) {
      const auto offset = static_cast<BitIndex>(rng.below(n));
      const auto len = static_cast<BitIndex>(1 + rng.below(n));
      const BitIndex expected = oracle.argmin_window(offset, len);
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->argmin_window(offset, len), expected)
            << lane.name << where << " window (" << offset << ", " << len
            << ")";
      }
    }
  }

  // Theorem 1's accounting: n evaluated solutions per flip, plus the n of
  // initialization, in every form.
  for (auto& lane : lanes) {
    ASSERT_EQ(lane.state->evaluated_solutions(),
              (static_cast<std::uint64_t>(steps) + 1) * n)
        << lane.name;
  }
}

class KernelLockstep : public ::testing::TestWithParam<BitIndex> {};

TEST_P(KernelLockstep, DenseInstanceFromZeroState) {
  const BitIndex n = GetParam();
  run_lockstep(random_dense(n, 500 + n), Storage::kDense, 600 + n, 300,
               false);
}

TEST_P(KernelLockstep, DenseInstanceFromRandomState) {
  const BitIndex n = GetParam();
  run_lockstep(random_dense(n, 700 + n), Storage::kDense, 800 + n, 300, true);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelLockstep,
                         ::testing::Values(1, 2, 3, 17, 64, 65, 130));

TEST(KernelLockstep, GsetStyleSparseInstance) {
  // ~6 nonzeros per row out of 96: 6% is above the 1/32 rule, so the
  // matrix is dense-stored and the sparse lane runs a CSR conversion.
  run_lockstep(random_sparse(96, 0.06, 901), Storage::kDense, 902, 500, true);
}

TEST(KernelLockstep, CsrStoredSparseInstance) {
  // ~1.6 nonzeros per row out of 1600 (0.1 %): CSR-stored under every
  // build's rule, so the dense lane runs a kernel-owned dense copy.
  run_lockstep(random_sparse(1600, 0.001, 905), Storage::kCsr, 906, 500,
               true);
}

void run_saturated_extremes() {
  Rng rng(903);
  const WeightMatrix w =
      WeightMatrix::generate_symmetric(48, [&rng](BitIndex, BitIndex) {
        return rng.chance(0.5) ? kMinWeight : kMaxWeight;
      });
  // |Δ| reaches ~48·2·32768 ≈ 3.1M, and the dense sweep's transient i == k
  // repair adds up to 2·32768 more: every form must stay exact here.
  run_lockstep(w, Storage::kDense, 904, 400, true);
}

TEST(KernelLockstep, SaturatedWeightExtremes) { run_saturated_extremes(); }

// ---------------------------------------------------------------------------
// Straight-search lockstep: Algorithm 5 selects the leftmost minimum-Δ
// pending bit in every form — a word-mask scan in the dense form, the
// pending tree's root in the sparse one. Chained walks to random targets,
// interleaved with window local search, are held to the oracle step by
// step; a whole straight_search call is held to the oracle's end state, and
// its statistics and tracker to the dense-SIMD lane's.
// ---------------------------------------------------------------------------

void run_walk_lockstep(const WeightMatrix& w, Storage storage,
                       std::uint64_t seed, int walks) {
  ASSERT_EQ(w.csr() != nullptr, storage == Storage::kCsr);
  const BitIndex n = w.size();
  Rng rng(seed);
  Oracle oracle(w, BitVector(n));
  std::vector<Lane> lanes = make_lanes(w, nullptr);
  ASSERT_NO_FATAL_FAILURE(assert_distinct_forms(lanes));
  const Lane& reference = lanes.front();
  ASSERT_EQ(reference.state->form(), KernelForm::kDenseSimd);

  for (int walk = 0; walk < walks; ++walk) {
    // A target 10–50 % of the bits away from the current solution.
    const double fraction = 0.1 + 0.4 * rng.uniform01();
    BitVector target = oracle.x;
    for (BitIndex i = 0; i < n; ++i) {
      if (rng.chance(fraction)) target.flip(i);
    }
    const BitIndex distance = oracle.x.hamming_distance(target);
    const std::string where = " walk " + std::to_string(walk);

    // Step 3 resets the incumbent, so each walk's tracker shows its own
    // walk (on the zero matrix: the state after the first, leftmost step).
    for (auto& lane : lanes) lane.tracker.reset();

    if (walk % 2 == 0) {
      // Through straight_search: one flip per differing bit, each costing
      // the reads of its form — n dense, the bit's degree sparse.
      std::vector<SearchStats> stats;
      for (auto& lane : lanes) {
        std::uint64_t expected_ops = 0;
        for (const BitIndex k : lane.state->bits().differing_bits(target)) {
          expected_ops += lane.state->form() == KernelForm::kSparse
                              ? lane.kernel->sparse()->degree(k)
                              : n;
        }
        const SearchStats got =
            straight_search(*lane.state, target, lane.tracker);
        ASSERT_EQ(got.flips, distance) << lane.name << where;
        ASSERT_EQ(got.accepted, distance) << lane.name << where;
        ASSERT_EQ(got.ops, expected_ops) << lane.name << where;
        ASSERT_EQ(got.evaluated_solutions,
                  static_cast<std::uint64_t>(distance) * n)
            << lane.name << where;
        ASSERT_EQ(lane.tracker.valid(), distance > 0) << lane.name << where;
        if (lane.tracker.valid()) {
          ASSERT_EQ(lane.tracker.energy(), full_energy(w, lane.tracker.best()))
              << lane.name << where;
        }
        stats.push_back(got);
      }
      for (std::size_t l = 1; l < lanes.size(); ++l) {
        const Lane& lane = lanes[l];
        ASSERT_EQ(stats[l].improvements, stats.front().improvements)
            << lane.name << where;
        if (reference.tracker.valid()) {
          ASSERT_EQ(lane.tracker.energy(), reference.tracker.energy())
              << lane.name << where;
          ASSERT_EQ(lane.tracker.best(), reference.tracker.best())
              << lane.name << where;
        }
      }
      oracle.reset(target);
      for (const auto& lane : lanes) {
        ASSERT_NO_FATAL_FAILURE(assert_at_oracle(lane, oracle, where));
      }
    } else {
      // Step by step through the DeltaState walk API: every selection and
      // every flip is the oracle's, in every lane.
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->begin_walk(target), distance) << lane.name;
      }
      for (BitIndex step = 0; step < distance; ++step) {
        const BitIndex k = oracle.walk_step(target);
        const std::string at = where + " step " + std::to_string(step);
        for (auto& lane : lanes) {
          ASSERT_EQ(lane.state->argmin_pending(), k) << lane.name << at;
        }
        ASSERT_NO_FATAL_FAILURE(tracked_flip(lanes, oracle, k, at));
      }
      ASSERT_EQ(oracle.x, target) << where;
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->argmin_pending(), n) << lane.name << where;
      }
    }

    // Step 4b: a window local search (the Fig. 2 policy) from the target.
    const auto window = static_cast<BitIndex>(1 + rng.below(n));
    auto offset = static_cast<BitIndex>(rng.below(n));
    const auto steps = 1 + rng.below(n);
    for (std::uint64_t step = 0; step < steps; ++step) {
      const BitIndex k = oracle.argmin_window(offset, window);
      const std::string at = where + " local step " + std::to_string(step);
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->argmin_window(offset, window), k)
            << lane.name << at;
      }
      ASSERT_NO_FATAL_FAILURE(tracked_flip(lanes, oracle, k, at));
      offset = (offset + window) % n;
    }
  }
}

TEST(WalkLockstep, GsetStyleSparseInstance) {
  // 0.12 % of 1000² entries: CSR under every build's rule.
  run_walk_lockstep(random_sparse(1000, 0.0012, 930), Storage::kCsr, 931, 40);
}

TEST(WalkLockstep, DenseInstance) {
  run_walk_lockstep(random_dense(96, 932), Storage::kDense, 933, 40);
}

TEST(WalkLockstep, ZeroMatrixTiesResolveLeftmost) {
  // Every Δ is 0 forever, so each walk step is a pure tie among the
  // pending bits: the leftmost must win in every form.
  // An empty 70-bit matrix is CSR-stored (0 entries, n ≥ kSparseMinBits).
  run_walk_lockstep(WeightMatrix(70), Storage::kCsr, 934, 40);
}

// ---------------------------------------------------------------------------
// Tie-break and edge-case contracts, per form
// ---------------------------------------------------------------------------

void run_all_equal_ties() {
  // Zero matrix: every Δ is 0 forever, so after flipping k the best
  // neighbour is a pure tie across all i ≠ k — the contract demands the
  // leftmost index: 1 when k == 0, else 0. 33 bits span two 16-lane
  // vectors and a 1-lane tail.
  const WeightMatrix w(33);
  for (const auto& c : all_kernel_cases()) {
    const QuboKernel kernel(w, c.options);
    DeltaState state(kernel);
    Rng rng(910);
    for (int step = 0; step < 60; ++step) {
      const auto k = static_cast<BitIndex>(rng.below(33));
      const auto outcome = state.flip_tracked(k);
      const BitIndex expected = (k == 0) ? 1u : 0u;
      ASSERT_EQ(outcome.best_neighbor_bit, expected)
          << c.name << " flipped " << k;
      ASSERT_EQ(outcome.best_neighbor_energy, 0) << c.name;
    }
  }
}

TEST(KernelContract, AllEqualDeltaTiesResolveLeftmostInEveryForm) {
  run_all_equal_ties();
}

void run_size_one_flip_back() {
  const WeightMatrix w =
      WeightMatrix::generate_symmetric(1, [](BitIndex, BitIndex) {
        return static_cast<Weight>(-7);
      });
  for (const auto& c : all_kernel_cases()) {
    const QuboKernel kernel(w, c.options);
    DeltaState state(kernel);
    const Energy before = state.energy();
    const auto outcome = state.flip_tracked(0);
    EXPECT_EQ(outcome.best_neighbor_bit, 0u) << c.name;
    EXPECT_EQ(outcome.best_neighbor_energy, before) << c.name;
    EXPECT_EQ(outcome.energy, -7) << c.name;
  }
}

TEST(KernelContract, SizeOneReportsFlipBackInEveryForm) {
  run_size_one_flip_back();
}

TEST(KernelContract, MatrixReadsCountDenseRowsAndSparseDegrees) {
  const BitIndex n = 72;
  const WeightMatrix w = random_sparse(n, 0.08, 920);

  KernelOptions dense_options;
  dense_options.form = KernelOptions::Form::kDenseSimd;
  const QuboKernel dense_kernel(w, dense_options);
  DeltaState dense_state(dense_kernel);
  EXPECT_EQ(dense_state.matrix_reads(), n);  // zero-state init reads W_ii
  dense_state.flip(5);
  EXPECT_EQ(dense_state.matrix_reads(), 2u * n);  // one full row per flip

  KernelOptions sparse_options;
  sparse_options.form = KernelOptions::Form::kSparse;
  const QuboKernel sparse_kernel(w, sparse_options);
  DeltaState sparse_state(sparse_kernel);
  EXPECT_EQ(sparse_state.matrix_reads(), n);
  sparse_state.flip(5);
  EXPECT_EQ(sparse_state.matrix_reads(),
            n + sparse_kernel.sparse()->degree(5));

  // Evaluated-solution accounting is form-independent (Theorem 1): the
  // sparse kernel still evaluates all n neighbours per flip.
  EXPECT_EQ(dense_state.evaluated_solutions(),
            sparse_state.evaluated_solutions());
  EXPECT_LT(sparse_state.matrix_reads(), dense_state.matrix_reads());

  // From-bits initialization costs the full Eq. (4) pass in any form.
  Rng rng(921);
  const BitVector x = BitVector::random(n, rng);
  const DeltaState seeded(sparse_kernel, x);
  EXPECT_EQ(seeded.matrix_reads(), static_cast<std::uint64_t>(n) * n);
}

// ---------------------------------------------------------------------------
// Every dense sweep build. The suites above run the build dispatched for
// this CPU; here each build the CPU supports is forced (the test-only
// selector of qubo/detail/dense_sweep.hpp) and held to the same oracle by
// the same helpers. A build the CPU lacks is skipped by name.
// ---------------------------------------------------------------------------

class DenseSweepBuild : public DenseSweepBuildTest {};

TEST_P(DenseSweepBuild, KernelLockstepAtEverySize) {
  // 1, 2, 3 and 17 leave tails shorter than any vector; 64, 65 and 130
  // split whole vectors and a tail of 1 or 2.
  for (const BitIndex n : {1u, 2u, 3u, 17u, 64u, 65u, 130u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const WeightMatrix zero_start = random_dense(n, 500 + n);
    ASSERT_NO_FATAL_FAILURE(assert_forced(zero_start));
    ASSERT_NO_FATAL_FAILURE(
        run_lockstep(zero_start, Storage::kDense, 600 + n, 300, false));
    ASSERT_NO_FATAL_FAILURE(run_lockstep(random_dense(n, 700 + n),
                                         Storage::kDense, 800 + n, 300, true));
  }
}

TEST_P(DenseSweepBuild, SaturatedWeightExtremes) { run_saturated_extremes(); }

TEST_P(DenseSweepBuild, AllEqualDeltaTiesResolveLeftmost) {
  run_all_equal_ties();
}

TEST_P(DenseSweepBuild, SizeOneReportsFlipBack) { run_size_one_flip_back(); }

TEST_P(DenseSweepBuild, WalkLockstep) {
  ASSERT_NO_FATAL_FAILURE(
      run_walk_lockstep(random_dense(96, 932), Storage::kDense, 933, 40));
  ASSERT_NO_FATAL_FAILURE(run_walk_lockstep(random_sparse(1000, 0.0012, 930),
                                            Storage::kCsr, 931, 40));
  ASSERT_NO_FATAL_FAILURE(
      run_walk_lockstep(WeightMatrix(70), Storage::kCsr, 934, 40));
}

INSTANTIATE_TEST_SUITE_P(Builds, DenseSweepBuild,
                         ::testing::ValuesIn(detail::kDenseIsas),
                         dense_isa_name);

}  // namespace
}  // namespace absq
