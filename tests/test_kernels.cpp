// Tests for the per-instance kernel plan (QuboKernel), the int32 Δ bound,
// the CSR SparseWeightMatrix, and — the load-bearing part — the lockstep
// contract: every kernel form must be bit-identical to the dense scalar one
// on energies, Δ vectors, argmin windows, FlipOutcomes (including
// tie-breaks) and straight-search walks, and all of them must match the
// int64 Eq. (4) oracle (full_energy/all_deltas), so kernel selection is
// purely a throughput choice.
#include "qubo/kernel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

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
  const WeightMatrix w = random_sparse(128, 0.01, 31);
  ASSERT_NE(w.csr(), nullptr);
  const QuboKernel kernel(w);
  EXPECT_EQ(kernel.form(), KernelForm::kSparse);
  // The plan runs the matrix's own CSR rather than a copy of it.
  EXPECT_EQ(kernel.sparse(), w.csr());
  EXPECT_EQ(kernel.width(), DeltaWidth::kNarrow32);
  EXPECT_EQ(kernel.stored_nonzeros(), w.csr()->stored_nonzeros());
  EXPECT_LE(kernel.density(), WeightMatrix::kSparseDensityThreshold);
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
  const WeightMatrix w = random_sparse(128, 0.01, 35);
  ASSERT_NE(w.csr(), nullptr);
  for (const auto form :
       {KernelOptions::Form::kDense, KernelOptions::Form::kDenseSimd}) {
    KernelOptions options;
    options.form = form;
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
}

TEST(QuboKernel, ForcedFormsAreRespected) {
  const WeightMatrix w = random_sparse(70, 0.05, 34);
  for (const auto& [requested, planned] :
       std::vector<std::pair<KernelOptions::Form, KernelForm>>{
           {KernelOptions::Form::kDense, KernelForm::kDenseScalar},
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
  EXPECT_EQ(parse_kernel_form("dense"), KernelOptions::Form::kDense);
  EXPECT_EQ(parse_kernel_form("dense-simd"), KernelOptions::Form::kDenseSimd);
  EXPECT_EQ(parse_kernel_form("sparse"), KernelOptions::Form::kSparse);
  EXPECT_THROW((void)parse_kernel_form("cuda"), CheckError);
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
           {KernelOptions::Form::kDense, KernelOptions::Form::kDenseSimd,
            KernelOptions::Form::kSparse}) {
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
// Lockstep: every form is bit-identical to the dense scalar reference over
// long random mixed flip/flip_tracked/argmin sequences, and every 16 steps
// all of them match the int64 Eq. (4) oracle, which shares no code with
// DeltaState.
// ---------------------------------------------------------------------------

struct KernelCase {
  std::string name;
  KernelOptions options;
};

std::vector<KernelCase> all_kernel_cases() {
  std::vector<KernelCase> cases;
  for (const auto& [form, form_name] :
       std::vector<std::pair<KernelOptions::Form, const char*>>{
           {KernelOptions::Form::kDense, "dense"},
           {KernelOptions::Form::kDenseSimd, "dense-simd"},
           {KernelOptions::Form::kSparse, "sparse"}}) {
    KernelOptions options;
    options.form = form;
    cases.push_back({form_name, options});
  }
  return cases;
}

/// First-in-traversal-order (strict <) wrapping-window argmin oracle.
BitIndex argmin_window_oracle(const DeltaState& s, BitIndex offset,
                              BitIndex len) {
  const BitIndex n = s.size();
  BitIndex best = offset % n;
  Energy best_value = s.delta(best);
  for (BitIndex t = 1; t < len; ++t) {
    const BitIndex i = (offset + t) % n;
    if (s.delta(i) < best_value) {
      best_value = s.delta(i);
      best = i;
    }
  }
  return best;
}

/// Which storage a lockstep instance must have: with one instance of each
/// per suite, every suite runs both storages and both forced-form
/// conversions (the sparse lane on dense storage, the dense lanes on CSR).
enum class Storage { kDense, kCsr };

void run_lockstep(const WeightMatrix& w, Storage storage, std::uint64_t seed,
                  int steps, bool random_start) {
  ASSERT_EQ(w.csr() != nullptr, storage == Storage::kCsr);
  const BitIndex n = w.size();
  Rng rng(seed);
  const BitVector start =
      random_start ? BitVector::random(n, rng) : BitVector(n);

  const DeltaState reference_seed(w, start);  // legacy ctor: dense scalar
  ASSERT_EQ(reference_seed.form(), KernelForm::kDenseScalar);
  DeltaState reference = reference_seed;

  struct Lane {
    std::string name;
    std::unique_ptr<QuboKernel> kernel;
    std::unique_ptr<DeltaState> state;
  };
  std::vector<Lane> lanes;
  for (const auto& c : all_kernel_cases()) {
    auto kernel = std::make_unique<QuboKernel>(w, c.options);
    auto state = std::make_unique<DeltaState>(*kernel, start);
    lanes.push_back({c.name, std::move(kernel), std::move(state)});
  }

  for (int step = 0; step < steps; ++step) {
    const auto k = static_cast<BitIndex>(rng.below(n));
    if (rng.chance(0.5)) {
      const auto expected = reference.flip_tracked(k);
      for (auto& lane : lanes) {
        const auto got = lane.state->flip_tracked(k);
        ASSERT_EQ(got.energy, expected.energy)
            << lane.name << " step " << step;
        ASSERT_EQ(got.best_neighbor_energy, expected.best_neighbor_energy)
            << lane.name << " step " << step;
        ASSERT_EQ(got.best_neighbor_bit, expected.best_neighbor_bit)
            << lane.name << " step " << step;
      }
    } else {
      const Energy expected = reference.flip(k);
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->flip(k), expected)
            << lane.name << " step " << step;
      }
    }

    if (step % 16 == 0) {
      // The reference is int32 like the lanes, so hold all of them to the
      // independent Eq. (4) oracle, not only to each other.
      const Energy expected_energy = full_energy(w, reference.bits());
      const std::vector<Energy> expected_deltas =
          all_deltas(w, reference.bits());
      ASSERT_EQ(reference.energy(), expected_energy) << "step " << step;
      for (BitIndex i = 0; i < n; ++i) {
        ASSERT_EQ(reference.delta(i), expected_deltas[i])
            << "step " << step << " Δ_" << i;
      }
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->bits(), reference.bits()) << lane.name;
        ASSERT_EQ(lane.state->energy(), expected_energy)
            << lane.name << " step " << step;
        for (BitIndex i = 0; i < n; ++i) {
          ASSERT_EQ(lane.state->delta(i), expected_deltas[i])
              << lane.name << " step " << step << " Δ_" << i;
        }
      }

      const auto offset = static_cast<BitIndex>(rng.below(n));
      const auto len = static_cast<BitIndex>(1 + rng.below(n));
      const BitIndex expected = argmin_window_oracle(reference, offset, len);
      ASSERT_EQ(reference.argmin_window(offset, len), expected);
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->argmin_window(offset, len), expected)
            << lane.name << " step " << step << " window (" << offset << ", "
            << len << ")";
      }
    }
  }

  // Final deep cross-check: bits, energy and every Δ against both the
  // reference lane and the from-scratch Eq. (4) computation.
  ASSERT_EQ(reference.energy(), full_energy(w, reference.bits()));
  const auto expected_deltas = all_deltas(w, reference.bits());
  for (auto& lane : lanes) {
    ASSERT_EQ(lane.state->bits(), reference.bits()) << lane.name;
    ASSERT_EQ(lane.state->energy(), reference.energy()) << lane.name;
    ASSERT_EQ(lane.state->evaluated_solutions(),
              reference.evaluated_solutions())
        << lane.name;
    for (BitIndex i = 0; i < n; ++i) {
      ASSERT_EQ(lane.state->delta(i), expected_deltas[i])
          << lane.name << " Δ_" << i;
    }
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
  // ~2 nonzeros per row out of 128: CSR-stored, so the dense lanes run
  // kernel-owned dense copies and the reference a private one.
  run_lockstep(random_sparse(128, 0.015, 905), Storage::kCsr, 906, 500, true);
}

TEST(KernelLockstep, SaturatedWeightExtremes) {
  Rng rng(903);
  const WeightMatrix w =
      WeightMatrix::generate_symmetric(48, [&rng](BitIndex, BitIndex) {
        return rng.chance(0.5) ? kMinWeight : kMaxWeight;
      });
  // |Δ| reaches ~48·2·32768 ≈ 3.1M, and the dense loops' transient i == k
  // repair adds up to 2·32768 more: every form must stay exact here.
  run_lockstep(w, Storage::kDense, 904, 400, true);
}

// ---------------------------------------------------------------------------
// Straight-search lockstep: Algorithm 5 selects the leftmost minimum-Δ
// pending bit in every form — a word-mask scan in the dense forms, the
// pending tree's root in the sparse one. Chained walks to random targets,
// interleaved with window local search, must match the reference walk for
// walk.
// ---------------------------------------------------------------------------

/// The next walk bit as an ascending strict-< scan of the bits still
/// differing from `target` finds it; size() when none differs.
BitIndex walk_step_oracle(const DeltaState& s, const BitVector& target) {
  BitIndex best = s.size();
  Energy best_value = std::numeric_limits<Energy>::max();
  for (BitIndex i = 0; i < s.size(); ++i) {
    if (s.bits().get(i) != target.get(i) && s.delta(i) < best_value) {
      best_value = s.delta(i);
      best = i;
    }
  }
  return best;
}

void run_walk_lockstep(const WeightMatrix& w, Storage storage,
                       std::uint64_t seed, int walks) {
  ASSERT_EQ(w.csr() != nullptr, storage == Storage::kCsr);
  const BitIndex n = w.size();
  Rng rng(seed);
  DeltaState reference(w);  // legacy ctor: dense scalar
  BestTracker reference_tracker;

  struct Lane {
    std::string name;
    std::unique_ptr<QuboKernel> kernel;
    std::unique_ptr<DeltaState> state;
    BestTracker tracker;
  };
  std::vector<Lane> lanes;
  for (const auto& c : all_kernel_cases()) {
    auto kernel = std::make_unique<QuboKernel>(w, c.options);
    auto state = std::make_unique<DeltaState>(*kernel);
    lanes.push_back(
        Lane{c.name, std::move(kernel), std::move(state), BestTracker()});
  }

  for (int walk = 0; walk < walks; ++walk) {
    // A target 10–50 % of the bits away from the current solution.
    const double fraction = 0.1 + 0.4 * rng.uniform01();
    BitVector target = reference.bits();
    for (BitIndex i = 0; i < n; ++i) {
      if (rng.chance(fraction)) target.flip(i);
    }

    // Step 3 resets the incumbent, so each walk's tracker shows its own
    // walk (on the zero matrix: the state after the first, leftmost step).
    reference_tracker.reset();
    for (auto& lane : lanes) lane.tracker.reset();

    if (walk % 2 == 0) {
      // Through straight_search: identical stats, tracker and end state.
      const SearchStats expected =
          straight_search(reference, target, reference_tracker);
      for (auto& lane : lanes) {
        std::uint64_t expected_ops = expected.ops;
        if (lane.state->form() == KernelForm::kSparse) {
          // Sparse ops are the degrees of the flipped (= differing) bits.
          expected_ops = 0;
          const BitVector& before = lane.state->bits();
          for (const BitIndex k : before.differing_bits(target)) {
            expected_ops += lane.kernel->sparse()->degree(k);
          }
        }
        const SearchStats got =
            straight_search(*lane.state, target, lane.tracker);
        ASSERT_EQ(got.flips, expected.flips) << lane.name << " walk " << walk;
        ASSERT_EQ(got.accepted, expected.accepted) << lane.name;
        ASSERT_EQ(got.ops, expected_ops) << lane.name << " walk " << walk;
        ASSERT_EQ(got.evaluated_solutions, expected.evaluated_solutions)
            << lane.name;
        ASSERT_EQ(got.improvements, expected.improvements)
            << lane.name << " walk " << walk;
        ASSERT_EQ(lane.tracker.valid(), reference_tracker.valid())
            << lane.name;
        ASSERT_EQ(lane.tracker.energy(), reference_tracker.energy())
            << lane.name << " walk " << walk;
        if (reference_tracker.valid()) {
          ASSERT_EQ(lane.tracker.best(), reference_tracker.best())
              << lane.name << " walk " << walk;
        }
      }
    } else {
      // Step by step through the DeltaState walk API: every selection is
      // the oracle scan's, in every lane.
      const BitIndex distance = reference.begin_walk(target);
      ASSERT_EQ(distance, reference.bits().hamming_distance(target));
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->begin_walk(target), distance) << lane.name;
      }
      for (BitIndex step = 0; step < distance; ++step) {
        const BitIndex k = walk_step_oracle(reference, target);
        ASSERT_EQ(reference.argmin_pending(), k) << "walk " << walk;
        const auto expected = reference.flip_tracked(k);
        for (auto& lane : lanes) {
          ASSERT_EQ(lane.state->argmin_pending(), k)
              << lane.name << " walk " << walk << " step " << step;
          const auto got = lane.state->flip_tracked(k);
          ASSERT_EQ(got.energy, expected.energy) << lane.name;
          ASSERT_EQ(got.best_neighbor_bit, expected.best_neighbor_bit)
              << lane.name << " walk " << walk << " step " << step;
          ASSERT_EQ(got.best_neighbor_energy, expected.best_neighbor_energy)
              << lane.name;
        }
      }
      ASSERT_EQ(reference.argmin_pending(), n);
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->argmin_pending(), n) << lane.name;
      }
    }

    ASSERT_EQ(reference.bits(), target) << "walk " << walk;
    ASSERT_EQ(reference.energy(), full_energy(w, target));
    const std::vector<Energy> expected_deltas = all_deltas(w, target);
    for (BitIndex i = 0; i < n; ++i) {
      ASSERT_EQ(reference.delta(i), expected_deltas[i])
          << "walk " << walk << " Δ_" << i;
    }
    for (auto& lane : lanes) {
      ASSERT_EQ(lane.state->bits(), target) << lane.name << " walk " << walk;
      ASSERT_EQ(lane.state->energy(), reference.energy()) << lane.name;
      for (BitIndex i = 0; i < n; ++i) {
        ASSERT_EQ(lane.state->delta(i), reference.delta(i))
            << lane.name << " walk " << walk << " Δ_" << i;
      }
    }

    // Step 4b: a window local search (the Fig. 2 policy) from the target.
    const auto window = static_cast<BitIndex>(1 + rng.below(n));
    auto offset = static_cast<BitIndex>(rng.below(n));
    const auto steps = 1 + rng.below(n);
    for (std::uint64_t step = 0; step < steps; ++step) {
      const BitIndex k = reference.argmin_window(offset, window);
      const auto expected = reference.flip_tracked(k);
      for (auto& lane : lanes) {
        ASSERT_EQ(lane.state->argmin_window(offset, window), k) << lane.name;
        const auto got = lane.state->flip_tracked(k);
        ASSERT_EQ(got.best_neighbor_bit, expected.best_neighbor_bit)
            << lane.name << " walk " << walk << " local step " << step;
        ASSERT_EQ(got.best_neighbor_energy, expected.best_neighbor_energy)
            << lane.name;
      }
      offset = (offset + window) % n;
    }
  }
}

TEST(WalkLockstep, GsetStyleSparseInstance) {
  run_walk_lockstep(random_sparse(200, 0.03, 930), Storage::kCsr, 931, 40);
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

TEST(KernelContract, AllEqualDeltaTiesResolveLeftmostInEveryForm) {
  // Zero matrix: every Δ is 0 forever, so after flipping k the best
  // neighbour is a pure tie across all i ≠ k — the contract demands the
  // leftmost index: 1 when k == 0, else 0.
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

TEST(KernelContract, SizeOneReportsFlipBackInEveryForm) {
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

}  // namespace
}  // namespace absq
