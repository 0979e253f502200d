// Micro-benchmarks (google-benchmark) of the kernels everything else is
// built from. The headline counter is solutions/s on the flip kernels —
// each committed flip evaluates n neighbour solutions (Theorem 1), which
// is where the paper's search-rate metric comes from.
//
// The flip benchmarks run per kernel form (dense SIMD, CSR sparse) on both
// the dense random family and G-set-style Max-Cut instances, making the
// sparse crossover measurable on one screen. BM_Flip and BM_FlipTrackedSimd
// run the dense sweep build dispatched for this CPU; BM_Flip/<build>/n and
// BM_FlipTrackedSimd/<build>/n force each build the CPU supports
// (avx512, avx2, portable) through the test-only selector. The
// straight-search legs time whole Algorithm 5 walks: dense random
// instances, and the G55 stand-in on the sparse plan.
//
// Besides the interactive google-benchmark mode, `--report <path>` runs a
// fixed deterministic sweep of the same kernel matrix and appends one
// BenchReport (JSONL) record per instance × form — the canonical
// BENCH_kernels.json trajectory that scripts/perfgate.sh diffs across
// commits.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "ga/operators.hpp"
#include "ga/solution_pool.hpp"
#include "problems/maxcut.hpp"
#include "problems/random.hpp"
#include "qubo/delta_state.hpp"
#include "qubo/detail/dense_sweep.hpp"
#include "qubo/energy.hpp"
#include "qubo/kernel.hpp"
#include "search/straight.hpp"
#include "sim/mailbox.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using absq::BitIndex;
using absq::BitVector;
using absq::DeltaState;
using absq::KernelOptions;
using absq::QuboKernel;
using absq::Rng;
using absq::WeightMatrix;

const WeightMatrix& cached_matrix(BitIndex n) {
  static std::map<BitIndex, WeightMatrix> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, absq::random_qubo(n, 1234 + n)).first;
  }
  return it->second;
}

/// G-set-style stand-in keyed by vertex count (catalog rows G1/G22/G55).
const WeightMatrix& cached_gset(BitIndex vertices) {
  static std::map<BitIndex, WeightMatrix> cache;
  auto it = cache.find(vertices);
  if (it == cache.end()) {
    for (const auto& spec : absq::gset_catalog()) {
      if (spec.vertices != vertices) continue;
      it = cache
               .emplace(vertices, absq::maxcut_to_qubo(
                                      absq::generate_gset_instance(spec, 77)))
               .first;
      break;
    }
  }
  return it->second;
}

const QuboKernel& cached_kernel(const WeightMatrix& w,
                                KernelOptions::Form form) {
  static std::map<std::pair<const WeightMatrix*, KernelOptions::Form>,
                  QuboKernel>
      cache;
  const auto key = std::make_pair(&w, form);
  auto it = cache.find(key);
  if (it == cache.end()) {
    KernelOptions options;
    options.form = form;
    it = cache.emplace(key, QuboKernel(w, options)).first;
  }
  return it->second;
}

void BM_FullEnergy(benchmark::State& state) {
  const auto n = static_cast<BitIndex>(state.range(0));
  const WeightMatrix& w = cached_matrix(n);
  Rng rng(1);
  const BitVector x = BitVector::random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(absq::full_energy(w, x));
  }
  state.counters["solutions/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullEnergy)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DeltaK(benchmark::State& state) {
  const auto n = static_cast<BitIndex>(state.range(0));
  const WeightMatrix& w = cached_matrix(n);
  Rng rng(2);
  const BitVector x = BitVector::random(n, rng);
  BitIndex k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(absq::delta_k(w, x, k));
    k = (k + 1) % n;
  }
}
BENCHMARK(BM_DeltaK)->Arg(256)->Arg(1024)->Arg(4096);

void flip_benchmark(benchmark::State& state, DeltaState delta_state,
                    bool tracked) {
  const BitIndex n = delta_state.size();
  Rng rng(3);
  if (tracked) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          delta_state.flip_tracked(static_cast<BitIndex>(rng.below(n))));
    }
  } else {
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          delta_state.flip(static_cast<BitIndex>(rng.below(n))));
    }
  }
  state.counters["solutions/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * n,
      benchmark::Counter::kIsRate);
  state.counters["flips/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_Flip(benchmark::State& state) {
  // The untracked repair alone. The matrix constructor runs the storage's
  // own form: dense-SIMD on these dense-stored instances.
  const auto n = static_cast<BitIndex>(state.range(0));
  flip_benchmark(state, DeltaState(cached_matrix(n)), /*tracked=*/false);
}
BENCHMARK(BM_Flip)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_FlipTrackedSimd(benchmark::State& state) {
  const auto n = static_cast<BitIndex>(state.range(0));
  const QuboKernel& kernel =
      cached_kernel(cached_matrix(n), KernelOptions::Form::kDenseSimd);
  flip_benchmark(state, DeltaState(kernel), /*tracked=*/true);
}
BENCHMARK(BM_FlipTrackedSimd)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

/// BM_Flip and BM_FlipTrackedSimd once per dense sweep build this CPU
/// runs, named BM_Flip/<build>/n and BM_FlipTrackedSimd/<build>/n.
void register_sweep_builds() {
  for (const absq::detail::DenseIsa isa : absq::detail::kDenseIsas) {
    const absq::detail::DenseSweep* sweep =
        absq::detail::supported_dense_sweep(isa);
    if (sweep == nullptr) continue;
    for (const bool tracked : {false, true}) {
      const std::string name =
          std::string(tracked ? "BM_FlipTrackedSimd/" : "BM_Flip/") +
          absq::detail::to_string(isa);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [sweep, tracked](benchmark::State& state) {
            const auto n = static_cast<BitIndex>(state.range(0));
            const absq::detail::ForceDenseSweep force(*sweep);
            flip_benchmark(state, DeltaState(cached_matrix(n)), tracked);
          })
          ->Arg(256)
          ->Arg(1024)
          ->Arg(4096);
    }
  }
}

void BM_FlipTrackedSparseGset(benchmark::State& state) {
  const auto n = static_cast<BitIndex>(state.range(0));
  const QuboKernel& kernel =
      cached_kernel(cached_gset(n), KernelOptions::Form::kSparse);
  flip_benchmark(state, DeltaState(kernel), /*tracked=*/true);
}
BENCHMARK(BM_FlipTrackedSparseGset)->Arg(800)->Arg(2000)->Arg(5000);

void BM_FlipTrackedDenseGset(benchmark::State& state) {
  // The dense baseline on the same G-set instances — the crossover pair of
  // BM_FlipTrackedSparseGset.
  const auto n = static_cast<BitIndex>(state.range(0));
  const QuboKernel& kernel =
      cached_kernel(cached_gset(n), KernelOptions::Form::kDenseSimd);
  flip_benchmark(state, DeltaState(kernel), /*tracked=*/true);
}
BENCHMARK(BM_FlipTrackedDenseGset)->Arg(800)->Arg(2000)->Arg(5000);

void BM_BitVectorAccess(benchmark::State& state) {
  // Pins the "ABSQ_DCHECK bounds checks cost nothing in release" claim:
  // this is pure get/flip word arithmetic, compiled with NDEBUG.
  Rng rng(10);
  BitVector v = BitVector::random(4096, rng);
  BitIndex i = 0;
  for (auto _ : state) {
    v.flip(i);
    benchmark::DoNotOptimize(v.get(i));
    i = (i + 61) & 4095;
  }
  state.counters["ops/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * 2,
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BitVectorAccess);

void BM_StraightSearchLeg(benchmark::State& state) {
  // One full straight-search walk between random endpoints (~n/2 flips),
  // on dense-SIMD: the storage's own form of these dense instances.
  const auto n = static_cast<BitIndex>(state.range(0));
  const WeightMatrix& w = cached_matrix(n);
  Rng rng(5);
  DeltaState delta_state(w, BitVector::random(n, rng));
  absq::BestTracker tracker;
  for (auto _ : state) {
    const BitVector target = BitVector::random(n, rng);
    benchmark::DoNotOptimize(
        absq::straight_search(delta_state, target, tracker));
  }
}
BENCHMARK(BM_StraightSearchLeg)->Arg(256)->Arg(1024);

void BM_StraightSearchLegSparseGset(benchmark::State& state) {
  // A sparse-tts-sized walk: the G55 stand-in on the CSR plan, to targets
  // ~25 % of the bits away (~1250 flips at n = 5000). Each step reads the
  // leftmost of the 79 chunks' walk minima and rescans the flipped bit's
  // chunk.
  const auto n = static_cast<BitIndex>(state.range(0));
  const QuboKernel& kernel =
      cached_kernel(cached_gset(n), KernelOptions::Form::kSparse);
  Rng rng(5);
  DeltaState delta_state(kernel);
  absq::BestTracker tracker;
  std::uint64_t flips = 0;
  for (auto _ : state) {
    BitVector target = delta_state.bits();
    for (BitIndex i = 0; i < n; ++i) {
      if (rng.chance(0.25)) target.flip(i);
    }
    const absq::SearchStats stats =
        absq::straight_search(delta_state, target, tracker);
    benchmark::DoNotOptimize(stats);
    flips += stats.flips;
  }
  state.counters["flips/s"] = benchmark::Counter(
      static_cast<double>(flips), benchmark::Counter::kIsRate);
  state.counters["solutions/s"] = benchmark::Counter(
      static_cast<double>(flips) * n, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StraightSearchLegSparseGset)->Arg(5000);

void BM_PoolInsert(benchmark::State& state) {
  absq::SolutionPool pool(static_cast<std::size_t>(state.range(0)));
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pool.insert(BitVector::random(512, rng), rng.range(-1000000, 0)));
  }
}
BENCHMARK(BM_PoolInsert)->Arg(64)->Arg(1024);

void BM_GenerateTarget(benchmark::State& state) {
  absq::SolutionPool pool(128);
  Rng rng(7);
  pool.initialize_random(1024, rng);
  const absq::GaConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(absq::generate_target(pool, config, rng));
  }
}
BENCHMARK(BM_GenerateTarget);

void BM_MailboxRoundTrip(benchmark::State& state) {
  // The lock cost per block iteration the sim/mailbox.hpp comment cites.
  absq::sim::SolutionBuffer buffer(1024);
  Rng rng(8);
  const BitVector bits = BitVector::random(1024, rng);
  for (auto _ : state) {
    buffer.push({bits, -1, 0, 0});
    benchmark::DoNotOptimize(buffer.drain());
  }
}
BENCHMARK(BM_MailboxRoundTrip);

void BM_UniformCrossover(benchmark::State& state) {
  Rng rng(9);
  const BitVector a = BitVector::random(4096, rng);
  const BitVector b = BitVector::random(4096, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(absq::uniform_crossover(a, b, rng));
  }
}
BENCHMARK(BM_UniformCrossover);

// ---------------------------------------------------------------------------
// --report mode: the canonical BENCH_kernels.json sweep
// ---------------------------------------------------------------------------

struct ReportCase {
  const char* label;
  KernelOptions::Form form;
};

/// One deterministic flips/s measurement; fills an AbsResult so the record
/// reuses the standard run-report schema (search_rate = evaluated
/// solutions per second, the paper's metric).
void measure_into_report(absq::bench::BenchReport& report,
                         const std::string& instance, const WeightMatrix& w,
                         const ReportCase& rc, std::uint64_t flips) {
  KernelOptions options;
  options.form = rc.form;
  const QuboKernel kernel(w, options);
  DeltaState state(kernel);
  Rng rng(42);
  const BitIndex n = w.size();
  for (int i = 0; i < 2048; ++i) {  // warm-up: page the matrix in
    state.flip_tracked(static_cast<BitIndex>(rng.below(n)));
  }
  const std::uint64_t reads_before = state.matrix_reads();
  absq::Stopwatch watch;
  for (std::uint64_t i = 0; i < flips; ++i) {
    benchmark::DoNotOptimize(
        state.flip_tracked(static_cast<BitIndex>(rng.below(n))));
  }
  const double seconds = watch.seconds();
  const std::uint64_t reads = state.matrix_reads() - reads_before;

  absq::AbsResult result;
  result.best_energy = state.energy();
  result.seconds = seconds;
  result.total_flips = flips;
  result.evaluated_solutions = flips * n;
  result.search_rate =
      static_cast<double>(result.evaluated_solutions) / seconds;

  const double flips_per_sec = static_cast<double>(flips) / seconds;
  const double reads_per_flip =
      static_cast<double>(reads) / static_cast<double>(flips);
  char buffer[64];
  std::vector<std::pair<std::string, std::string>> extra;
  extra.emplace_back("kernel", kernel.description());
  // The form kAuto would pick for this instance: scripts/perfgate.sh only
  // enforces the sparse-≥2×-dense gate where the planner actually selects
  // sparse, so the gate tracks the planner policy instead of hard-coding
  // an instance list.
  extra.emplace_back("auto_form", to_string(QuboKernel(w).form()));
  std::snprintf(buffer, sizeof(buffer), "%.6g", flips_per_sec);
  extra.emplace_back("flips_per_sec", buffer);
  std::snprintf(buffer, sizeof(buffer), "%.6g", reads_per_flip);
  extra.emplace_back("matrix_reads_per_flip", buffer);

  const std::string row = instance + "/" + rc.label;
  report.add(row, 42, result, nullptr, std::move(extra));
  std::printf("%-24s %14.3e flips/s %14.3e sols/s %10.1f reads/flip\n",
              row.c_str(), flips_per_sec, result.search_rate, reads_per_flip);
  std::fflush(stdout);
}

int run_report(const std::string& path) {
  absq::bench::BenchReport report(path, "bench_kernels");
  std::printf("bench_kernels --report %s\n", path.c_str());
  // Every dense-simd row below runs this build; its rows name it too.
  std::printf("dense sweep: %s\n", absq::detail::dispatched_dense_sweep().name);

  const ReportCase kDenseCases[] = {
      {"dense-simd", KernelOptions::Form::kDenseSimd},
  };
  const ReportCase kSparseCases[] = {
      {"dense-simd", KernelOptions::Form::kDenseSimd},
      {"sparse", KernelOptions::Form::kSparse},
  };

  for (const BitIndex n : {1024u, 4096u}) {
    const WeightMatrix& w = cached_matrix(n);
    const std::string instance = "random-" + std::to_string(n);
    // Fixed work per form so rates are stable: ~40M row entries.
    const std::uint64_t flips = std::max<std::uint64_t>(20000, 40000000 / n);
    for (const ReportCase& rc : kDenseCases) {
      measure_into_report(report, instance, w, rc, flips);
    }
  }
  for (const auto& [vertices, name] :
       std::vector<std::pair<BitIndex, const char*>>{
           {800, "gset-G1"}, {2000, "gset-G22"}, {5000, "gset-G55"}}) {
    const WeightMatrix& w = cached_gset(vertices);
    for (const ReportCase& rc : kSparseCases) {
      // Sparse forms do O(degree) work per flip — give every form the same
      // flip count so the rate comparison is honest, sized so the dense
      // baseline still gets a stable window.
      const std::uint64_t flips =
          std::max<std::uint64_t>(20000, 40000000 / vertices);
      measure_into_report(report, name, w, rc, flips);
    }
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--report=", 9) == 0) {
      report_path = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!report_path.empty()) return run_report(report_path);

  register_sweep_builds();
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
