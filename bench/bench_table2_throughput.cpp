// Reproduces Table 2: search rate vs bits-per-thread at 100% occupancy.
//
// Three numbers per row:
//   * the kernel geometry from the occupancy model — this reproduces the
//     paper's threads/block and active-blocks columns *exactly*;
//   * the search rate measured on this host (CPU-simulated blocks,
//     synchronous stepping so scheduler noise is excluded);
//   * the modeled 4-GPU rate from sim::ThroughputModel, the documented
//     latency+bandwidth estimate.
//
//   ./bench/bench_table2_throughput [--max-bits 16384] [--flips 200000]
//
// --telemetry attaches a full metrics registry + event tracer to every
// measured device, so two runs (with and without the flag) quantify the
// observability overhead on the flip hot path — recorded in
// EXPERIMENTS.md, target < 2%.
//
// The closing section measures the sparse-kernel speedup on G-set-style
// Max-Cut instances (dense-SIMD vs CSR kernel on the same device config) —
// the ≥2× flips/s acceptance gate of the kernel rework. --report <path>
// appends every measured row to a BenchReport JSONL file
// (BENCH_throughput.json), which scripts/perfgate.sh diffs across commits.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "abs/device.hpp"
#include "bench_util.hpp"
#include "obs/telemetry.hpp"
#include "problems/maxcut.hpp"
#include "problems/random.hpp"
#include "qubo/kernel.hpp"
#include "sim/throughput_model.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"

namespace {

struct Measured {
  double solutions_per_sec = 0.0;
  double flips_per_sec = 0.0;
  std::uint64_t flips = 0;
  double seconds = 0.0;
};

/// Measured CPU rate: synchronous block stepping, no targets (pure local
/// search), `flips` committed flips minimum.
Measured measured_rate(const absq::WeightMatrix& w,
                       std::uint32_t bits_per_thread, std::uint64_t min_flips,
                       absq::obs::Telemetry telemetry,
                       absq::KernelOptions kernel = {}) {
  absq::DeviceConfig config;
  config.bits_per_thread = bits_per_thread;
  config.block_limit = 4;  // CPU: rate is per-flip-dominated, blocks ≈ moot
  config.local_steps = 256;
  config.telemetry = telemetry;
  config.kernel = kernel;
  absq::Device device(w, config);
  // Warm-up pass (page in the matrix).
  device.step_all_blocks_once();
  const std::uint64_t start_flips = device.total_flips();
  absq::Stopwatch watch;
  while (device.total_flips() - start_flips < min_flips) {
    device.step_all_blocks_once();
  }
  Measured m;
  m.seconds = watch.seconds();
  m.flips = device.total_flips() - start_flips;
  m.flips_per_sec = static_cast<double>(m.flips) / m.seconds;
  m.solutions_per_sec = m.flips_per_sec * w.size();
  return m;
}

void report_row(absq::bench::BenchReport& report, const std::string& row,
                std::uint64_t seed, const absq::WeightMatrix& w,
                const Measured& m, const std::string& kernel) {
  absq::AbsResult result;
  result.seconds = m.seconds;
  result.total_flips = m.flips;
  result.evaluated_solutions = m.flips * w.size();
  result.search_rate = m.solutions_per_sec;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", m.flips_per_sec);
  // auto_form marks where the planner would pick sparse — the rows
  // scripts/perfgate.sh holds to the ≥2× sparse-vs-dense gate.
  report.add(row, seed, result, nullptr,
             {{"kernel", kernel},
              {"flips_per_sec", buffer},
              {"auto_form", absq::to_string(absq::QuboKernel(w).form())}});
}

}  // namespace

int main(int argc, char** argv) {
  absq::CliParser cli(
      "Table 2 — throughput vs bits/thread at 100% occupancy");
  cli.add_flag("max-bits", std::int64_t{16384},
               "largest instance (32768 needs 2 GiB)");
  cli.add_flag("flips", std::int64_t{100000},
               "measured flips per configuration");
  cli.add_flag("seed", std::int64_t{5}, "instance seed");
  cli.add_flag("telemetry", false,
               "attach metrics registry + tracer to the measured devices "
               "(A/B the observability overhead)");
  cli.add_flag("report", std::string{},
               "append measured rows to this BenchReport JSONL file "
               "(canonical name: BENCH_throughput.json)");
  if (!cli.parse(argc, argv)) return 0;

  absq::bench::BenchReport report(cli.get_string("report"),
                                  "bench_table2_throughput");

  // One registry/tracer across all rows, as a long-lived solver would use.
  absq::obs::MetricsRegistry registry;
  absq::obs::EventTracer tracer;
  absq::obs::Telemetry telemetry;
  if (cli.get_bool("telemetry")) {
    telemetry.metrics = &registry;
    telemetry.tracer = &tracer;
  }

  const absq::sim::DeviceSpec spec;  // RTX 2080 Ti
  const absq::sim::ThroughputModel model;
  const auto max_bits = static_cast<absq::BitIndex>(cli.get_int("max-bits"));
  const auto min_flips = static_cast<std::uint64_t>(cli.get_int("flips"));

  // Paper rates (T/s, 4 GPUs) for the side-by-side, keyed "n:p".
  struct PaperRate {
    absq::BitIndex n;
    std::uint32_t p;
    double tps;
  };
  const PaperRate paper_rates[] = {
      {1024, 1, 0.221},  {1024, 2, 0.480},  {1024, 4, 0.924},
      {1024, 8, 1.12},   {1024, 16, 1.24},  {2048, 2, 0.304},
      {2048, 4, 0.564},  {2048, 8, 0.821},  {2048, 16, 1.01},
      {2048, 32, 0.807}, {4096, 4, 0.407},  {4096, 8, 0.590},
      {4096, 16, 0.732}, {4096, 32, 0.495}, {8192, 8, 0.421},
      {8192, 16, 0.537}, {8192, 32, 0.427}, {16384, 16, 0.578},
      {16384, 32, 0.513}, {32768, 32, 0.439},
  };
  const auto paper_rate = [&paper_rates](absq::BitIndex n,
                                         std::uint32_t p) -> double {
    for (const auto& row : paper_rates) {
      if (row.n == n && row.p == p) return row.tps;
    }
    return 0.0;
  };

  std::printf("Table 2 — throughput for synthetic random problems, 100%% "
              "occupancy\n");
  std::printf("%6s %5s %9s %10s | %9s | %12s %12s\n", "bits", "p",
              "thr/blk", "blk/GPU", "paper T/s", "model T/s",
              "measured/s");
  for (int i = 0; i < 78; ++i) std::putchar('-');
  std::putchar('\n');

  for (const absq::BitIndex n : {1024u, 2048u, 4096u, 8192u, 16384u, 32768u}) {
    if (n > max_bits) {
      std::printf("%6u skipped (over --max-bits)\n", n);
      continue;
    }
    const absq::WeightMatrix w = absq::random_qubo(
        n, static_cast<std::uint64_t>(cli.get_int("seed")));
    for (const std::uint32_t p :
         absq::sim::feasible_bits_per_thread_sweep(spec, n)) {
      const auto occ = absq::sim::compute_occupancy(spec, n, p);
      const double modeled = model.solutions_per_second(n, occ, 4);
      const Measured measured = measured_rate(w, p, min_flips, telemetry);
      std::printf("%6u %5u %9u %10u | %9.3f | %12.3f %12.3e\n", n, p,
                  occ.threads_per_block, occ.active_blocks, paper_rate(n, p),
                  modeled / 1e12, measured.solutions_per_sec);
      std::fflush(stdout);
      report_row(report,
                 "random-" + std::to_string(n) + "/p" + std::to_string(p),
                 static_cast<std::uint64_t>(cli.get_int("seed")), w, measured,
                 absq::QuboKernel(w).description());
    }
  }
  std::printf(
      "\nGeometry columns (thr/blk, blk/GPU) reproduce Table 2 exactly —\n"
      "asserted in tests/test_device_spec.cpp. Model column: latency +\n"
      "bandwidth estimate (see sim/throughput_model.hpp); the measured\n"
      "column is this host's CPU rate, where more bits/thread does not\n"
      "help because one core serializes all simulated blocks.\n");

  // Sparse-kernel section: the same device configuration on G-set-style
  // Max-Cut instances, dense-SIMD vs CSR kernel. Bit-identical search
  // trajectories (pinned by the lockstep tests), so the ratio is a pure
  // throughput statement — the ≥2× acceptance gate of the kernel rework.
  std::printf("\nSparse (G-set) kernel comparison — dense-simd vs sparse, "
              "same blocks\n");
  std::printf("%-10s %6s %9s | %13s %13s | %7s\n", "instance", "bits",
              "density", "dense flips/s", "sparse flips/s", "ratio");
  for (int i = 0; i < 70; ++i) std::putchar('-');
  std::putchar('\n');
  for (const auto& gspec : absq::gset_catalog()) {
    if (gspec.name != "G1" && gspec.name != "G22" && gspec.name != "G55") {
      continue;
    }
    if (gspec.vertices > max_bits) {
      std::printf("%-10s skipped (over --max-bits)\n", gspec.name.c_str());
      continue;
    }
    const absq::WeightMatrix w =
        absq::maxcut_to_qubo(absq::generate_gset_instance(gspec, 77));
    absq::KernelOptions dense_kernel;
    dense_kernel.form = absq::KernelOptions::Form::kDenseSimd;
    absq::KernelOptions sparse_kernel;
    sparse_kernel.form = absq::KernelOptions::Form::kSparse;
    const Measured dense =
        measured_rate(w, 16, min_flips, telemetry, dense_kernel);
    const Measured sparse =
        measured_rate(w, 16, min_flips, telemetry, sparse_kernel);
    const absq::QuboKernel plan(w, sparse_kernel);
    const absq::QuboKernel dense_plan(w, dense_kernel);
    std::printf("%-10s %6u %8.2f%% | %13.3e %13.3e | %6.1fx\n",
                gspec.name.c_str(), w.size(), plan.density() * 100.0,
                dense.flips_per_sec, sparse.flips_per_sec,
                sparse.flips_per_sec / dense.flips_per_sec);
    std::fflush(stdout);
    const std::string row = "gset-" + gspec.name;
    report_row(report, row + "/dense-simd",
               static_cast<std::uint64_t>(cli.get_int("seed")), w, dense,
               dense_plan.description());
    report_row(report, row + "/sparse",
               static_cast<std::uint64_t>(cli.get_int("seed")), w, sparse,
               plan.description());
  }
  std::printf(
      "\nThe ratio column is the sparse-kernel speedup at equal search\n"
      "trajectories; EXPERIMENTS.md records the measured crossover.\n");
  return 0;
}
