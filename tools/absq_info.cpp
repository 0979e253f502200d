// absq_info — inspect a QUBO instance file: size, density, weight
// statistics, memory footprint, and the kernel geometry the simulated
// RTX 2080 Ti would run it with (the Table 2 columns for this instance).
//
//   absq_info instance.qubo
//   absq_info instance.qubo --verify best.sol
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "qubo/energy.hpp"
#include "qubo/io.hpp"
#include "sim/device_spec.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

int run(int argc, char** argv) {
  absq::CliParser cli("absq_info — inspect a QUBO instance file");
  cli.add_flag("verify", std::string(""),
               "solution file to check against the instance");
  if (!cli.parse(argc, argv)) return 0;
  ABSQ_CHECK(cli.positional().size() == 1, "exactly one instance file");

  const absq::WeightMatrix w = absq::read_qubo_file(cli.positional()[0]);
  const absq::BitIndex n = w.size();

  // Zero entries sit inside [min, max] already, so the stored entries are
  // all the scan needs.
  absq::Weight min_weight = 0;
  absq::Weight max_weight = 0;
  std::int64_t diagonal_nonzeros = 0;
  w.for_each_upper([&](absq::BitIndex i, absq::BitIndex j, absq::Weight v) {
    if (i == j) ++diagonal_nonzeros;
    min_weight = std::min(min_weight, v);
    max_weight = std::max(max_weight, v);
  });
  const std::size_t nonzeros = w.nonzeros();
  const double density =
      static_cast<double>(nonzeros) /
      (static_cast<double>(n) * (n + 1) / 2.0);

  std::printf("bits:          %u\n", n);
  std::printf("nonzeros:      %zu (upper triangle, %.2f%% dense)\n", nonzeros,
              100.0 * density);
  std::printf("diagonal:      %" PRId64 " nonzero\n", diagonal_nonzeros);
  std::printf("weight range:  [%d, %d]\n", min_weight, max_weight);
  std::printf("memory:        %.3f MiB, %s storage\n",
              static_cast<double>(w.bytes()) / (1 << 20),
              w.csr() != nullptr ? "CSR" : "dense int16");

  const absq::sim::DeviceSpec spec;
  std::printf("\nRTX 2080 Ti kernel geometry (100%% occupancy configs):\n");
  std::printf("%6s %10s %12s\n", "p", "thr/blk", "blocks/GPU");
  for (const auto p : absq::sim::feasible_bits_per_thread_sweep(spec, n)) {
    const auto occ = absq::sim::compute_occupancy(spec, n, p);
    std::printf("%6u %10u %12u\n", p, occ.threads_per_block,
                occ.active_blocks);
  }

  if (const std::string path = cli.get_string("verify"); !path.empty()) {
    const absq::StoredSolution solution = absq::read_solution_file(path);
    ABSQ_CHECK(solution.bits.size() == n,
               "solution has " << solution.bits.size() << " bits, instance "
                               << n);
    const absq::Energy actual = absq::full_energy(w, solution.bits);
    std::printf("\nsolution:      claimed %" PRId64 ", actual %" PRId64
                " — %s\n",
                solution.energy, actual,
                solution.energy == actual ? "VERIFIED" : "MISMATCH");
    return solution.energy == actual ? 0 : 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const absq::CliUsageError&) {
    return absq::kUsageExitCode;  // parse already printed usage to stderr
  } catch (const std::exception& error) {
    std::fprintf(stderr, "absq_info: %s\n", error.what());
    return 1;
  }
}
