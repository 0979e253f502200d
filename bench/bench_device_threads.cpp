// Device threading ablation: flips/sec of AbsSolver::run as a function of
// threads_per_device on one instance.
//
// The paper's premise is that a GPU runs thousands of search blocks
// concurrently; our Device approximates that by sharding its block set
// over worker threads. This bench measures what that buys on the current
// host: the 1-worker row (one worker visiting every block round-robin) is
// the baseline, and each additional worker should scale the flip rate
// until the hardware runs out of cores (the point of printing
// hardware_concurrency in the header) or the workers run out of blocks.
// Every row is the median of kRepeats fresh solver runs (seeds seed …
// seed + kRepeats − 1), with the min–max spread of the flip rate beside it.
// The `cores` column is the process CPU time of each run divided by its
// wall time: the W workers plus whatever the host loop costs on top. A
// host that parks between reports keeps it near W (for W up to the core
// count); one that polled would add a whole core.
//
//   ./bench/bench_device_threads [--bits 1024] [--seconds 2] [--blocks 8]
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "abs/solver.hpp"
#include "bench_util.hpp"
#include "problems/random.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"

namespace {

constexpr int kRepeats = 5;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace

int main(int argc, char** argv) {
  absq::CliParser cli("Device threading — flip rate vs threads_per_device");
  cli.add_flag("bits", std::int64_t{1024}, "instance size");
  cli.add_flag("seconds", 2.0, "measurement window per run");
  cli.add_flag("blocks", std::int64_t{8}, "search blocks per device");
  cli.add_flag("seed", std::int64_t{17}, "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = static_cast<absq::BitIndex>(cli.get_int("bits"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const absq::WeightMatrix w = absq::random_qubo(n, seed);

  std::printf("Device threading ablation — %u-bit instance, %" PRId64
              " blocks, %.1fs per run, median of %d, "
              "hardware_concurrency = %u\n",
              n, cli.get_int("blocks"), cli.get_double("seconds"), kRepeats,
              std::thread::hardware_concurrency());
  std::printf("%8s | %12s %25s %14s | %8s | %5s | %s\n", "threads",
              "flips/s", "min .. max", "solutions/s", "speedup", "cores",
              "misses / drops");
  for (int i = 0; i < 108; ++i) std::putchar('-');
  std::putchar('\n');

  double baseline_flip_rate = 0.0;
  const std::vector<std::uint32_t> sweep = {1, 2, 4, 8};
  for (const std::uint32_t threads : sweep) {
    std::vector<double> flip_rates;
    std::vector<double> search_rates;
    std::vector<double> misses;
    std::vector<double> drops;
    std::vector<double> cores;
    for (int r = 0; r < kRepeats; ++r) {
      absq::AbsConfig config;
      config.device.block_limit =
          static_cast<std::uint32_t>(cli.get_int("blocks"));
      config.device.threads_per_device = threads;
      config.seed = seed + static_cast<std::uint64_t>(r);
      absq::AbsSolver solver(w, config);
      absq::StopCriteria stop;
      stop.time_limit_seconds = cli.get_double("seconds");
      const double cpu_before = absq::bench::process_cpu_seconds();
      const absq::Stopwatch wall;
      const absq::AbsResult result = solver.run(stop);
      cores.push_back((absq::bench::process_cpu_seconds() - cpu_before) /
                      wall.seconds());
      flip_rates.push_back(
          result.seconds > 0.0
              ? static_cast<double>(result.total_flips) / result.seconds
              : 0.0);
      search_rates.push_back(result.search_rate);
      misses.push_back(static_cast<double>(result.devices[0].target_misses));
      drops.push_back(
          static_cast<double>(result.devices[0].solutions_dropped));
    }
    const double flip_rate = median(flip_rates);
    if (threads == 1) baseline_flip_rate = flip_rate;
    const auto [lo, hi] =
        std::minmax_element(flip_rates.begin(), flip_rates.end());
    std::printf("%8u | %12.4e %12.4e .. %10.4e %14.4e | %7.2fx | %5.2f | "
                "%.0f / %.0f\n",
                threads, flip_rate, *lo, *hi, median(search_rates),
                baseline_flip_rate > 0.0 ? flip_rate / baseline_flip_rate
                                         : 0.0,
                median(cores), median(misses), median(drops));
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: with W hardware cores the speedup column should\n"
      "approach min(W, blocks) for threads >= W; rows beyond the core\n"
      "count only show what oversubscription costs. `cores` should read\n"
      "about min(threads, W): the parked host adds next to nothing.\n");
  return 0;
}
