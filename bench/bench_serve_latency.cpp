// Serving-layer latency benchmark: admission p50/p99 under pipelined
// clients.
//
// Boots an in-process JobServer (loopback, ephemeral port) over a
// JobManager with a few solver slots, then drives it with N concurrent
// clients, each submitting a stream of small jobs over one keep-alive
// connection and timing every submit round-trip (request written →
// "ok" reply parsed). That round-trip is the *admission* latency — what
// a caller waits before regaining control — and is the serving-layer
// number the perf-trajectory rail tracks: it must stay flat while the
// solver slots are saturated, because admission only touches the queue,
// never the solvers. The committed snapshot lives in BENCH_serve.json;
// scripts/perfgate.sh diffs `p99_ms` against it.
//
//   ./bench/bench_serve_latency [--clients 4] [--jobs 25] [--bits 32]
//                               [--report BENCH_serve.json]
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "problems/random.hpp"
#include "qubo/io.hpp"
#include "serve/client.hpp"
#include "serve/job_manager.hpp"
#include "serve/job_server.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/json_text.hpp"
#include "util/stopwatch.hpp"

namespace {

double percentile(std::vector<double>& sorted_ms, double q) {
  ABSQ_CHECK(!sorted_ms.empty(), "no latency samples");
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(rank, sorted_ms.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  absq::CliParser cli(
      "Serving-layer admission latency under pipelined clients");
  cli.add_flag("clients", std::int64_t{4}, "concurrent client connections");
  cli.add_flag("jobs", std::int64_t{25}, "submissions per client");
  cli.add_flag("bits", std::int64_t{32}, "instance size per job");
  cli.add_flag("slots", std::int64_t{2}, "solver slots in the manager");
  cli.add_flag("max-flips", std::int64_t{20000}, "flip budget per job");
  cli.add_flag("seed", std::int64_t{7}, "instance seed");
  cli.add_flag("report", std::string(""),
               "write one machine-readable `serve` JSON line to this file");
  if (!cli.parse(argc, argv)) return 0;

  const int clients = static_cast<int>(cli.get_int("clients"));
  const int jobs_per_client = static_cast<int>(cli.get_int("jobs"));
  const auto bits = static_cast<absq::BitIndex>(cli.get_int("bits"));
  const std::int64_t max_flips = cli.get_int("max-flips");

  // One shared instance shipped inline on every submit — the payload the
  // server must parse per admission, like a real client burst.
  const absq::WeightMatrix w =
      absq::random_qubo(bits, static_cast<std::uint64_t>(cli.get_int("seed")));
  std::ostringstream encoded;
  absq::write_qubo(encoded, w);
  const std::string problem = encoded.str();

  absq::serve::JobManagerConfig manager_config;
  manager_config.solver_slots =
      static_cast<std::size_t>(cli.get_int("slots"));
  manager_config.max_queue =
      static_cast<std::size_t>(clients) *
          static_cast<std::size_t>(jobs_per_client) +
      16;
  manager_config.solver.device.block_limit = 2;
  absq::serve::JobManager manager(manager_config);
  absq::serve::JobServerConfig server_config;
  server_config.port = 0;
  absq::serve::JobServer server(manager, server_config);
  server.start();

  std::printf("serve latency: %d clients x %d jobs, %u-bit instances, "
              "%zu slots\n",
              clients, jobs_per_client, bits, manager_config.solver_slots);

  absq::Stopwatch wall;
  std::vector<std::vector<double>> per_client_ms(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      absq::serve::Client client("127.0.0.1", server.port());
      auto& samples = per_client_ms[static_cast<std::size_t>(c)];
      samples.reserve(static_cast<std::size_t>(jobs_per_client));
      for (int j = 0; j < jobs_per_client; ++j) {
        absq::serve::Json request = absq::serve::Json::object();
        request.set("problem", problem);
        request.set("format", std::string("qubo"));
        request.set("max_flips", max_flips);
        request.set("seed", std::int64_t{c * 1000 + j + 1});
        request.set("name", "lat-" + std::to_string(c));
        absq::Stopwatch rtt;
        (void)client.submit(std::move(request));
        samples.push_back(rtt.seconds() * 1000.0);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double submit_wall = wall.seconds();

  // Drain: every submission must finish — admission speed means nothing
  // if the queue wedges.
  manager.shutdown(absq::serve::JobManager::Drain::kWait);
  const double drain_wall = wall.seconds();
  server.stop();

  std::vector<double> all_ms;
  for (const auto& samples : per_client_ms) {
    all_ms.insert(all_ms.end(), samples.begin(), samples.end());
  }
  std::sort(all_ms.begin(), all_ms.end());
  const double p50 = percentile(all_ms, 0.50);
  const double p99 = percentile(all_ms, 0.99);
  const std::uint64_t total = all_ms.size();
  const double throughput =
      submit_wall > 0.0 ? static_cast<double>(total) / submit_wall : 0.0;

  std::printf("%-22s %10s\n", "metric", "value");
  std::printf("%-22s %10" PRIu64 "\n", "admissions", total);
  std::printf("%-22s %10.3f\n", "p50 (ms)", p50);
  std::printf("%-22s %10.3f\n", "p99 (ms)", p99);
  std::printf("%-22s %10.3f\n", "max (ms)", all_ms.back());
  std::printf("%-22s %10.1f\n", "admissions/s", throughput);
  std::printf("%-22s %10.3f\n", "drain wall (s)", drain_wall);

  if (const std::string path = cli.get_string("report"); !path.empty()) {
    std::ofstream out(path, std::ios::trunc);
    ABSQ_CHECK(out.good(), "cannot open report '" << path << "'");
    out << "{\"type\":\"serve\",\"bench\":\"bench_serve_latency\","
        << "\"row\":\"clients=" << clients << ",jobs=" << jobs_per_client
        << ",bits=" << bits << "\",\"admissions\":" << total
        << ",\"p50_ms\":" << absq::json_number(p50)
        << ",\"p99_ms\":" << absq::json_number(p99)
        << ",\"max_ms\":" << absq::json_number(all_ms.back())
        << ",\"admissions_per_second\":"
        << absq::json_number(throughput)
        << ",\"drain_seconds\":" << absq::json_number(drain_wall)
        << "}\n";
  }
  return 0;
}
