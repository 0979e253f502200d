// absq_solve — the command-line front end of the ABS solver.
//
// Reads an instance in any of the supported formats, runs the solver with
// fully-configurable stop criteria and device geometry, and prints (or
// saves) the best solution found.
//
//   absq_solve instance.qubo --seconds 10
//   absq_solve graph.gset --format gset --target -11624
//   absq_solve route.tsp  --format tsplib --seconds 30
//   absq_solve formula.cnf --format dimacs --seconds 5
//   absq_solve instance.qubo --devices 4 --adaptive --out best.sol
//   absq_solve instance.qubo --seconds 5 --metrics run.prom
//              --trace run.json --report run.jsonl
//
// Problem-aware decoding: for gset/tsplib/dimacs inputs the result is also
// reported in the problem's own terms (cut weight, tour, violated
// clauses).
//
// Telemetry: --metrics writes a Prometheus text scrape of the metrics
// registry, --trace writes Chrome trace_event JSON (open in
// chrome://tracing or ui.perfetto.dev), --report writes the JSONL run
// report (see docs/observability.md). Any subset may be enabled;
// instrumentation is off (and costs nothing) when none is.
//
// Robustness (docs/robustness.md): --checkpoint enables crash-safe periodic
// run snapshots, --resume restarts from one, --watchdog-grace /
// --max-restarts / --restart-backoff configure the device watchdog. SIGINT
// and SIGTERM request a graceful stop (final checkpoint included); a second
// signal kills the process the old-fashioned way.
#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "abs/solver.hpp"
#include "ga/pool_io.hpp"
#include "portfolio/block_algorithm.hpp"
#include "obs/http_exporter.hpp"
#include "obs/log.hpp"
#include "abs/report.hpp"
#include "problems/graph.hpp"
#include "problems/maxcut.hpp"
#include "problems/sat.hpp"
#include "problems/tsp.hpp"
#include "qubo/energy.hpp"
#include "qubo/io.hpp"
#include "qubo/kernel.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

/// The solver the signal handler should cancel. request_stop() is a single
/// relaxed atomic store, which is as async-signal-safe as it gets.
std::atomic<absq::AbsSolver*> g_active_solver{nullptr};

extern "C" void handle_stop_signal(int signum) {
  if (absq::AbsSolver* solver = g_active_solver.load()) {
    solver->request_stop();
  }
  // A second Ctrl-C means "now": restore the default disposition so the
  // next delivery terminates the process.
  std::signal(signum, SIG_DFL);
}

int run(int argc, char** argv) {
  absq::CliParser cli("absq_solve — Adaptive Bulk Search QUBO solver");
  cli.add_flag("format", std::string("qubo"),
               "input format: qubo | gset | tsplib | dimacs");
  cli.add_flag("seconds", 5.0, "wall-clock limit (0 = none)");
  cli.add_flag("target", std::string(""),
               "stop when this energy is reached (empty = none)");
  cli.add_flag("max-flips", std::int64_t{0}, "flip budget (0 = none)");
  cli.add_flag("devices", std::int64_t{1}, "simulated GPUs");
  cli.add_flag("blocks", std::int64_t{8},
               "search blocks per device (0 = occupancy-derived)");
  cli.add_flag("local-steps", std::int64_t{0},
               "Step 4b flips per iteration (0 = one sweep)");
  cli.add_flag("threads", std::int64_t{-1},
               "worker threads per device (-1 = auto: cores/devices)");
  cli.add_flag("pool", std::int64_t{128}, "solution pool capacity");
  cli.add_flag("adaptive", false, "enable adaptive window switching");
  cli.add_flag("islands", std::int64_t{1},
               "independently seeded island pools with ring migration "
               "(1 = single shared pool, the classic ABS)");
  cli.add_flag("portfolio", std::string(""),
               "comma-separated block-search portfolio: "
               "min-delta | sa | multistart (empty = min-delta only; more "
               "than one member also enables the adaptive controller)");
  cli.add_flag("migration-interval", std::int64_t{0},
               "GA rounds between elite ring migrations (0 = auto)");
  cli.add_flag("kernel", std::string("auto"),
               "flip-kernel form: auto | dense | dense-simd | sparse "
               "(all bit-identical; auto picks by instance density)");
  cli.add_flag("seed", std::int64_t{1}, "solver seed");
  cli.add_flag("out", std::string(""), "write best solution to this file");
  cli.add_flag("print-trace", false, "print the improvement trace");
  cli.add_flag("metrics", std::string(""),
               "write a Prometheus text scrape to this file");
  cli.add_flag("trace", std::string(""),
               "write a Chrome trace_event JSON to this file "
               "(chrome://tracing / Perfetto)");
  cli.add_flag("report", std::string(""),
               "write the JSONL run report to this file");
  cli.add_flag("snapshot-interval", 0.0,
               "periodic RunSnapshot cadence in seconds (0 = off)");
  cli.add_flag("checkpoint", std::string(""),
               "write crash-safe run checkpoints to this file (atomic "
               "temp+rename; also written on graceful exit and SIGINT)");
  cli.add_flag("checkpoint-interval", 30.0,
               "periodic checkpoint cadence in seconds");
  cli.add_flag("resume", std::string(""),
               "resume from a checkpoint file (pool is warm-started, "
               "elapsed time carries over, seed is remixed)");
  cli.add_flag("watchdog-grace", 0.0,
               "quarantine a device whose iteration counter stalls for "
               "this many seconds (0 = stall detection off)");
  cli.add_flag("max-restarts", std::int64_t{0},
               "restart budget per device for failed (thrown) devices");
  cli.add_flag("restart-backoff", 0.0,
               "seconds between a device failure and its restart");
  cli.add_flag("http-port", std::int64_t{-1},
               "serve GET /metrics /status /trace /healthz on this "
               "127.0.0.1 port while solving (0 = ephemeral, -1 = off)");
  cli.add_flag("log-level", std::string("warn"),
               "structured JSONL log threshold: debug|info|warn|error|off");
  cli.add_flag("log-file", std::string(""),
               "append structured log lines to this file (default stderr)");
  if (!cli.parse(argc, argv)) return 0;

  // Counts are range-checked before anything is loaded: a negative value
  // must be a usage error, not a wrapped cast into a huge allocation.
  constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  const std::int64_t devices = cli.get_int("devices", 1, 1024);
  const std::int64_t blocks = cli.get_int("blocks", 0, kMaxU32);
  const std::int64_t local_steps = cli.get_int(
      "local-steps", 0, std::numeric_limits<std::int64_t>::max());
  // -1 is the documented "auto" sentinel; a device needs a worker.
  const std::int64_t threads = cli.get_int("threads", -1, 1024);
  if (threads == 0) {
    cli.fail_usage("--threads must be -1 (auto) or at least 1, got 0");
  }
  const std::int64_t pool = cli.get_int("pool", 1, std::int64_t{1} << 20);
  const std::int64_t max_restarts = cli.get_int("max-restarts", 0, kMaxU32);

  absq::obs::Logger::global().set_level(
      absq::obs::log_level_from_string(cli.get_string("log-level")));
  if (const std::string log_file = cli.get_string("log-file");
      !log_file.empty()) {
    absq::obs::Logger::global().open_file(log_file);
  }

  ABSQ_CHECK(cli.positional().size() == 1,
             "exactly one instance file expected (see --help)");
  const std::string path = cli.positional()[0];
  const std::string format = cli.get_string("format");

  // Load the instance; remember problem context for decoding.
  absq::WeightMatrix w;
  absq::WeightedGraph graph;
  absq::TspQubo tsp_qubo;
  absq::TspInstance tsp;
  absq::SatFormula formula;
  if (format == "qubo") {
    w = absq::read_qubo_file(path);
  } else if (format == "gset") {
    graph = absq::read_gset_file(path);
    w = absq::maxcut_to_qubo(graph);
  } else if (format == "tsplib") {
    tsp = absq::read_tsplib_file(path);
    tsp_qubo = absq::tsp_to_qubo(tsp);
    w = tsp_qubo.w;
  } else if (format == "dimacs") {
    formula = absq::read_dimacs_file(path);
    w = absq::sat_to_qubo(formula).w;
  } else {
    ABSQ_CHECK(false, "unknown --format '" << format << "'");
  }
  std::printf("instance: %s — %u bits, %zu nonzeros, %.1f MiB\n",
              path.c_str(), w.size(), w.nonzeros(),
              static_cast<double>(w.bytes()) / (1 << 20));

  absq::AbsConfig config;
  config.num_devices = static_cast<std::uint32_t>(devices);
  config.device.block_limit = static_cast<std::uint32_t>(blocks);
  config.device.local_steps = static_cast<std::uint64_t>(local_steps);
  config.device.adaptive = cli.get_bool("adaptive");
  config.device.kernel.form =
      absq::parse_kernel_form(cli.get_string("kernel"));
  {
    // Print the plan the devices will run (each device builds an identical
    // plan from the same options).
    const absq::QuboKernel plan(w, config.device.kernel);
    std::printf("kernel: %s\n", plan.description().c_str());
  }
  if (threads > 0) {
    config.device.threads_per_device = static_cast<std::uint32_t>(threads);
  }
  config.pool_capacity = static_cast<std::size_t>(pool);
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::int64_t islands = cli.get_int("islands");
  ABSQ_CHECK(islands >= 1 && islands <= 64,
             "--islands must be in [1, 64], got " << islands);
  config.portfolio.islands = static_cast<std::uint32_t>(islands);
  if (const std::string portfolio = cli.get_string("portfolio");
      !portfolio.empty()) {
    config.portfolio.algorithms = absq::portfolio::parse_portfolio(portfolio);
    if (config.portfolio.algorithm_list().size() > 1 ||
        config.portfolio.islands > 1) {
      config.portfolio.controller = true;
    }
  }
  config.portfolio.migration_interval =
      static_cast<std::uint64_t>(cli.get_int("migration-interval"));
  if (config.portfolio.diverse()) {
    std::printf("diverse: %u island%s, portfolio %s, controller %s\n",
                config.portfolio.islands,
                config.portfolio.islands == 1 ? "" : "s",
                absq::portfolio::portfolio_to_string(
                    config.portfolio.algorithm_list())
                    .c_str(),
                config.portfolio.controller ? "on" : "off");
  }
  config.snapshot_interval_seconds = cli.get_double("snapshot-interval");
  config.checkpoint_path = cli.get_string("checkpoint");
  config.checkpoint_interval_seconds = cli.get_double("checkpoint-interval");
  config.watchdog.stall_grace_seconds = cli.get_double("watchdog-grace");
  config.watchdog.max_restarts = static_cast<std::uint32_t>(max_restarts);
  config.watchdog.restart_backoff_seconds =
      cli.get_double("restart-backoff");

  if (const std::string resume = cli.get_string("resume"); !resume.empty()) {
    const absq::RunCheckpoint checkpoint =
        absq::read_checkpoint_file(resume, config.pool_capacity);
    config.warm_start = checkpoint.pool;
    config.elapsed_offset_seconds = checkpoint.elapsed_seconds;
    // Continue the checkpointed run's stream without replaying it.
    config.seed = absq::mix64(checkpoint.seed + 1);
    std::printf("resumed from %s — %zu pool entries, %.1f s elapsed, "
                "best %" PRId64 "\n",
                resume.c_str(), checkpoint.pool->size(),
                checkpoint.elapsed_seconds, checkpoint.pool->best_energy());
  }

  // Telemetry sinks, created when an export was requested — or when the
  // live HTTP surface is up, which needs both to serve /metrics and
  // /trace during the run.
  const std::string metrics_path = cli.get_string("metrics");
  const std::string trace_path = cli.get_string("trace");
  const std::string report_path = cli.get_string("report");
  const std::int64_t http_port = cli.get_int("http-port");
  ABSQ_CHECK(http_port >= -1 && http_port <= 65535,
             "--http-port must be in [0, 65535], or -1 for off");
  std::unique_ptr<absq::obs::MetricsRegistry> registry;
  std::unique_ptr<absq::obs::EventTracer> tracer;
  if (!metrics_path.empty() || !report_path.empty() || http_port >= 0) {
    registry = std::make_unique<absq::obs::MetricsRegistry>();
    config.telemetry.metrics = registry.get();
  }
  if (!trace_path.empty() || http_port >= 0) {
    tracer = std::make_unique<absq::obs::EventTracer>();
    config.telemetry.tracer = tracer.get();
  }
  std::unique_ptr<absq::obs::HttpExporter> http;
  if (http_port >= 0) {
    absq::obs::HttpExporterConfig http_config;
    http_config.port = static_cast<int>(http_port);
    http_config.metrics = registry.get();
    http_config.tracer = tracer.get();
    http = std::make_unique<absq::obs::HttpExporter>(std::move(http_config));
    http->start();
    std::printf("http on 127.0.0.1:%d\n", http->port());
    std::fflush(stdout);
  }

  absq::StopCriteria stop;
  stop.time_limit_seconds = cli.get_double("seconds");
  if (const std::string target = cli.get_string("target"); !target.empty()) {
    stop.target_energy = std::stoll(target);
  }
  stop.max_flips = static_cast<std::uint64_t>(cli.get_int("max-flips"));
  ABSQ_CHECK(stop.bounded(),
             "set at least one of --seconds / --target / --max-flips");

  absq::AbsSolver solver(w, config);
  g_active_solver.store(&solver);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  const absq::AbsResult result = solver.run(stop);
  g_active_solver.store(nullptr);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  if (result.cancelled) {
    std::printf("interrupted — stopping gracefully%s\n",
                config.checkpoint_path.empty() ? ""
                                               : " (checkpoint written)");
  }
  std::printf("best energy:  %" PRId64 "%s\n", result.best_energy,
              result.reached_target ? "  (target reached)" : "");
  ABSQ_CHECK(absq::full_energy(w, result.best) == result.best_energy,
             "internal error: reported energy does not verify");
  std::printf("flips:        %" PRIu64 "  (%.3g solutions/s)\n",
              result.total_flips, result.search_rate);
  std::printf("pool:         %" PRIu64 " inserted, %" PRIu64
              " duplicates rejected, %" PRIu64 " evictions\n",
              result.reports_inserted, result.duplicates_rejected,
              result.pool_evictions);
  for (const auto& dev : result.devices) {
    std::printf("device %u:     %u worker%s, %" PRIu64 " iterations, %" PRIu64
                " target misses, %" PRIu64 " targets / %" PRIu64
                " solutions dropped\n",
                dev.device_id, dev.workers, dev.workers == 1 ? "" : "s",
                dev.iterations, dev.target_misses, dev.targets_dropped,
                dev.solutions_dropped);
    if (dev.health != absq::DeviceHealth::kHealthy || dev.restarts > 0) {
      std::printf("device %u:     %s after %u restart%s — %s\n",
                  dev.device_id, absq::to_string(dev.health), dev.restarts,
                  dev.restarts == 1 ? "" : "s",
                  dev.failure.empty() ? "recovered" : dev.failure.c_str());
    }
  }
  for (const auto& island : result.islands) {
    std::printf("island %u:     best %" PRId64 ", %zu pool entries, %" PRIu64
                " inserts, %" PRIu64 " migrations in, %u blocks\n",
                island.island_id, island.best_energy, island.pool_evaluated,
                island.inserts, island.migrations_in, island.blocks);
  }
  if (result.migrations > 0 || result.migration_events > 0 ||
      result.controller_reassignments > 0) {
    std::printf("diverse:      %" PRIu64 " elites migrated over %" PRIu64
                " ring rounds, %" PRIu64 " controller reassignments\n",
                result.migrations, result.migration_events,
                result.controller_reassignments);
  }
  if (!result.failed_devices.empty()) {
    std::printf("degraded run: %zu of %u device(s) quarantined\n",
                result.failed_devices.size(), config.num_devices);
  }
  if (result.checkpoints_written > 0 || result.checkpoints_failed > 0) {
    std::printf("checkpoints:  %" PRIu64 " written, %" PRIu64
                " failed → %s\n",
                result.checkpoints_written, result.checkpoints_failed,
                config.checkpoint_path.c_str());
  }

  // Problem-aware decode.
  if (format == "gset") {
    std::printf("cut weight:   %" PRId64 "\n",
                absq::cut_weight(graph, result.best));
  } else if (format == "tsplib") {
    if (const auto tour = absq::decode_tour(tsp_qubo, result.best)) {
      std::printf("tour length:  %" PRId64 "\ntour:        ",
                  tsp.tour_length(*tour));
      for (const auto city : *tour) std::printf(" %u", city);
      std::printf("\n");
    } else {
      std::printf("tour:         best assignment is not a valid tour yet\n");
    }
  } else if (format == "dimacs") {
    std::printf("violated clauses: %zu of %zu\n",
                absq::count_violations(formula, result.best),
                formula.clauses.size());
  }

  if (cli.get_bool("print-trace")) {
    std::printf("improvement trace (s → energy):\n");
    for (const auto& [t, e] : result.best_trace) {
      std::printf("  %10.4f  %" PRId64 "\n", t, e);
    }
  }
  if (const std::string out = cli.get_string("out"); !out.empty()) {
    absq::write_solution_file(out, result.best, result.best_energy);
    std::printf("solution written to %s\n", out.c_str());
  }

  // Telemetry exports.
  if (!metrics_path.empty()) {
    std::ofstream prom(metrics_path, std::ios::trunc);
    ABSQ_CHECK(prom.good(), "cannot open '" << metrics_path << "'");
    prom << absq::obs::to_prometheus(registry->scrape());
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream trace(trace_path, std::ios::trunc);
    ABSQ_CHECK(trace.good(), "cannot open '" << trace_path << "'");
    trace << absq::obs::chrome_trace_json(tracer->snapshot());
    std::printf("trace written to %s (%" PRIu64 " events, %" PRIu64
                " overwritten)\n",
                trace_path.c_str(), tracer->recorded(), tracer->dropped());
  }
  if (!report_path.empty()) {
    absq::RunReportMeta meta;
    meta.tool = "absq_solve";
    meta.instance = path;
    meta.seed = config.seed;
    meta.extra = {{"format", format},
                  {"devices", std::to_string(config.num_devices)},
                  {"blocks", std::to_string(config.device.block_limit)},
                  {"pool", std::to_string(config.pool_capacity)}};
    absq::write_run_report_file(report_path, meta, result,
                                     registry.get());
    std::printf("report written to %s\n", report_path.c_str());
  }
  if (result.cancelled) return 130;  // interrupted, shell convention
  return result.reached_target || !stop.target_energy.has_value() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const absq::CliUsageError&) {
    return absq::kUsageExitCode;  // parse already printed usage to stderr
  } catch (const std::exception& error) {
    std::fprintf(stderr, "absq_solve: %s\n", error.what());
    return 1;
  }
}
