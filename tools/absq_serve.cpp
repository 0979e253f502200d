// absq_serve — solver-as-a-service: a multi-tenant QUBO job server.
//
// Hosts a JobManager (bounded queue + a fleet of solver slots) behind the
// line-delimited JSON TCP protocol of docs/serving.md:
//
//   absq_serve --port 7777 --solvers 2 --max-queue 8
//   absq_serve --port 0 --checkpoint-dir ck/ --metrics serve.prom
//
// Prints `listening on 127.0.0.1:<port>` once ready (with --port 0 the
// kernel picks the port — scripts parse this line). Clients submit with
// absq_client or any tool that can write one JSON object per line.
//
// Shutdown: SIGTERM / SIGINT / the `shutdown` command all start a graceful
// drain — no new submissions, queued and running jobs finish (use
// --no-drain to cancel them instead), telemetry files are written, exit 0.
// A second signal kills the process immediately.
//
// Fault isolation: a job whose solver fails (a device past its watchdog
// restart budget, a bad resume file) becomes `failed`; the server and the
// other tenants live on.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "obs/http_exporter.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/job_manager.hpp"
#include "serve/job_server.hpp"
#include "serve/protocol.hpp"
#include "serve/status.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"

namespace {

/// Signal handlers may only touch lock-free atomics; main polls this.
std::atomic<bool> g_signal{false};

extern "C" void handle_stop_signal(int signum) {
  g_signal.store(true);
  // A second signal means "now": restore the default disposition so the
  // next delivery terminates the process.
  std::signal(signum, SIG_DFL);
}

int run(int argc, char** argv) {
  absq::CliParser cli(
      "absq_serve — multi-tenant QUBO job server (line-delimited JSON over "
      "TCP; see docs/serving.md)");
  cli.add_flag("port", std::int64_t{7777},
               "TCP port on 127.0.0.1 (0 = ephemeral, printed at startup)");
  cli.add_flag("solvers", std::int64_t{1}, "jobs solving concurrently");
  cli.add_flag("max-queue", std::int64_t{64},
               "queued-job bound; submissions beyond it get queue_full");
  cli.add_flag("devices", std::int64_t{1}, "simulated GPUs per job");
  cli.add_flag("blocks", std::int64_t{8},
               "search blocks per device (0 = occupancy-derived)");
  cli.add_flag("threads", std::int64_t{1},
               "worker threads per device within each job");
  cli.add_flag("pool", std::int64_t{128}, "solution pool capacity per job");
  cli.add_flag("watchdog-grace", 0.0,
               "per-job device stall grace in seconds (0 = off)");
  cli.add_flag("max-restarts", std::int64_t{1},
               "per-job restart budget for failed devices");
  cli.add_flag("restart-backoff", 0.0,
               "seconds between a device failure and its restart");
  cli.add_flag("checkpoint-dir", std::string(""),
               "write per-job crash-safe checkpoints job-<id>.ck into this "
               "existing directory");
  cli.add_flag("checkpoint-interval", 30.0,
               "periodic checkpoint cadence in seconds");
  cli.add_flag("recover", false,
               "replay the job journal in --checkpoint-dir at startup: "
               "requeue never-started jobs, resume started ones from their "
               "checkpoints, re-mark finished ones");
  cli.add_flag("idle-timeout", 300.0,
               "close a client connection idle for this many seconds");
  cli.add_flag("drain", true,
               "on shutdown let queued+running jobs finish "
               "(--no-drain cancels them)");
  cli.add_flag("metrics", std::string(""),
               "write a Prometheus text scrape to this file at shutdown");
  cli.add_flag("report", std::string(""),
               "write a JSONL job-summary report to this file at shutdown");
  cli.add_flag("http-port", std::int64_t{-1},
               "serve GET /metrics /status /trace /healthz on this "
               "127.0.0.1 port while running (0 = ephemeral, -1 = off)");
  cli.add_flag("log-level", std::string("warn"),
               "structured JSONL log threshold: debug|info|warn|error|off");
  cli.add_flag("log-file", std::string(""),
               "append structured log lines to this file (default stderr)");
  if (!cli.parse(argc, argv)) return 0;

  ABSQ_CHECK(cli.positional().empty(),
             "absq_serve takes no positional arguments (see --help)");
  // Counts, ports and the log level are checked before any port is bound:
  // a negative count must be a usage error, not a wrapped cast that fails
  // every job later.
  constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
  const std::int64_t port = cli.get_int("port", 0, 65535);
  const std::int64_t solvers = cli.get_int("solvers", 1, 1024);
  const std::int64_t max_queue = cli.get_int("max-queue", 1, kMaxU32);
  // -1 is the documented "off" sentinel.
  const std::int64_t http_port = cli.get_int("http-port", -1, 65535);
  const std::int64_t devices = cli.get_int("devices", 1, 1024);
  const std::int64_t blocks = cli.get_int("blocks", 0, kMaxU32);
  const std::int64_t threads = cli.get_int("threads", 1, 1024);
  const std::int64_t pool = cli.get_int("pool", 1, std::int64_t{1} << 20);
  const std::int64_t max_restarts = cli.get_int("max-restarts", 0, kMaxU32);
  const std::string log_level =
      cli.get_choice("log-level", {"debug", "info", "warn", "error", "off"});

  absq::obs::Logger::global().set_level(
      absq::obs::log_level_from_string(log_level));
  if (const std::string path = cli.get_string("log-file"); !path.empty()) {
    absq::obs::Logger::global().open_file(path);
  }

  // One registry for everything: manager-level job series plus every
  // per-job solver underneath share it, so one scrape covers the server.
  absq::obs::MetricsRegistry registry;
  // The trace ring only fills (and its per-iteration spans only cost)
  // when something can read it — i.e. when the HTTP surface is up.
  absq::obs::EventTracer tracer;
  absq::Stopwatch uptime;

  absq::serve::JobManagerConfig manager_config;
  manager_config.solver_slots = static_cast<std::size_t>(solvers);
  manager_config.max_queue = static_cast<std::size_t>(max_queue);
  manager_config.checkpoint_dir = cli.get_string("checkpoint-dir");
  manager_config.checkpoint_interval_seconds =
      cli.get_double("checkpoint-interval");
  manager_config.recover = cli.get_bool("recover");
  ABSQ_CHECK(!manager_config.recover || !manager_config.checkpoint_dir.empty(),
             "--recover needs --checkpoint-dir (the journal lives there)");
  manager_config.telemetry.metrics = &registry;
  manager_config.solver.num_devices = static_cast<std::uint32_t>(devices);
  manager_config.solver.device.block_limit =
      static_cast<std::uint32_t>(blocks);
  manager_config.solver.device.threads_per_device =
      static_cast<std::uint32_t>(threads);
  manager_config.solver.pool_capacity = static_cast<std::size_t>(pool);
  manager_config.solver.watchdog.stall_grace_seconds =
      cli.get_double("watchdog-grace");
  manager_config.solver.watchdog.max_restarts =
      static_cast<std::uint32_t>(max_restarts);
  manager_config.solver.watchdog.restart_backoff_seconds =
      cli.get_double("restart-backoff");
  manager_config.solver.telemetry.metrics = &registry;
  if (http_port >= 0) manager_config.solver.telemetry.tracer = &tracer;

  absq::serve::JobManager manager(manager_config);

  absq::serve::JobServerConfig server_config;
  server_config.port = static_cast<int>(port);
  server_config.idle_timeout_seconds = cli.get_double("idle-timeout");
  server_config.metrics = &registry;
  absq::serve::JobServer server(manager, server_config);
  server.start();

  std::unique_ptr<absq::obs::HttpExporter> http;
  if (http_port >= 0) {
    absq::obs::HttpExporterConfig http_config;
    http_config.port = static_cast<int>(http_port);
    http_config.metrics = &registry;
    http_config.tracer = &tracer;
    http_config.status = [&manager, &registry, &uptime] {
      return absq::serve::status_json(manager, &registry, uptime.seconds());
    };
    http = std::make_unique<absq::obs::HttpExporter>(std::move(http_config));
    http->start();
  }

  std::printf("absq_serve %s — %lld solver slot%s, queue bound %lld%s\n",
              absq::kVersion, static_cast<long long>(solvers),
              solvers == 1 ? "" : "s", static_cast<long long>(max_queue),
              manager_config.checkpoint_dir.empty() ? ""
                                                    : ", checkpoints on");
  if (manager_config.recover) {
    const absq::serve::RecoveryStats& recovered = manager.recovery_stats();
    // scripts/chaos_smoke.sh parses this line.
    std::printf(
        "recovery: resumed=%zu requeued=%zu expired=%zu lost=%zu "
        "terminal=%zu\n",
        recovered.resumed, recovered.requeued, recovered.expired,
        recovered.lost, recovered.terminal);
  }
  std::printf("listening on 127.0.0.1:%d\n", server.port());
  if (http != nullptr) {
    std::printf("http on 127.0.0.1:%d\n", http->port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  while (!g_signal.load() && !server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  const bool drain = cli.get_bool("drain");
  std::printf("draining — no new submissions%s\n",
              drain ? ", letting jobs finish" : ", cancelling jobs");
  std::fflush(stdout);
  server.stop();  // transport first: no requests race the drain below
  manager.shutdown(drain ? absq::serve::JobManager::Drain::kWait
                         : absq::serve::JobManager::Drain::kCancel);

  // Telemetry exports after the drain, so final job counts are in.
  if (const std::string path = cli.get_string("metrics"); !path.empty()) {
    std::ofstream out(path, std::ios::trunc);
    ABSQ_CHECK(out.good(), "cannot open '" << path << "'");
    out << absq::obs::to_prometheus(registry.scrape());
    std::printf("metrics written to %s\n", path.c_str());
  }
  if (const std::string path = cli.get_string("report"); !path.empty()) {
    std::ofstream out(path, std::ios::trunc);
    ABSQ_CHECK(out.good(), "cannot open '" << path << "'");
    absq::serve::Json meta = absq::serve::Json::object();
    meta.set("type", "meta").set("tool", "absq_serve");
    meta.set("solvers", solvers).set("max_queue", max_queue);
    meta.set("connections",
             static_cast<std::int64_t>(server.connections_accepted()));
    out << meta.dump() << '\n';
    for (const auto& status : manager.list()) {
      absq::serve::Json line = absq::serve::job_to_json(status);
      line.set("type", "job");
      out << line.dump() << '\n';
    }
    ABSQ_CHECK(out.good(), "write failed: '" << path << "'");
    std::printf("report written to %s\n", path.c_str());
  }
  std::printf("absq_serve: clean shutdown\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const absq::CliUsageError&) {
    return absq::kUsageExitCode;  // parse already printed usage to stderr
  } catch (const std::exception& error) {
    std::fprintf(stderr, "absq_serve: %s\n", error.what());
    return 1;
  }
}
