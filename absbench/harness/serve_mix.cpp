// serve-mix: an open-loop job schedule against an in-process JobServer.
//
// Jobs are small dense instances sent inline as qubo text at a fixed rate
// below the knee, spread over a few submit connections; one more
// connection polls `status` and fetches each `result`. Every request is
// timed from its scheduled send time, so a stall also charges the jobs
// queued behind it. Every served solution is re-scored against the
// instance the harness generated.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abs/solver.hpp"
#include "common.hpp"
#include "problems/random.hpp"
#include "qubo/energy.hpp"
#include "qubo/io.hpp"
#include "serve/client.hpp"
#include "serve/job_manager.hpp"
#include "serve/job_server.hpp"
#include "serve/json.hpp"
#include "workloads.hpp"

namespace absbench {
namespace {

namespace serve = absq::serve;
using absq::WeightMatrix;

constexpr double kRate = 8.0;  // jobs per second
constexpr absq::BitIndex kBits = 256;
constexpr int kInstances = 16;
constexpr double kPollSeconds = 0.005;
constexpr double kDrainSeconds = 60.0;

struct Job {
  std::size_t index = 0;
  double due = 0.0;
  int instance = 0;
  bool diverse = false;
  std::uint64_t seed = 1;
  // Filled in as the run goes.
  double sent = -1.0, acked = -1.0, received = -1.0;
  serve::JobId id = 0;
  bool resolved = false, done = false, verified = false;
  serve::JobStatus status;
  double evaluated = 0.0, solve_seconds = 0.0;
  std::string solution;  // checked once the schedule is over
  absq::Energy energy = 0;
};

struct Server {
  std::string dir;
  double clock0 = 0.0;  // harness time when the manager's clock started
  std::unique_ptr<serve::JobManager> manager;
  std::unique_ptr<serve::JobServer> server;

  ~Server() {
    if (server) server->stop();
    if (manager) manager->shutdown(serve::JobManager::Drain::kCancel);
    server.reset();
    manager.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

// absq_serve's defaults (threads=1, 8 blocks, pool 128) with two solver
// slots and the journal on.
serve::JobManagerConfig manager_config(const std::string& dir) {
  serve::JobManagerConfig config;
  config.solver_slots = 2;
  config.max_queue = 64;
  config.checkpoint_dir = dir;
  config.solver.device.block_limit = 8;
  config.solver.device.threads_per_device = 1;
  config.solver.pool_capacity = 128;
  return config;
}

// Manager + server construction until the port accepts a ping.
std::unique_ptr<Server> start_server(const std::string& dir) {
  auto s = std::make_unique<Server>();
  s->dir = dir;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  s->clock0 = now_s();
  s->manager = std::make_unique<serve::JobManager>(manager_config(dir));
  serve::JobServerConfig config;
  config.port = 0;
  s->server = std::make_unique<serve::JobServer>(*s->manager, config);
  s->server->start();
  serve::Client probe("127.0.0.1", s->server->port());
  if (!probe.ping()) throw std::runtime_error("server does not answer ping");
  return s;
}

struct Phase {
  std::vector<Job> jobs;
  std::vector<double> setup_s, status_rtt_ms;
  double phase_cpu_s = 0.0, client_cpu_s = 0.0;
  int threads_mid_run = 0;
  int backlog = -1;
  std::uint64_t refused = 0, errored = 0, timed_out = 0, mismatches = 0;
  double fsyncs_per_job = 0.0;
  double clock0 = 0.0;  // harness time of the server's clock zero
};

// The submit request of a job, built just before it is due so that only
// the requests in flight hold a copy of the instance text.
serve::Json job_request(const Job& job, const std::vector<std::string>& texts) {
  serve::Json request = serve::Json::object();
  request.set("format", "qubo");
  request.set("problem", texts[static_cast<std::size_t>(job.instance)]);
  request.set("max_flips", static_cast<std::int64_t>(kJobFlips));
  request.set("seed", static_cast<std::int64_t>(job.seed));
  request.set("name", std::string("job-").append(std::to_string(job.index)));
  if (job.diverse) {
    request.set("islands", 2);
    request.set("portfolio", "min-delta,sa,multistart");
  }
  return request;
}

void sleep_until(double t) {
  const double wait = t - now_s();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

// One schedule of `count` jobs at kRate against a fresh server.
Phase run_phase(const Options& options, std::uint64_t seed, std::size_t count,
                const std::vector<WeightMatrix>& instances,
                const std::vector<std::string>& texts, int senders,
                const std::string& tag) {
  Phase phase;
  std::unique_ptr<Server> server;
  for (int r = 0; r < 101; ++r) {
    server.reset();
    const double t0 = now_s();
    Span span("server_setup", "serve");
    server = start_server(options.work_dir + "/serve-" +
                          std::to_string(::getpid()) + "-" + tag);
    phase.setup_s.push_back(now_s() - t0);
  }

  phase.jobs.resize(count);
  const double start = now_s() + 0.1;
  for (std::size_t i = 0; i < count; ++i) {
    Job& job = phase.jobs[i];
    job.index = i;
    job.due = start + static_cast<double>(i) / kRate;
    job.instance = static_cast<int>(mix_seed(seed, i) % kInstances);
    job.diverse = i % 4 == 3;
    job.seed = mix_seed(seed, i) >> 1;
  }

  std::mutex mutex;
  std::atomic<std::size_t> sent{0};
  serve::ClientConfig client_config;
  client_config.read_timeout_seconds = 30.0;
  client_config.max_retries = 0;
  const int port = server->server->port();
  const double cpu0 = process_cpu_s();

  auto sender = [&](int lane) {
    spans().thread_begin();
    serve::Client client("127.0.0.1", port, client_config);
    for (std::size_t i = static_cast<std::size_t>(lane); i < count;
         i += static_cast<std::size_t>(senders)) {
      Job& job = phase.jobs[i];
      const serve::Json request = job_request(job, texts);
      sleep_until(job.due);
      const double sent_at = now_s();
      serve::SubmitOutcome outcome;
      bool ok = true;
      try {
        Span span("client_submit", "serve", i);
        outcome = client.submit_full(request);
      } catch (const serve::ConnectionError&) {
        ok = false;
        std::lock_guard<std::mutex> lock(mutex);
        ++phase.errored;
      } catch (const std::exception&) {
        ok = false;
        std::lock_guard<std::mutex> lock(mutex);
        ++phase.refused;
      }
      std::lock_guard<std::mutex> lock(mutex);
      job.sent = sent_at;
      if (ok) {
        job.acked = now_s();
        job.id = outcome.id;
      } else {
        job.resolved = true;
      }
      sent.fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(mutex);
    phase.client_cpu_s += thread_cpu_s();
    spans().thread_end();
  };

  auto poller = [&] {
    spans().thread_begin();
    serve::Client client("127.0.0.1", port, client_config);
    const double schedule_end = phase.jobs.back().due;
    const double deadline = schedule_end + kDrainSeconds;
    std::size_t resolved = 0;
    while (resolved < count && now_s() < deadline) {
      std::vector<std::size_t> pending;
      {
        std::lock_guard<std::mutex> lock(mutex);
        resolved = 0;
        for (std::size_t i = 0; i < count; ++i) {
          if (phase.jobs[i].resolved) {
            ++resolved;
          } else if (phase.jobs[i].acked >= 0) {
            pending.push_back(i);
          }
        }
        if (phase.backlog < 0 && now_s() >= schedule_end) {
          phase.backlog = static_cast<int>(count - resolved);
        }
      }
      if (phase.threads_mid_run == 0 && sent.load() >= count / 2) {
        phase.threads_mid_run = thread_count();
      }
      for (const std::size_t i : pending) {
        Job& job = phase.jobs[i];
        serve::JobStatus status;
        try {
          Span span("client_status", "serve", i);
          const double t0 = now_s();
          status = client.status(job.id);
          phase.status_rtt_ms.push_back((now_s() - t0) * 1e3);
        } catch (const std::exception&) {
          std::lock_guard<std::mutex> lock(mutex);
          ++phase.errored;
          job.resolved = true;
          continue;
        }
        if (!serve::is_terminal(status.state)) continue;
        job.status = status;
        job.done = status.state == serve::JobState::kDone;
        if (job.done) {
          try {
            Span span("client_result", "serve", i);
            const serve::Json reply = client.result(job.id);
            job.received = now_s();
            job.solution = reply.at("solution").as_string();
            job.energy = reply.at("energy").as_int();
            job.solve_seconds = reply.get_double("seconds", 0.0);
            job.evaluated =
                reply.get_double("search_rate", 0.0) * job.solve_seconds;
          } catch (const std::exception&) {
            job.done = false;
          }
        }
        std::lock_guard<std::mutex> lock(mutex);
        job.resolved = true;
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(kPollSeconds));
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (phase.backlog < 0) phase.backlog = 0;
    phase.client_cpu_s += thread_cpu_s();
    spans().thread_end();
  };

  std::vector<std::thread> threads;
  for (int lane = 0; lane < senders; ++lane) threads.emplace_back(sender, lane);
  threads.emplace_back(poller);
  for (std::thread& t : threads) t.join();
  phase.phase_cpu_s = process_cpu_s() - cpu0;

  phase.clock0 = server->clock0;
  for (Job& job : phase.jobs) {
    if (!job.resolved) ++phase.timed_out;
    if (!job.done) continue;
    const WeightMatrix& w = instances[static_cast<std::size_t>(job.instance)];
    const absq::BitVector bits = absq::BitVector::from_string(job.solution);
    job.verified =
        bits.size() == w.size() && absq::full_energy(w, bits) == job.energy;
    if (!job.verified) {
      ++phase.mismatches;
      std::fprintf(stderr, "job %zu: served solution does not verify\n",
                   job.index);
    }
  }
  phase.fsyncs_per_job = journal_writes(server->dir + "/jobs.journal") /
                         static_cast<double>(count);
  return phase;
}

std::uint64_t failures(const Phase& p) {
  std::uint64_t failed = 0;
  for (const Job& job : p.jobs) {
    if (!job.done || !job.verified) ++failed;
  }
  return failed;
}

void end_to_end(const Phase& p, Sheet& sheet) {
  std::vector<double> e2e, admit, run;
  double evaluated = 0.0, solve = 0.0;
  std::uint64_t done = 0;
  for (const Job& job : p.jobs) {
    if (job.acked >= 0) admit.push_back((job.acked - job.due) * 1e3);
    if (!job.done || !job.verified) continue;
    ++done;
    e2e.push_back((job.received - job.due) * 1e3);
    run.push_back(job.status.run_seconds);
    evaluated += job.evaluated;
    solve += job.solve_seconds;
  }
  const double q = tail_percentile(p.jobs.size()) / 100.0;
  sheet.set("tts_s", median(run), "s");
  sheet.set("search_rate", solve > 0 ? evaluated / solve : 0.0,
            "solutions/s");
  sheet.set("setup_s", median(p.setup_s), "s");
  sheet.set("cpu_per_op_s",
            (p.phase_cpu_s - p.client_cpu_s) /
                static_cast<double>(std::max<std::uint64_t>(1, done)),
            "cpu-s");
  sheet.set("peak_rss_mb", peak_rss_mb(), "MB");
  sheet.set("e2e_p50_ms", median(e2e), "ms");
  sheet.set("e2e_tail_ms", quantile(e2e, q), "ms");
  sheet.set("admit_p50_ms", median(admit), "ms");
  sheet.set("admit_tail_ms", quantile(admit, q), "ms");
}

// Serving-layer numbers of the traced phase, from the jobs' JobStatus and
// the harness's own clocks.
void serve_layers(const Phase& p, Sheet& sheet) {
  std::vector<double> queue, run, classic, diverse, lag, late;
  for (const Job& job : p.jobs) {
    if (job.sent >= 0) late.push_back((job.sent - job.due) * 1e3);
    if (!job.done) continue;
    queue.push_back(job.status.queue_seconds * 1e3);
    lag.push_back((job.received - (p.clock0 + job.status.finished_seconds)) *
                  1e3);
    run.push_back(job.status.run_seconds * 1e3);
    (job.diverse ? diverse : classic).push_back(job.status.run_seconds * 1e3);
  }
  sheet.set("serve.queue_ms", median(queue), "ms");
  sheet.set("serve.run_ms", median(run), "ms");
  sheet.set("serve.run_classic_ms", median(classic), "ms");
  sheet.set("serve.run_diverse_ms", median(diverse), "ms");
  sheet.set("serve.observe_lag_ms", median(lag), "ms");
  sheet.set("serve.status_rtt_ms", median(p.status_rtt_ms), "ms");
  sheet.set("serve.threads", p.threads_mid_run, "count");
  sheet.set("serve.fsyncs_per_job", p.fsyncs_per_job, "count");
  sheet.set("harness.late_p50_ms", median(late), "ms");
  sheet.set("harness.late_max_ms",
            late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()),
            "ms");
  sheet.set("harness.backlog", p.backlog, "jobs");
}

}  // namespace

bool run_serve_mix(const Options& options, Sheet& sheet) {
  // The instances are generated by the harness and handed over as text.
  std::vector<WeightMatrix> instances;
  std::vector<std::string> texts;
  for (int k = 0; k < kInstances; ++k) {
    instances.push_back(absq::random_qubo(
        kBits, mix_seed(options.seed, 1000 + static_cast<std::uint64_t>(k))));
    std::ostringstream text;
    absq::write_qubo(text, instances.back());
    texts.push_back(text.str());
  }
  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int senders = std::clamp(nproc - 2, 1, 2);
  const double phase_seconds =
      options.trace ? options.seconds * 0.5 : options.seconds;
  const auto count = std::max<std::size_t>(
      4, static_cast<std::size_t>(phase_seconds * kRate + 0.5));
  const int tail = tail_percentile(count);
  const std::size_t backlog_limit = static_cast<std::size_t>(kRate);

  Phase phase = run_phase(options, options.seed, count, instances, texts,
                          senders, "u");
  std::uint64_t attempted = count, failed = failures(phase),
                mismatches = phase.mismatches;
  bool valid = phase.backlog <= static_cast<int>(backlog_limit);
  end_to_end(phase, sheet);

  if (options.trace) {
    Sheet untraced = sheet;
    sheet = Sheet();
    spans().enable(true);
    spans().thread_begin();
    Phase traced = run_phase(options, mix_seed(options.seed, 77), count,
                             instances, texts, senders, "t");
    spans().thread_end();
    spans().enable(false);
    spans().write_chrome_trace(options.trace_out);
    attempted += count;
    failed += failures(traced);
    mismatches += traced.mismatches;
    valid = valid && traced.backlog <= static_cast<int>(backlog_limit);
    Sheet traced_e2e;
    end_to_end(traced, traced_e2e);
    for (const char* m : kEndToEnd) {
      sheet.set(std::string("obs.trace_overhead.") + m,
                overhead(traced_e2e.get(m), untraced.get(m)), "fraction");
    }
    spans().attribute(sheet);
    serve_layers(traced, sheet);

    // The solver's own counters for the classic job config, run in-process
    // on the job instances (served jobs do not return them).
    SolverTally tally;
    for (std::size_t k = 0; k < 8; ++k) {
      absq::AbsConfig config = manager_config("").solver;
      config.seed = mix_seed(options.seed, 300 + k);
      absq::StopCriteria stop;
      stop.max_flips = kJobFlips;
      const double t0 = now_s();
      absq::AbsSolver solver(instances[k], config);
      const double t1 = now_s();
      const double cpu = process_cpu_s();
      const absq::AbsResult result = solver.run(stop);
      tally.add(result, t1 - t0, now_s() - t1, process_cpu_s() - cpu);
    }
    tally.report(sheet);

    // The replay runs on the instance of the first diverse job.
    const Job& sample = phase.jobs[3];
    const auto instance = static_cast<std::size_t>(sample.instance);
    std::vector<double> parse_s;
    for (int r = 0; r < 5; ++r) {
      std::istringstream in(texts[instance]);
      const double t0 = now_s();
      const WeightMatrix parsed = absq::read_qubo(in);
      parse_s.push_back(now_s() - t0);
    }
    sheet.set("qubo.parse_s", median(parse_s), "s");

    ReplayInput replay;
    replay.w = &instances[instance];
    replay.seed = options.seed;
    replay.work_dir = options.work_dir;
    replay.seconds = 1.5;
    serve::Json request = job_request(sample, texts);
    request.set("cmd", "submit");
    replay.submit_line = request.dump();
    run_replay(replay, sheet);
    fill_unmeasured(sheet, options.workload);
    phase = std::move(traced);
  }

  sheet.note("rate_jobs_per_s", kRate);
  sheet.note("jobs", static_cast<double>(count));
  sheet.note("tail_percentile", tail);
  sheet.note("max_flips", static_cast<double>(kJobFlips));
  sheet.note("solver_slots", 2);
  sheet.note("workers_per_device", 1);
  sheet.note("harness_threads", senders + 1);
  sheet.note("harness_connections", senders + 1);
  sheet.note("backlog", phase.backlog);
  sheet.note("refused", static_cast<double>(phase.refused));
  sheet.note("errored", static_cast<double>(phase.errored));
  sheet.note("timed_out", static_cast<double>(phase.timed_out));
  sheet.note("matrix_bytes",
             static_cast<double>(kBits) * kBits * sizeof(absq::Weight));
  sheet.note("l3_bytes", static_cast<double>(l3_bytes()));
  sheet.attempted = attempted;
  sheet.failed = failed;
  sheet.correct = mismatches == 0;
  if (!valid) {
    std::fprintf(stderr,
                 "serve-mix: invalid run, backlog %d jobs at schedule end "
                 "(limit %zu): the offered rate is past the knee\n",
                 phase.backlog, backlog_limit);
    throw std::runtime_error("serve-mix backlog grows");
  }
  return sheet.correct;
}

}  // namespace absbench
