// Replay pass of the traced run.
//
// The layers that run on the solver's own threads (kernel, straight and
// local search, mailboxes, GA, portfolio members) cannot be timed from
// outside AbsSolver::run. The replay drives their public entry points
// directly, one call at a time, on the workload's own instance, and the
// serving layer's admission path likewise on a submit line carrying it.
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abs/search_block.hpp"
#include "abs/solver.hpp"
#include "common.hpp"
#include "ga/operators.hpp"
#include "ga/solution_pool.hpp"
#include "obs/trace.hpp"
#include "portfolio/block_algorithm.hpp"
#include "qubo/delta_state.hpp"
#include "qubo/kernel.hpp"
#include "serve/job_manager.hpp"
#include "serve/journal.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "sim/mailbox.hpp"
#include "workloads.hpp"

namespace absbench {
namespace {

using absq::BitIndex;
using absq::BitVector;
using absq::DeltaState;
using absq::QuboKernel;
using absq::Rng;
using absq::WeightMatrix;

volatile absq::Energy g_sink = 0;

// Runs `body` in batches until `budget` seconds pass; returns the seconds
// spent and leaves the batch count in `batches`.
template <class Body>
double timed_loop(double budget, std::uint64_t& batches, Body&& body) {
  const double start = now_s();
  batches = 0;
  double elapsed = 0.0;
  do {
    body();
    ++batches;
    elapsed = now_s() - start;
  } while (elapsed < budget);
  return elapsed;
}

void kernel_layer(const WeightMatrix& w, const QuboKernel& kernel, Rng& rng,
                  Sheet& sheet) {
  const BitIndex n = w.size();
  std::vector<double> plan_s;
  for (int r = 0; r < 3; ++r) {
    const double t0 = now_s();
    const QuboKernel plan(w);
    plan_s.push_back(now_s() - t0);
  }
  sheet.set("qubo.plan_s", median(plan_s), "s");

  // Δ flips on the planned form, bits drawn uniformly.
  DeltaState state(kernel, BitVector::random(n, rng));
  std::vector<BitIndex> order(4096);
  for (BitIndex& k : order) k = static_cast<BitIndex>(rng.below(n));
  std::uint64_t batches = 0;
  absq::Energy sink = 0;
  const double spent = timed_loop(0.4, batches, [&] {
    for (const BitIndex k : order) sink += state.flip_tracked(k).energy;
  });
  g_sink = sink;  // keeps the flips observable to the optimizer
  sheet.set("qubo.flip_ns",
            spent * 1e9 / static_cast<double>(batches * order.size()), "ns");

  // Bytes a flip touches, computed from the plan: the dense forms read a
  // weight row and read-modify-write the Δ vector; the sparse form reads
  // the CSR row, its Δ entries and the tournament-tree path above each.
  const double delta_bytes =
      kernel.width() == absq::DeltaWidth::kWide64 ? 8.0 : 4.0;
  double bytes = 0.0;
  if (const auto* sparse = kernel.sparse(); sparse != nullptr) {
    double entries = 0.0;
    for (BitIndex k = 0; k < n; ++k) {
      entries += static_cast<double>(sparse->row(k).size());
    }
    const double degree = entries / n;
    const double depth = std::ceil(std::log2(std::max<double>(2.0, n)));
    bytes = degree * (sizeof(BitIndex) + sizeof(absq::Weight) + delta_bytes +
                      depth * 16.0);
  } else {
    bytes = n * (sizeof(absq::Weight) + delta_bytes);
  }
  sheet.set("qubo.bytes_per_flip", bytes, "B");
  const double matrix_bytes =
      static_cast<double>(n) * n * sizeof(absq::Weight);
  sheet.set("qubo.matrix_mb", matrix_bytes / 1e6, "MB");
  const auto l3 = static_cast<double>(l3_bytes());
  sheet.set("qubo.matrix_l3_frac", l3 > 0 ? matrix_bytes / l3 : 0.0,
            "fraction");
}

// A SearchBlock::iterate loop fed the way the host feeds it: GA targets
// bred from a pool that takes the blocks' reports, passed through the
// target and solution mailboxes. The blocks' own trace spans split each
// iteration into its straight and local parts.
void block_layers(const WeightMatrix& w, const QuboKernel& kernel, Rng& rng,
                  std::uint64_t seed, double budget, Sheet& sheet) {
  const BitIndex n = w.size();
  absq::obs::EventTracer tracer(std::size_t{1} << 17);
  std::vector<BitIndex> ladder;
  for (BitIndex l = 2; l <= n / 2; l *= 2) ladder.push_back(l);
  std::vector<std::unique_ptr<absq::SearchBlock>> blocks;
  for (std::uint32_t b = 0; b < 8; ++b) {
    absq::SearchBlock::Config config;
    config.block_id = b;
    config.window = ladder[b % ladder.size()];
    config.local_steps = n;
    config.seed = mix_seed(seed, b);
    config.tracer = &tracer;
    config.kernel = &kernel;
    blocks.push_back(std::make_unique<absq::SearchBlock>(w, config));
  }
  absq::SolutionPool pool(128);
  pool.initialize_random(n, rng);
  const absq::GaConfig ga;
  absq::sim::TargetBuffer targets(8);
  absq::sim::SolutionBuffer solutions(8);

  double breed = 0.0, insert = 0.0, mailbox = 0.0, iterate = 0.0;
  std::uint64_t iterations = 0, inserts = 0;
  const double start = now_s();
  // The tracer's ring holds 2 spans per iteration; stay well inside it.
  while (now_s() - start < budget && iterations < 6000) {
    const double t0 = now_s();
    BitVector target = absq::generate_target(pool, ga, rng);
    const double t1 = now_s();
    targets.push(std::move(target));
    std::optional<BitVector> polled = targets.poll();
    const double t2 = now_s();
    absq::sim::ReportedSolution report =
        blocks[iterations % blocks.size()]->iterate(*polled);
    const double t3 = now_s();
    solutions.push(std::move(report));
    std::vector<absq::sim::ReportedSolution> drained = solutions.drain();
    const double t4 = now_s();
    for (const auto& r : drained) {
      (void)pool.insert(r.bits, r.energy);
      ++inserts;
    }
    const double t5 = now_s();
    breed += t1 - t0;
    mailbox += (t2 - t1) + (t4 - t3);
    iterate += t3 - t2;
    insert += t5 - t4;
    ++iterations;
  }

  double straight_ns = 0.0, local_ns = 0.0, walk = 0.0, local = 0.0;
  for (const absq::obs::TraceEvent& e : tracer.snapshot()) {
    if (std::string(e.name) == "straight") {
      straight_ns += static_cast<double>(e.dur_ns);
      walk += static_cast<double>(e.arg_value);
    } else if (std::string(e.name) == "local") {
      local_ns += static_cast<double>(e.dur_ns);
      local += static_cast<double>(e.arg_value);
    }
  }
  const auto iters = static_cast<double>(iterations);
  sheet.set("search.straight_share", ratio(straight_ns * 1e-9, iterate),
            "fraction");
  sheet.set("search.straight_flip_ns", ratio(straight_ns, walk), "ns");
  sheet.set("search.local_flip_ns", ratio(local_ns, local), "ns");
  sheet.set("search.walk_flips", ratio(walk, iters), "flips/iteration");
  sheet.set("ga.breed_us", ratio(breed * 1e6, iters), "us");
  sheet.set("ga.insert_us", ratio(insert * 1e6, static_cast<double>(inserts)),
            "us");
  sheet.set("sim.mailbox_ns", ratio(mailbox * 1e9, iters), "ns");
  sheet.note("replay_iterations", iters);
}

// The SA and multistart portfolio members, timed per local step: one step
// call is asked for n steps, the Step-4b budget a block gives its member.
void portfolio_members(const WeightMatrix& w, const QuboKernel& kernel,
                       Rng& rng, Sheet& sheet) {
  const BitIndex n = w.size();
  const absq::portfolio::AlgorithmOptions options;
  absq::portfolio::SaAlgorithm sa(options);
  absq::portfolio::MultiStartAlgorithm multistart(options);
  const std::pair<absq::portfolio::BlockAlgorithm*, const char*> members[] = {
      {&sa, "portfolio.sa_flip_ns"},
      {&multistart, "portfolio.multistart_flip_ns"}};
  for (const auto& [member, name] : members) {
    DeltaState state(kernel, BitVector::random(n, rng));
    absq::BestTracker tracker;
    absq::SearchStats stats;
    std::uint64_t batches = 0;
    const double spent = timed_loop(
        0.3, batches, [&] { member->step(state, tracker, stats, rng, n); });
    sheet.set(name, spent * 1e9 / (static_cast<double>(batches) * n), "ns");
  }
}

// Algorithm switches plus controller reassignments of one diverse job:
// islands and a three-member portfolio, as serve-mix submits every fourth.
void diverse_job(const WeightMatrix& w, std::uint64_t seed, Sheet& sheet) {
  double switches = 0.0;
  const int runs = 3;
  for (int r = 0; r < runs; ++r) {
    absq::AbsConfig config;
    config.device.block_limit = 8;
    config.device.threads_per_device = 1;
    config.seed = mix_seed(seed, 500 + static_cast<std::uint64_t>(r));
    config.portfolio.islands = 2;
    config.portfolio.algorithms =
        absq::portfolio::parse_portfolio("min-delta,sa,multistart");
    config.portfolio.controller = true;
    absq::StopCriteria stop;
    stop.max_flips = kJobFlips;
    absq::AbsSolver solver(w, config);
    const absq::AbsResult result = solver.run(stop);
    switches += static_cast<double>(result.controller_reassignments);
    for (const auto& device : result.devices) {
      switches += static_cast<double>(device.algorithm_switches);
    }
  }
  sheet.set("portfolio.switches_per_job", switches / runs, "count");
}

// Admission path of the serving layer on a submit line for this instance:
// JSON parse, problem parse, and submit_full (spool + journal fsync before
// the ack) on a journaled manager; then raw Journal::append.
void serve_admission(const ReplayInput& in, Sheet& sheet) {
  namespace serve = absq::serve;
  const int repeats = in.w->size() > 512 ? 3 : 5;
  std::vector<double> json_ms, problem_ms, submit_ms, fsync_ms;
  std::shared_ptr<const WeightMatrix> problem;
  for (int r = 0; r < repeats; ++r) {
    double t0 = now_s();
    const serve::Json request = serve::Json::parse(in.submit_line);
    json_ms.push_back((now_s() - t0) * 1e3);
    t0 = now_s();
    problem = serve::parse_problem(request);
    problem_ms.push_back((now_s() - t0) * 1e3);
  }
  sheet.set("serve.json_parse_ms", median(json_ms), "ms");
  sheet.set("serve.problem_parse_ms", median(problem_ms), "ms");

  const std::string dir =
      in.work_dir + "/replay-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    serve::JobManagerConfig config;
    config.solver_slots = 1;
    config.checkpoint_dir = dir;
    config.solver.device.block_limit = 8;
    config.solver.device.threads_per_device = 1;
    serve::JobManager manager(config);
    for (int r = 0; r < repeats; ++r) {
      serve::JobSpec spec;
      spec.problem = problem;
      spec.stop.max_flips = 1000;
      spec.seed = static_cast<std::uint64_t>(r + 1);
      const double t0 = now_s();
      (void)manager.submit_full(spec);
      submit_ms.push_back((now_s() - t0) * 1e3);
    }
    manager.shutdown(serve::JobManager::Drain::kWait);
  }
  sheet.set("serve.submit_ms", median(submit_ms), "ms");
  if (!sheet.has("serve.fsyncs_per_job")) {
    sheet.set("serve.fsyncs_per_job",
              journal_writes(dir + "/jobs.journal") / repeats, "count");
  }
  {
    serve::Journal journal(dir + "/append.journal");
    serve::JournalRecord record;
    record.event = serve::JournalEvent::kStarted;
    record.name = "replay";
    for (int r = 0; r < 20; ++r) {
      record.id = static_cast<serve::JobId>(r + 1);
      const double t0 = now_s();
      journal.append(record);
      fsync_ms.push_back((now_s() - t0) * 1e3);
    }
  }
  sheet.set("serve.fsync_ms", median(fsync_ms), "ms");
  std::filesystem::remove_all(dir);
}

}  // namespace

void run_replay(const ReplayInput& in, Sheet& sheet) {
  const WeightMatrix& w = *in.w;
  Rng rng(mix_seed(in.seed, 1234));
  const QuboKernel kernel(w);
  sheet.note("kernel", kernel.description());
  kernel_layer(w, kernel, rng, sheet);
  block_layers(w, kernel, rng, in.seed, in.seconds, sheet);
  portfolio_members(w, kernel, rng, sheet);
  diverse_job(w, in.seed, sheet);
  serve_admission(in, sheet);
}

double journal_writes(const std::string& journal_path) {
  namespace serve = absq::serve;
  double writes = 0.0;
  for (const serve::JournalRecord& record :
       serve::Journal::replay_file(journal_path).records) {
    writes += record.event == serve::JournalEvent::kCheckpointed ? 2.0 : 1.0;
  }
  return writes;
}

void SolverTally::add(const absq::AbsResult& result, double ctor,
                      double run, double run_cpu) {
  ctor_s.push_back(ctor);
  run_s += run;
  run_cpu_s += run_cpu;
  evaluated += static_cast<double>(result.evaluated_solutions);
  reports_received += static_cast<double>(result.reports_received);
  inserted += static_cast<double>(result.reports_inserted);
  duplicates += static_cast<double>(result.duplicates_rejected);
  for (const auto& device : result.devices) {
    iterations += static_cast<double>(device.iterations);
    target_misses += static_cast<double>(device.target_misses);
    device_reports += static_cast<double>(device.reports);
    solutions_dropped += static_cast<double>(device.solutions_dropped);
    workers = device.workers;
  }
}

void SolverTally::report(Sheet& sheet) const {
  sheet.set("abs.ctor_s", median(ctor_s), "s");
  sheet.set("abs.iters_per_s", ratio(iterations, run_s), "1/s");
  sheet.set("abs.target_miss_frac", ratio(target_misses, iterations),
            "fraction");
  sheet.set("abs.dup_frac", ratio(duplicates, reports_received), "fraction");
  sheet.set("abs.insert_frac", ratio(inserted, reports_received), "fraction");
  sheet.set("abs.cores_busy", ratio(run_cpu_s, run_s), "cores");
  sheet.set("sim.report_drop_frac", ratio(solutions_dropped, device_reports),
            "fraction");
}

void fill_unmeasured(Sheet& sheet, const std::string& workload) {
  static const std::pair<const char*, const char*> kPerLayer[] = {
      {"qubo.parse_s", "s"},
      {"problems.gset_s", "s"},
      {"abs.stop_lag_ms", "ms"},
      {"abs.scaling_eff", "fraction"},
      {"serve.queue_ms", "ms"},
      {"serve.run_ms", "ms"},
      {"serve.run_classic_ms", "ms"},
      {"serve.run_diverse_ms", "ms"},
      {"serve.observe_lag_ms", "ms"},
      {"serve.status_rtt_ms", "ms"},
      {"harness.late_p50_ms", "ms"},
      {"harness.late_max_ms", "ms"},
      {"harness.backlog", "jobs"},
  };
  std::string missing;
  for (const auto& [name, unit] : kPerLayer) {
    if (sheet.has(name)) continue;
    sheet.set(name, 0.0, unit);
    if (!missing.empty()) missing += ',';
    missing += name;
  }
  sheet.note("not_on_" + workload + "_path", missing);
}

}  // namespace absbench
