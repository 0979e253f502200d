// dense-tts and sparse-tts: the paper's time-to-solution protocol.
//
// The harness generates the instance text from the pinned instance seed,
// hands the text to the program's parser, and then runs repeated trials,
// each with a fresh AbsSolver whose stop criterion is the pinned target
// energy (plus a cap). Every trial's best solution is re-scored against
// the matrix the harness generated; on sparse-tts also as a cut.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "abs/solver.hpp"
#include "common.hpp"
#include "problems/graph.hpp"
#include "problems/maxcut.hpp"
#include "problems/random.hpp"
#include "qubo/energy.hpp"
#include "qubo/io.hpp"
#include "serve/json.hpp"
#include "workloads.hpp"

namespace absbench {
namespace {

using absq::AbsConfig;
using absq::AbsResult;
using absq::AbsSolver;
using absq::Energy;
using absq::WeightMatrix;

struct Instance {
  bool sparse = false;
  std::string text;              // what the program is handed
  WeightMatrix generated;        // the harness's own copy, for checking
  std::optional<absq::WeightedGraph> graph;  // sparse-tts only
  Energy target = 0;
  double cap_s = 0.0;            // a trial that passes this has failed
};

Instance make_instance(const Options& options, Energy target) {
  Instance inst;
  inst.sparse = options.workload == "sparse-tts";
  inst.target = target;
  inst.cap_s = options.cap_seconds;
  const std::uint64_t seed = options.instance_seed;
  std::ostringstream text;
  if (inst.sparse) {
    const absq::GsetSpec* g55 = nullptr;
    for (const auto& row : absq::gset_catalog()) {
      if (row.name == "G55") g55 = &row;
    }
    inst.graph = absq::generate_gset_instance(*g55, seed);
    absq::write_gset(text, *inst.graph);
    inst.generated = absq::maxcut_to_qubo(*inst.graph);
  } else {
    inst.generated = absq::random_qubo(1024, seed);
    absq::write_qubo(text, inst.generated);
  }
  inst.text = text.str();
  return inst;
}

// The instance as the program sees it: parsed from the handed text.
WeightMatrix parse_instance(const Instance& inst) {
  std::istringstream in(inst.text);
  if (inst.sparse) {
    Span span("gset_parse", "problems");
    return absq::maxcut_to_qubo(absq::read_gset(in));
  }
  Span span("qubo_parse", "qubo");
  return absq::read_qubo(in);
}

// absq_solve's defaults: 8 blocks, pool 128, local steps = n, auto workers.
AbsConfig solver_config(std::uint64_t seed) {
  AbsConfig config;
  config.device.block_limit = 8;
  config.pool_capacity = 128;
  config.seed = seed;
  return config;
}

struct Trials {
  std::vector<double> tts_s, e2e_s, stop_lag_ms;
  SolverTally solver;  // successful trials only
  double phase_cpu_s = 0.0;
  std::uint64_t ops = 0, failed = 0, mismatches = 0;
  int threads_mid_run = 0;
};

bool verify(const Instance& inst, const AbsResult& result) {
  if (result.best.size() != inst.generated.size()) return false;
  if (absq::full_energy(inst.generated, result.best) != result.best_energy) {
    return false;
  }
  if (inst.graph && absq::cut_weight(*inst.graph, result.best) !=
                        -result.best_energy) {
    return false;
  }
  return true;
}

Trials run_trials(const Instance& inst, const WeightMatrix& w,
                  std::uint64_t seed, double seconds, std::size_t min_trials,
                  std::optional<std::uint32_t> workers) {
  Trials t;
  const double cpu0 = process_cpu_s();
  const double start = now_s();
  while (now_s() - start < seconds || t.ops < min_trials) {
    const std::uint64_t op = t.ops++;
    AbsConfig config = solver_config(mix_seed(seed, op));
    config.device.threads_per_device = workers;
    absq::StopCriteria stop;
    stop.target_energy = inst.target;
    stop.time_limit_seconds = inst.cap_s;

    const double t0 = now_s();
    std::optional<AbsSolver> solver;
    {
      Span span("solver_ctor", "abs", op);
      solver.emplace(w, config);
    }
    // The first trial's thread count is read mid-run by a short sampler.
    std::thread sampler;
    if (op == 0) {
      sampler = std::thread([&t] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        t.threads_mid_run = thread_count();
      });
    }
    const double t1 = now_s();
    const double cpu_before = process_cpu_s();
    AbsResult result;
    {
      Span span("solver_run", "abs", op);
      result = solver->run(stop);
    }
    const double t2 = now_s();
    const double run_cpu = process_cpu_s() - cpu_before;
    if (sampler.joinable()) sampler.join();
    solver.reset();

    bool ok = false;
    {
      Span span("verify", "harness", op);
      ok = verify(inst, result);
    }
    if (!ok) {
      ++t.mismatches;
      ++t.failed;
      std::fprintf(stderr, "trial %llu: solution does not verify\n",
                   static_cast<unsigned long long>(op));
      continue;
    }
    if (!result.reached_target || result.best_energy > inst.target) {
      ++t.failed;
      continue;
    }
    t.tts_s.push_back(t2 - t1);
    t.e2e_s.push_back(t2 - t0);
    t.solver.add(result, t1 - t0, t2 - t1, run_cpu);
    for (const auto& [at, energy] : result.best_trace) {
      if (energy <= inst.target) {
        t.stop_lag_ms.push_back(((t2 - t1) - at) * 1e3);
        break;
      }
    }
  }
  t.phase_cpu_s = process_cpu_s() - cpu0;
  return t;
}

// setup_s: parse the handed text plus the first AbsSolver construction,
// repeated and reported as the median. Returns the parsed matrix.
WeightMatrix run_setups(const Instance& inst, int repeats,
                        std::vector<double>& setup_s,
                        std::vector<double>& parse_s) {
  WeightMatrix w;
  for (int r = 0; r < repeats; ++r) {
    w = WeightMatrix();  // the previous parse is gone before the next
    const double t0 = now_s();
    w = parse_instance(inst);
    parse_s.push_back(now_s() - t0);
    {
      Span span("solver_ctor", "abs");
      AbsSolver first(w, solver_config(1));
    }
    setup_s.push_back(now_s() - t0);
  }
  return w;
}

// Fixed tail percentile of the solve workloads: p90 over at least 100
// trials leaves at least 10 samples beyond it.
constexpr int kTail = 90;
constexpr std::size_t kMinTrials = 100;

void end_to_end(const Trials& t, const std::vector<double>& setup_s,
                Sheet& sheet) {
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, t.ops));
  const double q = kTail / 100.0;
  sheet.set("tts_s", median(t.tts_s), "s");
  sheet.set("search_rate", t.solver.search_rate(), "solutions/s");
  sheet.set("setup_s", median(setup_s), "s");
  sheet.set("cpu_per_op_s", t.phase_cpu_s / ops, "cpu-s");
  sheet.set("peak_rss_mb", peak_rss_mb(), "MB");
  sheet.set("e2e_p50_ms", median(t.e2e_s) * 1e3, "ms");
  sheet.set("e2e_tail_ms", quantile(t.e2e_s, q) * 1e3, "ms");
  sheet.set("admit_p50_ms", median(t.solver.ctor_s) * 1e3, "ms");
  sheet.set("admit_tail_ms", quantile(t.solver.ctor_s, q) * 1e3, "ms");
}

}  // namespace

bool run_solve(const Options& options, Energy target, Sheet& sheet) {
  const Instance inst = make_instance(options, target);
  const int repeats = inst.sparse ? 15 : 5;
  const double phase = options.trace ? options.seconds * 0.5 : options.seconds;

  std::vector<double> setup_s, parse_s;
  WeightMatrix w = run_setups(inst, repeats, setup_s, parse_s);
  const Trials trials = run_trials(inst, w, options.seed, phase,
                                   options.trace ? 0 : kMinTrials,
                                   std::nullopt);
  std::uint64_t attempted = trials.ops, failed = trials.failed,
                mismatches = trials.mismatches;
  Trials traced;  // the traced phase, when there is one
  const Trials* reported = &trials;

  if (!options.trace) {
    end_to_end(trials, setup_s, sheet);
  } else {
    // The same protocol again with the spans on. The per-layer numbers come
    // from this phase; its difference to the phase above is the overhead.
    Sheet untraced, traced_e2e;
    end_to_end(trials, setup_s, untraced);
    spans().enable(true);
    spans().thread_begin();
    std::vector<double> traced_setup_s, traced_parse_s;
    w = WeightMatrix();
    w = run_setups(inst, repeats, traced_setup_s, traced_parse_s);
    traced = run_trials(inst, w, mix_seed(options.seed, 77), phase, 0,
                        std::nullopt);
    spans().thread_end();
    spans().enable(false);
    spans().write_chrome_trace(options.trace_out);
    end_to_end(traced, traced_setup_s, traced_e2e);
    reported = &traced;
    attempted += traced.ops;
    failed += traced.failed;
    mismatches += traced.mismatches;

    for (const char* m : kEndToEnd) {
      sheet.set(std::string("obs.trace_overhead.") + m,
                overhead(traced_e2e.get(m), untraced.get(m)), "fraction");
    }
    spans().attribute(sheet);
    traced.solver.report(sheet);
    sheet.set("abs.stop_lag_ms", median(traced.stop_lag_ms), "ms");
    sheet.set("serve.threads", traced.threads_mid_run, "count");
    sheet.set(inst.sparse ? "problems.gset_s" : "qubo.parse_s",
              median(traced_parse_s), "s");

    // Single-worker pass: the plain baseline behind abs.scaling_eff.
    const Trials single = run_trials(inst, w, mix_seed(options.seed, 91),
                                     options.seconds * 0.2, 3, 1u);
    attempted += single.ops;
    failed += single.failed;
    mismatches += single.mismatches;
    sheet.set("abs.scaling_eff",
              ratio(traced.solver.search_rate(),
                    traced.solver.workers * single.solver.search_rate()),
              "fraction");
    sheet.note("single_worker_trials", static_cast<double>(single.ops));

    ReplayInput replay;
    replay.w = &w;
    replay.seed = options.seed;
    replay.work_dir = options.work_dir;
    replay.seconds = inst.sparse ? 3.0 : 2.0;
    absq::serve::Json request = absq::serve::Json::object();
    request.set("cmd", "submit");
    request.set("format", inst.sparse ? "gset" : "qubo");
    request.set("problem", inst.text);
    request.set("seed", static_cast<std::int64_t>(options.seed));
    replay.submit_line = request.dump();
    run_replay(replay, sheet);
    fill_unmeasured(sheet, options.workload);
  }

  sheet.note("instance_seed", static_cast<double>(options.instance_seed));
  sheet.note("target_energy", static_cast<double>(target));
  sheet.note("tail_percentile", kTail);
  sheet.note("trials", static_cast<double>(reported->ops));
  sheet.note("tts_max_s", reported->tts_s.empty()
                              ? 0.0
                              : *std::max_element(reported->tts_s.begin(),
                                                  reported->tts_s.end()));
  sheet.note("workers_per_device", reported->solver.workers);
  sheet.note("harness_threads", 1);
  sheet.note("harness_connections", 0);
  sheet.note("matrix_bytes", static_cast<double>(inst.generated.size()) *
                                 static_cast<double>(inst.generated.size()) *
                                 sizeof(absq::Weight));
  sheet.note("l3_bytes", static_cast<double>(l3_bytes()));
  sheet.attempted = attempted;
  sheet.failed = failed;
  sheet.correct = mismatches == 0;
  return sheet.correct;
}

}  // namespace absbench
