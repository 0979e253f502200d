// Shared helpers for the table/figure reproduction harnesses.
//
// Each bench binary regenerates one table or figure of the paper: it
// prints the paper's published numbers next to the numbers measured on
// this substrate (CPU-simulated devices), so the *shape* comparison the
// reproduction targets is visible in one place. EXPERIMENTS.md records a
// reference run of every binary.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "abs/solver.hpp"
#include "baselines/solvers.hpp"
#include "abs/report.hpp"
#include "qubo/weight_matrix.hpp"
#include "util/check.hpp"
#include "util/json_text.hpp"
#include "util/stopwatch.hpp"

namespace absq::bench {

/// Averaged TTS over `trials` independent seeds (see averaged_tts below).
struct TtsSummary {
  int reached = 0;
  int trials = 0;
  double mean_seconds = 0.0;  ///< over reaching trials only
  Energy best_achieved = 0;
};

/// Uniform machine-readable output of a bench run: every harness that
/// produces AbsResults appends them through this sink (obs::write_run_report
/// — the same JSONL schema absq_solve's --report emits), so BENCH_*.jsonl
/// trajectories from every table/figure live in one format. Appending keeps
/// one file per sweep; each result opens with its own `meta` line keyed by
/// `row` (e.g. "devices=3").
class BenchReport {
 public:
  /// Inactive when `path` is empty (all calls become no-ops).
  BenchReport(std::string path, std::string bench_name)
      : path_(std::move(path)), bench_(std::move(bench_name)) {}

  void add(const std::string& row, std::uint64_t seed,
           const AbsResult& result,
           const obs::MetricsRegistry* metrics = nullptr,
           std::vector<std::pair<std::string, std::string>> extra = {}) {
    if (path_.empty()) return;
    std::ofstream out(path_, first_ ? std::ios::trunc : std::ios::app);
    ABSQ_CHECK(out.good(), "cannot open bench report '" << path_ << "'");
    first_ = false;
    RunReportMeta meta;
    meta.tool = bench_;
    meta.instance = row;
    meta.seed = seed;
    meta.extra = std::move(extra);
    write_run_report(out, meta, result, metrics);
  }

  /// One `tts` line per table row: the perf-trajectory rail's unit of
  /// comparison. TtsSummary has no AbsResult behind it (it aggregates
  /// `trials` runs), so it gets its own self-contained line type instead
  /// of the meta/result pair; scripts/perfgate.sh diffs `mean_seconds`
  /// between a committed snapshot (BENCH_tts.json) and a fresh run.
  /// `config` tags the row with the solver configuration that produced it
  /// ("" = the classic single-pool solver) so perfgate.sh can diff
  /// baseline-vs-diverse rows of the same instance independently.
  void add_tts(const std::string& row, std::uint64_t seed,
               const TtsSummary& summary, Energy target,
               double cap_seconds, const std::string& config = "") {
    if (path_.empty()) return;
    std::ofstream out(path_, first_ ? std::ios::trunc : std::ios::app);
    ABSQ_CHECK(out.good(), "cannot open bench report '" << path_ << "'");
    first_ = false;
    out << "{\"type\":\"tts\",\"bench\":\"" << json_escape(bench_)
        << "\",\"row\":\"" << json_escape(row) << "\",\"seed\":" << seed
        << ",\"trials\":" << summary.trials
        << ",\"reached\":" << summary.reached
        << ",\"mean_seconds\":" << json_number(summary.mean_seconds)
        << ",\"best_achieved\":" << summary.best_achieved
        << ",\"target\":" << target
        << ",\"cap_seconds\":" << json_number(cap_seconds);
    if (!config.empty()) {
      out << ",\"config\":\"" << json_escape(config) << "\"";
    }
    out << "}\n";
  }

 private:
  std::string path_;
  std::string bench_;
  bool first_ = true;
};

/// Computes a reference ("best-known" stand-in) energy for an instance by
/// racing an ensemble of independent solvers, mirroring how the paper
/// establishes targets for its synthetic instances ("repeating searches
/// until convergence"). Deterministic per seed.
inline Energy reference_energy(const WeightMatrix& w, double abs_seconds,
                               std::uint64_t classical_steps,
                               std::uint64_t seed) {
  Energy best = 0;

  {
    AbsConfig config;
    config.device.block_limit = 8;
    config.seed = seed;
    AbsSolver solver(w, config);
    StopCriteria stop;
    stop.time_limit_seconds = abs_seconds;
    best = std::min(best, solver.run(stop).best_energy);
  }
  best = std::min(best,
                  tabu_search(w, classical_steps, 16, seed + 1).best_energy);
  best = std::min(best,
                  greedy_descent(w, classical_steps, seed + 2).best_energy);
  return best;
}

/// Self-consistent reference: the best energy of one pilot run of the
/// measurement configuration itself (a distinct seed). Targets derived
/// from it are reachable by construction — the analogue of the paper
/// targeting best-known values that earlier solver runs established.
inline Energy pilot_reference(const WeightMatrix& w, AbsConfig config,
                              double seconds) {
  config.seed = mix64(config.seed ^ 0xabcdef1234567ULL);
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.time_limit_seconds = seconds;
  return solver.run(stop).best_energy;
}

/// One time-to-solution measurement: fresh solver, run until `target` or
/// the cap. Returns the wall-clock seconds when the target was reached.
struct TtsResult {
  bool reached = false;
  double seconds = 0.0;
  Energy achieved = 0;
};

inline TtsResult time_to_solution(const WeightMatrix& w,
                                  const AbsConfig& config, Energy target,
                                  double cap_seconds) {
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.target_energy = target;
  stop.time_limit_seconds = cap_seconds;
  const AbsResult result = solver.run(stop);
  TtsResult tts;
  tts.reached = result.reached_target;
  tts.achieved = result.best_energy;
  // Attribute the time of the improvement that crossed the target, not the
  // (poll-quantized) end of the run.
  tts.seconds = result.seconds;
  for (const auto& [t, e] : result.best_trace) {
    if (e <= target) {
      tts.seconds = t;
      break;
    }
  }
  return tts;
}

inline TtsSummary averaged_tts(const WeightMatrix& w, AbsConfig config,
                               Energy target, double cap_seconds,
                               int trials) {
  TtsSummary summary;
  summary.trials = trials;
  summary.best_achieved = std::numeric_limits<Energy>::max();
  double total = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    config.seed = mix64(config.seed + 0x9e3779b97f4a7c15ULL);
    const TtsResult tts = time_to_solution(w, config, target, cap_seconds);
    summary.best_achieved = std::min(summary.best_achieved, tts.achieved);
    if (tts.reached) {
      ++summary.reached;
      total += tts.seconds;
    }
  }
  summary.mean_seconds = summary.reached > 0
                             ? total / static_cast<double>(summary.reached)
                             : 0.0;
  return summary;
}

/// "0.123" or "—" when no trial reached the target.
inline std::string tts_cell(const TtsSummary& summary) {
  if (summary.reached == 0) return "—";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", summary.mean_seconds);
  std::string cell = buffer;
  if (summary.reached < summary.trials) {
    cell += " (" + std::to_string(summary.reached) + "/" +
            std::to_string(summary.trials) + ")";
  }
  return cell;
}

/// User + system CPU seconds of the whole process so far — divided by a
/// run's wall time, the cores that run kept busy (workers plus host).
inline double process_cpu_seconds() {
  rusage usage{};
  (void)getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace absq::bench
