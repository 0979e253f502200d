// The three workloads and the replay pass of the traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "abs/solver.hpp"
#include "common.hpp"
#include "qubo/types.hpp"
#include "qubo/weight_matrix.hpp"

namespace absbench {

// Counters AbsSolver::run already returns (AbsResult, DeviceSummary),
// summed over the runs of a phase, and the per-layer metrics they give.
struct SolverTally {
  std::vector<double> ctor_s;  // AbsSolver construction, per run
  double run_s = 0.0;          // Σ run() wall time
  double run_cpu_s = 0.0;      // Σ process CPU during run()
  double evaluated = 0.0;
  double iterations = 0.0, target_misses = 0.0, reports_received = 0.0,
         inserted = 0.0, duplicates = 0.0, device_reports = 0.0,
         solutions_dropped = 0.0;
  std::uint32_t workers = 0;

  void add(const absq::AbsResult& result, double ctor_s, double run_s,
           double run_cpu_s);
  [[nodiscard]] double search_rate() const { return ratio(evaluated, run_s); }
  // abs.ctor_s, abs.iters_per_s, abs.target_miss_frac, abs.dup_frac,
  // abs.insert_frac, abs.cores_busy and sim.report_drop_frac.
  void report(Sheet& sheet) const;
};

// dense-tts and sparse-tts: repeated fresh-solver trials to a pinned
// target energy. Returns false when a reported solution did not verify.
bool run_solve(const Options& options, absq::Energy target, Sheet& sheet);

// serve-mix: an open-loop job schedule against an in-process JobServer.
bool run_serve_mix(const Options& options, Sheet& sheet);

// Flip budget of a serve-mix job, and of the diverse job the replay runs.
inline constexpr std::uint64_t kJobFlips = 50000;

// Replay of the layers that run on the solver's own threads, driven
// directly through their public entry points on the workload's instance.
struct ReplayInput {
  const absq::WeightMatrix* w = nullptr;
  std::string submit_line;  // a submit request carrying this instance
  std::uint64_t seed = 1;
  std::string work_dir;  // journal and spool files go here
  double seconds = 1.0;  // budget of the block-iteration loop
};
void run_replay(const ReplayInput& input, Sheet& sheet);

// Durable writes per job a job journal records: one per record, plus the
// checkpoint file each checkpoint record stands for.
double journal_writes(const std::string& journal_path);

// Every per-layer metric is printed on every workload; the ones a workload
// does not exercise read 0 and are listed in the run's env record.
void fill_unmeasured(Sheet& sheet, const std::string& workload);

}  // namespace absbench
