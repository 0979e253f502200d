// Run-report sink — machine-readable export of a whole solver run.
//
// One run = one JSONL stream: a `meta` line (tool, instance, seed,
// free-form key/values), a `result` line (the AbsResult scalars including
// pool churn), one `device` line per DeviceSummary, one `improvement`
// line per best-trace point, one `snapshot` line per RunSnapshot, and —
// when a MetricsRegistry is attached — one `metric` line per series.
// Every line is a self-contained JSON object with a `type` field, so
// downstream tooling (EXPERIMENTS.md tables, regression gates, plots)
// can stream-filter without a schema. Non-finite doubles serialize as
// null (JSON has no NaN).
//
// The same sink serves absq_solve's --report flag and the bench
// harnesses (bench_util.hpp), so all BENCH/run trajectories share one
// format.
//
// Lives in abs/ (not obs/): the report serializes AbsResult, so the sink
// belongs to the layer that owns that type — obs/ must stay below abs/ in
// the module DAG (lint_layers.toml). The JSON text primitives it uses are
// in util/json_text.hpp.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "abs/solver.hpp"
#include "obs/metrics.hpp"

namespace absq {

struct RunReportMeta {
  std::string tool;      ///< producing binary, e.g. "absq_solve"
  std::string instance;  ///< input path or generator description
  std::uint64_t seed = 0;
  /// Free-form key/value pairs (config knobs, bench row identity, ...).
  std::vector<std::pair<std::string, std::string>> extra;
};

/// Streams the full JSONL report. `metrics` may be null (no metric
/// lines); scrape happens at call time.
void write_run_report(std::ostream& out, const RunReportMeta& meta,
                      const AbsResult& result,
                      const obs::MetricsRegistry* metrics = nullptr);

/// Convenience: opens `path` (truncating) and writes the report.
void write_run_report_file(const std::string& path, const RunReportMeta& meta,
                           const AbsResult& result,
                           const obs::MetricsRegistry* metrics = nullptr);

}  // namespace absq
