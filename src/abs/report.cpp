#include "abs/report.hpp"

#include <fstream>

#include "ga/solution_pool.hpp"
#include "util/check.hpp"
#include "util/json_text.hpp"

namespace absq {

namespace {

/// kUnevaluated means "no evaluated solution yet" — exported as null.
std::string energy_json(Energy energy) {
  if (energy == kUnevaluated) return "null";
  return std::to_string(energy);
}

}  // namespace

void write_run_report(std::ostream& out, const RunReportMeta& meta,
                      const AbsResult& result,
                      const obs::MetricsRegistry* metrics) {
  out << "{\"type\":\"meta\",\"tool\":" << json_quote(meta.tool)
      << ",\"instance\":" << json_quote(meta.instance)
      << ",\"seed\":" << meta.seed;
  for (const auto& [key, value] : meta.extra) {
    out << "," << json_quote(key) << ":" << json_quote(value);
  }
  out << "}\n";

  out << "{\"type\":\"result\",\"best_energy\":" << energy_json(
             result.best_energy)
      << ",\"reached_target\":" << (result.reached_target ? "true" : "false")
      << ",\"cancelled\":" << (result.cancelled ? "true" : "false")
      << ",\"seconds\":" << json_number(result.seconds)
      << ",\"total_flips\":" << result.total_flips
      << ",\"evaluated_solutions\":" << result.evaluated_solutions
      << ",\"search_rate\":" << json_number(result.search_rate)
      << ",\"reports_received\":" << result.reports_received
      << ",\"reports_inserted\":" << result.reports_inserted
      << ",\"duplicates_rejected\":" << result.duplicates_rejected
      << ",\"pool_evictions\":" << result.pool_evictions
      << ",\"targets_generated\":" << result.targets_generated
      << ",\"solutions_dropped\":" << result.solutions_dropped
      << ",\"targets_dropped\":" << result.targets_dropped
      << ",\"failed_devices\":[";
  for (std::size_t i = 0; i < result.failed_devices.size(); ++i) {
    if (i > 0) out << ",";
    out << result.failed_devices[i];
  }
  out << "],\"checkpoints_written\":" << result.checkpoints_written
      << ",\"checkpoints_failed\":" << result.checkpoints_failed
      << ",\"migrations\":" << result.migrations
      << ",\"migration_events\":" << result.migration_events
      << ",\"controller_reassignments\":" << result.controller_reassignments
      << "}\n";

  for (const auto& device : result.devices) {
    out << "{\"type\":\"device\",\"device\":" << device.device_id
        << ",\"workers\":" << device.workers
        << ",\"flips\":" << device.flips
        << ",\"iterations\":" << device.iterations
        << ",\"reports\":" << device.reports
        << ",\"target_misses\":" << device.target_misses
        << ",\"targets_dropped\":" << device.targets_dropped
        << ",\"solutions_dropped\":" << device.solutions_dropped
        << ",\"algorithm_switches\":" << device.algorithm_switches
        << ",\"health\":" << json_quote(to_string(device.health))
        << ",\"restarts\":" << device.restarts
        << ",\"failure\":" << json_quote(device.failure) << "}\n";
  }

  // One line per island pool (a classic run has exactly one).
  for (const auto& island : result.islands) {
    out << "{\"type\":\"island\",\"island\":" << island.island_id
        << ",\"best_energy\":" << energy_json(island.best_energy)
        << ",\"pool_evaluated\":" << island.pool_evaluated
        << ",\"inserts\":" << island.inserts
        << ",\"migrations_in\":" << island.migrations_in
        << ",\"blocks\":" << island.blocks << "}\n";
  }

  for (const auto& [seconds, energy] : result.best_trace) {
    out << "{\"type\":\"improvement\",\"seconds\":" << json_number(seconds)
        << ",\"energy\":" << energy << "}\n";
  }

  for (const auto& snapshot : result.snapshots) {
    out << "{\"type\":\"snapshot\",\"seconds\":" << json_number(
               snapshot.seconds)
        << ",\"best_energy\":" << energy_json(snapshot.best_energy)
        << ",\"pool_evaluated\":" << snapshot.pool_evaluated
        << ",\"total_flips\":" << snapshot.total_flips
        << ",\"window_rate\":" << json_number(snapshot.window_rate) << "}\n";
  }

  if (metrics != nullptr) {
    const obs::MetricsSnapshot scrape = metrics->scrape();
    for (const auto& family : scrape.families) {
      for (const auto& series : family.series) {
        out << "{\"type\":\"metric\",\"name\":" << json_quote(family.name)
            << ",\"labels\":{";
        bool first = true;
        for (const auto& [key, value] : series.labels.pairs()) {
          if (!first) out << ",";
          first = false;
          out << json_quote(key) << ":" << json_quote(value);
        }
        out << "}";
        switch (family.kind) {
          case obs::MetricsSnapshot::Kind::kCounter:
            out << ",\"kind\":\"counter\",\"value\":" << series.counter_value;
            break;
          case obs::MetricsSnapshot::Kind::kGauge:
            out << ",\"kind\":\"gauge\",\"value\":"
                << json_number(series.gauge_value);
            break;
          case obs::MetricsSnapshot::Kind::kHistogram: {
            out << ",\"kind\":\"histogram\",\"count\":" << series.count
                << ",\"sum\":" << series.sum << ",\"buckets\":[";
            // [le, count] pairs for non-empty buckets only.
            bool first_bucket = true;
            for (std::size_t b = 0; b < series.buckets.size(); ++b) {
              if (series.buckets[b] == 0) continue;
              if (!first_bucket) out << ",";
              first_bucket = false;
              const bool overflow = b + 1 == series.buckets.size();
              out << "["
                  << (overflow ? std::string("null")
                               : std::to_string((std::uint64_t{1} << b) - 1))
                  << "," << series.buckets[b] << "]";
            }
            out << "]";
            break;
          }
        }
        out << "}\n";
      }
    }
  }
}

void write_run_report_file(const std::string& path, const RunReportMeta& meta,
                           const AbsResult& result,
                           const obs::MetricsRegistry* metrics) {
  std::ofstream out(path, std::ios::trunc);
  ABSQ_CHECK(out.good(), "cannot open report file '" << path << "'");
  write_run_report(out, meta, result, metrics);
  ABSQ_CHECK(out.good(), "write to report file '" << path << "' failed");
}

}  // namespace absq
