#include "serve/status.hpp"

#include <algorithm>

#include "qubo/energy.hpp"
#include "serve/json.hpp"

namespace absq::serve {
namespace {

/// Value of one label in a series, or "" when absent.
std::string label_value(const obs::Labels& labels, const char* key) {
  for (const auto& kv : labels.pairs()) {
    if (kv.first == key) return kv.second;
  }
  return "";
}

const obs::MetricsSnapshot::Family* find_family(
    const obs::MetricsSnapshot& snapshot, const char* name) {
  for (const auto& family : snapshot.families) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

}  // namespace

std::string status_json(const JobManager& manager,
                        const obs::MetricsRegistry* registry,
                        double uptime_seconds) {
  // One scrape serves every per-job slice below; the snapshot is
  // immutable, so the job table and the slices are mutually consistent
  // to within one scrape interval.
  obs::MetricsSnapshot snapshot;
  if (registry != nullptr) snapshot = registry->scrape();
  const obs::MetricsSnapshot::Family* pool_best =
      find_family(snapshot, "absq_pool_best_energy");
  const obs::MetricsSnapshot::Family* device_health =
      find_family(snapshot, "absq_device_health");
  const obs::MetricsSnapshot::Family* device_restarts =
      find_family(snapshot, "absq_device_restarts_total");
  const obs::MetricsSnapshot::Family* island_best =
      find_family(snapshot, "absq_island_best_energy");
  const obs::MetricsSnapshot::Family* island_blocks =
      find_family(snapshot, "absq_island_blocks");
  const obs::MetricsSnapshot::Family* island_migrations =
      find_family(snapshot, "absq_island_migrations_total");

  Json body = Json::object();
  body.set("uptime_seconds", uptime_seconds);
  body.set("queue_depth", manager.queue_depth());
  body.set("running", manager.running_count());
  body.set("solver_slots", manager.solver_slots());
  if (const RecoveryStats& recovery = manager.recovery_stats();
      recovery.recovered() + recovery.expired + recovery.lost +
          recovery.terminal >
      0) {
    Json recovered = Json::object();
    recovered.set("resumed", recovery.resumed);
    recovered.set("requeued", recovery.requeued);
    recovered.set("expired", recovery.expired);
    recovered.set("lost", recovery.lost);
    recovered.set("terminal", recovery.terminal);
    body.set("recovery", std::move(recovered));
  }

  Json jobs = Json::array();
  for (const JobStatus& status : manager.list()) {
    const std::string id_text = std::to_string(status.id);
    Json job = Json::object();
    job.set("id", static_cast<std::int64_t>(status.id));
    job.set("name", status.name);
    job.set("state", to_string(status.state));
    job.set("priority", status.priority);
    job.set("bits", static_cast<std::uint64_t>(status.bits));
    job.set("queue_seconds", status.queue_seconds);
    job.set("run_seconds", status.run_seconds);
    if (!status.error.empty()) job.set("error", status.error);
    if (status.best_energy != kUnevaluated) {
      job.set("best_energy", static_cast<std::int64_t>(status.best_energy));
      job.set("reached_target", status.reached_target);
      job.set("total_flips", status.total_flips);
      job.set("search_rate", status.search_rate);
    }

    // Live slices for a running job: the solver's own gauges, labelled
    // {job="<id>"} by the manager's telemetry stamping.
    if (status.state == JobState::kRunning) {
      if (pool_best != nullptr) {
        for (const auto& series : pool_best->series) {
          if (label_value(series.labels, "job") == id_text) {
            job.set("incumbent_energy", series.gauge_value);
          }
        }
      }
      if (device_health != nullptr) {
        Json devices = Json::array();
        for (const auto& series : device_health->series) {
          if (label_value(series.labels, "job") != id_text) continue;
          Json device = Json::object();
          device.set("device", label_value(series.labels, "device"));
          device.set("health", series.gauge_value);
          devices.push(std::move(device));
        }
        if (devices.size() > 0) job.set("devices", std::move(devices));
      }
      if (device_restarts != nullptr) {
        for (const auto& series : device_restarts->series) {
          if (label_value(series.labels, "job") == id_text) {
            job.set("device_restarts", series.counter_value);
          }
        }
      }
      // One row per island (best energy, blocks currently assigned,
      // elites received over the migration ring); classic jobs have one.
      if (island_best != nullptr) {
        Json islands = Json::array();
        for (const auto& series : island_best->series) {
          if (label_value(series.labels, "job") != id_text) continue;
          const std::string island_id =
              label_value(series.labels, "island");
          Json island = Json::object();
          island.set("island", island_id);
          island.set("best_energy", series.gauge_value);
          if (island_blocks != nullptr) {
            for (const auto& blocks : island_blocks->series) {
              if (label_value(blocks.labels, "job") == id_text &&
                  label_value(blocks.labels, "island") == island_id) {
                island.set("blocks", blocks.gauge_value);
              }
            }
          }
          if (island_migrations != nullptr) {
            for (const auto& migrations : island_migrations->series) {
              if (label_value(migrations.labels, "job") == id_text &&
                  label_value(migrations.labels, "island") == island_id) {
                island.set("migrations_in", migrations.counter_value);
              }
            }
          }
          islands.push(std::move(island));
        }
        if (islands.size() > 0) job.set("islands", std::move(islands));
      }
    }
    jobs.push(std::move(job));
  }
  body.set("jobs", std::move(jobs));
  return body.dump();
}

}  // namespace absq::serve
