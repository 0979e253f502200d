#include "serve/protocol.hpp"

#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "portfolio/block_algorithm.hpp"
#include "problems/maxcut.hpp"
#include "problems/sat.hpp"
#include "problems/tsp.hpp"
#include "qubo/io.hpp"

namespace absq::serve {
namespace {

Json ok_reply() {
  Json reply = Json::object();
  reply.set("ok", true);
  return reply;
}

/// Reads the matrix from an already-open stream in the requested format.
WeightMatrix parse_problem_stream(std::istream& in,
                                  const std::string& format) {
  if (format == "qubo") return read_qubo(in);
  if (format == "gset") return maxcut_to_qubo(read_gset(in));
  if (format == "tsplib") return tsp_to_qubo(read_tsplib(in)).w;
  if (format == "dimacs") return sat_to_qubo(read_dimacs(in)).w;
  ABSQ_CHECK(false, "unknown format '" << format
                                       << "' (qubo | gset | tsplib | dimacs)");
}

JobSpec spec_from_request(const Json& request) {
  JobSpec spec;
  spec.problem = parse_problem(request);
  spec.stop.time_limit_seconds = request.get_double("seconds", 0.0);
  if (request.has("target")) {
    spec.stop.target_energy = request.at("target").as_int();
  }
  const std::int64_t max_flips = request.get_int("max_flips", 0);
  ABSQ_CHECK(max_flips >= 0, "max_flips must be >= 0, got " << max_flips);
  spec.stop.max_flips = static_cast<std::uint64_t>(max_flips);
  spec.seed = static_cast<std::uint64_t>(request.get_int("seed", 1));
  const std::int64_t priority = request.get_int("priority", 0);
  ABSQ_CHECK(priority >= -1000 && priority <= 1000,
             "priority must be in [-1000, 1000], got " << priority);
  spec.priority = static_cast<int>(priority);
  spec.name = request.get_string("name", "");
  spec.resume_from = request.get_string("resume_from", "");
  spec.idempotency_key = request.get_string("idempotency_key", "");
  spec.deadline_seconds = request.get_double("deadline_seconds", 0.0);
  const std::int64_t islands = request.get_int("islands", 0);
  ABSQ_CHECK(islands >= 0 && islands <= 64,
             "islands must be in [0, 64], got " << islands);
  spec.islands = static_cast<std::uint32_t>(islands);
  spec.portfolio = request.get_string("portfolio", "");
  if (!spec.portfolio.empty()) {
    // Validate at admission so a typo fails the submit, not the run.
    (void)portfolio::parse_portfolio(spec.portfolio);
  }
  const std::int64_t migration_interval =
      request.get_int("migration_interval", 0);
  ABSQ_CHECK(migration_interval >= 0,
             "migration_interval must be >= 0, got " << migration_interval);
  spec.migration_interval = static_cast<std::uint64_t>(migration_interval);
  return spec;
}

Json handle_submit(JobManager& manager, const Json& request) {
  const SubmitOutcome outcome =
      manager.submit_full(spec_from_request(request));
  Json reply = ok_reply();
  reply.set("id", outcome.id);
  reply.set("deduplicated", outcome.deduplicated);
  reply.set("state", to_string(outcome.deduplicated
                                   ? manager.status(outcome.id).state
                                   : JobState::kQueued));
  reply.set("queue_depth",
            static_cast<std::int64_t>(manager.queue_depth()));
  return reply;
}

Json handle_status(JobManager& manager, const Json& request) {
  const JobStatus status =
      manager.status(static_cast<JobId>(request.at("id").as_int()));
  Json reply = ok_reply();
  reply.set("job", job_to_json(status));
  return reply;
}

Json handle_result(JobManager& manager, const Json& request) {
  const JobId id = static_cast<JobId>(request.at("id").as_int());
  const JobStatus status = manager.status(id);
  if (!is_terminal(status.state)) {
    Json reply = error_reply("not_done", "job " + std::to_string(id) +
                                             " is still " +
                                             to_string(status.state));
    reply.set("state", to_string(status.state));
    return reply;
  }
  if (status.state == JobState::kFailed) {
    Json reply = error_reply("job_failed", status.error);
    reply.set("job", job_to_json(status));
    return reply;
  }
  AbsResult result;
  try {
    result = manager.result(id);
  } catch (const CheckError& error) {
    // Cancelled before the solver produced anything: terminal, no payload.
    Json reply = error_reply("no_result", error.what());
    reply.set("job", job_to_json(status));
    return reply;
  }
  Json reply = ok_reply();
  reply.set("job", job_to_json(status));
  reply.set("solution", result.best.to_string());
  reply.set("energy", result.best_energy);
  reply.set("reached_target", result.reached_target);
  reply.set("cancelled", result.cancelled);
  reply.set("total_flips", result.total_flips);
  reply.set("search_rate", result.search_rate);
  reply.set("seconds", result.seconds);
  return reply;
}

Json handle_cancel(JobManager& manager, const Json& request) {
  const JobId id = static_cast<JobId>(request.at("id").as_int());
  const bool took_effect = manager.cancel(id);
  Json reply = ok_reply();
  reply.set("cancelled", took_effect);
  reply.set("state", to_string(manager.status(id).state));
  return reply;
}

Json handle_list(JobManager& manager) {
  Json jobs = Json::array();
  for (const JobStatus& status : manager.list()) {
    jobs.push(job_to_json(status));
  }
  Json reply = ok_reply();
  reply.set("jobs", std::move(jobs));
  reply.set("queue_depth",
            static_cast<std::int64_t>(manager.queue_depth()));
  reply.set("running", static_cast<std::int64_t>(manager.running_count()));
  return reply;
}

Json handle_metrics(const obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    return error_reply("unavailable", "server was started without metrics");
  }
  Json reply = ok_reply();
  reply.set("prometheus", obs::to_prometheus(metrics->scrape()));
  return reply;
}

}  // namespace

Json error_reply(const std::string& code, const std::string& message) {
  Json reply = Json::object();
  reply.set("ok", false);
  reply.set("code", code);
  reply.set("error", message);
  return reply;
}

std::shared_ptr<const WeightMatrix> parse_problem(const Json& request) {
  const std::string format = request.get_string("format", "qubo");
  const bool has_inline = request.has("problem");
  const bool has_file = request.has("file");
  ABSQ_CHECK(has_inline != has_file,
             "submit needs exactly one of 'problem' (inline text) or "
             "'file' (server-local path)");
  if (has_inline) {
    std::istringstream in(request.at("problem").as_string());
    return std::make_shared<const WeightMatrix>(
        parse_problem_stream(in, format));
  }
  const std::string path = request.at("file").as_string();
  std::ifstream in(path);
  ABSQ_CHECK(in.good(), "cannot open '" << path << "' for reading");
  return std::make_shared<const WeightMatrix>(
      parse_problem_stream(in, format));
}

Json job_to_json(const JobStatus& status) {
  Json json = Json::object();
  json.set("id", status.id);
  json.set("name", status.name);
  json.set("state", to_string(status.state));
  json.set("priority", static_cast<std::int64_t>(status.priority));
  json.set("bits", static_cast<std::int64_t>(status.bits));
  json.set("submitted_seconds", status.submitted_seconds);
  json.set("started_seconds", status.started_seconds);
  json.set("finished_seconds", status.finished_seconds);
  json.set("queue_seconds", status.queue_seconds);
  json.set("run_seconds", status.run_seconds);
  if (status.best_energy == kUnevaluated) {
    json.set("best_energy", Json());  // null: no report yet
  } else {
    json.set("best_energy", status.best_energy);
  }
  json.set("reached_target", status.reached_target);
  json.set("total_flips", status.total_flips);
  json.set("search_rate", status.search_rate);
  json.set("error", status.error);
  json.set("checkpoint_path", status.checkpoint_path);
  json.set("deadline_seconds", status.deadline_seconds);
  json.set("recovered", status.recovered);
  return json;
}

JobStatus job_from_json(const Json& json) {
  JobStatus status;
  status.id = static_cast<JobId>(json.at("id").as_int());
  status.name = json.get_string("name", "");
  status.state = job_state_from_string(json.at("state").as_string());
  status.priority = static_cast<int>(json.get_int("priority", 0));
  status.bits = static_cast<BitIndex>(json.get_int("bits", 0));
  status.submitted_seconds = json.get_double("submitted_seconds", 0.0);
  status.started_seconds = json.get_double("started_seconds", 0.0);
  status.finished_seconds = json.get_double("finished_seconds", 0.0);
  status.queue_seconds = json.get_double("queue_seconds", 0.0);
  status.run_seconds = json.get_double("run_seconds", 0.0);
  if (json.has("best_energy") && !json.at("best_energy").is_null()) {
    status.best_energy = json.at("best_energy").as_int();
  }
  status.reached_target = json.get_bool("reached_target", false);
  status.total_flips =
      static_cast<std::uint64_t>(json.get_int("total_flips", 0));
  status.search_rate = json.get_double("search_rate", 0.0);
  status.error = json.get_string("error", "");
  status.checkpoint_path = json.get_string("checkpoint_path", "");
  status.deadline_seconds = json.get_double("deadline_seconds", 0.0);
  status.recovered = json.get_bool("recovered", false);
  return status;
}

ProtocolReply handle_request_line(JobManager& manager,
                                  const std::string& line,
                                  const obs::MetricsRegistry* metrics) {
  ProtocolReply outcome;
  try {
    const Json request = Json::parse(line);
    ABSQ_CHECK(request.is_object(), "request must be a JSON object");
    const std::string cmd = request.at("cmd").as_string();
    if (cmd == "ping") {
      outcome.reply = ok_reply();
      outcome.reply.set("pong", true);
    } else if (cmd == "submit") {
      outcome.reply = handle_submit(manager, request);
    } else if (cmd == "status") {
      outcome.reply = handle_status(manager, request);
    } else if (cmd == "result") {
      outcome.reply = handle_result(manager, request);
    } else if (cmd == "cancel") {
      outcome.reply = handle_cancel(manager, request);
    } else if (cmd == "list") {
      outcome.reply = handle_list(manager);
    } else if (cmd == "metrics") {
      outcome.reply = handle_metrics(metrics);
    } else if (cmd == "shutdown") {
      outcome.reply = ok_reply();
      outcome.reply.set("draining", true);
      outcome.shutdown = true;
    } else {
      outcome.reply = error_reply("bad_request", "unknown cmd '" + cmd + "'");
    }
  } catch (const QueueFullError& error) {
    outcome.reply = error_reply("queue_full", error.what());
  } catch (const ShuttingDownError& error) {
    outcome.reply = error_reply("shutting_down", error.what());
  } catch (const JobNotFoundError& error) {
    outcome.reply = error_reply("not_found", error.what());
  } catch (const JournalError& error) {
    // The write-ahead append failed: the job was NOT durably accepted.
    // The server (not the request) is at fault, so the code is internal —
    // the client may safely resubmit (idempotency-keyed or not, nothing
    // was admitted).
    outcome.reply = error_reply("internal", error.what());
  } catch (const CheckError& error) {
    // JsonError, unparsable problems, missing/mistyped fields.
    outcome.reply = error_reply("bad_request", error.what());
  } catch (const std::exception& error) {
    outcome.reply = error_reply("internal", error.what());
  }
  return outcome;
}

}  // namespace absq::serve
