#include "serve/job_manager.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

#include "ga/pool_io.hpp"
#include "obs/log.hpp"
#include "qubo/energy.hpp"
#include "qubo/io.hpp"
#include "util/rng.hpp"

namespace absq::serve {
namespace {

/// Seconds → whole milliseconds for the log2-bucketed latency histograms.
std::uint64_t to_millis(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1000.0);
}

void observe(obs::Histogram* histogram, std::uint64_t value) {
  if (histogram != nullptr) histogram->observe(value);
}

/// Unix wall clock in seconds — the journal's TTL anchor. The manager's
/// own Stopwatch is monotonic and restarts at zero with the process, so it
/// cannot measure time that passed while the process was dead.
double wall_seconds_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kDeadlineExceeded: return "deadline";
  }
  return "unknown";
}

JobState job_state_from_string(const std::string& text) {
  if (text == "queued") return JobState::kQueued;
  if (text == "running") return JobState::kRunning;
  if (text == "done") return JobState::kDone;
  if (text == "failed") return JobState::kFailed;
  if (text == "cancelled") return JobState::kCancelled;
  if (text == "deadline") return JobState::kDeadlineExceeded;
  ABSQ_CHECK(false, "unknown job state '" << text << "'");
}

JobManager::JobManager(JobManagerConfig config) : config_(std::move(config)) {
  ABSQ_CHECK(config_.max_queue >= 1, "max_queue must be at least 1");
  if (obs::MetricsRegistry* registry = config_.telemetry.metrics;
      registry != nullptr) {
    m_submitted_ = &registry->counter("absq_jobs_submitted");
    m_completed_ = &registry->counter("absq_jobs_completed");
    m_failed_ = &registry->counter("absq_jobs_failed");
    m_cancelled_ = &registry->counter("absq_jobs_cancelled");
    m_rejected_ = &registry->counter("absq_jobs_rejected");
    m_deadline_ = &registry->counter("absq_jobs_deadline_exceeded_total");
    m_recovered_ = &registry->counter("absq_jobs_recovered_total");
    m_lost_ = &registry->counter("absq_jobs_lost_total");
    m_queue_depth_ = &registry->gauge("absq_job_queue_depth");
    m_running_ = &registry->gauge("absq_jobs_running");
    m_queue_ms_ = &registry->histogram("absq_job_queue_ms");
    m_run_ms_ = &registry->histogram("absq_job_run_ms");
  }
  if (!config_.checkpoint_dir.empty()) {
    if (config_.recover) {
      recover_from_journal();
    } else {
      // A leftover journal must never mix with this incarnation's records:
      // fresh job ids start at 1 again and would alias the old ones. Set
      // it aside (kept for forensics) and start clean.
      const std::string path = journal_path();
      if (std::ifstream(path).good()) {
        const std::string stale = path + ".stale";
        (void)std::remove(stale.c_str());
        (void)std::rename(path.c_str(), stale.c_str());
        obs::log_warn("serve", "stale job journal set aside",
                      {{"path", path}, {"stale", stale}});
      }
      journal_ = std::make_unique<Journal>(path);
    }
  }
  // Started last: the slots and the deadline thread only ever see a fully
  // constructed (and, with recover, fully reconstructed) job table, so a
  // requeued job is claimed as soon as a slot starts.
  try {
    slots_.reserve(solver_slots());
    for (std::size_t s = 0; s < solver_slots(); ++s) {
      slots_.emplace_back([this] { slot_loop(); });
      ++live_slots_;
    }
    deadline_thread_ = std::thread([this] { deadline_loop(); });
  } catch (...) {
    shutdown(Drain::kCancel);  // joins every thread already started
    throw;
  }
}

JobManager::~JobManager() { shutdown(Drain::kCancel); }

std::string JobManager::journal_path() const {
  return config_.checkpoint_dir + "/jobs.journal";
}

void JobManager::set_queue_gauge_locked() const {
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->set(static_cast<double>(queue_.size()));
  }
  if (m_running_ != nullptr) {
    m_running_->set(static_cast<double>(running_));
  }
}

JournalRecord JobManager::submitted_record_locked(const Job& job) const {
  JournalRecord record;
  record.event = JournalEvent::kSubmitted;
  record.id = job.id;
  record.name = job.spec.name;
  record.seed = job.spec.seed;
  record.priority = job.spec.priority;
  record.idempotency_key = job.spec.idempotency_key;
  record.deadline_seconds = job.spec.deadline_seconds;
  record.submitted_wall_seconds = job.submitted_wall_seconds;
  record.time_limit_seconds = job.spec.stop.time_limit_seconds;
  record.target_energy = job.spec.stop.target_energy;
  record.max_flips = job.spec.stop.max_flips;
  record.problem_file = job.problem_file;
  record.resume_from = job.spec.resume_from;
  record.islands = job.spec.islands;
  record.portfolio = job.spec.portfolio;
  record.migration_interval = job.spec.migration_interval;
  return record;
}

JournalRecord JobManager::terminal_record_locked(const Job& job) const {
  JournalRecord record;
  record.event = JournalEvent::kTerminal;
  record.id = job.id;
  record.state = job.state;
  record.error = job.error;
  if (job.result != nullptr) {
    record.has_result = true;
    record.solution = job.result->best.to_string();
    record.energy = job.result->best_energy;
    record.reached_target = job.result->reached_target;
    record.total_flips = job.result->total_flips;
    record.run_seconds = job.result->seconds;
  }
  return record;
}

void JobManager::journal_append_quietly(const JournalRecord& record) const {
  if (journal_ == nullptr) return;
  try {
    journal_->append(record);
  } catch (const JournalError& failure) {
    // For non-admission transitions the in-memory state is the truth: a
    // dying disk degrades durability of the *next* crash, not serving.
    obs::log_error("serve", "journal append failed",
                   {{"event", to_string(record.event)},
                    {"error", failure.what()}},
                   static_cast<std::int64_t>(record.id));
  }
}

void JobManager::recover_from_journal() {
  const std::string path = journal_path();
  const JournalReplay replay = Journal::replay_file(path);
  if (!replay.clean) {
    obs::log_warn("serve", "journal replay stopped at torn record",
                  {{"issue", replay.issue},
                   {"valid_records", replay.records.size()}});
  }
  journal_ = std::make_unique<Journal>(path);
  if (replay.records.empty()) return;

  // Fold the history into one verdict per job id.
  struct Folded {
    JournalRecord submitted;
    bool has_submitted = false;
    bool started = false;
    std::optional<JournalRecord> terminal;
  };
  std::map<JobId, Folded> folded;
  JobId max_id = 0;
  for (const JournalRecord& record : replay.records) {
    max_id = std::max(max_id, record.id);
    Folded& fold = folded[record.id];
    switch (record.event) {
      case JournalEvent::kSubmitted:
        fold.submitted = record;
        fold.has_submitted = true;
        break;
      case JournalEvent::kStarted:
        fold.started = true;
        break;
      case JournalEvent::kCheckpointed:
        break;
      case JournalEvent::kTerminal:
        fold.terminal = record;
        break;
    }
  }

  const double now = clock_.seconds();
  const double wall_now = wall_seconds_now();
  std::vector<JournalRecord> compacted;
  for (auto& [id, fold] : folded) {
    // A started/terminal record whose submitted record fell past a torn
    // tail carries no respawn recipe — there is nothing to rebuild.
    if (!fold.has_submitted) continue;
    auto job = std::make_unique<Job>();
    job->id = id;
    job->recovered = true;
    job->spec.name = fold.submitted.name;
    job->spec.seed = fold.submitted.seed;
    job->spec.priority = fold.submitted.priority;
    job->spec.idempotency_key = fold.submitted.idempotency_key;
    job->spec.deadline_seconds = fold.submitted.deadline_seconds;
    job->spec.stop.time_limit_seconds = fold.submitted.time_limit_seconds;
    job->spec.stop.target_energy = fold.submitted.target_energy;
    job->spec.stop.max_flips = fold.submitted.max_flips;
    job->spec.resume_from = fold.submitted.resume_from;
    job->spec.islands = fold.submitted.islands;
    job->spec.portfolio = fold.submitted.portfolio;
    job->spec.migration_interval = fold.submitted.migration_interval;
    job->submitted_wall_seconds = fold.submitted.submitted_wall_seconds;
    job->submitted_seconds = now;
    job->problem_file = fold.submitted.problem_file;
    job->checkpoint_path =
        config_.checkpoint_dir + "/job-" + std::to_string(id) + ".ck";
    if (!job->spec.idempotency_key.empty()) {
      idempotency_[job->spec.idempotency_key] = id;
    }

    if (fold.terminal.has_value()) {
      // Finished before the crash: restore the outcome, solution included.
      const JournalRecord& outcome = *fold.terminal;
      job->state = outcome.state;
      job->error = outcome.error;
      job->finished_seconds = now;
      if (outcome.has_result) {
        auto result = std::make_unique<AbsResult>();
        result->best = BitVector::from_string(outcome.solution);
        result->best_energy = outcome.energy;
        result->reached_target = outcome.reached_target;
        result->total_flips = outcome.total_flips;
        result->seconds = outcome.run_seconds;
        result->cancelled = outcome.state != JobState::kDone;
        job->result = std::move(result);
      }
      ++recovery_.terminal;
      compacted.push_back(fold.submitted);
      compacted.push_back(outcome);
      jobs_.emplace(id, std::move(job));
      continue;
    }

    // Live work. The TTL kept ticking (wall clock) while we were down.
    if (fold.submitted.deadline_seconds > 0.0) {
      const double remaining =
          fold.submitted.deadline_seconds -
          (wall_now - fold.submitted.submitted_wall_seconds);
      if (remaining <= 0.0) {
        job->state = JobState::kDeadlineExceeded;
        job->error = "deadline exceeded while the server was down";
        job->finished_seconds = now;
        ++recovery_.expired;
        obs::add(m_deadline_);
        obs::log_warn("serve", "recovered job expired", {},
                      static_cast<std::int64_t>(id));
        compacted.push_back(fold.submitted);
        compacted.push_back(terminal_record_locked(*job));
        jobs_.emplace(id, std::move(job));
        continue;
      }
      job->deadline_at = now + remaining;
    }

    // The problem spool must load, or the job is unrecoverable: fail it
    // loudly (typed, queryable, counted) — never drop it silently.
    try {
      ABSQ_CHECK(!job->problem_file.empty(),
                 "journal record carries no problem spool");
      job->spec.problem =
          std::make_shared<WeightMatrix>(read_qubo_file(job->problem_file));
    } catch (const std::exception& failure) {
      job->state = JobState::kFailed;
      job->error =
          std::string("unrecoverable after crash: ") + failure.what();
      job->finished_seconds = now;
      ++recovery_.lost;
      obs::add(m_lost_);
      obs::add(m_failed_);
      obs::log_error("serve", "job lost in crash",
                     {{"error", job->error}},
                     static_cast<std::int64_t>(id));
      compacted.push_back(fold.submitted);
      compacted.push_back(terminal_record_locked(*job));
      jobs_.emplace(id, std::move(job));
      continue;
    }

    // Resume from the per-job crash checkpoint when one exists and
    // parses; otherwise requeue from the recipe alone. A torn checkpoint
    // only costs the progress, never the job.
    bool resumed = false;
    if (fold.started) {
      try {
        (void)read_checkpoint_file(job->checkpoint_path,
                                   config_.solver.pool_capacity);
        job->spec.resume_from = job->checkpoint_path;
        resumed = true;
      } catch (const std::exception&) {
      }
    }
    job->state = JobState::kQueued;
    if (resumed) {
      ++recovery_.resumed;
    } else {
      ++recovery_.requeued;
    }
    obs::add(m_recovered_);
    obs::log_info("serve", "job recovered",
                  {{"mode", resumed ? "resumed" : "requeued"},
                   {"name", job->spec.name}},
                  static_cast<std::int64_t>(id));
    compacted.push_back(submitted_record_locked(*job));
    queue_.insert(
        {-static_cast<std::int64_t>(job->spec.priority), id});
    jobs_.emplace(id, std::move(job));
  }
  next_id_ = max_id + 1;
  // Collapse the replayed history into the compacted journal before any
  // requeued job can append fresh records.
  journal_->rewrite(compacted);
  set_queue_gauge_locked();
  obs::log_info(
      "serve", "journal recovery complete",
      {{"resumed", recovery_.resumed},
       {"requeued", recovery_.requeued},
       {"expired", recovery_.expired},
       {"lost", recovery_.lost},
       {"terminal", recovery_.terminal}});
}

JobId JobManager::submit(JobSpec spec) {
  return submit_full(std::move(spec)).id;
}

SubmitOutcome JobManager::submit_full(JobSpec spec) {
  ABSQ_CHECK(spec.deadline_seconds >= 0.0,
             "job deadline_seconds must be >= 0");
  JobId id = 0;
  {
    std::lock_guard lock(mutex_);
    // Idempotency wins over every other admission outcome: a duplicate of
    // an already-admitted key is not new work, so it is answered even
    // when the queue is full or the manager is draining.
    if (!spec.idempotency_key.empty()) {
      const auto hit = idempotency_.find(spec.idempotency_key);
      if (hit != idempotency_.end()) {
        obs::log_info("serve", "submission deduplicated",
                      {{"key", spec.idempotency_key}},
                      static_cast<std::int64_t>(hit->second));
        return {hit->second, true};
      }
    }
    ABSQ_CHECK(spec.problem != nullptr, "job has no problem matrix");
    ABSQ_CHECK(spec.problem->size() > 0, "job problem is empty");
    ABSQ_CHECK(spec.stop.bounded(),
               "job needs at least one stop criterion (target / seconds / "
               "max_flips) or it would hold a solver slot forever");
    if (shutting_down_) {
      obs::add(m_rejected_);
      obs::log_warn("serve", "submission rejected",
                    {{"reason", "shutting_down"}, {"name", spec.name}});
      throw ShuttingDownError("server is draining; submission rejected");
    }
    if (queue_.size() >= config_.max_queue) {
      obs::add(m_rejected_);
      obs::log_warn("serve", "submission rejected",
                    {{"reason", "queue_full"},
                     {"name", spec.name},
                     {"queue_depth", queue_.size()}});
      throw QueueFullError("job queue is full (" +
                           std::to_string(config_.max_queue) +
                           " waiting); retry later");
    }
    id = next_id_++;
    auto job = std::make_unique<Job>();
    job->id = id;
    job->spec = std::move(spec);
    job->submitted_seconds = clock_.seconds();
    job->submitted_wall_seconds = wall_seconds_now();
    if (job->spec.deadline_seconds > 0.0) {
      job->deadline_at =
          job->submitted_seconds + job->spec.deadline_seconds;
    }
    if (!config_.checkpoint_dir.empty()) {
      job->checkpoint_path =
          config_.checkpoint_dir + "/job-" + std::to_string(id) + ".ck";
    }
    if (journal_ != nullptr) {
      // Write-ahead: the problem spool and the submitted record must be
      // durable BEFORE the submission is acknowledged. Either failure
      // aborts the admission (the id is burned, never reused) with a
      // typed JournalError the protocol maps to `internal`.
      job->problem_file = config_.checkpoint_dir + "/job-" +
                          std::to_string(id) + ".problem";
      try {
        atomic_write_file(job->problem_file, [&job](std::ostream& out) {
          write_qubo(out, *job->spec.problem, "absq job spool");
        });
        journal_->append(submitted_record_locked(*job));
      } catch (const JournalError&) {
        obs::add(m_rejected_);
        obs::log_error("serve", "submission rejected",
                       {{"reason", "journal_append_failed"},
                        {"name", job->spec.name}});
        throw;
      } catch (const std::exception& failure) {
        obs::add(m_rejected_);
        throw JournalError(std::string("cannot spool job problem: ") +
                           failure.what());
      }
    }
    queue_.insert({-static_cast<std::int64_t>(job->spec.priority), id});
    if (!job->spec.idempotency_key.empty()) {
      idempotency_[job->spec.idempotency_key] = id;
    }
    obs::log_info("serve", "job admitted",
                  {{"name", job->spec.name},
                   {"priority",
                    static_cast<std::int64_t>(job->spec.priority)},
                   {"bits",
                    static_cast<std::uint64_t>(job->spec.problem->size())},
                   {"queue_depth", queue_.size()}},
                  static_cast<std::int64_t>(id));
    jobs_.emplace(id, std::move(job));
    obs::add(m_submitted_);
    set_queue_gauge_locked();
  }
  // The earliest pending deadline may have moved.
  deadline_cv_.notify_all();
  // Whichever slot wakes claims the best queued job at that moment, so
  // priorities reorder behind busy slots.
  queued_.notify_one();
  return {id, false};
}

AbsConfig JobManager::job_config(const Job& job) const {
  AbsConfig config = config_.solver;
  config.seed = job.spec.seed;
  config.checkpoint_path = job.checkpoint_path;
  config.checkpoint_interval_seconds = config_.checkpoint_interval_seconds;
  config.warm_start = nullptr;
  config.elapsed_offset_seconds = 0.0;
  // Per-tenant trace propagation: everything this job's solver emits —
  // metric series, trace spans, log lines — carries {job="<id>"}, and its
  // trace pids stride into a range no concurrent job shares.
  config.telemetry.labels.set("job", std::to_string(job.id));
  config.telemetry.pid_base =
      static_cast<std::uint32_t>(job.id) * kJobTracePidStride;
  // Per-job Diverse-ABS overrides (0 / empty = server solver defaults).
  if (job.spec.islands > 0) config.portfolio.islands = job.spec.islands;
  if (!job.spec.portfolio.empty()) {
    config.portfolio.set_members(job.spec.portfolio);
  }
  if (job.spec.migration_interval > 0) {
    config.portfolio.migration_interval = job.spec.migration_interval;
  }
  if (!job.spec.resume_from.empty()) {
    const RunCheckpoint checkpoint =
        read_checkpoint_file(job.spec.resume_from, config.pool_capacity);
    config.warm_start = checkpoint.pool;
    config.elapsed_offset_seconds = checkpoint.elapsed_seconds;
    config.seed = mix64(checkpoint.seed + 1);
  }
  if (journal_ != nullptr) {
    // Journal every durable checkpoint so recovery knows a crash-time
    // resume point exists. Runs on the solver's host thread; must not
    // throw (journal_append_quietly never does).
    const JobId id = job.id;
    config.on_checkpoint = [this, id](std::uint64_t) {
      JournalRecord record;
      record.event = JournalEvent::kCheckpointed;
      record.id = id;
      journal_append_quietly(record);
    };
  }
  return config;
}

void JobManager::slot_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock lock(mutex_);
      queued_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        // Shutting down, and nothing left to drain (Drain::kCancel emptied
        // the queue; Drain::kWait lets the slots run it dry first).
        --live_slots_;
        break;
      }
      const JobId id = queue_.begin()->second;
      queue_.erase(queue_.begin());
      job = jobs_.at(id).get();
      job->state = JobState::kRunning;
      job->started_seconds = clock_.seconds();
      ++running_;
      observe(m_queue_ms_,
              to_millis(job->started_seconds - job->submitted_seconds));
      set_queue_gauge_locked();
      obs::log_info(
          "serve", "job started",
          {{"queue_seconds", job->started_seconds - job->submitted_seconds}},
          static_cast<std::int64_t>(job->id));
    }
    // run_job() turns a solver's throw into a failed job; anything that
    // still escapes must not take the slot, or the server, down with it.
    const auto id = static_cast<std::int64_t>(job->id);
    try {
      run_job(*job);
    } catch (const std::exception& failure) {
      obs::log_error("serve", "exception escaped a job run",
                     {{"error", failure.what()}}, id);
    } catch (...) {
      obs::log_error("serve", "exception escaped a job run", {}, id);
    }
  }
  state_changed_.notify_all();
}

void JobManager::run_job(Job& job) {
  {
    JournalRecord started;
    started.event = JournalEvent::kStarted;
    started.id = job.id;
    journal_append_quietly(started);
  }

  std::unique_ptr<AbsResult> result;
  std::string error;
  try {
    const AbsConfig config = job_config(job);
    AbsSolver solver(*job.spec.problem, config);
    {
      std::lock_guard lock(mutex_);
      job.solver = &solver;
      // A cancel or deadline that raced the claim: forward it before the
      // run begins so the solver exits at its first host poll.
      if (job.cancel_requested || job.deadline_exceeded) {
        solver.request_stop();
      }
    }
    AbsResult run_result = solver.run(job.spec.stop);
    result = std::make_unique<AbsResult>(std::move(run_result));
    std::lock_guard lock(mutex_);
    job.solver = nullptr;
  } catch (const std::exception& failure) {
    error = failure.what();
    std::lock_guard lock(mutex_);
    job.solver = nullptr;
  }

  JournalRecord terminal;
  bool have_terminal = false;
  {
    std::lock_guard lock(mutex_);
    job.finished_seconds = clock_.seconds();
    --running_;
    observe(m_run_ms_,
            to_millis(job.finished_seconds - job.started_seconds));
    if (result != nullptr) {
      const bool cancelled = result->cancelled;
      // An explicit user cancel outranks a racing deadline; a deadline
      // stop keeps the partial result, like a cancel does.
      const bool deadline =
          cancelled && job.deadline_exceeded && !job.cancel_requested;
      job.result = std::move(result);
      if (deadline) {
        job.state = JobState::kDeadlineExceeded;
        job.error = "deadline exceeded mid-run";
        obs::add(m_deadline_);
      } else {
        job.state = cancelled ? JobState::kCancelled : JobState::kDone;
        obs::add(cancelled ? m_cancelled_ : m_completed_);
      }
    } else if (job.deadline_exceeded && !job.cancel_requested) {
      job.state = JobState::kDeadlineExceeded;
      job.error = "deadline exceeded before the solver reported";
      obs::add(m_deadline_);
    } else if (job.cancel_requested) {
      // A cancel so early that the solver never produced a report ends as
      // a clean cancellation, not a failure.
      job.state = JobState::kCancelled;
      obs::add(m_cancelled_);
    } else {
      job.state = JobState::kFailed;
      job.error = error;
      obs::add(m_failed_);
    }
    if (job.state == JobState::kFailed) {
      obs::log_error("serve", "job failed", {{"error", job.error}},
                     static_cast<std::int64_t>(job.id));
    } else {
      const double best =
          job.result != nullptr
              ? static_cast<double>(job.result->best_energy)
              : 0.0;
      obs::log_info(
          "serve", "job finished",
          {{"state", to_string(job.state)},
           {"best_energy", best},
           {"run_seconds", job.finished_seconds - job.started_seconds}},
          static_cast<std::int64_t>(job.id));
    }
    set_queue_gauge_locked();
    if (journal_ != nullptr) {
      terminal = terminal_record_locked(job);
      have_terminal = true;
    }
  }
  if (have_terminal) journal_append_quietly(terminal);
  state_changed_.notify_all();
}

void JobManager::deadline_loop() {
  std::unique_lock lock(mutex_);
  while (!deadline_stop_) {
    // Earliest deadline that can still fire: queued jobs with a TTL, or
    // running ones not yet told to stop.
    double next = 0.0;
    for (const auto& [id, job] : jobs_) {
      if (job->deadline_at <= 0.0 || is_terminal(job->state)) continue;
      if (job->state == JobState::kRunning && job->deadline_exceeded) {
        continue;  // already stopping; run_job() finishes it
      }
      if (next == 0.0 || job->deadline_at < next) next = job->deadline_at;
    }
    if (next == 0.0) {
      deadline_cv_.wait(lock);
      continue;
    }
    const double now = clock_.seconds();
    if (now < next) {
      deadline_cv_.wait_for(lock,
                            std::chrono::duration<double>(next - now));
      continue;  // re-scan: the deadline set may have changed meanwhile
    }
    std::vector<JournalRecord> terminals;
    bool expired_any = false;
    for (auto& [id, entry] : jobs_) {
      Job& job = *entry;
      if (job.deadline_at <= 0.0 || now < job.deadline_at) continue;
      if (job.state == JobState::kQueued) {
        queue_.erase(
            {-static_cast<std::int64_t>(job.spec.priority), job.id});
        job.state = JobState::kDeadlineExceeded;
        job.error = "deadline exceeded while queued";
        job.finished_seconds = now;
        obs::add(m_deadline_);
        obs::log_warn("serve", "job deadline exceeded",
                      {{"state", "queued"}},
                      static_cast<std::int64_t>(job.id));
        if (journal_ != nullptr) {
          terminals.push_back(terminal_record_locked(job));
        }
        expired_any = true;
      } else if (job.state == JobState::kRunning &&
                 !job.deadline_exceeded) {
        job.deadline_exceeded = true;
        if (job.solver != nullptr) job.solver->request_stop();
        obs::log_warn("serve", "job deadline exceeded",
                      {{"state", "running"}},
                      static_cast<std::int64_t>(job.id));
      }
    }
    set_queue_gauge_locked();
    if (expired_any) {
      // Journal fsyncs and waiter wakeups happen off the manager lock.
      lock.unlock();
      for (const JournalRecord& record : terminals) {
        journal_append_quietly(record);
      }
      state_changed_.notify_all();
      lock.lock();
    }
  }
}

const JobManager::Job& JobManager::find_locked(JobId id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw JobNotFoundError("no such job id " + std::to_string(id));
  }
  return *it->second;
}

JobStatus JobManager::snapshot_locked(const Job& job) const {
  JobStatus status;
  status.id = job.id;
  status.name = job.spec.name;
  status.state = job.state;
  status.priority = job.spec.priority;
  status.bits = job.spec.problem != nullptr ? job.spec.problem->size() : 0;
  status.submitted_seconds = job.submitted_seconds;
  status.started_seconds = job.started_seconds;
  status.finished_seconds = job.finished_seconds;
  status.checkpoint_path = job.checkpoint_path;
  status.error = job.error;
  status.deadline_seconds = job.spec.deadline_seconds;
  status.recovered = job.recovered;
  const double now = clock_.seconds();
  switch (job.state) {
    case JobState::kQueued:
      status.queue_seconds = now - job.submitted_seconds;
      break;
    case JobState::kRunning:
      status.queue_seconds = job.started_seconds - job.submitted_seconds;
      status.run_seconds = now - job.started_seconds;
      break;
    default:
      // Terminal. A job cancelled while queued never started.
      if (job.started_seconds > 0.0) {
        status.queue_seconds = job.started_seconds - job.submitted_seconds;
        status.run_seconds = job.finished_seconds - job.started_seconds;
      } else {
        status.queue_seconds = job.finished_seconds - job.submitted_seconds;
      }
  }
  if (job.result != nullptr) {
    status.best_energy = job.result->best_energy;
    status.reached_target = job.result->reached_target;
    status.total_flips = job.result->total_flips;
    status.search_rate = job.result->search_rate;
  }
  return status;
}

JobStatus JobManager::status(JobId id) const {
  std::lock_guard lock(mutex_);
  return snapshot_locked(find_locked(id));
}

std::vector<JobStatus> JobManager::list() const {
  std::lock_guard lock(mutex_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(snapshot_locked(*job));
  return out;
}

JobStatus JobManager::wait(JobId id, double timeout_seconds) {
  std::unique_lock lock(mutex_);
  const Job& job = find_locked(id);
  const auto done = [&job] { return is_terminal(job.state); };
  if (timeout_seconds > 0.0) {
    state_changed_.wait_for(
        lock, std::chrono::duration<double>(timeout_seconds), done);
  } else {
    state_changed_.wait(lock, done);
  }
  return snapshot_locked(job);
}

void JobManager::cancel_queued_locked(Job& job) {
  job.state = JobState::kCancelled;
  job.cancel_requested = true;
  job.finished_seconds = clock_.seconds();
  obs::add(m_cancelled_);
}

bool JobManager::cancel(JobId id) {
  bool took_effect = false;
  JournalRecord terminal;
  bool have_terminal = false;
  {
    std::lock_guard lock(mutex_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      throw JobNotFoundError("no such job id " + std::to_string(id));
    }
    Job& job = *it->second;
    switch (job.state) {
      case JobState::kQueued:
        queue_.erase({-static_cast<std::int64_t>(job.spec.priority), id});
        cancel_queued_locked(job);
        set_queue_gauge_locked();
        if (journal_ != nullptr) {
          terminal = terminal_record_locked(job);
          have_terminal = true;
        }
        took_effect = true;
        break;
      case JobState::kRunning:
        job.cancel_requested = true;
        // The solver pointer is only live while the slot is inside
        // run(); nulled under this mutex before destruction, so this call
        // can never reach a dead solver.
        if (job.solver != nullptr) job.solver->request_stop();
        took_effect = true;
        break;
      default:
        took_effect = false;  // already terminal
    }
  }
  if (have_terminal) journal_append_quietly(terminal);
  if (took_effect) {
    obs::log_info("serve", "job cancelled", {},
                  static_cast<std::int64_t>(id));
    state_changed_.notify_all();
  }
  return took_effect;
}

AbsResult JobManager::result(JobId id) const {
  std::lock_guard lock(mutex_);
  const Job& job = find_locked(id);
  ABSQ_CHECK(is_terminal(job.state),
             "job " << id << " is still " << to_string(job.state));
  ABSQ_CHECK(job.state != JobState::kFailed,
             "job " << id << " failed: " << job.error);
  ABSQ_CHECK(job.result != nullptr,
             "job " << id << " was cancelled before it produced a result");
  return *job.result;
}

std::size_t JobManager::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::size_t JobManager::running_count() const {
  std::lock_guard lock(mutex_);
  return running_;
}

void JobManager::shutdown(Drain mode) {
  std::vector<JournalRecord> terminals;
  {
    std::lock_guard lock(mutex_);
    if (!shutting_down_) {
      obs::log_info("serve", "shutdown requested",
                    {{"mode", mode == Drain::kCancel ? "cancel" : "wait"},
                     {"queued", queue_.size()},
                     {"running", running_}});
    }
    shutting_down_ = true;
    if (mode == Drain::kCancel) {
      // Queued jobs will never run. The cancellations are journaled so a
      // later recovery does not requeue jobs this clean shutdown already
      // settled.
      while (!queue_.empty()) {
        const JobId id = queue_.begin()->second;
        queue_.erase(queue_.begin());
        Job& job = *jobs_.at(id);
        cancel_queued_locked(job);
        if (journal_ != nullptr) {
          terminals.push_back(terminal_record_locked(job));
        }
      }
      for (auto& [id, job] : jobs_) {
        if (job->state == JobState::kRunning) {
          job->cancel_requested = true;
          if (job->solver != nullptr) job->solver->request_stop();
        }
      }
      set_queue_gauge_locked();
    }
  }
  for (const JournalRecord& record : terminals) {
    journal_append_quietly(record);
  }
  state_changed_.notify_all();
  queued_.notify_all();
  // Block until every slot thread has exited (running jobs finish their
  // graceful stop — final checkpoints included — or, under Drain::kWait,
  // their full run and the rest of the queue). The deadline thread stays
  // alive through the drain so TTLs still fire meanwhile.
  std::vector<std::thread> slots;
  std::thread reaper;
  {
    std::unique_lock lock(mutex_);
    state_changed_.wait(lock, [this] { return live_slots_ == 0; });
    deadline_stop_ = true;
    // Claimed under the lock so concurrent shutdown() calls cannot both
    // join them.
    slots = std::move(slots_);
    reaper = std::move(deadline_thread_);
  }
  deadline_cv_.notify_all();
  for (std::thread& slot : slots) slot.join();
  if (reaper.joinable()) reaper.join();
}

}  // namespace absq::serve
