// JobManager — the multi-tenant scheduler at the heart of absq_serve.
//
// Owns a bounded priority+FIFO admission queue and a fixed fleet of
// `solver_slots` slot threads, started once by the constructor. An idle
// slot waits on the queue; a submission wakes one, which claims the
// highest-priority queued job at that moment, builds a fresh AbsSolver for
// it from the configured template, runs it to a stop criterion and goes
// back to the queue. At most `solver_slots` jobs solve concurrently; the
// rest wait in the queue, and a queue beyond `max_queue` rejects
// submissions with the typed QueueFullError (backpressure, not failure).
//
// Cancellation: a queued job flips straight to cancelled; a running job
// gets AbsSolver::request_stop(), ends at the solver's next host poll
// with a final checkpoint (when enabled), and finishes as cancelled.
//
// Durability (checkpoint_dir set): every state transition is appended to
// the write-ahead job journal (serve/journal.hpp) and each submitted
// problem is spooled to `job-<id>.problem`, both in the checkpoint dir.
// The journal append happens *before* a submission is acknowledged, so a
// crash — SIGKILL included — can never lose an accepted job: a restart
// with `recover = true` replays the journal, requeues jobs that never
// started, resumes started jobs from their per-job PR-3 checkpoints,
// re-marks terminal jobs (done jobs keep their best solution, which the
// terminal record carries inline), expires jobs whose TTL passed while
// the process was down, and typed-fails the unrecoverable rest — then
// compacts the journal.
//
// Idempotency: a JobSpec may carry a client-chosen idempotency_key; a
// second submission with the same key returns the existing job's id
// (SubmitOutcome::deduplicated) instead of duplicating work, so clients
// can safely resubmit after an ambiguous failure. Keys survive recovery.
//
// Deadlines: deadline_seconds > 0 gives a job a TTL anchored at its
// submission *wall clock* (it keeps ticking across a crash). A dedicated
// deadline thread expires queued jobs directly and request_stop()s
// running ones; either way the job ends in the terminal
// JobState::kDeadlineExceeded.
//
// Fault isolation: a job whose solver throws — a genuinely failed device
// past its restart budget, a bad resume file — becomes `failed` with the
// error recorded; the slot goes back to the queue and the server lives on.
// The per-job WatchdogConfig from the solver template means a device
// failure inside one job degrades that job only (docs/robustness.md).
//
// Telemetry (all optional): absq_jobs_{submitted,completed,failed,
// cancelled,rejected} counters, an absq_job_queue_depth gauge, and
// absq_job_{queue,run}_ms latency histograms in the shared
// MetricsRegistry, so one scrape covers the serving layer and every
// solver underneath it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "util/stopwatch.hpp"

namespace absq::serve {

/// Trace-pid stride between jobs: job id j's solver emits host spans at
/// pid j*stride and device d's spans at pid j*stride + d + 1, so the
/// devices of concurrent jobs occupy disjoint pid ranges of the shared
/// tracer (ids start at 1; pid 0 stays the serving process itself).
inline constexpr std::uint32_t kJobTracePidStride = 1u << 8;

struct JobManagerConfig {
  /// Jobs solving concurrently (slot threads; 0 is clamped to 1).
  std::size_t solver_slots = 1;
  /// Bound on *queued* (not yet running) jobs; submissions beyond it are
  /// rejected with QueueFullError.
  std::size_t max_queue = 64;
  /// Per-job solver template: device geometry, pool capacity, watchdog,
  /// telemetry. seed / checkpoint / warm-start fields are overwritten per
  /// job from its JobSpec.
  AbsConfig solver;
  /// Non-empty enables per-job crash-safe checkpoints `job-<id>.ck`, the
  /// write-ahead job journal `jobs.journal` and per-job problem spools in
  /// this directory (must exist).
  std::string checkpoint_dir;
  double checkpoint_interval_seconds = 30.0;
  /// With a checkpoint_dir: replay the journal found there at startup and
  /// reconstruct every journaled job (see class comment). When false, a
  /// leftover journal is set aside as `jobs.journal.stale` so fresh job
  /// ids cannot alias the previous incarnation's records.
  bool recover = false;
  /// Manager-level series (may alias solver.telemetry; null = off).
  obs::Telemetry telemetry;
};

/// Crash-recovery census, fixed once the constructor returns.
struct RecoveryStats {
  std::size_t resumed = 0;   ///< requeued with a checkpoint warm start
  std::size_t requeued = 0;  ///< requeued from scratch (never checkpointed)
  std::size_t expired = 0;   ///< TTL passed while the process was down
  std::size_t lost = 0;      ///< unrecoverable — typed-failed, never silent
  std::size_t terminal = 0;  ///< already finished before the crash
  /// Jobs brought back as live work.
  [[nodiscard]] std::size_t recovered() const { return resumed + requeued; }
};

class JobManager {
 public:
  explicit JobManager(JobManagerConfig config);
  /// Drains with Drain::kCancel semantics.
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Admits a job. Throws QueueFullError when max_queue jobs are already
  /// waiting, ShuttingDownError after shutdown() began, CheckError on an
  /// invalid spec (null problem, unbounded stop criteria), JournalError
  /// when the journal append failed (the job was NOT accepted).
  JobId submit(JobSpec spec);

  /// submit(), but reporting idempotency deduplication: when the spec's
  /// idempotency_key matches a known job, that job's id is returned with
  /// deduplicated = true and nothing new is admitted (not even when the
  /// queue is full or the manager is draining — the original admission
  /// already happened).
  SubmitOutcome submit_full(JobSpec spec);

  /// The crash-recovery census (all zeros unless config.recover found a
  /// journal to replay).
  [[nodiscard]] const RecoveryStats& recovery_stats() const {
    return recovery_;
  }

  /// Point-in-time snapshot; throws JobNotFoundError.
  [[nodiscard]] JobStatus status(JobId id) const;
  /// Snapshots of every job ever submitted, ordered by id.
  [[nodiscard]] std::vector<JobStatus> list() const;

  /// Blocks until the job reaches a terminal state or `timeout_seconds`
  /// elapses (<= 0 waits forever); returns the status either way — the
  /// caller checks is_terminal().
  JobStatus wait(JobId id, double timeout_seconds = 0.0);

  /// Requests cancellation. Returns true when it took effect (the job was
  /// queued or running); false for already-terminal jobs. Throws
  /// JobNotFoundError for unknown ids.
  bool cancel(JobId id);

  /// Full solver result of a done or cancelled job (copy — safe after the
  /// job record changes). Throws JobNotFoundError, or CheckError when the
  /// job is not terminal / failed without a result.
  [[nodiscard]] AbsResult result(JobId id) const;

  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] std::size_t running_count() const;
  /// Concurrent-solve capacity (fixed at construction; the ctor clamps a
  /// zero config to one slot, mirrored here).
  [[nodiscard]] std::size_t solver_slots() const {
    return config_.solver_slots > 0 ? config_.solver_slots : 1;
  }

  enum class Drain {
    kCancel,  ///< cancel queued jobs, request_stop running ones (bounded)
    kWait,    ///< let queued and running jobs run to their stop criteria
  };
  /// Stops admission, drains per `mode`, and blocks until every slot
  /// thread has exited. Idempotent; later (or concurrent) calls just wait.
  void shutdown(Drain mode);

 private:
  struct Job {
    JobId id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    bool cancel_requested = false;
    /// Set by the deadline thread on a running job; the slot folds the
    /// resulting request_stop() into kDeadlineExceeded, not cancelled.
    bool deadline_exceeded = false;
    /// This incarnation was reconstructed from the journal.
    bool recovered = false;
    /// Live only while the slot is inside run(); guarded by mutex_.
    AbsSolver* solver = nullptr;
    double submitted_seconds = 0.0;
    double started_seconds = 0.0;
    double finished_seconds = 0.0;
    /// Submission wall clock (unix seconds) — the journal's TTL anchor.
    double submitted_wall_seconds = 0.0;
    /// Absolute deadline on the manager clock (0 = none).
    double deadline_at = 0.0;
    std::string checkpoint_path;
    /// Spooled problem file backing journal replay ("" = journal off).
    std::string problem_file;
    std::string error;
    /// Present for kDone, kCancelled and kDeadlineExceeded (partial
    /// result) jobs.
    std::unique_ptr<AbsResult> result;
  };

  /// Slot thread body: claims the best queued job, runs it, repeats;
  /// exits once shutdown() began and the queue is empty.
  void slot_loop();
  /// Runs a job the calling slot claimed, to its terminal state.
  void run_job(Job& job);
  /// Builds the per-job solver config (checkpoint path, resume warm
  /// start); may throw on a bad resume file.
  AbsConfig job_config(const Job& job) const;
  JobStatus snapshot_locked(const Job& job) const;
  const Job& find_locked(JobId id) const;
  void set_queue_gauge_locked() const;
  /// Marks a queued job cancelled (caller already holds mutex_ and has
  /// removed it from queue_).
  void cancel_queued_locked(Job& job);

  // --- durability ---------------------------------------------------------
  /// Journal path inside the checkpoint dir.
  [[nodiscard]] std::string journal_path() const;
  /// The submitted-record recipe for `job` (journal + compaction).
  JournalRecord submitted_record_locked(const Job& job) const;
  /// The terminal-record outcome for `job` (must be terminal).
  JournalRecord terminal_record_locked(const Job& job) const;
  /// Appends when journaling is on; a failure is logged, never thrown —
  /// used for transitions where the in-memory truth must win (started /
  /// checkpointed / terminal).
  void journal_append_quietly(const JournalRecord& record) const;
  /// Replays + reconstructs + compacts; fills recovery_. Ctor-only.
  void recover_from_journal();
  /// Deadline-thread body: expires queued jobs, stops running ones.
  void deadline_loop();

  JobManagerConfig config_;
  Stopwatch clock_;

  mutable std::mutex mutex_;
  std::condition_variable state_changed_;
  /// Wakes an idle slot when a job is queued, and every slot at shutdown.
  std::condition_variable queued_;
  /// Wakes the deadline thread when the earliest deadline may have moved.
  std::condition_variable deadline_cv_;
  std::map<JobId, std::unique_ptr<Job>> jobs_;
  /// Admission order: (-priority, id) — highest priority first, FIFO
  /// within a level. Holds queued jobs only.
  std::set<std::pair<std::int64_t, JobId>> queue_;
  /// idempotency_key → job id, for every key ever admitted (terminal jobs
  /// included: resubmitting a finished key returns the finished job).
  std::map<std::string, JobId> idempotency_;
  JobId next_id_ = 1;
  std::size_t running_ = 0;
  /// Slot threads still inside slot_loop(); shutdown() waits for zero.
  std::size_t live_slots_ = 0;
  bool shutting_down_ = false;
  bool deadline_stop_ = false;

  std::unique_ptr<Journal> journal_;
  RecoveryStats recovery_;

  // Manager telemetry series (null = off).
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_failed_ = nullptr;
  obs::Counter* m_cancelled_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_deadline_ = nullptr;
  obs::Counter* m_recovered_ = nullptr;
  obs::Counter* m_lost_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_running_ = nullptr;
  obs::Histogram* m_queue_ms_ = nullptr;
  obs::Histogram* m_run_ms_ = nullptr;

  /// Expires TTLs; joined by shutdown(). Started after recovery so it
  /// only ever sees a fully reconstructed job table.
  std::thread deadline_thread_;
  /// The solver slots; started after recovery too, joined by shutdown().
  std::vector<std::thread> slots_;
};

}  // namespace absq::serve
