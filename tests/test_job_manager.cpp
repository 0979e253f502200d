// Tests of the multi-tenant job scheduler: admission control, priority
// order, cancellation in every state, fault isolation, checkpoint/resume
// and the job telemetry series. TSan tier-1 target (scripts/check.sh).
#include "serve/job_manager.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "problems/random.hpp"
#include "qubo/energy.hpp"
#include "qubo/io.hpp"
#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "util/failpoint.hpp"

namespace absq::serve {
namespace {

std::shared_ptr<const WeightMatrix> small_problem(std::uint64_t seed = 5,
                                                  BitIndex bits = 32) {
  return std::make_shared<const WeightMatrix>(random_qubo(bits, seed));
}

JobManagerConfig small_config(std::size_t slots = 1,
                              std::size_t max_queue = 8) {
  JobManagerConfig config;
  config.solver_slots = slots;
  config.max_queue = max_queue;
  config.solver.num_devices = 1;
  config.solver.device.block_limit = 4;
  config.solver.device.local_steps = 32;
  config.solver.pool_capacity = 16;
  return config;
}

JobSpec quick_job(std::uint64_t max_flips = 20000) {
  JobSpec spec;
  spec.problem = small_problem();
  spec.stop.max_flips = max_flips;
  spec.stop.time_limit_seconds = 30.0;  // safety net
  return spec;
}

JobSpec long_job() {
  JobSpec spec;
  spec.problem = small_problem();
  spec.stop.time_limit_seconds = 30.0;
  return spec;
}

void wait_until_running(JobManager& manager, JobId id) {
  while (manager.status(id).state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(JobManager, RunsASubmittedJobToCompletion) {
  JobManager manager(small_config());
  const JobId id = manager.submit(quick_job());
  const JobStatus status = manager.wait(id, 30.0);
  ASSERT_EQ(status.state, JobState::kDone);
  EXPECT_GT(status.total_flips, 0u);
  EXPECT_GE(status.run_seconds, 0.0);

  const AbsResult result = manager.result(id);
  EXPECT_EQ(result.best_energy, status.best_energy);
  EXPECT_EQ(full_energy(*small_problem(), result.best), result.best_energy);
}

TEST(JobManager, OneMemberPortfolioRunsNoController) {
  // Two islands and one member: the controller runs only with more than
  // one member, however the portfolio was spelled.
  JobManager manager(small_config());
  JobSpec spec = quick_job(200000);
  spec.islands = 2;
  spec.portfolio = "min-delta";
  const JobId id = manager.submit(std::move(spec));
  ASSERT_EQ(manager.wait(id, 30.0).state, JobState::kDone);
  const AbsResult result = manager.result(id);
  EXPECT_EQ(result.islands.size(), 2u);
  EXPECT_EQ(result.controller_reassignments, 0u);
}

TEST(JobManager, InvalidSpecsAreRejectedUpFront) {
  JobManager manager(small_config());
  JobSpec no_problem;
  no_problem.stop.max_flips = 100;
  EXPECT_THROW((void)manager.submit(std::move(no_problem)), CheckError);

  JobSpec unbounded;
  unbounded.problem = small_problem();
  EXPECT_THROW((void)manager.submit(std::move(unbounded)), CheckError);
}

TEST(JobManager, QueueFullIsTypedAndCounted) {
  obs::MetricsRegistry registry;
  JobManagerConfig config = small_config(1, 1);
  config.telemetry.metrics = &registry;
  JobManager manager(config);

  const JobId blocker = manager.submit(long_job());
  wait_until_running(manager, blocker);
  const JobId queued = manager.submit(quick_job());
  EXPECT_THROW((void)manager.submit(quick_job()), QueueFullError);
  EXPECT_EQ(manager.queue_depth(), 1u);

  EXPECT_TRUE(manager.cancel(blocker));
  (void)manager.wait(blocker, 30.0);
  (void)manager.wait(queued, 30.0);
  manager.shutdown(JobManager::Drain::kWait);

  const auto snapshot = registry.scrape();
  const std::string text = obs::to_prometheus(snapshot);
  EXPECT_NE(text.find("absq_jobs_submitted 2"), std::string::npos) << text;
  EXPECT_NE(text.find("absq_jobs_rejected 1"), std::string::npos) << text;
  EXPECT_NE(text.find("absq_jobs_cancelled 1"), std::string::npos) << text;
  EXPECT_NE(text.find("absq_jobs_completed 1"), std::string::npos) << text;
}

TEST(JobManager, CancelWhileQueuedNeverRuns) {
  JobManager manager(small_config(1, 4));
  const JobId blocker = manager.submit(long_job());
  wait_until_running(manager, blocker);
  const JobId victim = manager.submit(quick_job());

  EXPECT_TRUE(manager.cancel(victim));
  const JobStatus status = manager.status(victim);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_EQ(status.started_seconds, 0.0);  // never claimed a slot
  EXPECT_THROW((void)manager.result(victim), CheckError);

  EXPECT_TRUE(manager.cancel(blocker));
  (void)manager.wait(blocker, 30.0);
}

TEST(JobManager, CancelWhileRunningYieldsPartialResult) {
  JobManager manager(small_config());
  const JobId id = manager.submit(long_job());
  wait_until_running(manager, id);
  // Long enough for the devices to push reports even under sanitizers, so
  // the cancel yields a partial result rather than an empty run.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  EXPECT_TRUE(manager.cancel(id));
  const JobStatus status = manager.wait(id, 30.0);
  ASSERT_EQ(status.state, JobState::kCancelled);

  // A mid-run cancel still surfaces the best-so-far solution.
  const AbsResult partial = manager.result(id);
  EXPECT_TRUE(partial.cancelled);
  EXPECT_EQ(full_energy(*small_problem(), partial.best),
            partial.best_energy);

  // Cancelling a terminal job reports no effect.
  EXPECT_FALSE(manager.cancel(id));
}

TEST(JobManager, CancelUnknownIdThrows) {
  JobManager manager(small_config());
  EXPECT_THROW((void)manager.cancel(42), JobNotFoundError);
  EXPECT_THROW((void)manager.status(42), JobNotFoundError);
  EXPECT_THROW((void)manager.result(42), JobNotFoundError);
}

TEST(JobManager, PriorityOrdersTheQueue) {
  JobManager manager(small_config(1, 8));
  const JobId blocker = manager.submit(long_job());
  wait_until_running(manager, blocker);

  JobSpec low = quick_job();
  low.priority = 0;
  JobSpec high = quick_job();
  high.priority = 5;
  const JobId low_id = manager.submit(std::move(low));
  const JobId high_id = manager.submit(std::move(high));

  EXPECT_TRUE(manager.cancel(blocker));
  const JobStatus low_status = manager.wait(low_id, 30.0);
  const JobStatus high_status = manager.wait(high_id, 30.0);
  ASSERT_EQ(low_status.state, JobState::kDone);
  ASSERT_EQ(high_status.state, JobState::kDone);
  // The high-priority job was claimed first even though it arrived later.
  EXPECT_LT(high_status.started_seconds, low_status.started_seconds);
}

TEST(JobManager, WaitTimesOutOnARunningJob) {
  JobManager manager(small_config());
  const JobId id = manager.submit(long_job());
  const JobStatus status = manager.wait(id, 0.05);
  EXPECT_FALSE(is_terminal(status.state));
  EXPECT_TRUE(manager.cancel(id));
  (void)manager.wait(id, 30.0);
}

TEST(JobManager, FailedJobIsIsolated) {
  JobManager manager(small_config());
  JobSpec doomed = quick_job();
  doomed.resume_from = "/nonexistent/checkpoint.ck";
  const JobId bad = manager.submit(std::move(doomed));
  const JobStatus status = manager.wait(bad, 30.0);
  ASSERT_EQ(status.state, JobState::kFailed);
  EXPECT_FALSE(status.error.empty());
  EXPECT_THROW((void)manager.result(bad), CheckError);

  // The slot survived: the next job runs fine.
  const JobId good = manager.submit(quick_job());
  EXPECT_EQ(manager.wait(good, 30.0).state, JobState::kDone);
}

TEST(JobManager, CheckpointThenResumeAcrossJobs) {
  const std::string dir = ::testing::TempDir() + "absq_jm_ck";
  std::filesystem::create_directories(dir);
  JobManagerConfig config = small_config();
  config.checkpoint_dir = dir;
  config.checkpoint_interval_seconds = 3600.0;  // final write only
  JobManager manager(config);

  const JobId first = manager.submit(quick_job());
  const JobStatus done = manager.wait(first, 30.0);
  ASSERT_EQ(done.state, JobState::kDone);
  ASSERT_FALSE(done.checkpoint_path.empty());
  EXPECT_TRUE(std::filesystem::exists(done.checkpoint_path));

  // A second job warm-starts from the first one's snapshot.
  JobSpec resumed = quick_job();
  resumed.resume_from = done.checkpoint_path;
  const JobId second = manager.submit(std::move(resumed));
  const JobStatus status = manager.wait(second, 30.0);
  ASSERT_EQ(status.state, JobState::kDone);
  // The warm start can only help: the resumed run starts from the first
  // run's population, so its best can never be worse.
  EXPECT_LE(status.best_energy, done.best_energy);
}

TEST(JobManager, ConcurrentSubmittersAndSlots) {
  JobManager manager(small_config(2, 64));
  constexpr int kJobsPerThread = 4;
  constexpr int kThreads = 4;
  std::vector<JobId> ids(kThreads * kJobsPerThread);
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&manager, &ids, t] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        ids[static_cast<std::size_t>(t * kJobsPerThread + i)] =
            manager.submit(quick_job(5000));
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  for (const JobId id : ids) {
    EXPECT_EQ(manager.wait(id, 60.0).state, JobState::kDone) << id;
  }
  EXPECT_EQ(manager.list().size(), ids.size());
  EXPECT_EQ(manager.queue_depth(), 0u);
  EXPECT_EQ(manager.running_count(), 0u);
}

TEST(JobManager, ShutdownStopsAdmissionAndDrains) {
  JobManager manager(small_config(1, 8));
  const JobId running = manager.submit(long_job());
  wait_until_running(manager, running);
  const JobId queued = manager.submit(long_job());

  manager.shutdown(JobManager::Drain::kCancel);
  EXPECT_THROW((void)manager.submit(quick_job()), ShuttingDownError);
  EXPECT_TRUE(is_terminal(manager.status(running).state));
  EXPECT_EQ(manager.status(queued).state, JobState::kCancelled);

  // Idempotent: a second shutdown (and the destructor's) just waits.
  manager.shutdown(JobManager::Drain::kWait);
}

TEST(JobManager, DrainWaitLetsQueuedJobsFinish) {
  JobManager manager(small_config(1, 8));
  const JobId a = manager.submit(quick_job());
  const JobId b = manager.submit(quick_job());
  manager.shutdown(JobManager::Drain::kWait);
  EXPECT_EQ(manager.status(a).state, JobState::kDone);
  EXPECT_EQ(manager.status(b).state, JobState::kDone);
}

// --- durability: idempotency, deadlines, WAL, crash recovery --------------

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// A journaled submitted record matching quick_job(), as the crashed
/// process would have written it. The TTL anchor can be pushed into the
/// past with `wall_offset` to simulate downtime.
JournalRecord recipe(JobId id, const std::string& dir,
                     double deadline = 0.0, double wall_offset = 0.0) {
  JournalRecord record;
  record.event = JournalEvent::kSubmitted;
  record.id = id;
  record.name = "crashed-" + std::to_string(id);
  record.seed = 5;
  record.time_limit_seconds = 30.0;
  record.max_flips = 20000;
  record.deadline_seconds = deadline;
  record.submitted_wall_seconds = wall_now() - wall_offset;
  record.problem_file = dir + "/job-" + std::to_string(id) + ".problem";
  return record;
}

TEST(JobManager, IdempotentResubmissionReturnsTheOriginalJob) {
  JobManager manager(small_config(1, 1));
  JobSpec first = long_job();
  first.idempotency_key = "alpha";
  const SubmitOutcome original = manager.submit_full(std::move(first));
  EXPECT_FALSE(original.deduplicated);
  wait_until_running(manager, original.id);

  // Duplicate of an in-flight key: same id, nothing new admitted.
  JobSpec in_flight = long_job();
  in_flight.idempotency_key = "alpha";
  const SubmitOutcome dup = manager.submit_full(std::move(in_flight));
  EXPECT_TRUE(dup.deduplicated);
  EXPECT_EQ(dup.id, original.id);

  // Deduplication outranks backpressure: with the queue full, a known key
  // is still answered while fresh work is rejected.
  const JobId filler = manager.submit(quick_job());
  EXPECT_THROW((void)manager.submit(quick_job()), QueueFullError);
  JobSpec full_queue = long_job();
  full_queue.idempotency_key = "alpha";
  EXPECT_TRUE(manager.submit_full(std::move(full_queue)).deduplicated);

  EXPECT_TRUE(manager.cancel(original.id));
  (void)manager.wait(original.id, 30.0);
  (void)manager.wait(filler, 30.0);

  // A terminal key still deduplicates — resubmitting finished work
  // returns the finished job instead of solving again.
  JobSpec after = quick_job();
  after.idempotency_key = "alpha";
  const SubmitOutcome settled = manager.submit_full(std::move(after));
  EXPECT_TRUE(settled.deduplicated);
  EXPECT_EQ(settled.id, original.id);
  manager.shutdown(JobManager::Drain::kWait);
}

TEST(JobManager, DeadlineExpiresAQueuedJob) {
  obs::MetricsRegistry registry;
  JobManagerConfig config = small_config(1, 8);
  config.telemetry.metrics = &registry;
  JobManager manager(config);

  const JobId blocker = manager.submit(long_job());
  wait_until_running(manager, blocker);
  JobSpec doomed = quick_job();
  doomed.deadline_seconds = 0.2;
  const JobId queued = manager.submit(std::move(doomed));

  const JobStatus status = manager.wait(queued, 30.0);
  EXPECT_EQ(status.state, JobState::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(status.deadline_seconds, 0.2);
  EXPECT_NE(status.error.find("queued"), std::string::npos) << status.error;
  EXPECT_FALSE(manager.cancel(queued));  // already terminal

  EXPECT_TRUE(manager.cancel(blocker));
  (void)manager.wait(blocker, 30.0);
  manager.shutdown(JobManager::Drain::kWait);
  const std::string text = obs::to_prometheus(registry.scrape());
  EXPECT_NE(text.find("absq_jobs_deadline_exceeded_total 1"),
            std::string::npos)
      << text;
}

TEST(JobManager, DeadlineStopsARunningJob) {
  JobManager manager(small_config());
  JobSpec doomed = long_job();
  doomed.deadline_seconds = 0.3;
  const JobId id = manager.submit(std::move(doomed));
  const JobStatus status = manager.wait(id, 30.0);
  EXPECT_EQ(status.state, JobState::kDeadlineExceeded);
  EXPECT_NE(status.error.find("mid-run"), std::string::npos) << status.error;
  // The partial result survives, like a cancelled job's.
  const AbsResult result = manager.result(id);
  EXPECT_TRUE(result.cancelled);
  manager.shutdown(JobManager::Drain::kWait);
}

TEST(JobManager, WalFailureRejectsTheSubmissionAtomically) {
  const std::string dir = fresh_dir("absq_jm_wal");
  JobManagerConfig config = small_config();
  config.checkpoint_dir = dir;
  JobManager manager(config);

  fail::Registry::instance().arm_from_directives("journal.append=once");
  EXPECT_THROW((void)manager.submit(quick_job()), JournalError);
  fail::Registry::instance().disarm_all();

  // The failed submission left no trace: no job, no queue entry, and the
  // journal replays to nothing but live history.
  EXPECT_TRUE(manager.list().empty());
  EXPECT_EQ(manager.queue_depth(), 0u);
  const JobId id = manager.submit(quick_job());
  EXPECT_EQ(manager.wait(id, 30.0).state, JobState::kDone);
  manager.shutdown(JobManager::Drain::kWait);
}

TEST(JobManager, RecoveryRequeuesAJobThatNeverStarted) {
  const std::string dir = fresh_dir("absq_jm_rec_requeue");
  write_qubo_file(dir + "/job-1.problem", *small_problem());
  {
    Journal journal(dir + "/jobs.journal");
    journal.append(recipe(1, dir));
  }
  obs::MetricsRegistry registry;
  JobManagerConfig config = small_config();
  config.checkpoint_dir = dir;
  config.recover = true;
  config.telemetry.metrics = &registry;
  JobManager manager(config);

  EXPECT_EQ(manager.recovery_stats().requeued, 1u);
  EXPECT_EQ(manager.recovery_stats().lost, 0u);
  const JobStatus status = manager.wait(1, 30.0);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_TRUE(status.recovered);
  EXPECT_EQ(status.name, "crashed-1");
  manager.shutdown(JobManager::Drain::kWait);

  const std::string text = obs::to_prometheus(registry.scrape());
  EXPECT_NE(text.find("absq_jobs_recovered_total 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("absq_jobs_lost_total 0"), std::string::npos) << text;
}

TEST(JobManager, RecoveryResumesAStartedJobFromItsCheckpoint) {
  const std::string dir = fresh_dir("absq_jm_rec_resume");

  // A first manager incarnation runs a checkpointing job so a genuine
  // job-1.ck and job-1.problem land on disk...
  {
    JobManagerConfig config = small_config();
    config.checkpoint_dir = dir;
    config.checkpoint_interval_seconds = 3600.0;  // final write only
    JobManager manager(config);
    const JobId id = manager.submit(quick_job());
    ASSERT_EQ(manager.wait(id, 30.0).state, JobState::kDone);
    manager.shutdown(JobManager::Drain::kWait);
    ASSERT_TRUE(std::filesystem::exists(dir + "/job-1.ck"));
  }

  // ...then the journal is replaced with a crashed history: submitted +
  // started, no terminal record (the terminal record died with the
  // process).
  std::filesystem::remove(dir + "/jobs.journal");
  {
    Journal journal(dir + "/jobs.journal");
    journal.append(recipe(1, dir));
    JournalRecord started;
    started.event = JournalEvent::kStarted;
    started.id = 1;
    journal.append(started);
  }

  JobManagerConfig config = small_config();
  config.checkpoint_dir = dir;
  config.recover = true;
  JobManager manager(config);
  EXPECT_EQ(manager.recovery_stats().resumed, 1u);
  const JobStatus status = manager.wait(1, 30.0);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_TRUE(status.recovered);
  manager.shutdown(JobManager::Drain::kWait);
}

TEST(JobManager, RecoveryRestoresTerminalJobsWithTheirSolutions) {
  const std::string dir = fresh_dir("absq_jm_rec_terminal");
  const std::string solution(32, '1');
  {
    Journal journal(dir + "/jobs.journal");
    JournalRecord submitted = recipe(7, dir, /*deadline=*/0.0);
    submitted.idempotency_key = "beta";
    journal.append(submitted);
    JournalRecord terminal;
    terminal.event = JournalEvent::kTerminal;
    terminal.id = 7;
    terminal.state = JobState::kDone;
    terminal.has_result = true;
    terminal.solution = solution;
    terminal.energy = -42;
    terminal.total_flips = 999;
    terminal.run_seconds = 1.5;
    journal.append(terminal);
  }
  JobManagerConfig config = small_config();
  config.checkpoint_dir = dir;
  config.recover = true;
  JobManager manager(config);

  EXPECT_EQ(manager.recovery_stats().terminal, 1u);
  const JobStatus status = manager.status(7);
  EXPECT_EQ(status.state, JobState::kDone);
  const AbsResult result = manager.result(7);
  EXPECT_EQ(result.best.to_string(), solution);
  EXPECT_EQ(result.best_energy, -42);
  EXPECT_EQ(result.total_flips, 999u);

  // Idempotency keys survive recovery: resubmitting the settled key
  // returns the settled job instead of solving again.
  JobSpec again = quick_job();
  again.idempotency_key = "beta";
  const SubmitOutcome settled = manager.submit_full(std::move(again));
  EXPECT_TRUE(settled.deduplicated);
  EXPECT_EQ(settled.id, 7u);
  // Fresh ids start past every journaled id — no aliasing.
  EXPECT_EQ(manager.submit(quick_job()), 8u);
  manager.shutdown(JobManager::Drain::kWait);
}

TEST(JobManager, RecoveryExpiresAJobWhoseTtlPassedWhileDown) {
  const std::string dir = fresh_dir("absq_jm_rec_expired");
  write_qubo_file(dir + "/job-3.problem", *small_problem());
  {
    Journal journal(dir + "/jobs.journal");
    journal.append(recipe(3, dir, /*deadline=*/1.0, /*wall_offset=*/60.0));
  }
  JobManagerConfig config = small_config();
  config.checkpoint_dir = dir;
  config.recover = true;
  JobManager manager(config);

  EXPECT_EQ(manager.recovery_stats().expired, 1u);
  const JobStatus status = manager.status(3);
  EXPECT_EQ(status.state, JobState::kDeadlineExceeded);
  EXPECT_NE(status.error.find("down"), std::string::npos) << status.error;
  manager.shutdown(JobManager::Drain::kWait);
}

TEST(JobManager, RecoveryFailsAJobWithAnUnreadableSpoolLoudly) {
  const std::string dir = fresh_dir("absq_jm_rec_lost");
  obs::MetricsRegistry registry;
  {
    Journal journal(dir + "/jobs.journal");
    journal.append(recipe(4, dir));  // job-4.problem never written
  }
  JobManagerConfig config = small_config();
  config.checkpoint_dir = dir;
  config.recover = true;
  config.telemetry.metrics = &registry;
  JobManager manager(config);

  EXPECT_EQ(manager.recovery_stats().lost, 1u);
  const JobStatus status = manager.status(4);
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_NE(status.error.find("unrecoverable"), std::string::npos)
      << status.error;
  manager.shutdown(JobManager::Drain::kWait);
  const std::string text = obs::to_prometheus(registry.scrape());
  EXPECT_NE(text.find("absq_jobs_lost_total 1"), std::string::npos) << text;
}

TEST(JobManager, StaleJournalIsSetAsideWithoutRecover) {
  const std::string dir = fresh_dir("absq_jm_stale");
  write_qubo_file(dir + "/job-1.problem", *small_problem());
  {
    Journal journal(dir + "/jobs.journal");
    journal.append(recipe(1, dir));
  }
  JobManagerConfig config = small_config();
  config.checkpoint_dir = dir;  // recover stays false
  JobManager manager(config);

  // The old journal was set aside, not replayed: no jobs, fresh ids.
  EXPECT_TRUE(std::filesystem::exists(dir + "/jobs.journal.stale"));
  EXPECT_TRUE(manager.list().empty());
  EXPECT_EQ(manager.recovery_stats().recovered(), 0u);
  EXPECT_EQ(manager.submit(quick_job()), 1u);
  manager.shutdown(JobManager::Drain::kWait);
}

}  // namespace
}  // namespace absq::serve
