// Failure-matrix tests: injected device crashes, stalls, mailbox storms,
// and checkpoint crash/resume — the degraded-mode guarantees of
// docs/robustness.md.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "abs/solver.hpp"
#include "ga/pool_io.hpp"
#include "problems/random.hpp"
#include "qubo/energy.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace absq {
namespace {

AbsConfig small_config(std::uint32_t devices, std::uint32_t blocks = 4) {
  AbsConfig config;
  config.num_devices = devices;
  config.device.block_limit = blocks;
  config.device.local_steps = 32;
  config.device.threads_per_device = 1;
  config.pool_capacity = 16;
  config.seed = 99;
  return config;
}

/// Arms fail points for one test and guarantees registry cleanup.
class FaultToleranceTest : public ::testing::Test {
 protected:
  void TearDown() override { fail::Registry::instance().disarm_all(); }
};

/// CPU time the calling thread has used so far, in seconds.
double thread_cpu_seconds() {
  timespec now{};
  (void)clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         1e-9 * static_cast<double>(now.tv_nsec);
}

/// One device, one worker, and a warm-start pool holding one evaluated
/// entry, so a run whose worker never reports still ends with a result.
AbsConfig stalled_host_config(const WeightMatrix& w) {
  AbsConfig config = small_config(1);
  auto pool = std::make_shared<SolutionPool>(config.pool_capacity);
  const BitVector zero(w.size());
  (void)pool->insert(zero, full_energy(w, zero));
  config.warm_start = std::move(pool);
  return config;
}

/// The message of the error a run must end with ("" after recording a
/// failure when the run returned a result).
std::string failed_run_message(AbsSolver& solver, const StopCriteria& stop) {
  try {
    (void)solver.run(stop);
  } catch (const std::exception& error) {
    return error.what();
  }
  ADD_FAILURE() << "a run with no report returned a result";
  return "";
}

TEST_F(FaultToleranceTest, ThrownDeviceIsQuarantinedAndRunContinues) {
  const WeightMatrix w = random_qubo(64, 11);
  fail::Registry::instance().arm_from_directives("device.iterate@1=once");

  AbsSolver solver(w, small_config(4));
  StopCriteria stop;
  stop.time_limit_seconds = 1.0;
  const AbsResult result = solver.run(stop);

  // The failed device is reported; the other three carried the run.
  ASSERT_EQ(result.failed_devices.size(), 1u);
  EXPECT_EQ(result.failed_devices[0], 1u);
  ASSERT_EQ(result.devices.size(), 4u);
  EXPECT_EQ(result.devices[1].health, DeviceHealth::kFailed);
  EXPECT_NE(result.devices[1].failure.find("device.iterate"),
            std::string::npos);
  for (const std::uint32_t d : {0u, 2u, 3u}) {
    EXPECT_EQ(result.devices[d].health, DeviceHealth::kHealthy) << d;
    EXPECT_GT(result.devices[d].flips, 0u) << d;
  }
  EXPECT_GT(result.total_flips, 0u);
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));
  EXPECT_TRUE(solver.islands().pool(0).check_invariants());
}

TEST_F(FaultToleranceTest, RestartPolicyRevivesFailedDevice) {
  const WeightMatrix w = random_qubo(64, 12);
  fail::Registry::instance().arm_from_directives("device.iterate@0=once");

  AbsConfig config = small_config(2);
  config.watchdog.max_restarts = 2;
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.time_limit_seconds = 1.0;
  const AbsResult result = solver.run(stop);

  // The 'once' fault kills incarnation 0; the restarted incarnation runs
  // clean, so the device ends the run healthy and unlisted.
  EXPECT_TRUE(result.failed_devices.empty());
  ASSERT_EQ(result.devices.size(), 2u);
  EXPECT_EQ(result.devices[0].health, DeviceHealth::kHealthy);
  EXPECT_EQ(result.devices[0].restarts, 1u);
  EXPECT_TRUE(result.devices[0].failure.empty());
  EXPECT_GT(result.devices[0].flips, 0u);  // the replacement searched
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));
}

TEST_F(FaultToleranceTest, AllDevicesDeadBeforeAnyReportRethrows) {
  const WeightMatrix w = random_qubo(64, 13);
  // Every iterate call throws: no device ever reports a solution.
  fail::Registry::instance().arm_from_directives("device.iterate=every:1");

  AbsSolver solver(w, small_config(2));
  StopCriteria stop;
  stop.time_limit_seconds = 30.0;  // never reached — the run ends early
  // The dying workers wake the parked host: it must not sleep through
  // their deaths to the time limit.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)solver.run(stop), fail::FailPointError);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            5.0);
}

TEST_F(FaultToleranceTest, IdleHostParks) {
  const WeightMatrix w = random_qubo(64, 17);
  // The worker sleeps in its first iteration: it uses no CPU and never
  // moves the counter, so the host has nothing to do until the limit.
  fail::Registry::instance().arm_from_directives("device.iterate=stall:30");

  AbsSolver solver(w, stalled_host_config(w));
  StopCriteria stop;
  stop.time_limit_seconds = 0.5;
  const double cpu_before = thread_cpu_seconds();
  const AbsResult result = solver.run(stop);
  const double host_cpu = thread_cpu_seconds() - cpu_before;

  // A host that polled (or yielded) would burn the whole 0.5 s.
  EXPECT_LT(host_cpu, 0.05);
  EXPECT_GE(result.seconds, 0.5);
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));
}

TEST_F(FaultToleranceTest, StopWakesAParkedHost) {
  const WeightMatrix w = random_qubo(64, 18);
  fail::Registry::instance().arm_from_directives("device.iterate=stall:30");

  AbsSolver solver(w, stalled_host_config(w));
  StopCriteria stop;
  stop.time_limit_seconds = 30.0;
  std::thread canceller([&solver] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    solver.request_stop();
  });
  const AbsResult result = solver.run(stop);
  canceller.join();

  // Nothing but the stop request could have woken the host this early.
  EXPECT_TRUE(result.cancelled);
  EXPECT_LT(result.seconds, 2.0);
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));
}

TEST_F(FaultToleranceTest, FlipBudgetEndsARunWhoseEveryReportIsDropped) {
  const WeightMatrix w = random_qubo(64, 19);
  // No report ever reaches the host, so no counter moves; the flip budget
  // is the only stop criterion. Every iteration still rings the parked
  // host, which sees the budget crossed and ends the run.
  fail::Registry::instance().arm_from_directives(
      "mailbox.solution_push=every:1");

  AbsSolver solver(w, small_config(1));
  StopCriteria stop;
  stop.max_flips = 20000;
  // Backstop: a host that never wakes is stopped after 5 s, so this test
  // fails on the time bound instead of hanging.
  std::atomic<bool> ended{false};
  std::thread backstop([&solver, &ended] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!ended.load() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!ended.load()) solver.request_stop();
  });
  const auto start = std::chrono::steady_clock::now();
  const std::string message = failed_run_message(solver, stop);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ended.store(true);
  backstop.join();
  EXPECT_LT(seconds, 2.0);
  // The diagnosis names the criterion that ended the run, and it is the
  // whole message: a run outcome, not a failed check with its source line.
  EXPECT_EQ(message.rfind("run ended before any device reported", 0), 0u)
      << message;
  EXPECT_NE(message.find("flip budget"), std::string::npos) << message;
  EXPECT_EQ(message.find("time limit"), std::string::npos) << message;
}

TEST_F(FaultToleranceTest, TimeLimitEndsARunWhoseEveryReportIsDropped) {
  const WeightMatrix w = random_qubo(64, 20);
  fail::Registry::instance().arm_from_directives(
      "mailbox.solution_push=every:1");

  AbsSolver solver(w, small_config(1));
  StopCriteria stop;
  stop.time_limit_seconds = 0.3;
  const std::string message = failed_run_message(solver, stop);
  EXPECT_NE(message.find("run ended before any device reported"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("raise the time limit"), std::string::npos)
      << message;
  EXPECT_EQ(message.find("flip budget"), std::string::npos) << message;
  // The outcome has its own type, still a CheckError for existing callers.
  EXPECT_THROW((void)solver.run(stop), NoReportError);
}

TEST_F(FaultToleranceTest, EveryDeviceStalledBeforeAnyReportSaysSo) {
  const WeightMatrix w = random_qubo(64, 21);
  // Every worker hangs in its first iteration; the watchdog quarantines
  // both devices and the run ends on the degraded-mode floor. The stop
  // cancels the stalls, and the reports those iterations then push are
  // dropped too.
  fail::Registry::instance().arm_from_directives(
      "device.iterate=stall:30,mailbox.solution_push=every:1");

  AbsConfig config = small_config(2);
  config.watchdog.stall_grace_seconds = 0.2;
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.time_limit_seconds = 30.0;  // never reached — the run ends early
  const auto start = std::chrono::steady_clock::now();
  const std::string message = failed_run_message(solver, stop);
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            10.0);
  EXPECT_NE(message.find("run ended before any device reported"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("every device stalled"), std::string::npos)
      << message;
  EXPECT_EQ(message.find("time limit"), std::string::npos) << message;
}

TEST_F(FaultToleranceTest, StalledDeviceIsQuarantinedWithinGrace) {
  const WeightMatrix w = random_qubo(64, 14);
  // Device 1 hangs "forever" (30 s ≫ the time limit) on its first block.
  fail::Registry::instance().arm_from_directives("device.iterate@1=stall:30");

  AbsConfig config = small_config(2);
  config.watchdog.stall_grace_seconds = 0.2;
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.time_limit_seconds = 1.0;
  const AbsResult result = solver.run(stop);

  // The hung device was detected by its frozen iteration counter and the
  // run finished on the survivor — long before the 30 s stall expires.
  ASSERT_EQ(result.failed_devices.size(), 1u);
  EXPECT_EQ(result.failed_devices[0], 1u);
  EXPECT_EQ(result.devices[1].health, DeviceHealth::kStalled);
  EXPECT_NE(result.devices[1].failure.find("stalled"), std::string::npos);
  EXPECT_EQ(result.devices[0].health, DeviceHealth::kHealthy);
  EXPECT_GT(result.devices[0].flips, 0u);
  EXPECT_LT(result.seconds, 10.0);
}

TEST_F(FaultToleranceTest, MailboxDropStormDegradesButCompletes) {
  const WeightMatrix w = random_qubo(64, 15);
  // Half of all solution reports vanish before the counter moves — the
  // lost-DMA-write model. The protocol must degrade, not deadlock.
  fail::Registry::instance().arm_from_directives(
      "mailbox.solution_push=every:2");

  AbsSolver solver(w, small_config(2));
  StopCriteria stop;
  stop.time_limit_seconds = 0.5;
  const AbsResult result = solver.run(stop);

  EXPECT_GT(result.solutions_dropped, 0u);
  EXPECT_GT(result.reports_received, 0u);
  EXPECT_EQ(result.best_energy, full_energy(w, result.best));
  EXPECT_TRUE(result.failed_devices.empty());
}

TEST_F(FaultToleranceTest, CheckpointResumeCarriesTheRunForward) {
  const WeightMatrix w = random_qubo(64, 16);
  const std::string path =
      ::testing::TempDir() + "/absq_fault_resume.checkpoint";

  AbsConfig config = small_config(2);
  config.checkpoint_path = path;
  config.checkpoint_interval_seconds = 0.1;
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.time_limit_seconds = 0.4;
  const AbsResult first = solver.run(stop);
  // Periodic cadence plus the final graceful-shutdown write.
  EXPECT_GE(first.checkpoints_written, 2u);
  EXPECT_EQ(first.checkpoints_failed, 0u);

  const RunCheckpoint checkpoint = read_checkpoint_file(path);
  EXPECT_EQ(checkpoint.seed, config.seed);
  EXPECT_GT(checkpoint.elapsed_seconds, 0.0);
  ASSERT_EQ(checkpoint.device_flips.size(), 2u);
  ASSERT_NE(checkpoint.pool, nullptr);
  EXPECT_EQ(checkpoint.pool->best_energy(), first.best_energy);

  // Resume: warm-start a fresh solver from the snapshot. The resumed run
  // can only match or improve the checkpointed incumbent.
  AbsConfig resumed = small_config(2);
  resumed.seed = mix64(checkpoint.seed + 1);
  resumed.warm_start = checkpoint.pool;
  resumed.elapsed_offset_seconds = checkpoint.elapsed_seconds;
  AbsSolver second_solver(w, resumed);
  StopCriteria second_stop;
  second_stop.time_limit_seconds = 0.2;
  const AbsResult second = second_solver.run(second_stop);
  EXPECT_LE(second.best_energy, checkpoint.pool->best_energy());
}

TEST_F(FaultToleranceTest, CheckpointWriteFailureIsCountedNotFatal) {
  const WeightMatrix w = random_qubo(64, 17);
  const std::string path =
      ::testing::TempDir() + "/absq_fault_ckfail.checkpoint";
  std::remove(path.c_str());
  fail::Registry::instance().arm_from_directives("pool_io.write=every:1");

  AbsConfig config = small_config(1);
  config.checkpoint_path = path;
  config.checkpoint_interval_seconds = 0.1;
  AbsSolver solver(w, config);
  StopCriteria stop;
  stop.time_limit_seconds = 0.3;
  const AbsResult result = solver.run(stop);

  // Every write failed; the search itself was never disturbed.
  EXPECT_EQ(result.checkpoints_written, 0u);
  EXPECT_GE(result.checkpoints_failed, 1u);
  EXPECT_GT(result.total_flips, 0u);
  // Neither a partial checkpoint nor a stray temp file is left behind.
  EXPECT_THROW((void)read_checkpoint_file(path), CheckError);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST_F(FaultToleranceTest, ExternalCancellationIsGraceful) {
  const WeightMatrix w = random_qubo(64, 18);
  AbsConfig config = small_config(1);
  AbsSolver solver(w, config);
  // Cancel from another thread mid-run — the SIGINT-handler path.
  std::thread canceller([&solver] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    solver.request_stop();
  });
  StopCriteria stop;
  stop.time_limit_seconds = 30.0;
  const AbsResult result = solver.run(stop);
  canceller.join();
  EXPECT_TRUE(result.cancelled);
  EXPECT_LT(result.seconds, 10.0);
}

}  // namespace
}  // namespace absq
