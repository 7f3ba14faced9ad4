// Fault injection, bounded retry, exec deadlines, and cooperative
// cancellation through svc::QrService — the chaos half of the service tests.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "la/matrix.hpp"
#include "svc/qr_service.hpp"

namespace tqr::svc {
namespace {

JobSpec spec_for(la::index_t rows, la::index_t cols, std::uint64_t seed) {
  JobSpec spec;
  spec.a = la::Matrix<double>::random(rows, cols, seed);
  return spec;
}

ServiceConfig one_lane() {
  ServiceConfig config;
  config.lanes = 1;
  return config;
}

TEST(FaultConfigParsing, ModesAndOps) {
  EXPECT_EQ(parse_fault_mode("none"), FaultConfig::Mode::kNone);
  EXPECT_EQ(parse_fault_mode("throw"), FaultConfig::Mode::kThrow);
  EXPECT_EQ(parse_fault_mode("stall"), FaultConfig::Mode::kStall);
  EXPECT_THROW(parse_fault_mode("explode"), InvalidArgument);
  EXPECT_EQ(parse_fault_op("geqrt"), static_cast<int>(dag::Op::kGeqrt));
  EXPECT_EQ(parse_fault_op("TSMQR"), static_cast<int>(dag::Op::kTsmqr));
  EXPECT_THROW(parse_fault_op("frobnicate"), InvalidArgument);
}

TEST(ServiceFault, InjectedThrowFailsWithoutRetryByDefault) {
  ServiceConfig config = one_lane();
  config.fault.mode = FaultConfig::Mode::kThrow;
  config.fault.task = 0;
  QrService service(config);
  const auto r = service.submit(spec_for(64, 64, 1)).get();
  EXPECT_EQ(r.status, JobStatus::kFailed);
  EXPECT_EQ(r.attempts, 1);  // max_attempts defaults to 1: no retry
  EXPECT_NE(r.error.find("injected fault"), std::string::npos) << r.error;
  const auto s = service.stats();
  EXPECT_EQ(s.jobs_failed, 1u);
  EXPECT_EQ(s.jobs_retried, 0u);
  EXPECT_GE(s.faults_injected, 1u);
}

TEST(ServiceFault, TransientFaultRetriesToSuccess) {
  ServiceConfig config = one_lane();
  config.fault.mode = FaultConfig::Mode::kThrow;
  config.fault.task = 0;
  config.fault.max_injections = 1;  // fails once, then clean
  QrService service(config);
  JobSpec spec = spec_for(64, 64, 2);
  spec.max_attempts = 2;
  spec.compute_residual = true;
  const auto r = service.submit(std::move(spec)).get();
  ASSERT_EQ(r.status, JobStatus::kOk) << r.error;
  EXPECT_EQ(r.attempts, 2);
  EXPECT_GE(r.residual, 0.0);
  const auto s = service.stats();
  EXPECT_EQ(s.jobs_completed, 1u);
  EXPECT_EQ(s.jobs_retried, 1u);
  EXPECT_EQ(s.faults_injected, 1u);
}

TEST(ServiceFault, PermanentFaultNeverRetries) {
  ServiceConfig config = one_lane();
  config.fault.mode = FaultConfig::Mode::kThrow;
  config.fault.task = 0;
  config.fault.permanent = true;
  QrService service(config);
  JobSpec spec = spec_for(64, 64, 3);
  spec.max_attempts = 3;
  const auto r = service.submit(std::move(spec)).get();
  EXPECT_EQ(r.status, JobStatus::kFailed);
  EXPECT_EQ(r.attempts, 1);  // permanent errors burn no retry budget
  EXPECT_EQ(service.stats().jobs_retried, 0u);
}

TEST(ServiceFault, ExhaustedRetriesFail) {
  ServiceConfig config = one_lane();
  config.fault.mode = FaultConfig::Mode::kThrow;
  config.fault.task = 0;  // every attempt refaults
  QrService service(config);
  JobSpec spec = spec_for(64, 64, 4);
  spec.max_attempts = 3;
  spec.retry_backoff_s = 0.001;
  const auto r = service.submit(std::move(spec)).get();
  EXPECT_EQ(r.status, JobStatus::kFailed);
  EXPECT_EQ(r.attempts, 3);
  const auto s = service.stats();
  EXPECT_EQ(s.jobs_retried, 2u);
  EXPECT_EQ(s.faults_injected, 3u);
}

TEST(ServiceFault, ExecDeadlineCancelsStalledJobAndLaneRecovers) {
  // The acceptance scenario: a stall fault pins the job well past its exec
  // deadline; the job must come back kCancelled in about deadline + one
  // task granularity (nowhere near the full stall), the lane must accept
  // the next job.
  ServiceConfig config = one_lane();
  config.fault.mode = FaultConfig::Mode::kStall;
  config.fault.task = 0;
  config.fault.stall_s = 5.0;  // would hold the lane for 5 s uncancelled
  config.fault.max_injections = 1;
  QrService service(config);

  JobSpec spec = spec_for(64, 64, 5);
  spec.exec_deadline_s = 0.05;
  Timer wall;
  const auto r = service.submit(std::move(spec)).get();
  const double elapsed = wall.seconds();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_NE(r.error.find("deadline"), std::string::npos) << r.error;
  EXPECT_LT(elapsed, 2.0);  // cut the 5 s stall short at the deadline

  // Lane healthy: the next job factors normally.
  const auto next = service.submit(spec_for(64, 64, 6)).get();
  EXPECT_EQ(next.status, JobStatus::kOk) << next.error;
  const auto s = service.stats();
  EXPECT_EQ(s.jobs_cancelled, 1u);
  EXPECT_EQ(s.jobs_completed, 1u);
}

TEST(ServiceFault, DeadlineDuringRetryBackoffCancels) {
  ServiceConfig config = one_lane();
  config.fault.mode = FaultConfig::Mode::kThrow;
  config.fault.task = 0;
  QrService service(config);
  JobSpec spec = spec_for(64, 64, 7);
  spec.max_attempts = 5;
  spec.retry_backoff_s = 5.0;  // far longer than the deadline
  spec.exec_deadline_s = 0.05;
  Timer wall;
  const auto r = service.submit(std::move(spec)).get();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_NE(r.error.find("deadline"), std::string::npos) << r.error;
  EXPECT_LT(wall.seconds(), 2.0);  // backoff was interrupted
}

TEST(ServiceCancel, QueuedJobCancelsWithoutRunning) {
  ServiceConfig config = one_lane();
  config.fault.mode = FaultConfig::Mode::kStall;
  config.fault.task = 0;
  config.fault.stall_s = 0.3;  // keeps the single lane busy
  config.fault.max_injections = 1;
  QrService service(config);

  auto busy = service.submit(spec_for(64, 64, 8));
  std::uint64_t queued_id = 0;
  auto queued = service.submit(spec_for(64, 64, 9), &queued_id);
  ASSERT_NE(queued_id, 0u);
  EXPECT_TRUE(service.cancel(queued_id));
  EXPECT_FALSE(service.cancel(queued_id + 1000));  // unknown id

  const auto r = queued.get();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_EQ(r.id, queued_id);
  EXPECT_NE(r.error.find("cancelled by caller"), std::string::npos)
      << r.error;
  EXPECT_EQ(r.attempts, 0);  // never started executing

  EXPECT_EQ(busy.get().status, JobStatus::kOk);
  service.drain();
  // Completed jobs are forgotten: cancelling them reports false.
  EXPECT_FALSE(service.cancel(queued_id));
  EXPECT_EQ(service.stats().jobs_cancelled, 1u);
}

TEST(ServiceCancel, CancelAllSignalsEveryOutstandingJob) {
  ServiceConfig config = one_lane();
  config.fault.mode = FaultConfig::Mode::kStall;
  config.fault.stall_s = 0.05;
  QrService service(config);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(service.submit(spec_for(64, 64, 10 + i)));
  EXPECT_GE(service.cancel_all(), 1u);
  service.drain();
  int cancelled = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    EXPECT_TRUE(r.status == JobStatus::kOk ||
                r.status == JobStatus::kCancelled)
        << to_string(r.status);
    if (r.status == JobStatus::kCancelled) ++cancelled;
  }
  EXPECT_GE(cancelled, 1);
}

TEST(ServiceCancel, ShutdownCancelsOutstandingJobsWhenConfigured) {
  std::vector<std::future<JobResult>> futures;
  {
    ServiceConfig config = one_lane();
    config.cancel_on_shutdown = true;
    config.fault.mode = FaultConfig::Mode::kStall;
    config.fault.stall_s = 0.05;  // per task: the backlog cannot finish fast
    QrService service(config);
    for (int i = 0; i < 6; ++i)
      futures.push_back(service.submit(spec_for(64, 64, 20 + i)));
  }  // destructor: cancel-all, drain, join
  int cancelled = 0;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const auto r = f.get();
    EXPECT_TRUE(r.status == JobStatus::kOk ||
                r.status == JobStatus::kCancelled)
        << to_string(r.status);
    if (r.status == JobStatus::kCancelled) ++cancelled;
  }
  EXPECT_GE(cancelled, 1);
}

TEST(ServiceReject, RejectedFutureCarriesIdAndTag) {
  // Admission kReject with the lane pinned by a stall: the queue fills and
  // the overflow job's future must resolve immediately with the id/tag the
  // caller can correlate on (pins that JobQueue::push leaves the rejected
  // job intact rather than consuming it).
  ServiceConfig config = one_lane();
  config.admission = Admission::kReject;
  config.queue_capacity = 1;
  config.fault.mode = FaultConfig::Mode::kStall;
  config.fault.task = 0;
  config.fault.stall_s = 0.3;
  config.fault.max_injections = 1;
  QrService service(config);

  std::uint64_t busy_id = 0;
  auto busy = service.submit(spec_for(64, 64, 30), &busy_id);  // the lane
  // Wait until the lane actually picked the job up (it then stalls) so the
  // next submit reliably stays queued.
  while (!service.started(busy_id))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::uint64_t queued_id = 0;
  auto queued = service.submit(spec_for(64, 64, 31), &queued_id);

  JobSpec overflow = spec_for(64, 64, 32);
  overflow.tag = 0xBEEF;
  std::uint64_t overflow_id = 0;
  auto rejected = service.submit(std::move(overflow), &overflow_id);
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const auto r = rejected.get();
  EXPECT_EQ(r.status, JobStatus::kRejected);
  EXPECT_EQ(r.id, overflow_id);
  EXPECT_EQ(r.tag, 0xBEEFu);
  EXPECT_EQ(r.rows, 64);
  EXPECT_EQ(r.cols, 64);
  EXPECT_NE(r.error.find("queue full"), std::string::npos) << r.error;
  service.drain();
}

TEST(NodeFaultSchedule, ParseKindsAndEpisodeWindows) {
  EXPECT_EQ(parse_node_fault_kind("none"), NodeFaultConfig::Kind::kNone);
  EXPECT_EQ(parse_node_fault_kind("crash"), NodeFaultConfig::Kind::kCrash);
  EXPECT_EQ(parse_node_fault_kind("brownout"),
            NodeFaultConfig::Kind::kBrownout);
  EXPECT_EQ(parse_node_fault_kind("reject-storm"),
            NodeFaultConfig::Kind::kRejectStorm);
  EXPECT_EQ(parse_node_fault_kind("flaky-link"),
            NodeFaultConfig::Kind::kFlakyLink);
  EXPECT_THROW(parse_node_fault_kind("meltdown"), InvalidArgument);

  // Periodic episode: [1, 3) every 10s.
  NodeFaultConfig cfg;
  cfg.kind = NodeFaultConfig::Kind::kBrownout;
  cfg.at_s = 1.0;
  cfg.duration_s = 2.0;
  cfg.period_s = 10.0;
  cfg.stall_factor = 8.0;
  NodeFaultInjector inj(cfg);
  EXPECT_FALSE(inj.active(0.5));
  EXPECT_TRUE(inj.active(1.5));
  EXPECT_FALSE(inj.active(3.5));
  EXPECT_TRUE(inj.active(11.5));  // repeats each period
  EXPECT_FALSE(inj.active(13.5));
  EXPECT_DOUBLE_EQ(inj.stall_factor(1.5), 8.0);
  EXPECT_DOUBLE_EQ(inj.stall_factor(0.5), 1.0);
  EXPECT_FALSE(inj.crashed(1.5));  // brownouts degrade, never kill

  // duration 0 = the fault never clears once it starts.
  NodeFaultConfig crash;
  crash.kind = NodeFaultConfig::Kind::kCrash;
  crash.at_s = 0.25;
  NodeFaultInjector ci(crash);
  EXPECT_FALSE(ci.crashed(0.1));
  EXPECT_TRUE(ci.crashed(0.3));
  EXPECT_TRUE(ci.crashed(1e9));
  EXPECT_TRUE(ci.rejecting(0.3));  // a crashed node also rejects

  // Invalid schedules are rejected up front.
  NodeFaultConfig bad = cfg;
  bad.period_s = 1.0;  // shorter than the episode itself
  EXPECT_THROW(NodeFaultInjector{bad}, InvalidArgument);
}

TEST(NodeFaultSchedule, FlakyLinkRollsAreSeededDeterministic) {
  NodeFaultConfig cfg;
  cfg.kind = NodeFaultConfig::Kind::kFlakyLink;
  cfg.drop_probability = 0.5;
  cfg.delay_s = 0.002;
  cfg.seed = 7;
  NodeFaultInjector a(cfg), b(cfg);
  std::vector<bool> ra, rb;
  int drops = 0;
  for (int i = 0; i < 64; ++i) {
    ra.push_back(a.drop_ship(1.0));
    rb.push_back(b.drop_ship(1.0));
    drops += ra.back() ? 1 : 0;
  }
  EXPECT_EQ(ra, rb);  // same seed => same chaos, reproducible runs
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, 64);
  EXPECT_EQ(a.injected(), static_cast<std::uint64_t>(drops));
  EXPECT_DOUBLE_EQ(a.ship_delay_s(1.0), 0.002);
  // Outside the episode the link behaves: no drops, no delay.
  NodeFaultConfig later = cfg;
  later.at_s = 100.0;
  NodeFaultInjector off(later);
  for (int i = 0; i < 64; ++i) EXPECT_FALSE(off.drop_ship(1.0));
  EXPECT_DOUBLE_EQ(off.ship_delay_s(1.0), 0.0);
}

TEST(NodeFault, CrashedNodeBouncesSubmissionsAtTheDoor) {
  ServiceConfig config = one_lane();
  config.node_fault.kind = NodeFaultConfig::Kind::kCrash;
  config.node_fault.at_s = 0;
  QrService service(config);
  JobSpec spec = spec_for(64, 64, 50);
  spec.tag = 0xC4A5;
  auto f = service.submit(std::move(spec));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const auto r = f.get();
  EXPECT_EQ(r.status, JobStatus::kRejected);
  EXPECT_EQ(r.tag, 0xC4A5u);
  EXPECT_NE(r.error.find("node down"), std::string::npos) << r.error;
  const auto s = service.stats();
  EXPECT_TRUE(s.node_down);
  EXPECT_EQ(s.node_rejects, 1u);
  EXPECT_EQ(s.jobs_rejected, 1u);
  EXPECT_EQ(s.jobs_completed, 0u);
  service.drain();
}

TEST(NodeFault, MidRunCrashFailsInFlightJobsPermanently) {
  ServiceConfig config = one_lane();
  // The stall holds the first task past the crash time; retries are armed
  // to prove a crash failure is permanent (no retry on a dead node).
  config.fault.mode = FaultConfig::Mode::kStall;
  config.fault.stall_s = 0.4;
  config.fault.max_injections = 1;
  config.node_fault.kind = NodeFaultConfig::Kind::kCrash;
  config.node_fault.at_s = 0.1;
  QrService service(config);
  JobSpec spec = spec_for(64, 64, 51);
  spec.max_attempts = 3;
  const auto r = service.submit(std::move(spec)).get();
  EXPECT_EQ(r.status, JobStatus::kFailed);
  EXPECT_EQ(r.attempts, 1);  // permanent: the retry loop must not re-run it
  EXPECT_NE(r.error.find("node down: injected crash"), std::string::npos)
      << r.error;
  const auto s = service.stats();
  EXPECT_TRUE(s.node_down);
  EXPECT_EQ(s.jobs_failed, 1u);
  EXPECT_EQ(s.jobs_retried, 0u);
  EXPECT_GE(s.node_faults_injected, 1u);
  service.drain();
}

TEST(NodeFault, RejectStormWindowClosesAndServiceRecovers) {
  ServiceConfig config = one_lane();
  config.node_fault.kind = NodeFaultConfig::Kind::kRejectStorm;
  config.node_fault.at_s = 0;
  config.node_fault.duration_s = 1.0;
  QrService service(config);
  const auto bounced = service.submit(spec_for(64, 64, 52)).get();
  EXPECT_EQ(bounced.status, JobStatus::kRejected);
  EXPECT_NE(bounced.error.find("reject storm"), std::string::npos)
      << bounced.error;
  EXPECT_FALSE(service.stats().node_down);  // rejecting, not crashed
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  const auto r = service.submit(spec_for(64, 64, 53)).get();
  EXPECT_EQ(r.status, JobStatus::kOk) << r.error;
  const auto s = service.stats();
  EXPECT_EQ(s.node_rejects, 1u);
  EXPECT_EQ(s.jobs_completed, 1u);
  service.drain();
}

TEST(NodeFault, BrownoutStretchesExecutionButJobsStillComplete) {
  ServiceConfig clean = one_lane();
  ServiceConfig browned = one_lane();
  browned.node_fault.kind = NodeFaultConfig::Kind::kBrownout;
  browned.node_fault.at_s = 0;
  browned.node_fault.stall_factor = 20.0;
  QrService fast(clean), slow(browned);
  const auto rf = fast.submit(spec_for(128, 128, 54)).get();
  const auto rs = slow.submit(spec_for(128, 128, 54)).get();
  ASSERT_EQ(rf.status, JobStatus::kOk);
  ASSERT_EQ(rs.status, JobStatus::kOk) << rs.error;
  // Every task is stretched to ~20x its measured time, so the browned run
  // is far slower than the clean one (2x leaves sanitizer-sized noise room)
  // and the factors still verify identical.
  EXPECT_GT(rs.exec_s, rf.exec_s * 2);
  EXPECT_GE(slow.stats().node_faults_injected, 4u);  // per-task injections
  EXPECT_EQ(fast.stats().node_faults_injected, 0u);
  fast.drain();
  slow.drain();
}

}  // namespace
}  // namespace tqr::svc
