#include "svc/qr_service.hpp"

#include <gtest/gtest.h>

#include <future>
#include <set>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/tiled_qr.hpp"
#include "la/checks.hpp"
#include "la/matrix.hpp"
#include "la/tiled_matrix.hpp"
#include "obs/json.hpp"

namespace tqr::svc {
namespace {

JobSpec spec_for(la::index_t rows, la::index_t cols, std::uint64_t seed,
                 bool residual = true) {
  JobSpec spec;
  spec.a = la::Matrix<double>::random(rows, cols, seed);
  spec.compute_residual = residual;
  return spec;
}

std::uint64_t counter(const QrService& service, const char* name) {
  return service.metrics().counters.at(name);
}

double pooled(const QrService& service) {
  return service.metrics().gauges.at("workspace.pooled");
}

bool upper_triangular(const la::Matrix<double>& r) {
  for (la::index_t i = 0; i < r.rows(); ++i)
    for (la::index_t j = 0; j < i && j < r.cols(); ++j)
      if (r(i, j) != 0.0) return false;
  return true;
}

TEST(QrService, SingleJobFactorsCorrectly) {
  QrService service;
  auto result = service.submit(spec_for(96, 96, 11)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_EQ(result.rows, 96);
  EXPECT_EQ(result.cols, 96);
  EXPECT_EQ(result.r.rows(), 96);
  EXPECT_EQ(result.r.cols(), 96);
  EXPECT_TRUE(upper_triangular(result.r));
  EXPECT_GE(result.residual, 0.0);
  EXPECT_LT(result.residual, la::residual_tolerance<double>(96));
  EXPECT_GE(result.lane, 0);
  EXPECT_GT(result.exec_s, 0.0);
  EXPECT_GE(result.total_s, result.exec_s);
}

TEST(QrService, TallSkinnyAndNonTileAlignedShapes) {
  QrService service;
  // 100x60 is not a multiple of the default tile (16): exercises padding.
  auto tall = service.submit(spec_for(128, 64, 3)).get();
  auto ragged = service.submit(spec_for(100, 60, 4)).get();
  ASSERT_EQ(tall.status, JobStatus::kOk) << tall.error;
  ASSERT_EQ(ragged.status, JobStatus::kOk) << ragged.error;
  EXPECT_EQ(tall.r.rows(), 64);
  EXPECT_EQ(ragged.r.rows(), 60);
  EXPECT_LT(tall.residual, la::residual_tolerance<double>(128));
  EXPECT_LT(ragged.residual, la::residual_tolerance<double>(100));
}

TEST(QrService, RepeatedShapeHitsPlanCache) {
  QrService service;
  auto first = service.submit(spec_for(96, 96, 1, false)).get();
  service.drain();
  auto second = service.submit(spec_for(96, 96, 2, false)).get();
  ASSERT_EQ(first.status, JobStatus::kOk);
  ASSERT_EQ(second.status, JobStatus::kOk);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);
  const auto s = service.stats();
  EXPECT_GE(s.plan_cache.hits, 1u);
  EXPECT_EQ(s.jobs_completed, 2u);
}

TEST(QrService, WideMatrixFails) {
  // rows < cols is a caller error: resolved kInvalid at submit, as is an
  // empty matrix.
  QrService service;
  auto result = service.submit(spec_for(32, 64, 5, false)).get();
  EXPECT_EQ(result.status, JobStatus::kInvalid);
  EXPECT_NE(result.error.find("rows < cols"), std::string::npos)
      << result.error;
  EXPECT_EQ(service.submit(JobSpec{}).get().status, JobStatus::kInvalid);
  // A rejected job must not poison the lane for the next one.
  auto ok = service.submit(spec_for(64, 64, 6, false)).get();
  EXPECT_EQ(ok.status, JobStatus::kOk) << ok.error;
}

TEST(QrService, ExpiredDeadlineSkipsFactorization) {
  ServiceConfig config;
  config.lanes = 1;
  QrService service(config);
  // Occupy the single lane with a large job, then enqueue one whose
  // queue deadline cannot survive the wait.
  auto big = service.submit(spec_for(256, 256, 7, true));
  JobSpec doomed = spec_for(64, 64, 8, false);
  doomed.queue_deadline_s = 1e-9;
  auto result = service.submit(std::move(doomed)).get();
  EXPECT_EQ(result.status, JobStatus::kExpired);
  EXPECT_EQ(result.r.rows(), 0);
  EXPECT_EQ(big.get().status, JobStatus::kOk);
  EXPECT_EQ(service.stats().jobs_expired, 1u);
}

TEST(QrService, RejectAdmissionResolvesFutureImmediately) {
  ServiceConfig config;
  config.lanes = 1;
  config.queue_capacity = 1;
  config.admission = Admission::kReject;
  QrService service(config);
  // Fill the lane and the queue, then overflow.
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(service.submit(spec_for(192, 192, 20 + i, false)));
  int rejected = 0, ok = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    (r.status == JobStatus::kRejected ? rejected : ok)++;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(ok, 0);
  EXPECT_EQ(service.stats().jobs_rejected,
            static_cast<std::uint64_t>(rejected));
}

TEST(QrService, DrainWaitsForAllAccepted) {
  QrService service;
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i)
    futures.push_back(service.submit(spec_for(96, 96, 30 + i, false)));
  service.drain();
  const auto s = service.stats();
  EXPECT_EQ(s.jobs_completed, 6u);
  EXPECT_EQ(s.queue.depth, 0u);
  for (auto& f : futures)
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
}

TEST(QrService, StatsTrackLatencyAndThroughput) {
  QrService service;
  for (int i = 0; i < 4; ++i)
    service.submit(spec_for(96, 96, 40 + i, false));
  service.drain();
  const auto s = service.stats();
  EXPECT_EQ(s.jobs_submitted, 4u);
  EXPECT_GT(s.p50_ms, 0.0);
  EXPECT_GE(s.p95_ms, s.p50_ms);
  EXPECT_GT(s.jobs_per_s, 0.0);
  EXPECT_GT(s.uptime_s, 0.0);
  EXPECT_EQ(s.lanes, service.config().lanes);
}

TEST(QrService, ColdConfigDisablesCacheAndReuse) {
  ServiceConfig config;
  config.plan_cache_enabled = false;
  config.reuse_engines = false;
  QrService service(config);
  auto a = service.submit(spec_for(96, 96, 50, true)).get();
  auto b = service.submit(spec_for(96, 96, 51, true)).get();
  ASSERT_EQ(a.status, JobStatus::kOk) << a.error;
  ASSERT_EQ(b.status, JobStatus::kOk) << b.error;
  EXPECT_LT(a.residual, la::residual_tolerance<double>(96));
  EXPECT_FALSE(a.plan_cache_hit);
  EXPECT_FALSE(b.plan_cache_hit);
  const auto s = service.stats();
  EXPECT_EQ(s.plan_cache.hits, 0u);
  // No plane reuse either: each job allocates its own planes and frees
  // them, so the pool stays empty.
  EXPECT_EQ(counter(service, "workspace.allocated"), 2u);
  EXPECT_EQ(counter(service, "workspace.reused"), 0u);
  EXPECT_EQ(pooled(service), 0.0);
}

TEST(QrService, ReusedPlanesGiveBitwiseSameR) {
  // Job B on the planes job A (same shape, different data) left behind must
  // give the same R, bit for bit, as job B on fresh planes: no byte of an
  // earlier job is ever read. Both precisions, every verify tier, a padded
  // shape.
  for (const Precision precision : {Precision::kFp64, Precision::kFp32}) {
    for (const Verify verify :
         {Verify::kNone, Verify::kScan, Verify::kProbe, Verify::kFull}) {
      auto spec = [&](std::uint64_t seed) {
        JobSpec s = spec_for(300, 200, seed, false);
        s.precision = precision;
        s.verify = verify;
        return s;
      };
      const std::string where =
          std::string(to_string(precision)) + " " + to_string(verify);
      QrService fresh;
      const auto b_fresh = fresh.submit(spec(2)).get();
      QrService warm;
      const auto a_first = warm.submit(spec(1)).get();
      const auto b_warm = warm.submit(spec(2)).get();
      ASSERT_EQ(a_first.status, JobStatus::kOk) << where << a_first.error;
      ASSERT_EQ(b_fresh.status, JobStatus::kOk) << where << b_fresh.error;
      ASSERT_EQ(b_warm.status, JobStatus::kOk) << where << b_warm.error;
      EXPECT_EQ(counter(warm, "workspace.reused"), 1u) << where;
      ASSERT_EQ(b_warm.r.rows(), 200) << where;
      for (la::index_t j = 0; j < 200; ++j)
        for (la::index_t i = 0; i < 200; ++i)
          ASSERT_EQ(b_warm.r(i, j), b_fresh.r(i, j))
              << where << ": R differs at " << i << "," << j;
    }
  }
}

TEST(QrService, SameShapeJobsReusePlanesUpToLanes) {
  // N sequential jobs of one shape allocate planes once; the pool keeps at
  // most one set per lane, matched exactly on shape, evicting the oldest.
  ServiceConfig config;
  config.lanes = 2;
  QrService service(config);
  const int n = 5;
  for (int k = 0; k < n; ++k) {
    ASSERT_EQ(service.submit(spec_for(128, 64, 300 + k, false)).get().status,
              JobStatus::kOk);
    EXPECT_EQ(pooled(service), 1.0);  // returned before the future resolved
  }
  EXPECT_EQ(counter(service, "workspace.allocated"), 1u);
  EXPECT_EQ(counter(service, "workspace.reused"), std::uint64_t{n - 1});

  // Two more shapes (fp32 counts as its own shape) push the first one out.
  JobSpec fp32 = spec_for(128, 64, 310, false);
  fp32.precision = Precision::kFp32;
  ASSERT_EQ(service.submit(std::move(fp32)).get().status, JobStatus::kOk);
  ASSERT_EQ(service.submit(spec_for(96, 96, 311, false)).get().status,
            JobStatus::kOk);
  EXPECT_EQ(pooled(service), 2.0);
  ASSERT_EQ(service.submit(spec_for(128, 64, 312, false)).get().status,
            JobStatus::kOk);
  EXPECT_EQ(counter(service, "workspace.allocated"), 4u);
  ASSERT_EQ(service.submit(spec_for(96, 96, 313, false)).get().status,
            JobStatus::kOk);
  EXPECT_EQ(counter(service, "workspace.allocated"), 4u);
  EXPECT_EQ(counter(service, "workspace.reused"), std::uint64_t{n});

  // Concurrent jobs of one shape leave at most `lanes` sets behind.
  std::vector<std::future<JobResult>> futures;
  for (int k = 0; k < 6; ++k)
    futures.push_back(service.submit(spec_for(64, 64, 320 + k, false)));
  for (auto& f : futures) ASSERT_EQ(f.get().status, JobStatus::kOk);
  EXPECT_LE(pooled(service), 2.0);
}

TEST(QrService, FailedAttemptsNeverPoolPlanes) {
  // Only a kOk attempt hands its planes back: a failed, cancelled or
  // corrupted one frees them, so the next job of the shape allocates.
  for (const FaultConfig::Mode mode :
       {FaultConfig::Mode::kThrow, FaultConfig::Mode::kStall,
        FaultConfig::Mode::kCorrupt}) {
    ServiceConfig config;
    config.lanes = 1;
    config.fault.mode = mode;
    config.fault.max_injections = 1;
    config.fault.stall_s = 5.0;
    if (mode != FaultConfig::Mode::kCorrupt) config.fault.task = 0;
    QrService service(config);
    JobSpec bad = spec_for(96, 96, 330, false);
    bad.verify = Verify::kScan;
    bad.exec_deadline_s = 0.05;
    const JobStatus expected =
        mode == FaultConfig::Mode::kThrow   ? JobStatus::kFailed
        : mode == FaultConfig::Mode::kStall ? JobStatus::kCancelled
                                            : JobStatus::kCorrupted;
    const auto r = service.submit(std::move(bad)).get();
    EXPECT_EQ(r.status, expected) << r.error;
    EXPECT_EQ(pooled(service), 0.0);
    const auto next = service.submit(spec_for(96, 96, 331, false)).get();
    ASSERT_EQ(next.status, JobStatus::kOk) << next.error;
    EXPECT_EQ(counter(service, "workspace.allocated"), 2u);
    EXPECT_EQ(counter(service, "workspace.reused"), 0u);
    EXPECT_EQ(pooled(service), 1.0);
  }
}

TEST(QrService, DestructorDrainsAcceptedJobs) {
  std::vector<std::future<JobResult>> futures;
  {
    QrService service;
    for (int i = 0; i < 4; ++i)
      futures.push_back(service.submit(spec_for(96, 96, 60 + i, false)));
  }  // ~QrService must complete every accepted job before returning
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().status, JobStatus::kOk);
  }
}

TEST(QrService, InvalidConfigRejected) {
  ServiceConfig bad_lanes;
  bad_lanes.lanes = 0;
  EXPECT_THROW(QrService{bad_lanes}, tqr::InvalidArgument);
}

TEST(QrService, DefaultJobRunsTsAtHostTileBitwiseLikeSequential) {
  // A default JobSpec picks core::host_tile(cols) and TS elimination; its R
  // must equal, bit for bit, a sequential TS factorization of the padded
  // input at that tile (300x200 pads to 320x256 at b = 64).
  QrService service;
  JobSpec spec = spec_for(300, 200, 80, false);
  const la::Matrix<double> a = spec.a;
  const auto result = service.submit(std::move(spec)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  const int b = core::host_tile(200);
  EXPECT_EQ(result.tile_size, b);

  core::TiledQrFactorization<double>::Options opts;
  opts.elim = dag::Elimination::kTs;
  opts.workers = 1;
  const auto f = core::TiledQrFactorization<double>::factor(
      la::pad_to_tiles<double>(a.view(), b), b, opts);
  const la::Matrix<double> r = f.r();
  ASSERT_EQ(result.r.rows(), 200);
  for (la::index_t j = 0; j < 200; ++j)
    for (la::index_t i = 0; i <= j; ++i)
      ASSERT_EQ(result.r(i, j), r(i, j)) << "R differs at " << i << "," << j;
}

TEST(QrService, PaddedShapesFactorInBothPrecisions) {
  // Pad tiles are loaded inside the graph and the kScan norms come from the
  // caller's matrix plus the identity pad, so every verify tier must accept
  // padded shapes in both precisions, and R must equal, bit for bit, a
  // sequential TS factorization of the padded input (narrowed first for
  // fp32) at the host tile.
  QrService service;
  for (const auto& [rows, cols] :
       std::vector<std::pair<la::index_t, la::index_t>>{{1000, 37},
                                                        {300, 200}}) {
    const la::Matrix<double> a = la::Matrix<double>::random(rows, cols, 17);
    const int b = core::host_tile(cols);
    const la::Matrix<double> padded = la::pad_to_tiles<double>(a.view(), b);
    la::Matrix<float> padded32(padded.rows(), padded.cols());
    for (la::index_t j = 0; j < padded.cols(); ++j)
      for (la::index_t i = 0; i < padded.rows(); ++i)
        padded32(i, j) = static_cast<float>(padded(i, j));
    const la::Matrix<double> r64 =
        core::TiledQrFactorization<double>::factor(padded, b).r();
    const la::Matrix<float> r32 =
        core::TiledQrFactorization<float>::factor(padded32, b).r();
    for (const Precision precision : {Precision::kFp64, Precision::kFp32}) {
      for (const Verify verify : {Verify::kScan, Verify::kProbe,
                                  Verify::kFull}) {
        JobSpec spec;
        spec.a = a;
        spec.precision = precision;
        spec.verify = verify;
        const auto result = service.submit(std::move(spec)).get();
        const std::string where = std::to_string(rows) + "x" +
                                  std::to_string(cols) + " " +
                                  to_string(precision) + " " +
                                  to_string(verify);
        ASSERT_EQ(result.status, JobStatus::kOk) << where << ": "
                                                 << result.error;
        ASSERT_EQ(result.r.rows(), cols) << where;
        for (la::index_t j = 0; j < cols; ++j)
          for (la::index_t i = 0; i <= j; ++i)
            ASSERT_EQ(result.r(i, j), precision == Precision::kFp64
                                          ? r64(i, j)
                                          : static_cast<double>(r32(i, j)))
                << where << ": R differs at " << i << "," << j;
      }
    }
  }
}

TEST(QrService, TsEliminationJobsWork) {
  QrService service;
  JobSpec spec = spec_for(128, 128, 70, true);
  spec.elim = dag::Elimination::kTs;
  auto result = service.submit(std::move(spec)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_LT(result.residual, la::residual_tolerance<double>(128));
}

TEST(QrService, ExplicitTileSizeOverridesDefault) {
  QrService service;
  JobSpec spec = spec_for(96, 96, 80, true);
  spec.tile_size = 32;
  auto result = service.submit(std::move(spec)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_EQ(result.tile_size, 32);
  EXPECT_LT(result.residual, la::residual_tolerance<double>(96));
}

TEST(QrService, Fp32JobFactorsToFloatTolerance) {
  QrService service;
  JobSpec spec = spec_for(96, 96, 90, true);
  spec.precision = Precision::kFp32;
  spec.verify = Verify::kFull;
  auto result = service.submit(std::move(spec)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_EQ(result.precision, Precision::kFp32);
  EXPECT_TRUE(upper_triangular(result.r));
  // Residual sits at float scale: well under the float tolerance the full
  // verify tier enforced, but way above anything a double factorization
  // produces — proof the kernels genuinely ran in fp32.
  EXPECT_LT(result.residual, la::residual_tolerance<float>(96));
  EXPECT_GT(result.residual, 100.0 * la::residual_tolerance<double>(96));
}

TEST(QrService, Fp32AndFp64JobsAgreeOnR) {
  QrService service;
  JobSpec lo = spec_for(64, 64, 91, false);
  JobSpec hi;
  hi.a = lo.a;
  lo.precision = Precision::kFp32;
  auto rlo = service.submit(std::move(lo)).get();
  auto rhi = service.submit(std::move(hi)).get();
  ASSERT_EQ(rlo.status, JobStatus::kOk) << rlo.error;
  ASSERT_EQ(rhi.status, JobStatus::kOk) << rhi.error;
  // Same factorization up to float rounding (sign-fixed via |R| since
  // reflector signs may differ between precisions).
  double worst = 0, scale = 0;
  for (la::index_t j = 0; j < 64; ++j)
    for (la::index_t i = 0; i <= j; ++i) {
      worst = std::max(worst, std::abs(std::abs(rlo.r(i, j)) -
                                       std::abs(rhi.r(i, j))));
      scale = std::max(scale, std::abs(rhi.r(i, j)));
    }
  EXPECT_LT(worst / scale, la::residual_tolerance<float>(64, 5000.0));
}

TEST(QrService, PrecisionParsesAndPrints) {
  EXPECT_EQ(parse_precision("fp32"), Precision::kFp32);
  EXPECT_EQ(parse_precision("float"), Precision::kFp32);
  EXPECT_EQ(parse_precision("fp64"), Precision::kFp64);
  EXPECT_EQ(parse_precision("double"), Precision::kFp64);
  EXPECT_STREQ(to_string(Precision::kFp32), "fp32");
  EXPECT_STREQ(to_string(Precision::kFp64), "fp64");
  EXPECT_THROW(parse_precision("fp16"), InvalidArgument);
}

TEST(QrService, TraceRecordsConfiguredInnerBlock) {
  // Calibration/execution consistency: the ib the service was configured
  // with must be the ib the plan records and the one the executed factor
  // tasks are annotated with in the trace.
  ServiceConfig config;
  config.lanes = 1;
  config.collect_trace = true;
  config.inner_block = 8;
  QrService service(config);
  auto result = service.submit(spec_for(64, 64, 92, false)).get();
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  service.drain();
  const std::string json = service.trace_json();
  EXPECT_NE(json.find("\"ib\":8"), std::string::npos) << json.substr(0, 400);
}

TEST(QrService, LoneJobUsesEveryWorker) {
  // The lanes share one worker group, so a job running alone on a default
  // (2-lane) service is not confined to cores / lanes workers: its kernel
  // spans land on more distinct worker rows than a per-lane split allows.
  // A loaded machine can starve a worker for one whole job, so up to three
  // lone jobs get the chance; with split workers none of them can pass.
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  if (cores < 2) GTEST_SKIP() << "needs at least 2 cores";
  ServiceConfig config;
  config.collect_trace = true;
  QrService service(config);
  const std::size_t split = static_cast<std::size_t>(
      std::max(1, cores / config.lanes));
  std::size_t best = 0;
  for (int attempt = 0; attempt < 3 && best <= split; ++attempt) {
    auto result =
        service.submit(spec_for(512, 512, 300 + attempt, false)).get();
    ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
    service.drain();
    // Kernel spans: complete events on a lane's worker rows (tid 1 + w).
    std::set<int> tids;
    const obs::Json doc = obs::Json::parse(service.trace_json());
    for (const obs::Json& e : doc.find("traceEvents")->items()) {
      if (e.find("ph")->as_string() != "X") continue;
      const int pid = static_cast<int>(e.find("pid")->as_number());
      const int tid = static_cast<int>(e.find("tid")->as_number());
      if (pid >= 1 && tid >= 1) tids.insert(tid);
    }
    // The log accumulates, so the row count only grows across attempts.
    best = tids.size();
  }
  EXPECT_GT(best, split) << "a lone job ran on at most cores / lanes workers";
}

}  // namespace
}  // namespace tqr::svc
