// Concurrency stress for QrService: many submitter threads, mixed shapes,
// every factorization checked for numerical correctness, and the plan cache
// required to absorb the shape repetition. This is the test the TSan gate in
// scripts/check.sh leans on hardest.
#include <gtest/gtest.h>

#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "la/checks.hpp"
#include "la/matrix.hpp"
#include "svc/qr_service.hpp"

namespace tqr::svc {
namespace {

struct Shape {
  la::index_t rows, cols;
};

// Four shapes cycling across jobs: square, tall-skinny, larger square, and a
// non-tile-aligned one (padding path). Repetition is what the plan cache
// must exploit.
constexpr Shape kShapes[] = {{96, 96}, {128, 64}, {160, 160}, {100, 52}};
constexpr int kSubmitters = 4;
constexpr int kJobsPerSubmitter = 16;  // 64 jobs total

TEST(ServiceStress, MixedShapeJobsFromManyThreads) {
  ServiceConfig config;
  config.lanes = 3;
  config.queue_capacity = 16;  // small enough that submitters block
  QrService service(config);

  std::mutex mutex;
  std::vector<std::future<JobResult>> futures;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s)
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kJobsPerSubmitter; ++i) {
        const Shape shape = kShapes[(s + i) % std::size(kShapes)];
        JobSpec spec;
        spec.a = la::Matrix<double>::random(shape.rows, shape.cols,
                                            1000 + s * 100 + i);
        spec.compute_residual = true;
        spec.tag = static_cast<std::uint64_t>(s * 100 + i);
        auto future = service.submit(std::move(spec));
        std::lock_guard<std::mutex> lock(mutex);
        futures.push_back(std::move(future));
      }
    });
  for (auto& t : submitters) t.join();
  ASSERT_EQ(futures.size(),
            static_cast<std::size_t>(kSubmitters * kJobsPerSubmitter));

  int cache_hits = 0;
  for (auto& f : futures) {
    const JobResult r = f.get();
    ASSERT_EQ(r.status, JobStatus::kOk)
        << "job tag " << r.tag << ": " << r.error;
    EXPECT_GE(r.residual, 0.0);
    EXPECT_LT(r.residual, la::residual_tolerance<double>(r.rows))
        << "job tag " << r.tag << " shape " << r.rows << "x" << r.cols;
    cache_hits += r.plan_cache_hit ? 1 : 0;
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs_completed,
            static_cast<std::uint64_t>(kSubmitters * kJobsPerSubmitter));
  EXPECT_EQ(stats.jobs_failed, 0u);
  // Only the first job of each distinct shape can miss; concurrent first
  // encounters may race a few extra builds, but with 4 shapes and 64 jobs
  // the cache must serve the overwhelming majority from memory.
  EXPECT_GE(stats.plan_cache.hits, 48u);
  EXPECT_GE(cache_hits, 48);
  EXPECT_GT(stats.plan_cache.hit_rate(), 0.75);
  // Backpressure engaged: the small queue forced at least one submitter to
  // wait, and the high-water mark respected capacity.
  EXPECT_LE(stats.queue.high_water, config.queue_capacity);
}

TEST(ServiceStress, SubmittersRaceDrainAndStats) {
  QrService service;
  std::vector<std::thread> threads;
  std::vector<std::future<JobResult>> futures(16);
  for (int s = 0; s < 4; ++s)
    threads.emplace_back([&, s] {
      for (int i = 0; i < 4; ++i) {
        JobSpec spec;
        spec.a = la::Matrix<double>::random(96, 96, 2000 + s * 10 + i);
        futures[s * 4 + i] = service.submit(std::move(spec));
      }
      // Hammer stats() concurrently with execution.
      for (int i = 0; i < 50; ++i) (void)service.stats();
    });
  for (auto& t : threads) t.join();
  service.drain();
  for (auto& f : futures) EXPECT_EQ(f.get().status, JobStatus::kOk);
  EXPECT_EQ(service.stats().jobs_completed, 16u);
}

}  // namespace
}  // namespace tqr::svc
