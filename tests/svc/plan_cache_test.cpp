#include "svc/plan_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "dag/tiled_qr_dag.hpp"

namespace tqr::svc {
namespace {

PlanKey key_for(la::index_t n, int tile, la::index_t inner_block = 0) {
  return PlanKey{n, n, tile, dag::Elimination::kTt, inner_block};
}

class PlanCacheTest : public ::testing::Test {
 protected:
  PlanCacheTest()
      : platform_(sim::paper_platform_with_gpus(2)) {}

  PlanCache::Builder builder_for(la::index_t n, int tile) {
    return [this, n, tile]() -> PlanEntry {
      core::PlanConfig cfg;
      cfg.tile_size = tile;
      core::Plan plan(platform_, n / tile, n / tile, cfg);
      dag::TaskGraph graph =
          dag::build_tiled_qr_graph(n / tile, n / tile, cfg.elim);
      return PlanEntry{std::move(plan), std::move(graph)};
    };
  }

  sim::Platform platform_;
};

TEST_F(PlanCacheTest, MissThenHitSharesOneEntry) {
  PlanCache cache(4);
  bool hit = true;
  auto first = cache.get_or_build(key_for(64, 16),
                                  builder_for(64, 16), &hit);
  EXPECT_FALSE(hit);
  auto second = cache.get_or_build(key_for(64, 16),
                                   builder_for(64, 16), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.size, 1u);
}

TEST_F(PlanCacheTest, DistinctKeysDistinctEntries) {
  PlanCache cache(8);
  auto a = cache.get_or_build(key_for(64, 16), builder_for(64, 16));
  auto b = cache.get_or_build(key_for(128, 16), builder_for(128, 16));
  auto c = cache.get_or_build(key_for(64, 32), builder_for(64, 32));
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.stats().size, 3u);
  EXPECT_EQ(a->graph.size(),
            dag::build_tiled_qr_graph(4, 4, dag::Elimination::kTt).size());
}

TEST_F(PlanCacheTest, LruEvictsColdestKey) {
  PlanCache cache(2);
  cache.get_or_build(key_for(64, 16), builder_for(64, 16));
  cache.get_or_build(key_for(128, 16), builder_for(128, 16));
  // Touch 64 so 128 is coldest, then insert a third key.
  cache.get_or_build(key_for(64, 16), builder_for(64, 16));
  cache.get_or_build(key_for(192, 16), builder_for(192, 16));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);
  // 64 must still be resident (hit), 128 must rebuild (miss).
  bool hit = false;
  cache.get_or_build(key_for(64, 16), builder_for(64, 16), &hit);
  EXPECT_TRUE(hit);
  cache.get_or_build(key_for(128, 16), builder_for(128, 16), &hit);
  EXPECT_FALSE(hit);
}

TEST_F(PlanCacheTest, EvictionKeepsLeasedEntryAlive) {
  PlanCache cache(1);
  auto held = cache.get_or_build(key_for(64, 16), builder_for(64, 16));
  cache.get_or_build(key_for(128, 16), builder_for(128, 16));
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The evicted entry is still usable through our shared_ptr.
  EXPECT_GT(held->graph.size(), 0u);
  EXPECT_EQ(held->plan.mt(), 4);
}

TEST_F(PlanCacheTest, InnerBlockSeparatesConfigs) {
  PlanCache cache(8);
  cache.get_or_build(key_for(64, 16), builder_for(64, 16));
  bool hit = true;
  cache.get_or_build(key_for(64, 16, 8), builder_for(64, 16), &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST_F(PlanCacheTest, ClearEmptiesButKeepsCounters) {
  PlanCache cache(4);
  cache.get_or_build(key_for(64, 16), builder_for(64, 16));
  cache.clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(PlanCacheTest, ZeroCapacityRejected) {
  EXPECT_THROW(PlanCache{0}, tqr::InvalidArgument);
}

TEST_F(PlanCacheTest, ConcurrentSameKeyConvergesToOneEntry) {
  PlanCache cache(4);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const PlanEntry>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      got[t] = cache.get_or_build(key_for(64, 16),
                                  builder_for(64, 16));
    });
  for (auto& t : threads) t.join();
  // Races may build more than once, but every caller must end up sharing
  // the single inserted entry.
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[0].get(), got[t].get());
  EXPECT_EQ(cache.stats().size, 1u);
}

}  // namespace
}  // namespace tqr::svc
