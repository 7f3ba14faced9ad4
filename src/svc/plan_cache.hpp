// Memoization of the planning pipeline: (shape, tile, elimination, inner
// block) -> { core::Plan, dag::TaskGraph }.
//
// Planning a factorization re-runs Algorithms 2-4 and rebuilds the task DAG
// with full dependence analysis — fixed cost that is identical for every job
// of the same shape on the same platform. The cache hands repeat shapes a
// shared immutable entry so steady-state jobs skip planning entirely
// (PLASMA-lineage runtimes amortize the same way across calls). Entries are
// shared_ptr<const ...>: eviction never invalidates a plan a lane is
// executing.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/plan.hpp"
#include "dag/graph.hpp"

namespace tqr::svc {

/// Identity of a plannable request. The platform is not part of the key:
/// each QrService owns its cache and plans for its one platform.
struct PlanKey {
  la::index_t rows = 0;  // padded (tile-aligned) dimensions
  la::index_t cols = 0;
  int tile_size = 0;
  dag::Elimination elim = dag::Elimination::kTt;
  /// Factor-kernel inner block size the plan's execution assumes. Part of
  /// the key so services configured with different kernel shapes never
  /// share a cached plan (the plan's config records ib; execution reads it
  /// back from there).
  la::index_t inner_block = 0;

  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ull;
    };
    mix(static_cast<std::uint64_t>(k.rows));
    mix(static_cast<std::uint64_t>(k.cols));
    mix(static_cast<std::uint64_t>(k.tile_size));
    mix(static_cast<std::uint64_t>(k.elim));
    mix(static_cast<std::uint64_t>(k.inner_block));
    return static_cast<std::size_t>(h);
  }
};

/// Everything planning produces for one shape.
struct PlanEntry {
  core::Plan plan;
  dag::TaskGraph graph;
};

/// Thread-safe LRU cache with hit/miss/eviction counters.
///
/// Concurrent misses on the same key may build the entry more than once
/// (builders run outside the lock so distinct shapes never serialize on each
/// other's planning); the first insert wins and the losers adopt it, so
/// callers always share one entry per key afterwards.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity);

  using Builder = std::function<PlanEntry()>;

  /// Returns the cached entry for `key`, building (and inserting) it on a
  /// miss. `hit`, when non-null, reports whether this call was served from
  /// cache.
  std::shared_ptr<const PlanEntry> get_or_build(const PlanKey& key,
                                                const Builder& build,
                                                bool* hit = nullptr);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
    double hit_rate() const {
      const double total = static_cast<double>(hits + misses);
      return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }
  };
  Stats stats() const;

  void clear();

 private:
  struct Slot {
    std::shared_ptr<const PlanEntry> entry;
    std::list<PlanKey>::iterator lru_pos;
  };

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<PlanKey, Slot, PlanKeyHash> map_;
  std::list<PlanKey> lru_;  // front = most recently used
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

}  // namespace tqr::svc
