#include "svc/plan_cache.hpp"

#include "common/error.hpp"

namespace tqr::svc {

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  TQR_REQUIRE(capacity > 0, "plan cache needs capacity >= 1");
}

std::shared_ptr<const PlanEntry> PlanCache::get_or_build(const PlanKey& key,
                                                         const Builder& build,
                                                         bool* hit) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      if (hit) *hit = true;
      return it->second.entry;
    }
    ++misses_;
  }
  if (hit) *hit = false;

  // Build outside the lock: planning one shape must not block lanes that
  // are hitting (or building) other shapes.
  auto entry = std::make_shared<const PlanEntry>(build());

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // A concurrent miss won the insert race; adopt its entry.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.entry;
  }
  lru_.push_front(key);
  map_.emplace(key, Slot{entry, lru_.begin()});
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  return entry;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.size = map_.size();
  s.capacity = capacity_;
  return s;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  lru_.clear();
}

}  // namespace tqr::svc
