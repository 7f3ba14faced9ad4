// Contract and race tests for the Chase-Lev work-stealing deque. The
// single-thread cases pin LIFO-pop / FIFO-steal ordering and the bounded-
// capacity spill contract; the storm cases race thieves against the owner's
// pop (including the one-element Dekker race) and are the reason this file
// runs under the TSan CI leg.
#include "runtime/work_steal_deque.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "runtime/mpmc_ring.hpp"  // cpu_relax

namespace tqr::runtime {
namespace {

TEST(WorkStealDeque, OwnerPopsLifo) {
  WorkStealDeque d(8);
  for (std::int32_t i = 0; i < 4; ++i) EXPECT_TRUE(d.push(i));
  std::int32_t t;
  for (std::int32_t i = 3; i >= 0; --i) {
    ASSERT_TRUE(d.pop(t));
    EXPECT_EQ(t, i);
  }
  EXPECT_FALSE(d.pop(t));
}

TEST(WorkStealDeque, ThiefStealsFifo) {
  WorkStealDeque d(8);
  for (std::int32_t i = 0; i < 4; ++i) EXPECT_TRUE(d.push(i));
  std::int32_t t;
  for (std::int32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(d.steal(t));
    EXPECT_EQ(t, i);  // oldest first: the cache-cold end
  }
  EXPECT_FALSE(d.steal(t));
}

TEST(WorkStealDeque, PushReportsFullInsteadOfOverwriting) {
  WorkStealDeque d(2);  // rounds to capacity 2
  EXPECT_TRUE(d.push(1));
  EXPECT_TRUE(d.push(2));
  EXPECT_FALSE(d.push(3));  // caller spills to the shared ring
  std::int32_t t;
  ASSERT_TRUE(d.pop(t));
  EXPECT_EQ(t, 2);
  EXPECT_TRUE(d.push(3));  // room again after the pop
}

TEST(WorkStealDeque, ZeroCapacityThrows) {
  EXPECT_THROW(WorkStealDeque(0), InvalidArgument);
}

TEST(WorkStealDeque, ResetRewindsForNextRun) {
  WorkStealDeque d(4);
  std::int32_t t;
  EXPECT_TRUE(d.push(7));
  ASSERT_TRUE(d.pop(t));
  d.reset();
  EXPECT_FALSE(d.maybe_nonempty());
  EXPECT_TRUE(d.push(9));
  ASSERT_TRUE(d.steal(t));
  EXPECT_EQ(t, 9);
}

// The Dekker race: owner pop and a thief contend for the single remaining
// element. Exactly one side may win each round; the element must never be
// lost or delivered twice.
TEST(WorkStealDeque, OwnerAndThiefRaceForLastElement) {
  constexpr int kRounds = 5000;
  WorkStealDeque d(2);
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(d.push(round));
    std::atomic<int> owner_got{-1}, thief_got{-1};
    std::thread thief([&] {
      std::int32_t t;
      if (d.steal(t)) thief_got.store(t);
    });
    std::int32_t t;
    if (d.pop(t)) owner_got.store(t);
    thief.join();
    const bool owner_won = owner_got.load() == round;
    const bool thief_won = thief_got.load() == round;
    ASSERT_NE(owner_won, thief_won) << "round " << round
                                    << ": exactly one winner required";
    d.reset();  // owner-only, thieves quiesced (joined)
  }
}

// Owner interleaves pushes and pops while several thieves strip the top:
// every pushed value must surface exactly once across all parties.
TEST(WorkStealDeque, StormDeliversEveryTaskOnce) {
  constexpr int kTasks = 20000;
  constexpr int kThieves = 3;
  WorkStealDeque d(kTasks);
  std::vector<std::atomic<int>> seen(kTasks);
  std::atomic<bool> done{false};
  std::vector<std::thread> thieves;
  for (int i = 0; i < kThieves; ++i) {
    thieves.emplace_back([&] {
      std::int32_t t;
      while (!done.load(std::memory_order_acquire)) {
        if (d.steal(t)) seen[t].fetch_add(1, std::memory_order_relaxed);
        else cpu_relax();
      }
      while (d.steal(t)) seen[t].fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::int32_t next = 0;
  std::int32_t t;
  while (next < kTasks) {
    // Push a small burst, then pop some back — the executor's own rhythm.
    for (int burst = 0; burst < 8 && next < kTasks; ++burst)
      ASSERT_TRUE(d.push(next++));
    for (int burst = 0; burst < 4; ++burst)
      if (d.pop(t)) seen[t].fetch_add(1, std::memory_order_relaxed);
  }
  while (d.pop(t)) seen[t].fetch_add(1, std::memory_order_relaxed);
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();
  for (int i = 0; i < kTasks; ++i)
    ASSERT_EQ(seen[i].load(), 1) << "task " << i;
}

}  // namespace
}  // namespace tqr::runtime
