#include "runtime/dag_executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "dag/tiled_qr_dag.hpp"

namespace tqr::runtime {
namespace {

using dag::Elimination;
using dag::Task;
using dag::task_id;
using Builder = dag::TaskGraph::Builder;
using Mode = Builder::Mode;

dag::TaskGraph chain(int n) {
  Builder b(2, 2);
  for (int i = 0; i < n; ++i) {
    Task t;
    t.op = dag::Op::kGeqrt;
    t.k = static_cast<std::int16_t>(i);
    b.add_task(t, {{b.upper(0, 0), Mode::kReadWrite}});
  }
  return std::move(b).build();
}

TEST(DagExecutor, ExecutesEveryTaskOnce) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(4, 4, Elimination::kTs);
  std::vector<std::atomic<int>> ran(g.size());
  DagExecutor::Options opts;
  opts.workers = 4;
  DagExecutor::run(
      g, [&](task_id t, const Task&, int) { ran[t].fetch_add(1); }, opts);
  for (std::size_t t = 0; t < g.size(); ++t) EXPECT_EQ(ran[t].load(), 1);
}

TEST(DagExecutor, RespectsDependenceOrder) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(3, 3, Elimination::kTt);
  std::mutex m;
  std::vector<int> order(g.size(), -1);
  int clock = 0;
  DagExecutor::Options opts;
  opts.workers = 3;
  DagExecutor::run(
      g, [&](task_id t, const Task&, int) {
        std::lock_guard<std::mutex> lock(m);
        order[t] = clock++;
      },
      opts);
  for (task_id t = 0; t < static_cast<task_id>(g.size()); ++t)
    for (auto it = g.predecessors_begin(t); it != g.predecessors_end(t); ++it)
      EXPECT_LT(order[*it], order[t]) << "task " << t << " ran before dep";
}

TEST(DagExecutor, ChainRunsSequentially) {
  dag::TaskGraph g = chain(20);
  std::vector<int> seen;
  DagExecutor::Options opts;
  opts.workers = 1;
  DagExecutor::run(
      g, [&](task_id t, const Task&, int) { seen.push_back(t); }, opts);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(seen[i], i);
}

TEST(DagExecutor, KernelAndTraceSeeTheWorkerIndex) {
  // The kernel's int argument and TraceEvent::device both carry the index
  // of the worker that ran the task, in [0, workers).
  dag::TaskGraph g = dag::build_tiled_qr_graph(4, 4, Elimination::kTs);
  std::vector<std::atomic<int>> worker_of(g.size());
  Trace trace;
  DagExecutor::Options opts;
  opts.workers = 3;
  opts.trace = &trace;
  DagExecutor::run(
      g, [&](task_id t, const Task&, int w) { worker_of[t].store(w); }, opts);
  for (std::size_t t = 0; t < g.size(); ++t) {
    EXPECT_GE(worker_of[t].load(), 0);
    EXPECT_LT(worker_of[t].load(), 3);
  }
  ASSERT_EQ(trace.events().size(), g.size());
  for (const auto& e : trace.events())
    EXPECT_EQ(e.device, worker_of[static_cast<std::size_t>(e.task)].load());
}

TEST(DagExecutor, TraceRecordsEveryTask) {
  dag::TaskGraph g = dag::build_tiled_qr_graph(3, 3, Elimination::kTs);
  Trace trace;
  DagExecutor::Options opts;
  opts.workers = 2;
  opts.trace = &trace;
  DagExecutor::run(
      g, [](task_id, const Task&, int) {}, opts);
  EXPECT_EQ(trace.events().size(), g.size());
  std::set<std::int32_t> ids;
  for (const auto& e : trace.events()) {
    ids.insert(e.task);
    EXPECT_GE(e.end_s, e.start_s);
  }
  EXPECT_EQ(ids.size(), g.size());
}

TEST(DagExecutor, PropagatesKernelExceptions) {
  dag::TaskGraph g = chain(5);
  DagExecutor::Options opts;
  opts.workers = 1;
  EXPECT_THROW(
      DagExecutor::run(
          g, [](task_id t, const Task&, int) {
            if (t == 2) throw tqr::Error("boom");
          },
          opts),
      tqr::Error);
}

TEST(DagExecutor, EmptyGraphReturnsImmediately) {
  Builder b(1, 1);
  dag::TaskGraph g = std::move(b).build();
  DagExecutor::Options opts;
  opts.workers = 1;
  const double secs = DagExecutor::run(
      g, [](task_id, const Task&, int) {}, opts);
  EXPECT_GE(secs, 0.0);
}

TEST(DagExecutor, InvalidOptionsRejected) {
  dag::TaskGraph g = chain(2);
  DagExecutor::Options opts;
  opts.workers = 0;
  EXPECT_THROW(DagExecutor::run(
                   g, [](task_id, const Task&, int) {}, opts),
               tqr::InvalidArgument);
}

TEST(DagExecutorEngine, SuccessiveGraphsOnOneEngine) {
  DagExecutor::Options opts;
  opts.workers = 4;
  DagExecutor engine(opts);
  EXPECT_EQ(engine.workers(), 4);
  for (int round = 0; round < 4; ++round) {
    dag::TaskGraph g = dag::build_tiled_qr_graph(3 + round % 2, 3,
                                                 Elimination::kTt);
    std::vector<std::atomic<int>> ran(g.size());
    engine.execute(
        g, [&](task_id t, const Task&, int) { ran[t].fetch_add(1); });
    for (std::size_t t = 0; t < g.size(); ++t)
      EXPECT_EQ(ran[t].load(), 1) << "round " << round;
  }
  EXPECT_EQ(engine.runs_completed(), 4u);
}

TEST(DagExecutorEngine, ReusesTheSameThreads) {
  DagExecutor::Options opts;
  opts.workers = 1;
  DagExecutor engine(opts);
  std::set<std::thread::id> ids;
  std::mutex m;
  for (int round = 0; round < 3; ++round) {
    dag::TaskGraph g = chain(4);
    engine.execute(
        g, [&](task_id, const Task&, int) {
          std::lock_guard<std::mutex> lock(m);
          ids.insert(std::this_thread::get_id());
        });
  }
  // A resident engine must not respawn its workers between runs.
  EXPECT_EQ(ids.size(), 1u);
}

TEST(DagExecutorEngine, SurvivesKernelExceptionAndRunsAgain) {
  DagExecutor::Options opts;
  opts.workers = 1;
  DagExecutor engine(opts);
  dag::TaskGraph g = chain(5);
  EXPECT_THROW(engine.execute(
                   g, [](task_id t, const Task&, int) {
                     if (t == 2) throw tqr::Error("boom");
                   }),
               tqr::Error);
  // The engine stays usable after a failed run.
  std::atomic<int> ran{0};
  engine.execute(
      g, [&](task_id, const Task&, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(engine.runs_completed(), 1u);  // failed run does not count
}

TEST(DagExecutorEngine, ConcurrentExecuteCallsSerialize) {
  DagExecutor::Options opts;
  opts.workers = 2;
  DagExecutor engine(opts);
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  auto body = [&] {
    dag::TaskGraph g = chain(8);
    engine.execute(
        g, [&](task_id, const Task&, int) {
          if (inside.fetch_add(1) > 0) overlapped.store(true);
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          inside.fetch_sub(1);
        });
  };
  std::thread a(body), b(body);
  a.join();
  b.join();
  // chain() serializes its own tasks, so any overlap means two runs were
  // live on the engine at once.
  EXPECT_FALSE(overlapped.load());
  EXPECT_EQ(engine.runs_completed(), 2u);
}

TEST(DagExecutorEngine, EmptyGraphNoOp) {
  DagExecutor::Options opts;
  opts.workers = 1;
  DagExecutor engine(opts);
  Builder b(1, 1);
  dag::TaskGraph g = std::move(b).build();
  const double secs = engine.execute(
      g, [](task_id, const Task&, int) {});
  EXPECT_GE(secs, 0.0);
  EXPECT_EQ(engine.runs_completed(), 0u);
}

TEST(DagExecutorEngine, TracePerRunIsIndependent) {
  DagExecutor::Options opts;
  opts.workers = 1;
  DagExecutor engine(opts);
  Trace first, second;
  dag::TaskGraph g = chain(6);
  auto noop = [](task_id, const Task&, int) {};
  engine.execute(g, noop, &first);
  engine.execute(g, noop, &second);
  EXPECT_EQ(first.events().size(), 6u);
  EXPECT_EQ(second.events().size(), 6u);
}

TEST(DagExecutorEngine, PostTaskHookRunsOncePerTaskAfterKernel) {
  DagExecutor::Options opts;
  opts.workers = 4;
  DagExecutor engine(opts);
  dag::TaskGraph g = dag::build_tiled_qr_graph(4, 4, Elimination::kTt);
  std::vector<std::atomic<int>> kernel_ran(g.size());
  std::vector<std::atomic<int>> hook_ran(g.size());
  DagExecutor::Kernel hook = [&](task_id t, const Task&, int) {
    // Runs after the task's kernel (same worker thread, before successors
    // are released), so the kernel's effect is already visible.
    EXPECT_EQ(kernel_ran[t].load(), 1) << "hook before kernel for " << t;
    hook_ran[t].fetch_add(1);
  };
  engine.execute(
      g, [&](task_id t, const Task&, int) { kernel_ran[t].fetch_add(1); },
      nullptr, nullptr, &hook);
  for (std::size_t t = 0; t < g.size(); ++t)
    EXPECT_EQ(hook_ran[t].load(), 1) << "task " << t;
}

TEST(DagExecutorEngine, ThrowingPostTaskHookFailsRunAndBlocksSuccessors) {
  // A verification hook that rejects a task's output must behave exactly
  // like a kernel exception: the run rethrows it, the poisoned task's
  // successors never execute, and the engine stays usable.
  DagExecutor::Options opts;
  opts.workers = 1;
  DagExecutor engine(opts);
  dag::TaskGraph g = chain(6);  // strict chain: successors of 2 are 3,4,5
  std::atomic<int> ran{0};
  DagExecutor::Kernel hook = [](task_id t, const Task&, int) {
    if (t == 2) throw tqr::VerificationError("bad tile");
  };
  EXPECT_THROW(engine.execute(
                   g, [&](task_id, const Task&, int) { ran.fetch_add(1); },
                   nullptr, nullptr, &hook),
               tqr::VerificationError);
  EXPECT_EQ(ran.load(), 3);  // tasks 0,1,2 ran; 3,4,5 never released
  ran.store(0);
  engine.execute(
      g, [&](task_id, const Task&, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 6);  // engine healthy without the hook
}

TEST(DagExecutor, MultiWorkerGroupStealsAndExecutesEveryTaskOnce) {
  // Several workers share the ready tasks through the work-stealing deques.
  // Whatever mix of owner pops, shared-ring pops, and steals happens, every
  // task runs exactly once — and since every task is enqueued exactly once,
  // the push counters must account for all of them (local deque pushes +
  // shared-ring pushes == task count).
  dag::TaskGraph g = dag::build_tiled_qr_graph(5, 5, Elimination::kTs);
  std::vector<std::atomic<int>> ran(g.size());
  ExecCounters counters;
  DagExecutor::Options opts;
  opts.workers = 3;
  opts.counters = &counters;
  DagExecutor engine(opts);
  engine.execute(
      g, [&](task_id t, const Task&, int) { ran[t].fetch_add(1); });
  for (std::size_t t = 0; t < g.size(); ++t) EXPECT_EQ(ran[t].load(), 1);
  EXPECT_EQ(counters.local_pushes.load() + counters.ring_pushes.load(),
            g.size());
  EXPECT_EQ(counters.drained_tasks.load(), 0u);
}

TEST(DagExecutorEngine, RepeatedRunsExerciseParkUnparkWithoutLostWakeups) {
  // Lost-wakeup regression against the futex park path: every run ends with
  // idle workers parking on the run's eventcount and the next run must
  // rouse them. Dozens of tiny back-to-back runs on a multi-worker engine
  // turn a missed notify into a hang (caught by the test timeout) instead
  // of a flake.
  ExecCounters counters;
  DagExecutor::Options opts;
  opts.workers = 4;
  opts.counters = &counters;
  DagExecutor engine(opts);
  dag::TaskGraph g = chain(10);
  for (int run = 0; run < 50; ++run) {
    std::atomic<int> ran{0};
    engine.execute(
        g, [&](task_id, const Task&, int) { ran.fetch_add(1); });
    ASSERT_EQ(ran.load(), 10);
  }
  EXPECT_EQ(engine.runs_completed(), 50u);
}

TEST(Trace, CsvContainsHeaderAndRows) {
  Trace trace;
  trace.record({0, dag::Op::kGeqrt, 0, 0.0, 1.0});
  const std::string csv = trace.to_csv();
  EXPECT_NE(csv.find("task,op,step,device"), std::string::npos);
  EXPECT_NE(csv.find("GEQRT"), std::string::npos);
}


/// A random DAG: `n` tasks over a 4x4 tile grid, each touching one to three
/// random tiles with random modes, so fan-in, fan-out and independent tasks
/// all occur.
dag::TaskGraph random_graph(std::mt19937& rng, int n) {
  Builder b(4, 4);
  std::uniform_int_distribution<int> tile(0, 15), arity(1, 3), mode(0, 2);
  for (int i = 0; i < n; ++i) {
    Task t;
    t.op = dag::Op::kGeqrt;
    t.k = static_cast<std::int16_t>(i);
    std::vector<Builder::Access> acc;
    for (int a = arity(rng); a > 0; --a) {
      const int x = tile(rng);
      acc.push_back({b.upper(x / 4, x % 4), static_cast<Mode>(mode(rng))});
    }
    b.add_task(t, acc);
  }
  return std::move(b).build();
}

TEST(DagExecutorStress, RandomGraphsDispatchEveryTaskExactlyOnce) {
  // Exactly-once dispatch: on any worker count, every task of every random
  // graph runs once, after all its predecessors, and the two push paths
  // (own deque, shared ring) together account for every task.
  std::mt19937 rng(7);
  for (int workers = 1; workers <= 4; ++workers) {
    ExecCounters counters;
    DagExecutor::Options opts;
    opts.workers = workers;
    opts.counters = &counters;
    DagExecutor engine(opts);
    std::size_t total = 0;
    for (int rep = 0; rep < 200; ++rep) {
      const dag::TaskGraph g = random_graph(rng, 8 + rep % 57);
      std::vector<std::atomic<int>> ran(g.size());
      std::vector<std::atomic<int>> early(g.size());
      engine.execute(g, [&](task_id t, const Task&, int) {
        for (auto it = g.predecessors_begin(t); it != g.predecessors_end(t);
             ++it)
          if (ran[*it].load() != 1) early[t].store(1);
        ran[t].fetch_add(1);
      });
      for (std::size_t t = 0; t < g.size(); ++t) {
        ASSERT_EQ(ran[t].load(), 1)
            << "workers " << workers << " rep " << rep << " task " << t;
        ASSERT_EQ(early[t].load(), 0) << "task " << t << " ran before a dep";
      }
      total += g.size();
    }
    EXPECT_EQ(engine.runs_completed(), 200u);
    EXPECT_EQ(counters.local_pushes.load() + counters.ring_pushes.load(),
              total);
    EXPECT_EQ(counters.drained_tasks.load(), 0u);
  }
}

TEST(DagExecutorStress, CancelMidwayAccountsEveryTask) {
  // A cancel that lands mid-run: no task runs twice, and the executed
  // tasks plus the drained ones cover the whole graph (every task is ready
  // up front, so each is either a kernel span or a drop instant).
  std::mt19937 rng(11);
  for (int workers = 1; workers <= 4; ++workers) {
    DagExecutor::Options opts;
    opts.workers = workers;
    DagExecutor engine(opts);
    for (int rep = 0; rep < 200; ++rep) {
      const int n = 16 + rep % 48;
      Builder b(8, 8);
      for (int i = 0; i < n; ++i) {
        Task t;
        t.op = dag::Op::kGeqrt;
        t.k = static_cast<std::int16_t>(i);
        b.add_task(t, {{b.upper(i / 8, i % 8), Mode::kWrite}});
      }
      const dag::TaskGraph g = std::move(b).build();
      const int cancel_at = std::uniform_int_distribution<int>(1, n - 1)(rng);
      CancelToken token;
      Trace trace;
      std::vector<std::atomic<int>> ran(g.size());
      std::atomic<int> executed{0};
      try {
        engine.execute(
            g,
            [&](task_id t, const Task&, int) {
              ran[t].fetch_add(1);
              if (executed.fetch_add(1) + 1 == cancel_at)
                token.request_cancel();
            },
            &trace, &token);
      } catch (const Cancelled&) {
      }
      std::size_t spans = 0, drops = 0;
      for (const auto& e : trace.events())
        (e.kind == TraceEvent::Kind::kTask ? spans : drops) += 1;
      for (std::size_t t = 0; t < g.size(); ++t) ASSERT_LE(ran[t].load(), 1);
      ASSERT_EQ(spans, static_cast<std::size_t>(executed.load()));
      ASSERT_EQ(spans + drops, g.size())
          << "workers " << workers << " rep " << rep;
    }
  }
}

}  // namespace
}  // namespace tqr::runtime
