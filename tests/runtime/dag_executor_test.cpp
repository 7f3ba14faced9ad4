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

TEST(DagExecutorEngine, ConcurrentExecuteCallsShareTheWorkers) {
  // Two callers' runs are live on one engine at the same time: each chain's
  // first task waits until the other run has started one too, which can
  // only happen when the engine serves both runs at once. (A bounded wait,
  // so an engine that ran them one after the other fails instead of
  // hanging.)
  DagExecutor::Options opts;
  opts.workers = 2;
  DagExecutor engine(opts);
  std::atomic<int> started{0};
  std::atomic<int> saw_other{0};
  auto body = [&] {
    dag::TaskGraph g = chain(8);
    std::atomic<int> ran{0};
    engine.execute(g, [&](task_id t, const Task&, int) {
      ran.fetch_add(1);
      if (t != 0) return;
      started.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load() < 2 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      if (started.load() == 2) saw_other.fetch_add(1);
    });
    EXPECT_EQ(ran.load(), 8);
  };
  std::thread a(body), b(body);
  a.join();
  b.join();
  EXPECT_EQ(saw_other.load(), 2) << "the two runs never overlapped";
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

TEST(DagExecutorStress, ConcurrentRunsOnOneEngine) {
  // Three callers share one 4-worker engine, 100 runs each. Every task of
  // every clean run executes exactly once and after its predecessors. Mid
  // stream, one run is cancelled and one has a throwing kernel: each of
  // those drains and rethrows alone (kernel calls + drop instants cover its
  // graph) while the runs beside it finish complete.
  constexpr int kCallers = 3, kRuns = 100, kOddRun = kRuns / 2;
  DagExecutor::Options opts;
  opts.workers = 4;
  DagExecutor engine(opts);
  std::atomic<int> clean_runs{0};
  auto caller = [&](int id) {
    std::mt19937 rng(100 + static_cast<unsigned>(id));
    for (int rep = 0; rep < kRuns; ++rep) {
      const bool cancels = id == 0 && rep == kOddRun;
      const bool throws = id == 1 && rep == kOddRun;
      if (cancels || throws) {
        // Independent tasks, all seeded up front, so each is either a
        // kernel call or a drop instant.
        const int n = 32 + rep % 32;
        Builder b(8, 8);
        for (int i = 0; i < n; ++i) {
          Task t;
          t.op = dag::Op::kGeqrt;
          t.k = static_cast<std::int16_t>(i);
          b.add_task(t, {{b.upper(i / 8, i % 8), Mode::kWrite}});
        }
        const dag::TaskGraph g = std::move(b).build();
        const int odd_at = std::uniform_int_distribution<int>(1, n - 1)(rng);
        CancelToken token;
        Trace trace;
        std::atomic<int> calls{0};
        bool threw = false;
        try {
          engine.execute(
              g,
              [&](task_id, const Task&, int) {
                const int call = calls.fetch_add(1) + 1;
                if (call != odd_at) return;
                if (throws) throw tqr::Error("boom");
                token.request_cancel();
              },
              &trace, &token);
        } catch (const Cancelled&) {
          threw = cancels;
        } catch (const tqr::Error&) {
          threw = throws;
        }
        EXPECT_TRUE(threw) << "caller " << id;
        std::size_t drops = 0;
        for (const auto& e : trace.events())
          if (e.kind != TraceEvent::Kind::kTask) ++drops;
        EXPECT_EQ(static_cast<std::size_t>(calls.load()) + drops, g.size())
            << "caller " << id;
        continue;
      }
      const dag::TaskGraph g = random_graph(rng, 8 + rep % 57);
      std::vector<std::atomic<int>> ran(g.size());
      std::vector<std::atomic<int>> early(g.size());
      engine.execute(g, [&](task_id t, const Task&, int w) {
        EXPECT_GE(w, 0);
        EXPECT_LT(w, 4);
        for (auto it = g.predecessors_begin(t); it != g.predecessors_end(t);
             ++it)
          if (ran[*it].load() != 1) early[t].store(1);
        ran[t].fetch_add(1);
      });
      for (std::size_t t = 0; t < g.size(); ++t) {
        EXPECT_EQ(ran[t].load(), 1)
            << "caller " << id << " rep " << rep << " task " << t;
        EXPECT_EQ(early[t].load(), 0) << "task " << t << " ran before a dep";
      }
      clean_runs.fetch_add(1);
    }
  };
  std::vector<std::thread> callers;
  for (int id = 0; id < kCallers; ++id) callers.emplace_back(caller, id);
  for (auto& th : callers) th.join();
  EXPECT_EQ(clean_runs.load(), kCallers * kRuns - 2);
  EXPECT_EQ(engine.runs_completed(),
            static_cast<std::uint64_t>(kCallers * kRuns - 2));
}

}  // namespace
}  // namespace tqr::runtime
