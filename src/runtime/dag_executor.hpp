// Dependence-driven host execution of a TaskGraph.
//
// The calling thread plays the paper's Fig. 7 manager: dependence
// bookkeeping is implicit in per-task atomic counters, and one group of
// worker threads executes whatever becomes ready. Every worker owns a
// Chase-Lev deque and may steal from any other worker, so a graph with
// enough parallelism keeps all of them busy — PLASMA's dynamic multicore
// scheduling (0707.3548). Device routing (the paper's Alg. 2-4) is a
// simulator concern and never decides which host thread runs a task.
//
// The kernel callback receives (task_id, task, worker): the index of the
// worker thread executing the task, in [0, workers).
//
// A DagExecutor instance is a *resident engine*: its workers are spawned
// once at construction and reused by every execute() call, so a service
// that factors many matrices pays the thread start/stop cost once instead
// of per run (the amortization tqr::svc is built on). Several execute()
// calls may be in flight at once; they share the one group of workers,
// which take ready tasks from the active runs oldest-first, so a run that
// is alone gets every worker. The static run() keeps the one-shot
// convenience: it spins up a transient engine for a single graph.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dag/graph.hpp"
#include "runtime/cancel.hpp"
#include "runtime/trace.hpp"

namespace tqr::runtime {

/// Scheduler-contention telemetry, aggregated across every run of every
/// engine pointed at one instance (concurrent runs on one engine all count
/// into it). All relaxed atomics — increments ride the dispatch hot path.
struct ExecCounters {
  /// Tasks a worker took from a sibling's deque instead of its own.
  std::atomic<std::uint64_t> steals{0};
  /// Times a worker exhausted its spin budget and parked on the futex.
  std::atomic<std::uint64_t> parks{0};
  /// Ready tasks pushed through the shared ring: the caller's seed tasks
  /// plus any release that found the worker's own deque full.
  std::atomic<std::uint64_t> ring_pushes{0};
  /// Ready tasks the releasing worker kept on its own deque (the free path).
  std::atomic<std::uint64_t> local_pushes{0};
  /// Popped-then-dropped plus never-dispatched tasks accounted during an
  /// aborted or failed run's drain (see the `cancelled`/`drained` trace
  /// instants).
  std::atomic<std::uint64_t> drained_tasks{0};
};

class DagExecutor {
 public:
  /// Executes the kernel for a task; the int is the worker index.
  using Kernel = std::function<void(dag::task_id, const dag::Task&, int)>;

  struct Options {
    /// Worker threads (>= 1).
    int workers = 1;
    /// Optional trace sink for run() (may be nullptr). execute() takes its
    /// trace per call instead, since one engine serves many runs.
    Trace* trace = nullptr;
    /// Optional shared telemetry sink (steal/park/drain counters). Must
    /// outlive the engine. May be shared between engines.
    ExecCounters* counters = nullptr;
  };

  /// Spawns the persistent workers. Throws InvalidArgument on bad options.
  explicit DagExecutor(const Options& options);
  /// Joins the workers. Must not race an in-flight execute().
  ~DagExecutor();

  DagExecutor(const DagExecutor&) = delete;
  DagExecutor& operator=(const DagExecutor&) = delete;

  /// Executes one graph to completion on the resident workers and returns
  /// wall-clock seconds. Rethrows the first kernel exception (after the
  /// workers have quiesced); the engine stays usable for the next execute()
  /// afterwards. Thread-safe: concurrent calls run at the same time on the
  /// shared workers, which serve the older run first. A failure or cancel
  /// drains and rethrows in its own run only; the other runs go on.
  ///
  /// `cancel` (optional) makes the run abortable: the token is checked at
  /// every task-dispatch boundary, and a latched token aborts the run — the
  /// per-run ready queues are dropped, workers quiesce, and execute() throws
  /// tqr::Cancelled (distinct from a kernel exception). A request that races
  /// the final task may still complete normally; a token latched before the
  /// call throws Cancelled without dispatching anything. The token must
  /// outlive the call and can be reused after reset(). The engine stays
  /// usable for the next execute() after a cancelled run.
  ///
  /// `post_task` (optional) runs in the worker thread immediately after each
  /// kernel, before the task's successors are released — the kernel-boundary
  /// hook result verification hangs off (a task's output tiles are still
  /// exclusively owned there, so scanning them races nothing). An exception
  /// from the hook is handled exactly like a kernel exception: the run
  /// drains, quiesces, and rethrows it, and the failed task's successors
  /// never run, so a detected-bad tile is never consumed downstream. Hook
  /// time is attributed to the task in traces.
  double execute(const dag::TaskGraph& graph, const Kernel& kernel,
                 Trace* trace = nullptr, CancelToken* cancel = nullptr,
                 const Kernel* post_task = nullptr);

  int workers() const;
  /// Number of execute() calls that ran to completion (diagnostics).
  std::uint64_t runs_completed() const;

  /// One-shot convenience: builds a transient engine, runs the whole graph,
  /// returns wall-clock seconds. Throws whatever the kernel throws (first
  /// exception wins; execution stops draining).
  static double run(const dag::TaskGraph& graph, const Kernel& kernel,
                    const Options& options);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tqr::runtime
