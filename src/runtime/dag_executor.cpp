#include "runtime/dag_executor.hpp"

#include <algorithm>
#include <exception>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "runtime/mpmc_ring.hpp"
#include "runtime/work_steal_deque.hpp"

namespace tqr::runtime {

namespace {

/// What every run of one engine shares: the workers' single park point and
/// the completion handshake execute() waits on.
struct Hub {
  /// Park point for every worker. Any push into any run, a new run and
  /// engine shutdown bump it, so no publication can be slept through.
  EventCount ec;
  /// Guards the engine's run list (DagExecutor::Impl) and pairs with
  /// cv_done, which execute() callers wait on for their run to quiesce.
  std::mutex mutex;
  std::condition_variable cv_done;
};

/// Shared state for one execute() call. Workers hold it via shared_ptr, so a
/// straggler that still lists a finished run can touch its bookkeeping
/// safely; the caller-owned graph/kernel/trace references are only
/// dereferenced by a worker that is counted in workers_inside, and execute()
/// returns only after the run finished and that count fell back to zero.
///
/// Ready-task plumbing: each worker owns a Chase-Lev deque in every run — it
/// pushes the tasks it releases at the bottom and pops them LIFO
/// (depth-first, cache-warm); idle workers steal from the top of any other
/// worker's deque. The execute() caller's seed tasks, and any release that
/// finds the releasing worker's deque full, go through the run's bounded
/// MPMC ring. No mutex is taken anywhere on the dispatch path.
struct RunState {
  const dag::TaskGraph& graph;
  const DagExecutor::Kernel& kernel;
  Trace* trace;
  CancelToken* cancel = nullptr;
  /// Post-kernel hook (result verification); failures are kernel failures.
  const DagExecutor::Kernel* post_task = nullptr;
  ExecCounters* counters = nullptr;
  Hub& hub;

  std::vector<std::atomic<std::int32_t>> remaining;  // per-task deps left
  std::atomic<std::int64_t> tasks_left;

  /// Seeds and deque spills. Sized to the whole graph: every task is
  /// enqueued at most once, so a push can never find the ring full
  /// (asserted in enqueue).
  MpmcRing<std::int32_t> shared;
  /// One work-stealing deque per worker, indexed by worker id.
  std::vector<std::unique_ptr<WorkStealDeque>> deques;

  std::atomic<bool> failed{false};
  /// Set when a CancelToken aborted the run. Workers stop dispatching and
  /// stop releasing successors, so tasks_left never reaches zero and a
  /// cancelled run is reported as such, never as a completed one.
  std::atomic<bool> aborted{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  /// Tasks dropped without executing (popped-then-cancelled, or left in the
  /// queues when an aborted/failed run drains). Keeps merged traces and
  /// ServiceStats balanced: executed + drained == dispatched.
  std::atomic<std::int64_t> drained{0};

  /// Workers currently visiting this run (between enter and leave in
  /// visit()). execute() returns only once the run finished and this is
  /// back to zero, so caller-owned callbacks cannot be used after return.
  /// On its own cache line: every visit bumps it.
  alignas(64) std::atomic<int> workers_inside{0};

  Timer clock;

  RunState(const dag::TaskGraph& g, const DagExecutor::Kernel& k, Trace* t,
           int workers, Hub& h)
      : graph(g),
        kernel(k),
        trace(t),
        hub(h),
        remaining(g.size()),
        tasks_left(static_cast<std::int64_t>(g.size())),
        shared(g.size()) {
    for (int w = 0; w < workers; ++w)
      deques.push_back(std::make_unique<WorkStealDeque>(g.size()));
  }

  int workers() const { return static_cast<int>(deques.size()); }

  /// Makes one ready task dispatchable. `from_wid` is the releasing worker
  /// (-1 when the execute() caller seeds the run): its own deque when there
  /// is room, the shared ring otherwise.
  void enqueue(dag::task_id t, int from_wid) {
    if (from_wid >= 0 &&
        deques[static_cast<std::size_t>(from_wid)]->push(
            static_cast<std::int32_t>(t))) {
      if (counters)
        counters->local_pushes.fetch_add(1, std::memory_order_relaxed);
    } else {
      const bool ok = shared.try_push(static_cast<std::int32_t>(t));
      TQR_ASSERT(ok, "shared ready ring overflow (task enqueued twice?)");
      if (counters)
        counters->ring_pushes.fetch_add(1, std::memory_order_relaxed);
    }
    hub.ec.notify_all();
  }

  void record_failure(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = e;
    }
    failed.store(true, std::memory_order_seq_cst);
  }

  /// Latches the abort flag; idempotent. Parked workers need no wake-up:
  /// a finished run has nothing left for them.
  void abort_run() { aborted.store(true, std::memory_order_seq_cst); }

  bool done() const { return tasks_left.load(std::memory_order_seq_cst) == 0; }

  bool stopping() const {
    return failed.load(std::memory_order_seq_cst) ||
           aborted.load(std::memory_order_seq_cst);
  }

  /// Completed, failed or aborted: no worker dispatches from it any more.
  /// Monotonic — once true it stays true.
  bool finished() const { return done() || stopping(); }

  /// Accounts one task dropped without executing: a trace instant (so
  /// merged Perfetto timelines balance — every dispatched task is either a
  /// span or an instant) plus the drained counters. `wid` is the worker
  /// that dropped it (-1 for leftovers in the shared ring, traced on
  /// worker 0).
  void note_dropped(dag::task_id t, int wid, TraceEvent::Kind kind) {
    drained.fetch_add(1, std::memory_order_relaxed);
    if (counters)
      counters->drained_tasks.fetch_add(1, std::memory_order_relaxed);
    if (trace) {
      TraceEvent ev;
      ev.task = t;
      ev.op = graph.task(t).op;
      ev.device = wid < 0 ? 0 : wid;
      ev.start_s = ev.end_s = clock.seconds();
      ev.kind = kind;
      trace->record(ev);
    }
  }

  /// Empties the ring and every deque after the workers quiesced
  /// (abort/failure paths), accounting each leftover as kDrained. Caller
  /// must guarantee no worker is visiting the run — execute() runs this
  /// after the quiesce wait, and a finished run admits no new visitor.
  void drain_leftovers() {
    while (auto t = shared.try_pop())
      note_dropped(*t, -1, TraceEvent::Kind::kDrained);
    for (int w = 0; w < workers(); ++w) {
      std::int32_t t;
      while (deques[static_cast<std::size_t>(w)]->steal(t))
        note_dropped(t, w, TraceEvent::Kind::kDrained);
    }
  }

  /// One attempt to obtain a task for worker `wid`: own deque (LIFO), then
  /// the shared ring, then stealing from the other workers.
  bool try_get(int wid, std::int32_t& t) {
    if (deques[static_cast<std::size_t>(wid)]->pop(t)) return true;
    if (auto v = shared.try_pop()) {
      t = *v;
      return true;
    }
    const int n = workers();
    for (int i = 1; i < n; ++i) {
      // Start at our right-hand neighbour so thieves spread instead of all
      // hammering worker 0's deque.
      if (deques[static_cast<std::size_t>((wid + i) % n)]->steal(t)) {
        if (counters) counters->steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// True when a re-check before parking sees anything dispatchable.
  bool maybe_has_work() const {
    if (finished()) return false;
    if (shared.in_flight() != 0) return true;
    for (const auto& d : deques)
      if (d->maybe_nonempty()) return true;
    return false;
  }

  /// Worker `wid` takes at most one task from this run and executes it.
  /// Returns true when it took one. Entering before the finished() re-check
  /// pairs with execute()'s quiesce wait (both seq_cst): either execute()
  /// sees this worker inside, or this worker sees the run finished and
  /// touches nothing the caller owns.
  bool visit(int wid) {
    if (finished()) return false;
    workers_inside.fetch_add(1, std::memory_order_seq_cst);
    std::int32_t t = -1;
    const bool took = !finished() && try_get(wid, t);
    if (took) run_task(t, wid);
    if (workers_inside.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        finished()) {
      // Last one out of a finished run: wake the execute() caller. Taking
      // the mutex orders this against its predicate check.
      { std::lock_guard<std::mutex> lock(hub.mutex); }
      hub.cv_done.notify_all();
    }
    return took;
  }

  /// Executes popped task `t` on worker `wid` and releases its successors.
  void run_task(std::int32_t t, int wid) {
    // Task-dispatch boundary: honor an external cancellation request
    // before starting the kernel. This task was already popped, so it is
    // accounted as dropped (trace instant + drained counter) instead of
    // vanishing between the queues and the kernel; whatever is still
    // queued is accounted when execute() drains the leftovers.
    if (cancel && cancel->cancelled()) {
      note_dropped(t, wid, TraceEvent::Kind::kCancelled);
      abort_run();
      return;
    }

    const dag::Task& task = graph.task(t);
    TraceEvent ev;
    ev.task = t;
    ev.op = task.op;
    ev.device = wid;
    ev.start_s = clock.seconds();
    try {
      kernel(t, task, wid);
      // Kernel boundary: verify this task's freshly-written tiles before
      // any successor can consume them. The hook throws to reject.
      if (post_task) (*post_task)(t, task, wid);
    } catch (...) {
      record_failure(std::current_exception());
      return;
    }
    ev.end_s = clock.seconds();
    if (trace) trace->record(ev);

    // A cancel that landed mid-kernel: stop here without releasing
    // successors, so a partially-executed run can never masquerade as a
    // completed one.
    if (aborted.load(std::memory_order_acquire) ||
        (cancel && cancel->cancelled())) {
      abort_run();
      return;
    }

    // Release successors. The batch is pushed in reverse so the owner's
    // LIFO pops dispatch it in successor-list order.
    thread_local std::vector<dag::task_id> batch;
    batch.clear();
    for (auto it = graph.successors_begin(t); it != graph.successors_end(t);
         ++it) {
      if (remaining[*it].fetch_sub(1, std::memory_order_acq_rel) == 1)
        batch.push_back(*it);
    }
    for (std::size_t i = batch.size(); i-- > 0;) enqueue(batch[i], wid);
    tasks_left.fetch_sub(1, std::memory_order_seq_cst);
  }
};

}  // namespace

/// The resident engine: one group of workers serving every run in flight.
/// Each worker visits the active runs oldest-first — own deque, then the
/// run's ring, then stealing — and parks on the hub's eventcount once no
/// run has anything ready. With one run in flight this is a single
/// work-stealing group over one graph.
struct DagExecutor::Impl {
  int workers = 1;
  ExecCounters* counters = nullptr;
  Hub hub;

  /// Runs in flight, oldest first; guarded by hub.mutex.
  std::vector<std::shared_ptr<RunState>> runs;
  /// Bumped (under hub.mutex) whenever `runs` changes, so workers refresh
  /// their private copy of the list only when it moved.
  std::atomic<std::uint64_t> generation{0};
  std::uint64_t completed = 0;  // guarded by hub.mutex
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;

  void thread_main(int wid) {
    std::vector<std::shared_ptr<RunState>> mine;
    std::uint64_t mine_gen = 0;
    Backoff idle;
    for (;;) {
      if (stop.load(std::memory_order_acquire)) return;
      if (generation.load(std::memory_order_acquire) != mine_gen) {
        std::lock_guard<std::mutex> lock(hub.mutex);
        mine = runs;
        mine_gen = generation.load(std::memory_order_relaxed);
      }
      bool took = false;
      for (const auto& run : mine)
        if ((took = run->visit(wid))) break;
      if (took) {
        idle.reset();
        continue;
      }
      if (!idle.exhausted()) {
        idle.pause();
        continue;
      }
      // Park. prepare() before the re-checks: any enqueue, new run or stop
      // that lands after them bumps the epoch and wait() returns
      // immediately, so no publication can be slept through.
      const std::uint32_t e = hub.ec.prepare();
      if (stop.load(std::memory_order_acquire) ||
          generation.load(std::memory_order_acquire) != mine_gen ||
          std::any_of(mine.begin(), mine.end(),
                      [](const auto& r) { return r->maybe_has_work(); }))
        continue;
      if (counters) counters->parks.fetch_add(1, std::memory_order_relaxed);
      hub.ec.wait(e);
      idle.reset();
    }
  }
};

DagExecutor::DagExecutor(const Options& options)
    : impl_(std::make_unique<Impl>()) {
  TQR_REQUIRE(options.workers >= 1, "executor needs at least one worker");
  impl_->workers = options.workers;
  impl_->counters = options.counters;
  for (int wid = 0; wid < options.workers; ++wid)
    impl_->threads.emplace_back(
        [impl = impl_.get(), wid] { impl->thread_main(wid); });
}

DagExecutor::~DagExecutor() {
  impl_->stop.store(true, std::memory_order_release);
  impl_->hub.ec.notify_all();
  for (auto& th : impl_->threads) th.join();
}

int DagExecutor::workers() const { return impl_->workers; }

std::uint64_t DagExecutor::runs_completed() const {
  std::lock_guard<std::mutex> lock(impl_->hub.mutex);
  return impl_->completed;
}

double DagExecutor::execute(const dag::TaskGraph& graph, const Kernel& kernel,
                            Trace* trace, CancelToken* cancel,
                            const Kernel* post_task) {
  if (graph.size() == 0) return 0.0;
  if (cancel && cancel->cancelled())
    throw Cancelled("run cancelled before dispatch");

  Impl& impl = *impl_;
  auto run = std::make_shared<RunState>(graph, kernel, trace, impl.workers,
                                        impl.hub);
  run->cancel = cancel;
  run->counters = impl.counters;
  run->post_task = post_task && *post_task ? post_task : nullptr;
  for (dag::task_id t = 0; t < static_cast<dag::task_id>(graph.size()); ++t)
    run->remaining[t].store(graph.indegree(t), std::memory_order_relaxed);

  // Seed initially-ready tasks before publishing the run to the workers.
  // The caller is not a worker, so seeds stream through the shared ring in
  // ascending task order.
  for (dag::task_id t = 0; t < static_cast<dag::task_id>(graph.size()); ++t)
    if (graph.indegree(t) == 0) run->enqueue(t, -1);
  run->clock.reset();

  {
    std::lock_guard<std::mutex> lock(impl.hub.mutex);
    impl.runs.push_back(run);
    impl.generation.fetch_add(1, std::memory_order_release);
  }
  impl.hub.ec.notify_all();

  // A cancel request must rouse this thread's completion wait even when no
  // worker is visiting the run; the waker holds the run alive via
  // shared_ptr.
  if (cancel) {
    cancel->set_waker([run, hub = &impl.hub] {
      run->abort_run();
      { std::lock_guard<std::mutex> lock(hub->mutex); }
      hub->cv_done.notify_all();
    });
  }

  {
    std::unique_lock<std::mutex> lock(impl.hub.mutex);
    impl.hub.cv_done.wait(lock, [&] {
      return run->finished() &&
             run->workers_inside.load(std::memory_order_seq_cst) == 0;
    });
    impl.runs.erase(std::find(impl.runs.begin(), impl.runs.end(), run));
    impl.generation.fetch_add(1, std::memory_order_release);
    // Only clean, fully-executed runs count.
    if (run->done() && !run->failed.load(std::memory_order_acquire))
      ++impl.completed;
  }
  if (cancel) cancel->clear_waker();  // blocks out in-flight waker calls
  const double secs = run->clock.seconds();
  // Aborted/failed runs leave ready tasks behind; account every one (trace
  // instants + drained counters) now that the workers have quiesced, so
  // dispatched == executed + drained holds for every run.
  if (run->stopping()) run->drain_leftovers();
  // Take the exception out of the run: a worker may drop the last reference
  // to the RunState later, and must not release the exception the caller is
  // handling.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(run->error_mutex);
    error = std::move(run->error);
  }
  if (error) std::rethrow_exception(error);
  if (!run->done()) {
    TQR_ASSERT(run->aborted.load(std::memory_order_acquire),
               "executor stopped with tasks pending but no abort");
    throw Cancelled("run cancelled after " +
                    std::to_string(
                        graph.size() -
                        static_cast<std::size_t>(run->tasks_left.load())) +
                    " of " + std::to_string(graph.size()) + " tasks");
  }
  return secs;
}

double DagExecutor::run(const dag::TaskGraph& graph, const Kernel& kernel,
                        const Options& options) {
  DagExecutor engine(options);
  return engine.execute(graph, kernel, options.trace);
}

}  // namespace tqr::runtime
