#include "runtime/dag_executor.hpp"

#include <exception>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "runtime/mpmc_ring.hpp"
#include "runtime/work_steal_deque.hpp"

namespace tqr::runtime {

namespace {

/// Shared state for one execute() call. Workers hold it via shared_ptr, so a
/// straggler that wakes after the run finished can still touch its own
/// bookkeeping safely; the caller-owned graph/kernel references are only
/// dereferenced while tasks remain, and execute() quiesces (waits for
/// workers_inside == 0) before returning.
///
/// Ready-task plumbing: each worker owns a Chase-Lev deque — it pushes the
/// tasks it releases at the bottom and pops them LIFO (depth-first,
/// cache-warm); idle workers steal from the top of any other worker's deque.
/// The execute() caller's seed tasks, and any release that finds the
/// releasing worker's deque full, go through one shared bounded MPMC ring.
/// A worker that finds all sources empty spins a bounded backoff, then parks
/// on the run's futex-backed EventCount; every push bumps the eventcount, so
/// a publication can never race a worker to sleep (see mpmc_ring.hpp for the
/// epoch argument). No mutex is taken anywhere on the dispatch path.
struct RunState {
  const dag::TaskGraph& graph;
  const DagExecutor::Kernel& kernel;
  Trace* trace;
  CancelToken* cancel = nullptr;
  /// Post-kernel hook (result verification); failures are kernel failures.
  const DagExecutor::Kernel* post_task = nullptr;
  ExecCounters* counters = nullptr;

  std::uint64_t seq = 0;  // engine run sequence number

  std::vector<std::atomic<std::int32_t>> remaining;  // per-task deps left
  std::atomic<std::int64_t> tasks_left;

  /// Seeds and deque spills. Sized to the whole graph: every task is
  /// enqueued at most once, so a push can never find the ring full
  /// (asserted in enqueue).
  MpmcRing<std::int32_t> shared;
  /// One work-stealing deque per worker, indexed by worker id.
  std::vector<std::unique_ptr<WorkStealDeque>> deques;
  /// Park point for every worker of the run.
  EventCount ec;

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

  /// Workers currently inside worker(); execute() returns only once this is
  /// back to zero so caller-owned callbacks cannot be used after return.
  std::atomic<int> workers_inside{0};

  Timer clock;

  RunState(const dag::TaskGraph& g, const DagExecutor::Kernel& k, Trace* t,
           int workers)
      : graph(g),
        kernel(k),
        trace(t),
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
    ec.notify_all();
  }

  void record_failure(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = e;
    }
    failed.store(true, std::memory_order_release);
    ec.notify_all();
  }

  /// Latches the abort flag and unblocks everyone; idempotent.
  void abort_run() {
    if (aborted.exchange(true, std::memory_order_acq_rel)) return;
    ec.notify_all();
  }

  bool done() const { return tasks_left.load(std::memory_order_acquire) == 0; }

  bool stopping() const {
    return failed.load(std::memory_order_acquire) ||
           aborted.load(std::memory_order_acquire);
  }

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
  /// must guarantee no worker is inside worker() — execute() runs this after
  /// the quiesce wait.
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
    if (shared.in_flight() != 0) return true;
    for (const auto& d : deques)
      if (d->maybe_nonempty()) return true;
    return false;
  }

  /// Executes ready tasks until the run completes, fails, or aborts.
  void worker(int wid) {
    Backoff idle;
    for (;;) {
      if (stopping()) return;
      std::int32_t t = -1;
      if (!try_get(wid, t)) {
        if (done()) return;
        if (!idle.exhausted()) {
          idle.pause();
          continue;
        }
        // Park. prepare() before the re-checks: any enqueue or flag store
        // that lands after them bumps the epoch and wait() returns
        // immediately, so no publication can be slept through.
        const std::uint32_t e = ec.prepare();
        if (maybe_has_work() || done() || stopping()) continue;
        if (counters) counters->parks.fetch_add(1, std::memory_order_relaxed);
        ec.wait(e);
        idle.reset();
        continue;
      }
      idle.reset();

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
      if (tasks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last task: wake every worker so idle ones can exit. The epoch
        // bump cannot race a worker that read tasks_left just before this
        // decrement and is about to park.
        ec.notify_all();
      }
    }
  }
};

}  // namespace

struct DagExecutor::Impl {
  int workers = 1;
  ExecCounters* counters = nullptr;

  std::mutex mutex;                 // guards current/seq/stop
  std::condition_variable cv_run;   // workers wait here for a new run
  std::condition_variable cv_done;  // execute() waits here for completion
  std::shared_ptr<RunState> current;
  std::uint64_t seq = 0;
  std::uint64_t completed = 0;
  bool stop = false;

  std::mutex execute_mutex;  // serializes concurrent execute() callers
  std::vector<std::thread> threads;

  void thread_main(int wid) {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<RunState> run;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv_run.wait(lock, [&] {
          return stop || (current && current->seq > seen);
        });
        if (stop) return;
        run = current;
        seen = run->seq;
        run->workers_inside.fetch_add(1, std::memory_order_acq_rel);
      }
      run->worker(wid);
      {
        // Under the engine mutex so execute()'s cv_done wait cannot miss the
        // final transition to workers_inside == 0. The worker's RunState
        // reference must also die inside this critical section (before the
        // mutex is released, hence before execute() can wake): execute()
        // then always holds the last reference, so per-run teardown — in
        // particular releasing the stored exception_ptr while the caller is
        // still inside a catch handler for that same exception — never runs
        // on a worker thread concurrently with the caller.
        std::lock_guard<std::mutex> lock(mutex);
        std::shared_ptr<RunState> last = std::move(run);
        last->workers_inside.fetch_sub(1, std::memory_order_acq_rel);
      }
      cv_done.notify_all();
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
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv_run.notify_all();
  for (auto& th : impl_->threads) th.join();
}

int DagExecutor::workers() const { return impl_->workers; }

std::uint64_t DagExecutor::runs_completed() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->completed;
}

double DagExecutor::execute(const dag::TaskGraph& graph, const Kernel& kernel,
                            Trace* trace, CancelToken* cancel,
                            const Kernel* post_task) {
  std::lock_guard<std::mutex> serialize(impl_->execute_mutex);
  if (graph.size() == 0) return 0.0;
  if (cancel && cancel->cancelled())
    throw Cancelled("run cancelled before dispatch");

  auto run = std::make_shared<RunState>(graph, kernel, trace, impl_->workers);
  run->cancel = cancel;
  run->counters = impl_->counters;
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
    std::lock_guard<std::mutex> lock(impl_->mutex);
    run->seq = ++impl_->seq;
    impl_->current = run;
  }
  impl_->cv_run.notify_all();

  // A cancel request must rouse workers parked on empty queues *and* this
  // thread's completion wait; the waker holds the run alive via shared_ptr.
  if (cancel) {
    cancel->set_waker([run, impl = impl_.get()] {
      run->abort_run();
      { std::lock_guard<std::mutex> lock(impl->mutex); }
      impl->cv_done.notify_all();
    });
  }

  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->cv_done.wait(lock, [&] {
      return (run->done() || run->stopping()) &&
             run->workers_inside.load(std::memory_order_acquire) == 0;
    });
    impl_->current.reset();
    // Only clean, fully-executed runs count.
    if (!run->error && run->done()) ++impl_->completed;
  }
  if (cancel) cancel->clear_waker();  // blocks out in-flight waker calls
  const double secs = run->clock.seconds();
  // Aborted/failed runs leave ready tasks behind; account every one (trace
  // instants + drained counters) now that the workers have quiesced, so
  // dispatched == executed + drained holds for every run.
  if (run->stopping()) run->drain_leftovers();
  if (run->error) std::rethrow_exception(run->error);
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
