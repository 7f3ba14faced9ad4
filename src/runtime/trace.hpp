// Execution trace: per-task records collected by both the real executor and
// the discrete-event simulator, so the same analysis/reporting code serves
// measured and simulated runs.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "dag/task.hpp"

namespace tqr::runtime {

struct TraceEvent {
  /// What this record is. kTask is a completed kernel span. The other two
  /// are zero-duration *instants* accounting tasks dropped without running,
  /// so every dispatched task appears in a merged trace exactly once:
  /// kCancelled = popped by a worker that then observed cancellation at the
  /// dispatch boundary; kDrained = still sitting in a ready queue when an
  /// aborted/failed run drained. Aggregations (busy time, step totals, CSV)
  /// count only kTask spans.
  enum class Kind : std::uint8_t { kTask, kCancelled, kDrained };

  std::int32_t task = -1;
  dag::Op op = dag::Op::kGeqrt;
  /// Simulated runs: the modeled device. Host runs: the worker index.
  std::int32_t device = -1;
  double start_s = 0;  // seconds since run start (wall or simulated)
  double end_s = 0;
  Kind kind = Kind::kTask;
};

/// One consistent copy of a trace's events. Every consumer (analysis, gantt,
/// the obs trace bridge) takes this: callers snapshot once via
/// Trace::events() and fan the same copy out.
using TraceSnapshot = std::vector<TraceEvent>;

/// Thread-safe append-only event collector. Readers (events(), the CSV
/// dump) take the same lock as record(), so they can run concurrently with
/// an in-flight execution and still see a consistent snapshot. Chrome trace
/// JSON is written by obs::append_task_events over an events() snapshot.
class Trace {
 public:
  void record(const TraceEvent& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(e);
  }

  /// Reserve to avoid reallocation churn on big runs.
  void reserve(std::size_t n) {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.reserve(n);
  }

  /// Locked snapshot of the events recorded so far. By value on purpose:
  /// workers may still be record()ing, so handing out a reference into
  /// events_ would race both the reader's iteration and vector growth.
  TraceSnapshot events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
  }

  /// CSV dump: task,op,step,device,start,end.
  std::string to_csv() const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

}  // namespace tqr::runtime
