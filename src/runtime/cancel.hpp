// Cooperative cancellation for DAG execution.
//
// A CancelToken is a one-way latch shared between the party that wants a run
// stopped (a service deadline watchdog, a user-facing cancel RPC, shutdown)
// and the executor that honors it. Cancellation is *cooperative*: the
// executor checks the token at task-dispatch boundaries, so a request takes
// effect within one task granularity — a kernel already running is never
// interrupted mid-flight (a torn tile kernel would leave its tiles in an
// undefined state).
//
// request_cancel() must also rouse executor workers that are parked on empty
// ready queues, so the token carries a waker slot: the executor registers a
// "wake everyone" callback for the duration of one run. clear_waker() holds
// the same lock the invocation holds, so after it returns no waker call is
// in flight — the executor can safely drop the run state.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>

namespace tqr::runtime {

class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Latches the token and invokes the registered waker (if any). Safe to
  /// call from any thread, any number of times; only the first call fires
  /// the waker.
  void request_cancel() {
    if (flag_.exchange(true, std::memory_order_acq_rel)) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (waker_) waker_();
  }

  bool cancelled() const { return flag_.load(std::memory_order_acquire); }

  /// Re-arms a latched token so it can govern another run. Only valid while
  /// no execution is using the token.
  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    flag_.store(false, std::memory_order_release);
  }

  /// Executor-side registration; one run at a time. If the token is already
  /// latched the waker fires immediately (cancel-before-start), so the
  /// registering run cannot miss a request that raced registration.
  void set_waker(std::function<void()> waker) {
    std::lock_guard<std::mutex> lock(mutex_);
    waker_ = std::move(waker);
    if (flag_.load(std::memory_order_acquire) && waker_) waker_();
  }

  /// Blocks until any in-flight waker invocation finishes, then unregisters.
  void clear_waker() {
    std::lock_guard<std::mutex> lock(mutex_);
    waker_ = nullptr;
  }

 private:
  std::atomic<bool> flag_{false};
  std::mutex mutex_;  // guards waker_ and serializes waker invocation
  std::function<void()> waker_;
};

}  // namespace tqr::runtime
