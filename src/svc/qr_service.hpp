// QrService — a resident QR factorization job service.
//
// The seed's tools run one factorization per process: build the DAG,
// allocate tile workspaces, spin up executor threads, factor, tear
// everything down. QrService keeps the threads and task graphs resident and
// amortizes them across many jobs, the way PLASMA-lineage runtimes amortize
// scheduling state across calls:
//
//   submit() ──> JobQueue (bounded; admission control = backpressure)
//                   │ pop
//                   ▼
//   lane 0..L-1: persistent worker, each owning a resident
//                runtime::DagExecutor whose work-stealing workers outlive
//                every job the lane runs (cores / lanes workers per lane)
//                   │
//                   ├─ PlanCache: (shape, tile, elim, ib) -> dag::TaskGraph;
//                   │    repeat shapes skip graph construction (LRU,
//                   │    hit/miss counters)
//                   └─ execute on the lane engine against tile planes the
//                        attempt allocates and frees itself
//
// Jobs on different lanes run concurrently; each lane's engine serves one
// job at a time. Results come back through std::future<JobResult>; admission
// rejections and queue-deadline expirations are reported as statuses, not
// exceptions, so a load generator can count them cheaply.
//
// Silent-corruption defense: JobSpec::verify selects a verification tier
// (kernel-boundary NaN/Inf scans, column-norm drift, randomized probe
// residual, or full reconstruction — see svc::Verify); a detection fails the
// attempt with tqr::VerificationError, which is retryable, and exhausts to
// JobStatus::kCorrupted rather than ever returning silently-wrong factors.
// Every attempt factors into storage of its own, so a failed or corrupt
// attempt's tiles can never reach a later job (or this job's retry).
// A per-lane circuit breaker (quarantine_after / probation_s) takes lanes
// that keep producing bad jobs out of rotation while the shared queue
// redistributes their work to the survivors.
#pragma once

#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_log.hpp"
#include "svc/fault.hpp"
#include "svc/job.hpp"
#include "svc/job_queue.hpp"
#include "svc/plan_cache.hpp"
#include "svc/service_stats.hpp"

namespace tqr::runtime {
struct ExecCounters;  // runtime/dag_executor.hpp (kept out of this header)
}

namespace tqr::svc {

struct ServiceConfig {
  /// Concurrent execution lanes; each owns a resident DagExecutor with
  /// max(1, hardware_concurrency / lanes) work-stealing workers.
  int lanes = 2;

  std::size_t queue_capacity = 64;
  Admission admission = Admission::kBlock;

  std::size_t plan_cache_capacity = 32;
  /// Disable to rebuild every job's task graph (the serve bench's cold
  /// baseline).
  bool plan_cache_enabled = true;

  /// Reuse each lane's DagExecutor across jobs. Disable to pay the seed's
  /// per-job thread-group spawn/teardown (cold baseline).
  bool reuse_engines = true;

  /// Inner blocking width passed to the tile kernels (0 = unblocked).
  la::index_t inner_block = 0;

  /// Shutdown policy: by default the destructor drains every accepted job
  /// to completion. With this set, shutdown instead cancels all outstanding
  /// jobs — queued jobs complete immediately with kCancelled, the running
  /// job aborts at its next task boundary — bounding teardown latency.
  bool cancel_on_shutdown = false;

  /// Circuit breaker: consecutive terminally-bad jobs (kFailed or
  /// kCorrupted) on one lane before it is quarantined — the lane stops
  /// popping, so queued jobs flow to the surviving lanes (one shared queue
  /// makes redistribution automatic). 0 disables the breaker. The last
  /// active lane is never quarantined: a breaker that can wedge the whole
  /// service is worse than a bad lane.
  int quarantine_after = 0;
  /// Seconds a quarantined lane sits out before a half-open probation
  /// re-admit: the lane takes exactly one job; success re-admits it fully,
  /// another bad outcome re-quarantines it for a fresh probation_s. 0 makes
  /// quarantine permanent for the service lifetime.
  double probation_s = 0;

  /// Fault injection applied to every job's kernels (tests, chaos benches).
  /// Mode kNone (the default) disarms it entirely.
  FaultConfig fault;

  /// Node-scale fault schedule: crash (submissions bounce, in-flight jobs
  /// fail permanently at the next task boundary), brownout (every task
  /// stretched by stall_factor), or reject-storm (submissions bounce while
  /// running jobs finish). Kind kNone (the default) disarms it. kFlakyLink
  /// belongs to the owning cluster's ship path and is ignored here.
  NodeFaultConfig node_fault;

  /// Collect a Chrome trace-event timeline of every job: queued spans and
  /// queue-depth samples on one track, per-lane job lifecycle spans with
  /// retry/verify/quarantine markers, and per-task kernel events annotated
  /// with tile coordinates and derived GFLOP/s. Off by default — tracing
  /// adds one runtime::Trace record per task.
  bool collect_trace = false;
  /// Event cap for the trace log; past it events are counted as dropped.
  std::size_t trace_capacity = std::size_t{1} << 20;

  /// Base Chrome-trace pid for this service's tracks: the queue track sits
  /// at trace_pid_base, lane L at trace_pid_base + 1 + L. A multi-node
  /// owner (tqr::cluster) gives each node a disjoint pid block so the
  /// per-node logs merge into one Perfetto document with one process per
  /// node-lane, side by side.
  int trace_pid_base = 0;
  /// Prefix for trace process names ("node1/" -> "node1/lane 0"); empty for
  /// the single-service default.
  std::string trace_label;
};

class QrService {
 public:
  explicit QrService(const ServiceConfig& config = {});
  /// Closes the queue, drains accepted jobs, joins the lanes.
  ~QrService();

  QrService(const QrService&) = delete;
  QrService& operator=(const QrService&) = delete;

  /// Submits a job. Blocks when the queue is full under Admission::kBlock;
  /// under kReject the returned future resolves immediately with
  /// JobStatus::kRejected. A caller error resolves immediately with
  /// JobStatus::kInvalid: a bad shape (empty, rows < cols, both `a` and
  /// `batch` set, batch members of differing shapes), a non-finite entry,
  /// or an fp32 job whose entries overflow float. Throws tqr::Error after
  /// shutdown began.
  /// `id_out` (optional) receives the service-assigned job id before the
  /// call returns — the handle cancel() takes.
  std::future<JobResult> submit(JobSpec spec, std::uint64_t* id_out = nullptr);

  /// Requests cooperative cancellation of one outstanding job. A queued job
  /// completes with kCancelled without being factored; a running job aborts
  /// at its next task-dispatch boundary. Returns false when the id is
  /// unknown or the job already completed (its future is authoritative:
  /// a cancel that loses the race observes the job's real final status).
  bool cancel(std::uint64_t id);

  /// Cancels every outstanding job; returns how many were signalled.
  std::size_t cancel_all();

  /// True once a lane has picked the job up (or the job already resolved);
  /// false while it still sits in the queue. The cluster's hedging policy
  /// uses this: a job no lane has started is safe to clone elsewhere.
  bool started(std::uint64_t id) const;

  /// Blocks until every accepted job has completed.
  void drain();

  ServiceStats stats() const;

  /// Registry snapshot plus derived gauges (uptime, queue depth, cache
  /// state) folded in — the single exposition `tqr serve` writes.
  obs::Registry::Snapshot metrics() const;
  /// Prometheus-style text exposition of metrics().
  std::string metrics_text() const { return metrics().to_text(); }
  /// JSON exposition of metrics().
  std::string metrics_json() const { return metrics().to_json(); }

  /// Chrome trace-event JSON of everything traced so far; empty "{...}"
  /// document when collect_trace is off.
  std::string trace_json() const;
  /// Null unless ServiceConfig::collect_trace.
  const obs::TraceLog* trace() const { return trace_.get(); }

  const ServiceConfig& config() const { return config_; }

 private:
  struct LaneEngine;  // hides runtime::DagExecutor from this header
  struct JobControl;  // per-job cancellation state (token + reason)

  /// Per-lane circuit-breaker state; guarded by mutex_.
  struct LaneHealth {
    int consecutive_bad = 0;  // kFailed/kCorrupted streak since last kOk
    bool quarantined = false;
    bool probation = false;  // next job is the half-open probation job
    double retry_at_s = 0;   // clock_ time the quarantine half-opens
  };

  /// Chrome-trace pids honoring config_.trace_pid_base.
  int queue_pid() const { return config_.trace_pid_base; }
  int lane_pid(int lane) const { return config_.trace_pid_base + 1 + lane; }

  void lane_main(int lane);
  /// Blocks while `lane` is quarantined (half-opening it when probation_s
  /// elapses); returns false when the lane should exit (service closed).
  bool quarantine_gate(int lane);
  /// Feeds one terminal job status into the lane's breaker; mutex_ held.
  void update_lane_health_locked(int lane, JobStatus status);
  /// Resolves a job that never enters the queue (kInvalid or kRejected):
  /// assigns its id, counts it, and returns an already-ready future.
  std::future<JobResult> resolve_at_door(const JobSpec& spec,
                                         JobStatus status, std::string error,
                                         std::uint64_t* id_out);
  JobResult process(LaneEngine& engine, int lane, PendingJob job,
                    JobControl& control);
  void run_attempt(LaneEngine& engine, const PendingJob& job,
                   double picked_up_s, JobControl& control, JobResult& result);
  /// Batched jobs (JobSpec::batch): factors the whole batch through the
  /// chunk-interleaved engine — one set of batch planes, cancellation at
  /// chunk boundaries, verify/quarantine per member.
  void run_batch(const PendingJob& job, double picked_up_s,
                 JobControl& control, JobResult& result);

  ServiceConfig config_;

  Timer clock_;
  JobQueue queue_;
  PlanCache plan_cache_;
  std::unique_ptr<FaultInjector> fault_;  // null when disarmed
  std::unique_ptr<NodeFaultInjector> node_fault_;  // null when disarmed

  /// Every service counter and latency histogram lives here; lanes resolve
  /// their metrics once (Metrics below) and update them lock-free.
  obs::Registry registry_;
  struct Metrics {
    explicit Metrics(obs::Registry& r);
    obs::Counter& submitted;
    obs::Counter& completed;
    obs::Counter& failed;
    obs::Counter& rejected;
    obs::Counter& expired;
    obs::Counter& cancelled;
    obs::Counter& retried;
    obs::Counter& corrupted;
    obs::Counter& invalid;
    obs::Counter& verify_failures;
    obs::Counter& lane_quarantines;
    obs::Counter& lane_probations;
    obs::Counter& node_rejects;
    obs::Counter& batched_jobs;      // whole batches processed
    obs::Counter& batched_problems;  // batch members with a valid R
    obs::Gauge& batch_occupancy;     // lane fill of the latest batch
    obs::Histogram& job_s;    // submit -> resolve, kOk jobs
    obs::Histogram& queue_s;  // submit -> lane pickup, all popped jobs
    obs::Histogram& exec_s;   // executor time per successful attempt
  };
  Metrics metrics_;
  std::unique_ptr<obs::TraceLog> trace_;  // null unless collect_trace
  /// Shared steal/park/drain telemetry sink; every lane engine points at it.
  std::unique_ptr<runtime::ExecCounters> exec_counters_;

  mutable std::mutex mutex_;
  std::condition_variable cv_drained_;
  std::uint64_t next_id_ = 1;
  std::uint64_t in_flight_ = 0;
  std::vector<LaneHealth> lane_health_;
  bool closed_ = false;
  /// Cancellation handles for every outstanding job (queued or running);
  /// erased when the job's future resolves.
  std::unordered_map<std::uint64_t, std::shared_ptr<JobControl>> controls_;

  std::vector<std::thread> lanes_;
};

}  // namespace tqr::svc
