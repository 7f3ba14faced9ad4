#include "cluster/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "core/device_count.hpp"
#include "core/main_selection.hpp"
#include "core/step_profile.hpp"
#include "core/tiled_qr.hpp"

namespace tqr::cluster {

namespace {

la::index_t round_up(la::index_t v, int b) {
  return (v + b - 1) / b * b;
}

/// Cluster-wide platform: `nodes` copies of the paper's node joined by the
/// uniform inter-node fabric.
sim::Platform make_cluster_platform(int nodes, double inter_gbytes_per_s,
                                    double inter_latency_us) {
  TQR_REQUIRE(nodes >= 1 && nodes <= 4, "cluster supports 1..4 nodes");
  TQR_REQUIRE(inter_gbytes_per_s > 0, "inter-node bandwidth must be > 0");
  TQR_REQUIRE(inter_latency_us >= 0, "inter-node latency must be >= 0");
  sim::Platform p;
  p.comm = sim::CommModel{};
  p.comm.inter_gbytes_per_s = inter_gbytes_per_s;
  p.comm.inter_latency_us = inter_latency_us;
  for (int n = 0; n < nodes; ++n) {
    const sim::Platform node = sim::paper_platform();
    for (const sim::DeviceSpec& d : node.devices) {
      p.devices.push_back(d);
      p.node_of.push_back(n);
    }
  }
  return p;
}

bool indicts_node(svc::JobStatus status) {
  // Outcomes that blame the node: execution failure, corruption, or a
  // bounced submission. Cancels, deadline expirations and invalid input are
  // the caller's (or the clock's) doing and neither feed health nor trigger
  // failover.
  return status == svc::JobStatus::kFailed ||
         status == svc::JobStatus::kCorrupted ||
         status == svc::JobStatus::kRejected;
}

}  // namespace

/// One outstanding cluster submission, owned by tracked_. The supervisor is
/// the only mutator of attempts / last / bookkeeping; submit() fills in the
/// first attempt, cancel() only flips `cancelled` and signals the nodes.
/// `launching` marks a dispatch in progress outside the lock — the
/// supervisor skips such entries, so the unlocked phases of submit() and
/// launch() own the entry exclusively.
struct Cluster::Tracked {
  struct Attempt {
    int node = -1;
    std::uint64_t id = 0;
    std::future<svc::JobResult> future;
    double submitted_s = 0;
    bool hedge = false;
  };

  std::promise<svc::JobResult> promise;
  /// Retained only when failover or hedging could need a resubmission copy.
  svc::JobSpec spec;
  bool keep_spec = false;

  /// The Submission handle returned to the caller (first attempt).
  int first_node = -1;
  std::uint64_t first_id = 0;

  std::vector<Attempt> attempts;  // live attempts (<= 2: primary + hedge)
  std::vector<bool> node_failed;  // nodes excluded from future attempts
  int attempts_used = 0;          // non-hedge attempts dispatched
  double submit_s = 0;            // cluster clock at submit()
  double exec_spent_s = 0;        // exec budget burned by failed attempts
  double resubmit_at_s = -1;      // >= 0: failover backoff deadline
  bool hedged = false;            // a hedge was dispatched (or ruled out)
  bool launching = false;         // dispatch in progress outside the lock
  bool want_pick = false;         // step_locked decided: failover dispatch
  bool want_hedge = false;        // step_locked decided: hedge dispatch
  bool give_up = false;           // dispatch found no eligible node
  std::atomic<bool> cancelled{false};

  svc::JobResult last;  // most recent terminal attempt outcome
  bool have_last = false;

  svc::JobResult final;  // set just before the entry leaves tracked_
  bool final_ready = false;
};

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      platform_(make_cluster_platform(config.nodes, config.inter_gbytes_per_s,
                                      config.inter_latency_us)),
      node_platform_(sim::paper_platform()),
      router_(config.policy),
      link_faults_(static_cast<std::size_t>(config.nodes)),
      failovers_(registry_.counter("cluster.failovers")),
      hedges_(registry_.counter("cluster.hedges")),
      hedge_wins_(registry_.counter("cluster.hedge_wins")),
      link_drops_(registry_.counter("cluster.link_drops")),
      routed_rejections_(registry_.counter("cluster.routed_rejections")),
      health_(config.nodes, config.health),
      routed_(static_cast<std::size_t>(config.nodes), 0) {
  TQR_REQUIRE(config.max_node_attempts >= 1,
              "max_node_attempts must be >= 1");
  TQR_REQUIRE(config.failover_backoff_s >= 0,
              "failover_backoff_s must be >= 0");
  TQR_REQUIRE(config.hedge_after_s >= 0, "hedge_after_s must be >= 0");

  // Sort the chaos schedule into per-node service faults (crash, brownout,
  // reject-storm run inside the node) and cluster-side link faults.
  std::vector<svc::NodeFaultConfig> node_faults(
      static_cast<std::size_t>(config.nodes));
  for (const ClusterConfig::NodeFault& f : config.faults) {
    TQR_REQUIRE(f.node >= 0 && f.node < config.nodes,
                "fault node out of range");
    const auto n = static_cast<std::size_t>(f.node);
    if (f.fault.kind == svc::NodeFaultConfig::Kind::kFlakyLink) {
      TQR_REQUIRE(!link_faults_[n], "one link fault per node");
      link_faults_[n] = std::make_unique<svc::NodeFaultInjector>(f.fault);
    } else if (f.fault.kind != svc::NodeFaultConfig::Kind::kNone) {
      TQR_REQUIRE(node_faults[n].kind == svc::NodeFaultConfig::Kind::kNone,
                  "one node fault per node");
      node_faults[n] = f.fault;
    }
  }

  nodes_.reserve(static_cast<std::size_t>(config.nodes));
  for (int n = 0; n < config.nodes; ++n) {
    svc::ServiceConfig cfg = config.node;
    // Disjoint pid block per node (queue track + one per lane) and a
    // node-qualified label, so trace_json() merges cleanly.
    cfg.trace_pid_base = n * (1 + cfg.lanes);
    cfg.trace_label = "node" + std::to_string(n) + "/";
    cfg.node_fault = node_faults[static_cast<std::size_t>(n)];
    nodes_.push_back(std::make_unique<svc::QrService>(cfg));
  }
  if (config.node.collect_trace) {
    trace_ = std::make_unique<obs::TraceLog>(config.node.trace_capacity);
    trace_->process_name(cluster_pid(), "cluster");
    trace_->thread_name(cluster_pid(), 0, "router");
  }
  supervisor_ = std::thread([this] { supervise(); });
}

Cluster::~Cluster() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_super_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
}

double Cluster::est_exec_s(la::index_t pr, la::index_t pc, int b,
                           dag::Elimination elim) const {
  const auto key = std::make_tuple(pr, pc, b, static_cast<int>(elim));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = est_cache_.find(key);
    if (it != est_cache_.end()) return it->second;
  }
  // Eq. 10/11 first-iteration estimate at the optimizer's chosen device
  // count, scaled by the panel count. Coarse, but consistent across shapes
  // — which is all a relative routing score needs. Nodes are identical, so
  // one estimate serves every node.
  const auto mt = static_cast<std::int32_t>(pr / b);
  const auto nt = static_cast<std::int32_t>(pc / b);
  const auto profiles = core::profile_platform(node_platform_, b, elim);
  const int main = core::select_main_device(profiles, mt, nt).main_device;
  const auto choice = core::select_device_count(
      profiles, node_platform_, main, mt, nt, b,
      static_cast<int>(sizeof(double)));
  const double est =
      choice.predicted_time[static_cast<std::size_t>(choice.chosen_p - 1)] *
      std::min(mt, nt);
  std::lock_guard<std::mutex> lock(mutex_);
  est_cache_.emplace(key, est);
  return est;
}

std::vector<NodeState> Cluster::node_states(la::index_t rows,
                                            la::index_t cols, int tile_size,
                                            dag::Elimination elim) const {
  const int b = tile_size > 0 ? tile_size : core::host_tile(cols);
  const double exec = est_exec_s(round_up(rows, b), round_up(cols, b), b,
                                 elim);
  const auto bytes =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols) *
      sizeof(double);
  const int dev_per_node = platform_.num_devices() / config_.nodes;
  const double now = clock_.seconds();
  std::vector<NodeState> states(static_cast<std::size_t>(config_.nodes));
  for (int n = 0; n < config_.nodes; ++n) {
    const svc::ServiceStats s = nodes_[static_cast<std::size_t>(n)]->stats();
    NodeState& st = states[static_cast<std::size_t>(n)];
    st.queue_depth = s.queue.depth;
    // A crashed node is fully out, whatever its lane breakers say.
    st.active_lanes =
        s.node_down ? 0 : std::max(0, s.lanes - s.lanes_quarantined);
    st.est_exec_s = exec;
    // The front end sits with node 0: its own node receives the matrix for
    // free, every other node pays the inter-node link for the full matrix.
    st.ship_s = n == 0 ? 0.0
                       : platform_.link(0, n * dev_per_node)
                             .transfer_time_s(bytes);
    // An active flaky link inflates the expected ship cost: every delivery
    // pays the injected delay, and a drop costs a whole resend on average
    // 1/(1-p) tries (p == 1 leaves the node reachable only on paper).
    const svc::NodeFaultInjector* lf =
        link_faults_[static_cast<std::size_t>(n)].get();
    if (lf && lf->active(now)) {
      st.ship_s += lf->config().delay_s;
      const double p = lf->config().drop_probability;
      st.ship_s = p < 1.0 ? st.ship_s / (1.0 - p) : 1e9;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int n = 0; n < config_.nodes; ++n) {
      states[static_cast<std::size_t>(n)].failure_rate =
          health_.failure_rate(n);
      states[static_cast<std::size_t>(n)].quarantined =
          health_.quarantined(n, now);
    }
  }
  return states;
}

int Cluster::pick_locked(std::vector<NodeState> states,
                         const std::vector<bool>* exclude, const Tracked* t,
                         bool hedge, double now_s) {
  if (exclude)
    for (std::size_t n = 0; n < states.size(); ++n)
      if ((*exclude)[n]) {
        states[n].active_lanes = 0;
        states[n].quarantined = true;
      }
  if (hedge && t)
    // A hedge must land on a different node than the live attempt(s).
    for (const Tracked::Attempt& a : t->attempts)
      if (a.node >= 0) {
        states[static_cast<std::size_t>(a.node)].active_lanes = 0;
        states[static_cast<std::size_t>(a.node)].quarantined = true;
      }
  const int target = router_.pick(states);
  if (target >= 0) {
    health_.note_routed(target, now_s);
    ++routed_[static_cast<std::size_t>(target)];
  }
  return target;
}

void Cluster::record_health_locked(int node, bool bad, double now_s) {
  const std::uint64_t before = health_.quarantines();
  health_.record(node, bad, now_s);
  if (health_.quarantines() != before && trace_)
    trace_->instant("node_quarantine", "cluster", cluster_pid(), 0, now_s,
                    obs::TraceArgs().add("node",
                                         static_cast<std::int64_t>(node)));
}

bool Cluster::roll_link_locked(int target, double now_s, double* delay_s) {
  *delay_s = 0;
  svc::NodeFaultInjector* lf =
      link_faults_[static_cast<std::size_t>(target)].get();
  if (target == 0 || !lf) return false;  // node 0 ships locally
  if (lf->drop_ship(now_s)) {
    link_drops_.inc();
    record_health_locked(target, true, now_s);
    if (trace_)
      trace_->instant("link_drop", "cluster", cluster_pid(), 0, now_s,
                      obs::TraceArgs().add(
                          "node", static_cast<std::int64_t>(target)));
    return true;
  }
  *delay_s = lf->ship_delay_s(now_s);
  return false;
}

Cluster::Submission Cluster::submit(svc::JobSpec spec) {
  const auto states =
      node_states(spec.a.rows(), spec.a.cols(), spec.tile_size, spec.elim);
  Submission out;
  const double now = clock_.seconds();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TQR_REQUIRE(!closed_, "Cluster::submit after shutdown");
    out.node = pick_locked(states, nullptr, nullptr, false, now);
    if (out.node < 0) routed_rejections_.inc();
  }
  if (out.node < 0) {
    // Every node crashed or quarantined: explicit routed rejection. The
    // caller sees kRejected immediately instead of the job queueing on a
    // node that is known to lose it.
    if (trace_)
      trace_->instant("routed_reject", "cluster", cluster_pid(), 0, now);
    svc::JobResult r;
    r.tag = spec.tag;
    r.rows = spec.a.rows();
    r.cols = spec.a.cols();
    r.status = svc::JobStatus::kRejected;
    r.error = "no healthy node (all crashed or quarantined)";
    std::promise<svc::JobResult> p;
    out.future = p.get_future();
    p.set_value(std::move(r));
    return out;
  }

  auto tracked = std::make_unique<Tracked>();
  Tracked* t = tracked.get();
  t->submit_s = now;
  t->keep_spec = config_.max_node_attempts > 1 || config_.hedge_after_s > 0;
  t->node_failed.assign(static_cast<std::size_t>(config_.nodes), false);
  t->launching = true;  // owned by this thread until the attempt is recorded
  t->first_node = out.node;
  out.future = t->promise.get_future();
  if (t->keep_spec) t->spec = spec;  // resubmission copy (value semantics)
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tracked_.push_back(std::move(tracked));
  }

  double delay_s = 0;
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dropped = roll_link_locked(out.node, clock_.seconds(), &delay_s);
  }
  if (dropped) {
    // The ship never arrived: synthesize the terminal failure and let the
    // supervisor either fail over (attempts remaining) or resolve it.
    svc::JobResult r;
    r.tag = spec.tag;
    r.rows = spec.a.rows();
    r.cols = spec.a.cols();
    r.status = svc::JobStatus::kFailed;
    r.error = "injected link drop shipping to node " +
              std::to_string(out.node);
    // The node itself did nothing wrong — the link ate the ship — so it
    // stays eligible for the failover retry (the flake may not repeat).
    std::lock_guard<std::mutex> lock(mutex_);
    t->last = std::move(r);
    t->have_last = true;
    t->attempts_used = 1;
    t->launching = false;
    return out;
  }
  if (delay_s > 0) {
    // Injected link delay: the ship path serves it before the node sees the
    // job, in slices so a cancel does not serve the full delay.
    constexpr double kSliceS = 1e-3;
    double remaining = delay_s;
    while (remaining > 0 && !t->cancelled.load(std::memory_order_relaxed)) {
      const double slice = std::min(remaining, kSliceS);
      std::this_thread::sleep_for(std::chrono::duration<double>(slice));
      remaining -= slice;
    }
  }
  std::future<svc::JobResult> fut =
      nodes_[static_cast<std::size_t>(out.node)]->submit(std::move(spec),
                                                         &out.id);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    t->first_id = out.id;
    t->attempts.push_back(Tracked::Attempt{out.node, out.id, std::move(fut),
                                           clock_.seconds(), false});
    t->attempts_used = 1;
    t->launching = false;
    if (t->cancelled.load(std::memory_order_relaxed))
      nodes_[static_cast<std::size_t>(out.node)]->cancel(out.id);
  }
  return out;
}

bool Cluster::cancel(int node, std::uint64_t id) {
  bool signalled = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& tp : tracked_) {
      Tracked& t = *tp;
      const bool match =
          (t.first_node == node && t.first_id == id) ||
          std::any_of(t.attempts.begin(), t.attempts.end(),
                      [&](const Tracked::Attempt& a) {
                        return a.node == node && a.id == id;
                      });
      if (!match) continue;
      t.cancelled.store(true, std::memory_order_relaxed);
      for (const Tracked::Attempt& a : t.attempts)
        nodes_[static_cast<std::size_t>(a.node)]->cancel(a.id);
      signalled = true;
      break;
    }
  }
  // Direct node submissions (and the already-resolved case) fall through to
  // the node's own cancel; its return keeps "unknown id" semantics honest.
  if (node >= 0 && node < config_.nodes)
    signalled |= nodes_[static_cast<std::size_t>(node)]->cancel(id);
  return signalled;
}

std::size_t Cluster::cancel_all() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& tp : tracked_)
      tp->cancelled.store(true, std::memory_order_relaxed);
  }
  std::size_t signalled = 0;
  for (auto& node : nodes_) signalled += node->cancel_all();
  return signalled;
}

void Cluster::step_locked(Tracked& t, double now_s) {
  using namespace std::chrono_literals;
  // Poll live attempts; harvest any that resolved.
  for (auto it = t.attempts.begin(); it != t.attempts.end();) {
    if (it->future.wait_for(0s) != std::future_status::ready) {
      ++it;
      continue;
    }
    svc::JobResult r = it->future.get();
    const int node = it->node;
    const bool hedge = it->hedge;
    it = t.attempts.erase(it);
    if (r.status == svc::JobStatus::kOk) {
      record_health_locked(node, false, now_s);
      if (hedge) {
        hedge_wins_.inc();
        if (trace_)
          trace_->instant("hedge_win", "cluster", cluster_pid(), 0, now_s,
                          obs::TraceArgs()
                              .add("node", static_cast<std::int64_t>(node))
                              .add("job", static_cast<std::int64_t>(r.id)));
      }
      // First completion wins: cancel the losers, resolve.
      for (const Tracked::Attempt& a : t.attempts)
        nodes_[static_cast<std::size_t>(a.node)]->cancel(a.id);
      t.final = std::move(r);
      t.final_ready = true;
      return;
    }
    if (indicts_node(r.status)) {
      record_health_locked(node, true, now_s);
      t.node_failed[static_cast<std::size_t>(node)] = true;
    }
    t.exec_spent_s += r.exec_s;
    t.last = std::move(r);
    t.have_last = true;
  }

  if (!t.attempts.empty()) {
    // One live attempt, unhedged, still sitting unpicked in its node's
    // queue past the hedge budget: clone it to the second-best node.
    if (config_.hedge_after_s > 0 && !t.hedged && !t.launching &&
        !t.cancelled.load(std::memory_order_relaxed) &&
        t.attempts.size() == 1 && !t.attempts.front().hedge) {
      const Tracked::Attempt& a = t.attempts.front();
      if (now_s - a.submitted_s >= config_.hedge_after_s &&
          !nodes_[static_cast<std::size_t>(a.node)]->started(a.id))
        t.want_hedge = true;
    }
    return;
  }

  // No live attempts. Everything below resolves or schedules a failover.
  if (t.cancelled.load(std::memory_order_relaxed)) {
    if (t.have_last) {
      t.final = std::move(t.last);
    } else {
      t.final.status = svc::JobStatus::kCancelled;
      t.final.error = "cancelled by caller";
    }
    t.final_ready = true;
    return;
  }
  if (!t.have_last) return;  // first attempt still being dispatched

  const bool eligible = t.keep_spec && indicts_node(t.last.status) &&
                        !t.give_up &&
                        t.attempts_used < config_.max_node_attempts;
  double queue_left = 0, exec_left = 0;
  bool budget_ok = true;
  if (t.spec.queue_deadline_s > 0) {
    queue_left = t.spec.queue_deadline_s - (now_s - t.submit_s);
    budget_ok &= queue_left > 0;
  }
  if (t.spec.exec_deadline_s > 0) {
    exec_left = t.spec.exec_deadline_s - t.exec_spent_s;
    budget_ok &= exec_left > 0;
  }
  if (!eligible || !budget_ok) {
    t.final = std::move(t.last);
    t.final_ready = true;
    return;
  }
  if (t.resubmit_at_s < 0)
    t.resubmit_at_s = now_s + config_.failover_backoff_s;
  if (now_s < t.resubmit_at_s) return;  // backoff (cancel checked each tick)
  t.want_pick = true;
}

void Cluster::launch(Tracked& t) {
  const bool hedge = t.want_hedge;
  // Resubmission copy with the REMAINING deadline budget: a failover is a
  // continuation of the caller's one request, not a fresh one, so time
  // already burned queueing and executing on failed nodes stays spent. A
  // hedge clone keeps the original budgets (it races the primary from the
  // same submit instant).
  svc::JobSpec spec = t.spec;
  if (!hedge) {
    const double now = clock_.seconds();
    if (spec.queue_deadline_s > 0)
      spec.queue_deadline_s =
          std::max(1e-6, spec.queue_deadline_s - (now - t.submit_s));
    if (spec.exec_deadline_s > 0)
      spec.exec_deadline_s =
          std::max(1e-6, spec.exec_deadline_s - t.exec_spent_s);
  }

  const auto states =
      node_states(spec.a.rows(), spec.a.cols(), spec.tile_size, spec.elim);
  int target = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const double now = clock_.seconds();
    target = pick_locked(states, &t.node_failed, &t, hedge, now);
    if (target >= 0) {
      if (hedge) {
        hedges_.inc();
        if (trace_)
          trace_->instant("hedge", "cluster", cluster_pid(), 0, now,
                          obs::TraceArgs().add(
                              "to", static_cast<std::int64_t>(target)));
      } else {
        failovers_.inc();
        if (trace_)
          trace_->instant("failover", "cluster", cluster_pid(), 0, now,
                          obs::TraceArgs()
                              .add("to", static_cast<std::int64_t>(target))
                              .add("attempt", static_cast<std::int64_t>(
                                                  t.attempts_used + 1)));
      }
    }
  }
  if (target < 0) {
    // No eligible node (every candidate failed this job already, crashed,
    // or sits quarantined): stop retrying. A hedge just quietly does not
    // happen; a failover gives up and the last failure stands.
    std::lock_guard<std::mutex> lock(mutex_);
    if (hedge)
      t.hedged = true;
    else
      t.give_up = true;
    t.want_pick = t.want_hedge = false;
    t.launching = false;
    return;
  }

  double delay_s = 0;
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dropped = roll_link_locked(target, clock_.seconds(), &delay_s);
  }
  if (dropped) {
    svc::JobResult r;
    r.tag = spec.tag;
    r.rows = spec.a.rows();
    r.cols = spec.a.cols();
    r.status = svc::JobStatus::kFailed;
    r.error = "injected link drop shipping to node " + std::to_string(target);
    std::lock_guard<std::mutex> lock(mutex_);
    t.last = std::move(r);
    t.have_last = true;
    if (hedge)
      t.hedged = true;
    else {
      ++t.attempts_used;
      t.resubmit_at_s = -1;
    }
    t.want_pick = t.want_hedge = false;
    t.launching = false;
    return;
  }
  if (delay_s > 0) {
    constexpr double kSliceS = 1e-3;
    double remaining = delay_s;
    while (remaining > 0 && !t.cancelled.load(std::memory_order_relaxed)) {
      const double slice = std::min(remaining, kSliceS);
      std::this_thread::sleep_for(std::chrono::duration<double>(slice));
      remaining -= slice;
    }
  }

  std::uint64_t id = 0;
  std::future<svc::JobResult> fut =
      nodes_[static_cast<std::size_t>(target)]->submit(std::move(spec), &id);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    t.attempts.push_back(
        Tracked::Attempt{target, id, std::move(fut), clock_.seconds(), hedge});
    if (hedge)
      t.hedged = true;
    else {
      ++t.attempts_used;
      t.resubmit_at_s = -1;
    }
    t.want_pick = t.want_hedge = false;
    t.launching = false;
    if (t.cancelled.load(std::memory_order_relaxed))
      nodes_[static_cast<std::size_t>(target)]->cancel(id);
  }
}

void Cluster::supervise() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (closed_ && tracked_.empty()) return;
    cv_super_.wait_for(lock, std::chrono::milliseconds(1));
    const double now = clock_.seconds();

    std::vector<Tracked*> to_launch;
    std::vector<std::unique_ptr<Tracked>> resolved;
    for (auto it = tracked_.begin(); it != tracked_.end();) {
      Tracked& t = **it;
      if (t.launching) {
        ++it;
        continue;
      }
      step_locked(t, now);
      if (t.final_ready) {
        resolved.push_back(std::move(*it));
        it = tracked_.erase(it);
        continue;
      }
      if (t.want_pick || t.want_hedge) {
        t.launching = true;
        to_launch.push_back(&t);
      }
      ++it;
    }

    lock.unlock();
    if (!resolved.empty()) cv_drained_.notify_all();
    // Promise resolution and dispatches run unlocked: set_value wakes
    // waiters that may immediately call stats()/cancel(), and launch()
    // ships matrices / blocks in node submits.
    for (auto& r : resolved) r->promise.set_value(std::move(r->final));
    for (Tracked* t : to_launch) launch(*t);
    lock.lock();
  }
}

void Cluster::drain() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_drained_.wait(lock, [this] { return tracked_.empty(); });
  }
  for (auto& node : nodes_) node->drain();
}

ClusterStats Cluster::stats() const {
  ClusterStats out;
  const double now = clock_.seconds();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.routed = routed_;
    out.node_quarantines = health_.quarantines();
    out.node_probations = health_.probations();
    out.nodes_quarantined = health_.open_count(now);
    out.node_failure_rate.reserve(static_cast<std::size_t>(config_.nodes));
    for (int n = 0; n < config_.nodes; ++n)
      out.node_failure_rate.push_back(health_.failure_rate(n));
  }
  out.failovers = failovers_.value();
  out.hedges = hedges_.value();
  out.hedge_wins = hedge_wins_.value();
  out.link_drops = link_drops_.value();
  out.routed_rejections = routed_rejections_.value();
  out.jobs_rejected = out.routed_rejections;
  double uptime = 0;
  for (const auto& node : nodes_) {
    const svc::ServiceStats s = node->stats();
    out.jobs_submitted += s.jobs_submitted;
    out.jobs_completed += s.jobs_completed;
    out.jobs_failed += s.jobs_failed;
    out.jobs_rejected += s.jobs_rejected;
    out.jobs_corrupted += s.jobs_corrupted;
    out.lanes_quarantined += s.lanes_quarantined;
    uptime = std::max(uptime, s.uptime_s);
    out.nodes.push_back(s);
  }
  out.jobs_per_s =
      uptime > 0 ? static_cast<double>(out.jobs_completed) / uptime : 0;
  return out;
}

obs::Registry::Snapshot Cluster::metrics() const {
  obs::Registry::Snapshot s = registry_.snapshot();
  const double now = clock_.seconds();
  std::lock_guard<std::mutex> lock(mutex_);
  s.counters["cluster.node_quarantines"] = health_.quarantines();
  s.counters["cluster.node_probations"] = health_.probations();
  s.gauges["cluster.nodes"] = config_.nodes;
  s.gauges["cluster.nodes_quarantined"] = health_.open_count(now);
  for (int n = 0; n < config_.nodes; ++n)
    s.gauges["cluster.node" + std::to_string(n) + ".failure_rate"] =
        health_.failure_rate(n);
  return s;
}

std::string Cluster::trace_json() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  const auto splice = [&](const obs::TraceLog* log) {
    if (log == nullptr) return;
    std::string events = log->events_json();
    if (events.empty()) return;
    if (!first) out += ",\n";
    first = false;
    out += events;
  };
  for (const auto& node : nodes_) splice(node->trace());
  splice(trace_.get());
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace tqr::cluster
