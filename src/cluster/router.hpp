// Job router for the sharded multi-node tier.
//
// The Router is pure decision logic: it consumes per-node state snapshots
// (queue depth, active lane count, predicted execution time, predicted ship
// time) and returns the target node. Keeping it free of service handles
// makes every policy unit-testable with hand-built snapshots, and lets the
// Cluster assemble the inputs however it likes.
//
// kCostModel extends the paper's Eq. 10/11 reasoning to the cluster level:
// the node-local exec estimate plays Top, the inter-node ship cost plays
// Tcomm (link-aware: node 0 is free for a front-end co-located with it),
// and the queue backlog scales the exec term because a job behind `d`
// queued jobs on `l` lanes waits ~d/l job-times before starting.
//
// Nodes whose lanes are all quarantined or whose node-level circuit breaker
// is open (active_lanes == 0 or quarantined) are skipped by every policy —
// jobs reroute gracefully to healthy nodes. When EVERY node is out, pick()
// returns -1 and the cluster reports an explicit routed rejection: silently
// handing the job to a node known to be down would turn an observable
// capacity problem into a latent loss.
//
// NodeHealthTracker is the node-level circuit breaker feeding those
// decisions: a per-node EWMA failure rate (smooth load-shedding signal for
// the cost policy) plus a consecutive-failure breaker with half-open
// probation probes (hard stop for nodes that keep failing jobs). It is
// deliberately distinct from the per-lane quarantine inside QrService: a
// lane breaker isolates one bad device, the node breaker isolates a whole
// box the router can no longer trust.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tqr::cluster {

enum class RouterPolicy : std::uint8_t {
  kRoundRobin,   // rotate over healthy nodes, ignoring load and links
  kLeastLoaded,  // min queue backlog per active lane; ties -> lowest node
  kCostModel,    // min ship + exec * (1 + backlog/lanes) — the default
};

inline const char* router_policy_name(RouterPolicy p) {
  switch (p) {
    case RouterPolicy::kRoundRobin:
      return "round-robin";
    case RouterPolicy::kLeastLoaded:
      return "least-loaded";
    case RouterPolicy::kCostModel:
      return "cost";
  }
  return "?";
}

/// Parses "rr" | "round-robin" | "load" | "least-loaded" | "cost";
/// throws tqr::InvalidArgument otherwise.
RouterPolicy parse_router_policy(const std::string& name);

/// One node's routing inputs at submit time.
struct NodeState {
  /// Jobs waiting in the node's queue (not yet picked up by a lane).
  std::size_t queue_depth = 0;
  /// Lanes currently in rotation: configured lanes minus quarantined ones.
  /// 0 marks the node unhealthy; routers avoid it while any peer is up.
  int active_lanes = 1;
  /// Predicted execution seconds for the job on this node (Eq. 10/11 cost
  /// model over the node's devices).
  double est_exec_s = 0;
  /// Predicted seconds to ship the job's matrix to the node over the
  /// inter-node link (0 for the front-end's own node).
  double ship_s = 0;
  /// EWMA failure rate from the cluster's NodeHealthTracker, in [0, 1].
  /// Scales the cost score so chronically sick nodes shed load *before*
  /// their breaker trips.
  double failure_rate = 0;
  /// Node-level circuit breaker verdict: the node is sitting out. Routers
  /// treat it exactly like active_lanes == 0.
  bool quarantined = false;
};

class Router {
 public:
  explicit Router(RouterPolicy policy = RouterPolicy::kCostModel)
      : policy_(policy) {}

  RouterPolicy policy() const { return policy_; }

  /// Weight of the EWMA failure rate in the cost score: a node failing
  /// every job looks (1 + kFailurePenalty) x as expensive as its raw cost,
  /// which sheds load smoothly long before the breaker's hard stop.
  static constexpr double kFailurePenalty = 4.0;

  /// kCostModel score: lower is better.
  static double cost(const NodeState& n);

  /// Picks the target node for one job; `nodes` must be non-empty.
  /// Unhealthy nodes (active_lanes == 0 or quarantined) lose to any healthy
  /// node; with NO healthy node returns -1 — the caller must surface an
  /// explicit routed rejection rather than submit to a node known to be
  /// down.
  int pick(const std::vector<NodeState>& nodes);

 private:
  RouterPolicy policy_;
  std::uint64_t rr_next_ = 0;  // kRoundRobin rotation cursor
};

/// Node-level health configuration (cluster knobs).
struct NodeHealthConfig {
  /// EWMA smoothing for the per-node failure rate: rate' = alpha * bad +
  /// (1 - alpha) * rate. 0 freezes the rate at 0 (cost penalty off).
  double ewma_alpha = 0.2;
  /// Consecutive node-indicting failures (kFailed / kCorrupted / rejection)
  /// before the node's breaker opens. 0 disables the breaker.
  int breaker_after = 3;
  /// Seconds an open breaker sits out before a half-open probation probe:
  /// the router may send exactly one job; success closes the breaker,
  /// another failure re-opens it for a fresh probation_s. 0 makes an open
  /// breaker permanent.
  double probation_s = 1.0;
};

/// Per-node EWMA failure tracking + circuit breaker. Pure decision state
/// with an injected clock (every call takes `now_s`), so transitions are
/// unit-testable without sleeping; the owning Cluster serializes access
/// under its own mutex.
class NodeHealthTracker {
 public:
  NodeHealthTracker(int nodes, const NodeHealthConfig& config);

  /// Feeds one terminal job outcome. `bad` = the outcome indicts the node
  /// (kFailed, kCorrupted, or a rejection); cancels, expirations and
  /// invalid input are the caller's doing and must not be fed here.
  void record(int node, bool bad, double now_s);

  /// True while the node's breaker keeps it out of rotation: open and not
  /// yet due for probation, or already probing (half-open admits exactly
  /// one probe at a time).
  bool quarantined(int node, double now_s) const;

  /// Tells the tracker the router actually sent a job to `node`. An open
  /// breaker past its probation deadline latches half-open here — the probe
  /// is in flight and quarantined() holds everyone else off until record()
  /// delivers the verdict.
  void note_routed(int node, double now_s);

  double failure_rate(int node) const;
  /// Breaker-open events (lifetime, re-opens included).
  std::uint64_t quarantines() const { return quarantines_; }
  /// Half-open probation probes admitted (lifetime).
  std::uint64_t probations() const { return probations_; }
  /// Nodes whose breaker currently holds them out of rotation.
  int open_count(double now_s) const;

 private:
  struct State {
    double ewma = 0;
    int streak = 0;       // consecutive bad outcomes since last good
    bool open = false;    // breaker tripped
    bool probing = false; // half-open probe in flight
    double retry_at_s = 0;
  };
  NodeHealthConfig config_;
  std::vector<State> states_;
  std::uint64_t quarantines_ = 0;
  std::uint64_t probations_ = 0;
};

}  // namespace tqr::cluster
