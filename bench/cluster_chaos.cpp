// Cluster chaos study: seeded node faults against the fault-tolerance
// machinery of tqr::cluster (failover resubmission, hedged requests, node
// health breakers). Four sections, one JSON document (bench_diff-compatible:
// the rate keys contain "jobs_per_s" / "speedup"):
//
//   "crash"    — a node crashes mid-batch. The failover-enabled cluster
//                must complete 100% of accepted jobs; the failover-disabled
//                baseline demonstrably loses the jobs stranded on the dead
//                node. This is the headline robustness claim.
//   "brownout" — one node runs 20x slow; hedged requests clone the jobs
//                stuck in its queue to the healthy node, so the batch still
//                completes promptly.
//   "link"     — the fabric to one node drops every ship for a bounded
//                episode; failover (with a backoff longer than the episode)
//                re-lands every dropped job.
//   "sim"      — deterministic DES counterpart: makespan of a hierarchical
//                panel factorization on a nominal vs degraded inter-node
//                link (sim::Platform::degrade_inter_link).
//
// All chaos schedules are seeded and time-triggered, so a given build's
// outcome mix is reproducible. --quick gates the invariants above and exits
// 3 on violation — the CI cluster-chaos job runs exactly that.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "common/timer.hpp"
#include "core/simulate.hpp"

namespace {

using namespace tqr;

struct ChaosRun {
  int jobs = 0;
  int ok = 0;
  int lost = 0;  // anything not kOk: failed, rejected, cancelled
  std::uint64_t failovers = 0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t link_drops = 0;
  std::uint64_t node_quarantines = 0;
  double jobs_per_s = 0;  // completed jobs over batch wall time
};

/// Pushes `jobs` square matrices through a fresh cluster under the given
/// chaos config and tallies the outcome mix.
ChaosRun run_batch(cluster::ClusterConfig cfg, int jobs, int n, int b,
                   double pace_s) {
  cluster::Cluster c(cfg);
  std::vector<cluster::Cluster::Submission> subs;
  subs.reserve(static_cast<std::size_t>(jobs));
  Timer wall;
  for (int j = 0; j < jobs; ++j) {
    svc::JobSpec spec;
    spec.a = la::Matrix<double>::random(n, n, 100 + j);
    spec.tile_size = b;
    // The chaos schedules (a crash 0.05 s into a 1 ms-paced batch, a 20 ms
    // hedge) are timed against TT jobs; TS jobs of this size finish before
    // the crash lands, and the gate would see no job to lose.
    spec.elim = dag::Elimination::kTt;
    subs.push_back(c.submit(std::move(spec)));
    if (pace_s > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(pace_s));
  }
  ChaosRun r;
  r.jobs = jobs;
  for (auto& s : subs) {
    const auto res = s.future.get();
    res.status == svc::JobStatus::kOk ? ++r.ok : ++r.lost;
  }
  const double elapsed = wall.seconds();
  c.drain();
  const auto st = c.stats();
  r.failovers = st.failovers;
  r.hedges = st.hedges;
  r.hedge_wins = st.hedge_wins;
  r.link_drops = st.link_drops;
  r.node_quarantines = st.node_quarantines;
  r.jobs_per_s = elapsed > 0 ? static_cast<double>(r.ok) / elapsed : 0;
  return r;
}

void print_run(const char* key, const ChaosRun& r, const char* tail) {
  std::printf("  \"%s\": {\"jobs\": %d, \"ok\": %d, \"lost\": %d, "
              "\"failovers\": %llu, \"hedges\": %llu, \"hedge_wins\": %llu, "
              "\"link_drops\": %llu, \"jobs_per_s\": %.3f}%s\n",
              key, r.jobs, r.ok, r.lost,
              static_cast<unsigned long long>(r.failovers),
              static_cast<unsigned long long>(r.hedges),
              static_cast<unsigned long long>(r.hedge_wins),
              static_cast<unsigned long long>(r.link_drops), r.jobs_per_s,
              tail);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace tqr;
  Cli cli;
  cli.flag("jobs", "jobs per chaos batch", "24");
  cli.flag("size", "matrix size for the crash batch", "256");
  cli.flag("hedge-size", "matrix size for the brownout/link batches", "128");
  cli.flag("tile", "tile size", "32");
  cli.flag("crash-at", "crash schedule time (s)", "0.05");
  cli.flag("pace-ms", "submission pacing for the crash batch (ms)", "1");
  cli.flag("seed", "chaos schedule seed", "42");
  cli.flag("csv", "write the outcome mix as CSV to this path");
  cli.flag("quick", "gate the robustness invariants (exit 3 on violation)");
  if (!cli.parse(argc, argv)) return 0;

  const bool quick = cli.get_bool("quick", false);
  const int jobs = static_cast<int>(cli.get_int("jobs", 24));
  const int n = static_cast<int>(cli.get_int("size", 256));
  const int hedge_n = static_cast<int>(cli.get_int("hedge-size", 128));
  const int b = static_cast<int>(cli.get_int("tile", 32));
  const double crash_at = cli.get_double("crash-at", 0.05);
  const double pace_s = cli.get_double("pace-ms", 1.0) * 1e-3;
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  std::printf("{\"jobs\": %d, \"size\": %d, \"tile\": %d,\n", jobs, n, b);

  // --- Section "crash": failover vs no-failover under a mid-batch kill. ---
  cluster::ClusterConfig crash;
  crash.nodes = 2;
  crash.policy = cluster::RouterPolicy::kRoundRobin;
  crash.node.lanes = 1;
  {
    cluster::ClusterConfig::NodeFault f;
    f.node = 0;
    f.fault.kind = svc::NodeFaultConfig::Kind::kCrash;
    f.fault.at_s = crash_at;
    f.fault.seed = seed;
    crash.faults.push_back(f);
  }
  cluster::ClusterConfig crash_failover = crash;
  crash_failover.max_node_attempts = 3;
  const ChaosRun base = run_batch(crash, jobs, n, b, pace_s);
  const ChaosRun fo = run_batch(crash_failover, jobs, n, b, pace_s);
  std::printf(" \"crash\": {\n");
  print_run("baseline", base, ",");
  print_run("failover", fo, ",");
  std::printf("  \"recovered_jobs\": %d\n },\n", fo.ok - base.ok);

  // --- Section "brownout": hedged requests around a 20x-slow node. ---
  cluster::ClusterConfig brown;
  brown.nodes = 2;
  brown.policy = cluster::RouterPolicy::kRoundRobin;
  brown.node.lanes = 1;
  brown.hedge_after_s = 0.02;
  {
    cluster::ClusterConfig::NodeFault f;
    f.node = 0;
    f.fault.kind = svc::NodeFaultConfig::Kind::kBrownout;
    f.fault.at_s = 0;
    f.fault.stall_factor = 20.0;
    f.fault.seed = seed;
    brown.faults.push_back(f);
  }
  const ChaosRun hedge = run_batch(brown, jobs, hedge_n, b, 0);
  std::printf(" \"brownout\": {\n");
  print_run("hedged", hedge, "\n },");
  std::printf("\n");

  // --- Section "link": every ship to node 1 dropped for one episode. ---
  cluster::ClusterConfig link;
  link.nodes = 2;
  link.policy = cluster::RouterPolicy::kRoundRobin;
  link.node.lanes = 1;
  link.max_node_attempts = 4;
  // The backoff outlives the episode, so every failover re-ship happens on
  // a healed link: with drop_probability 1 the outcome mix is exact.
  link.failover_backoff_s = 0.3;
  {
    cluster::ClusterConfig::NodeFault f;
    f.node = 1;
    f.fault.kind = svc::NodeFaultConfig::Kind::kFlakyLink;
    f.fault.at_s = 0;
    f.fault.duration_s = 0.25;
    f.fault.drop_probability = 1.0;
    f.fault.seed = seed;
    link.faults.push_back(f);
  }
  const ChaosRun flaky = run_batch(link, jobs / 2, hedge_n, b, 0);
  std::printf(" \"link\": {\n");
  print_run("failover", flaky, "\n },");
  std::printf("\n");

  // --- Section "sim": DES makespan on a nominal vs degraded fabric. ---
  core::PlanConfig pc;
  pc.tile_size = 16;
  pc.elim = dag::Elimination::kHier;
  pc.count_policy = core::CountPolicy::kAll;
  pc.main_policy = core::MainPolicy::kFixed;
  pc.fixed_main = 1;
  sim::Platform nominal = sim::paper_cluster(2, 4.0, 25.0);
  sim::Platform degraded = nominal;
  degraded.degrade_inter_link(0, 1, /*bw_divisor=*/8.0,
                              /*extra_latency_us=*/500.0);
  const double t_nom =
      core::simulate_tiled_qr(nominal, 2048, 32, pc).result.makespan_s;
  const double t_deg =
      core::simulate_tiled_qr(degraded, 2048, 32, pc).result.makespan_s;
  const double slowdown = t_nom > 0 ? t_deg / t_nom : 0;
  std::printf(" \"sim\": {\"nominal_s\": %.6f, \"degraded_s\": %.6f, "
              "\"speedup_nominal_vs_degraded\": %.4f}\n}\n",
              t_nom, t_deg, slowdown);

  Table table({"section", "mode", "jobs", "ok", "lost", "failovers",
               "hedges", "link_drops"});
  auto add = [&](const char* sec, const char* mode, const ChaosRun& r) {
    table.add_row({sec, mode, fmt(r.jobs), fmt(r.ok), fmt(r.lost),
                   fmt(static_cast<std::int64_t>(r.failovers)),
                   fmt(static_cast<std::int64_t>(r.hedges)),
                   fmt(static_cast<std::int64_t>(r.link_drops))});
  };
  add("crash", "baseline", base);
  add("crash", "failover", fo);
  add("brownout", "hedged", hedge);
  add("link", "failover", flaky);
  bench::maybe_write_csv(cli, table);

  if (quick) {
    // The headline invariants the CI cluster-chaos job enforces.
    if (fo.ok != fo.jobs || fo.failovers == 0) {
      std::fprintf(stderr,
                   "cluster_chaos: failover run completed %d/%d jobs "
                   "(%llu failovers) — expected 100%% completion\n",
                   fo.ok, fo.jobs,
                   static_cast<unsigned long long>(fo.failovers));
      return 3;
    }
    if (base.lost == 0) {
      std::fprintf(stderr,
                   "cluster_chaos: baseline lost no jobs to the crash — the "
                   "chaos schedule is not biting (crash-at too late?)\n");
      return 3;
    }
    if (hedge.ok != hedge.jobs || hedge.hedges == 0) {
      std::fprintf(stderr,
                   "cluster_chaos: brownout run completed %d/%d with %llu "
                   "hedges — expected full completion with hedging\n",
                   hedge.ok, hedge.jobs,
                   static_cast<unsigned long long>(hedge.hedges));
      return 3;
    }
    if (flaky.ok != flaky.jobs || flaky.link_drops == 0) {
      std::fprintf(stderr,
                   "cluster_chaos: link run completed %d/%d with %llu drops "
                   "— expected full completion through link failover\n",
                   flaky.ok, flaky.jobs,
                   static_cast<unsigned long long>(flaky.link_drops));
      return 3;
    }
    if (slowdown <= 1.0) {
      std::fprintf(stderr,
                   "cluster_chaos: degraded fabric did not slow the "
                   "simulated panel (%.4fx)\n", slowdown);
      return 3;
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "cluster_chaos: %s\n", e.what());
  return 1;
}
