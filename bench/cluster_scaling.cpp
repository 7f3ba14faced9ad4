// Cluster scaling study for the sharded multi-node tier (tqr::cluster).
//
// Three sections, one JSON document (bench_diff-compatible: the rate keys
// contain "speedup" / "jobs_per_s"):
//
//   "tree"    — tall-skinny panels on the cluster platform: flat TS chain
//               vs binary TT tree vs hierarchical TSQR (arXiv:1110.1553,
//               flat intra-node + binary inter-node). The crossover where
//               the trees beat the flat chain appears as the aspect ratio
//               grows — the elimination chain is the critical path there.
//   "scale"   — makespan of 1 node vs N nodes across inter-node bandwidths:
//               where recruiting the second node starts paying off.
//   "service" — the real cluster tier end to end: jobs/sec of a Router-
//               sharded job batch on 1 node vs N nodes.
//
// --quick additionally gates: if the hierarchical tree does not beat the
// flat TS chain on the tallest panel, exit 3 (the CI cluster-smoke job
// fails), the same self-gating pattern as serve_throughput.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "common/timer.hpp"
#include "core/simulate.hpp"

namespace {

using namespace tqr;

double simulate_elim(const sim::Platform& platform, std::int64_t rows,
                     std::int64_t cols, int b, dag::Elimination elim) {
  core::PlanConfig pc;
  pc.tile_size = b;
  pc.elim = elim;
  pc.count_policy = core::CountPolicy::kAll;
  pc.main_policy = core::MainPolicy::kFixed;
  pc.fixed_main = 1;  // GTX580 of node 0, the paper's main pick
  return core::simulate_tiled_qr(platform, rows, cols, pc).result.makespan_s;
}

/// Routes `jobs` square matrices through a fresh cluster and returns the
/// completed-jobs-per-second of the whole batch.
double service_jobs_per_s(int nodes, double inter_bw, int jobs, int n,
                          int b, cluster::RouterPolicy policy) {
  cluster::ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.inter_gbytes_per_s = inter_bw;
  cfg.policy = policy;
  cfg.node.lanes = 2;
  cluster::Cluster c(cfg);
  std::vector<cluster::Cluster::Submission> subs;
  subs.reserve(static_cast<std::size_t>(jobs));
  Timer wall;
  for (int j = 0; j < jobs; ++j) {
    svc::JobSpec spec;
    spec.a = la::Matrix<double>::random(n, n, 7 + j);
    spec.tile_size = b;
    subs.push_back(c.submit(std::move(spec)));
  }
  for (auto& s : subs) s.future.get();
  const double elapsed = wall.seconds();
  return elapsed > 0 ? static_cast<double>(jobs) / elapsed : 0;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace tqr;
  Cli cli;
  cli.flag("nodes", "cluster node count", "2");
  cli.flag("sizes", "tall-skinny row counts to sweep", "512,1024,2048,4096");
  cli.flag("cols", "tall-skinny column count", "32");
  cli.flag("tile", "tile size", "16");
  cli.flag("inter-bw", "inter-node bandwidths to sweep (GB/s)", "1,4,16");
  cli.flag("policy", "router policy: rr|load|cost", "cost");
  cli.flag("jobs", "service-section job count", "24");
  cli.flag("job-size", "service-section matrix size", "96");
  cli.flag("csv", "write the tree/scale sweep as CSV to this path");
  cli.flag("quick", "reduced sweep + crossover gate (exit 3 on failure)");
  if (!cli.parse(argc, argv)) return 0;

  const bool quick = cli.get_bool("quick", false);
  const int nodes = static_cast<int>(cli.get_int("nodes", 2));
  const int b = static_cast<int>(cli.get_int("tile", 16));
  const auto cols = cli.get_int("cols", 32);
  std::vector<std::int64_t> sizes =
      cli.get_int_list("sizes", {512, 1024, 2048, 4096});
  if (quick) sizes = {512, 2048};
  std::vector<std::int64_t> bws = cli.get_int_list("inter-bw", {1, 4, 16});
  if (quick) bws = {1, 16};
  const auto policy =
      cluster::parse_router_policy(cli.get_string("policy", "cost"));
  const int jobs = static_cast<int>(cli.get_int("jobs", quick ? 12 : 24));
  const int job_n = static_cast<int>(cli.get_int("job-size", 96));
  TQR_REQUIRE(nodes >= 1, "--nodes must be >= 1");

  const sim::Platform one_node = sim::paper_platform();
  Table table({"section", "rows_or_bw", "flat_ts_s", "tt_s", "hier_s",
               "one_node_s", "n_node_s"});

  std::printf("{\"nodes\": %d, \"tile\": %d, \"cols\": %lld,\n", nodes, b,
              static_cast<long long>(cols));

  // --- Section "tree": elimination variants on tall-skinny panels. ---
  std::printf(" \"tree\": {\n");
  double tallest_ts = 0, tallest_hier = 0;
  const sim::Platform cluster_nominal =
      sim::paper_cluster(nodes, /*inter_gbytes_per_s=*/4.0,
                         /*inter_latency_us=*/25.0);
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const std::int64_t rows = sizes[s];
    const double ts =
        simulate_elim(cluster_nominal, rows, cols, b, dag::Elimination::kTs);
    const double tt =
        simulate_elim(cluster_nominal, rows, cols, b, dag::Elimination::kTt);
    const double hier = simulate_elim(cluster_nominal, rows, cols, b,
                                      dag::Elimination::kHier);
    tallest_ts = ts;
    tallest_hier = hier;
    table.add_row({"tree", fmt(rows), fmt(ts, 4), fmt(tt, 4), fmt(hier, 4),
                   "", ""});
    std::printf("  \"r%lld\": {\"flat_ts_s\": %.6f, \"tt_s\": %.6f, "
                "\"hier_s\": %.6f, \"speedup_hier_vs_flat\": %.4f}%s\n",
                static_cast<long long>(rows), ts, tt, hier, ts / hier,
                s + 1 < sizes.size() ? "," : "");
  }
  std::printf(" },\n");

  // --- Section "scale": second node vs inter-node bandwidth. ---
  std::printf(" \"scale\": {\n");
  for (std::size_t i = 0; i < bws.size(); ++i) {
    const auto bw = static_cast<double>(bws[i]);
    const sim::Platform c =
        sim::paper_cluster(nodes, bw, /*inter_latency_us=*/25.0);
    const std::int64_t rows = sizes.back();
    const double one =
        simulate_elim(one_node, rows, cols, b, dag::Elimination::kTt);
    const double n_node =
        simulate_elim(c, rows, cols, b, dag::Elimination::kHier);
    table.add_row({"scale", fmt(bws[i]), "", "", "", fmt(one, 4),
                   fmt(n_node, 4)});
    std::printf("  \"bw%lld\": {\"one_node_s\": %.6f, \"n_node_s\": %.6f, "
                "\"speedup_nodes\": %.4f}%s\n",
                static_cast<long long>(bws[i]), one, n_node, one / n_node,
                i + 1 < bws.size() ? "," : "");
  }
  std::printf(" },\n");

  // --- Section "service": the real sharded tier, 1 node vs N nodes. ---
  const double jps_one =
      service_jobs_per_s(1, 4.0, jobs, job_n, b, policy);
  const double jps_n =
      service_jobs_per_s(nodes, 4.0, jobs, job_n, b, policy);
  std::printf(" \"service\": {\"policy\": \"%s\", \"jobs\": %d, "
              "\"jobs_per_s_one_node\": %.3f, \"jobs_per_s_n_nodes\": %.3f, "
              "\"speedup_service_nodes\": %.4f}\n}\n",
              cluster::router_policy_name(policy), jobs, jps_one, jps_n,
              jps_n / jps_one);

  bench::maybe_write_csv(cli, table);

  if (quick && tallest_hier >= tallest_ts) {
    std::fprintf(stderr,
                 "cluster_scaling: hierarchical tree (%.6f s) failed to beat "
                 "the flat TS chain (%.6f s) on the tallest panel\n",
                 tallest_hier, tallest_ts);
    return 3;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "cluster_scaling: %s\n", e.what());
  return 1;
}
