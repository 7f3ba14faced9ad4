#include "runtime/analysis.hpp"

#include <gtest/gtest.h>

#include "core/plan.hpp"
#include "core/simulate.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "sim/des.hpp"

namespace tqr::runtime {
namespace {

/// Simulates a small factorization into the provided holder (Trace owns a
/// mutex and is not movable).
struct Traced {
  dag::TaskGraph graph;
  Trace trace;
  sim::Platform platform;
};

void traced_run(int nt, Traced& out) {
  out.graph = dag::build_tiled_qr_graph(nt, nt, dag::Elimination::kTt);
  out.platform = sim::paper_platform();
  core::PlanConfig pc;
  pc.tile_size = 16;
  pc.count_policy = core::CountPolicy::kAll;
  pc.main_policy = core::MainPolicy::kFixed;
  pc.fixed_main = 1;
  core::Plan plan(out.platform, nt, nt, pc);
  sim::SimOptions opts;
  opts.tile_size = 16;
  opts.trace = &out.trace;
  sim::simulate(out.graph, plan.assignment(out.graph), out.platform, nt, nt,
                opts);
}

TEST(Analysis, UtilizationBinsBoundedAndBusyWhereExpected) {
  Traced r;
  traced_run(8, r);
  std::vector<int> slots;
  for (int d = 0; d < r.platform.num_devices(); ++d)
    slots.push_back(r.platform.device(d).slots);
  const auto util = utilization_timeline(r.trace.events(), slots, 40);
  ASSERT_EQ(util.size(), 4u);
  double total = 0;
  for (const auto& dev : util)
    for (double u : dev) {
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 1.0 + 1e-9);
      total += u;
    }
  EXPECT_GT(total, 0.0);
  // CPU receives no columns under the guide array: its row must be silent.
  for (double u : util[0]) EXPECT_EQ(u, 0.0);
}

TEST(Analysis, UtilizationRowRendering) {
  EXPECT_EQ(utilization_row({0.0, 0.1, 0.5, 0.9}), " .+#");
}

TEST(Analysis, PerPanelStatsCoverAllTasksAndPanels) {
  Traced r;
  traced_run(6, r);
  const auto stats = per_panel_stats(r.trace.events(), r.graph);
  ASSERT_EQ(stats.size(), 6u);
  std::int64_t tasks = 0;
  for (const auto& s : stats) {
    tasks += s.tasks;
    EXPECT_GE(s.end_s, s.start_s);
  }
  EXPECT_EQ(tasks, static_cast<std::int64_t>(r.graph.size()));
  // Panels start in order (panel k+1 cannot begin before panel k).
  for (std::size_t p = 1; p < stats.size(); ++p)
    EXPECT_GE(stats[p].start_s, stats[p - 1].start_s - 1e-12);
}

TEST(Analysis, RealizedCriticalPathIsAChainEndingAtMakespan) {
  Traced r;
  traced_run(6, r);
  const auto path = realized_critical_path(r.trace.events(), r.graph);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(r.graph.indegree(path.front()), 0);
  // Consecutive entries are actual dependence edges.
  for (std::size_t i = 1; i < path.size(); ++i) {
    bool is_pred = false;
    for (auto it = r.graph.predecessors_begin(path[i]);
         it != r.graph.predecessors_end(path[i]); ++it)
      is_pred |= (*it == path[i - 1]);
    EXPECT_TRUE(is_pred) << "broken chain at " << i;
  }
  // The path ends at the task that finishes last.
  std::vector<double> end(r.graph.size());
  double makespan = 0;
  for (const auto& e : r.trace.events()) {
    end[e.task] = e.end_s;
    makespan = std::max(makespan, e.end_s);
  }
  EXPECT_DOUBLE_EQ(end[path.back()], makespan);
}

TEST(Analysis, CriticalPathSharesSumToAtMostOne) {
  Traced r;
  traced_run(6, r);
  const TraceSnapshot events = r.trace.events();
  double total = 0;
  for (int d = 0; d < r.platform.num_devices(); ++d)
    total += critical_path_share(events, r.graph, d);
  EXPECT_GT(total, 0.3);  // kernels dominate the path
  EXPECT_LE(total, 1.0 + 1e-9);
  // The main device carries a substantial share (it runs every T/E).
  EXPECT_GT(critical_path_share(events, r.graph, 1), 0.1);
}

TEST(Analysis, IncompleteTraceRejectedForCriticalPath) {
  Traced r;
  traced_run(4, r);
  const TraceSnapshot partial{r.trace.events().front()};
  EXPECT_THROW(realized_critical_path(partial, r.graph),
               tqr::InvalidArgument);
}

}  // namespace
}  // namespace tqr::runtime
