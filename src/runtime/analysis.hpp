// Schedule analysis over execution traces: utilization timelines, per-panel
// breakdowns, and critical-path extraction. Works identically on traces from
// the real executor and the simulator. Each analysis takes a TraceSnapshot
// (Trace::events()), so one consistent copy serves several analyses.
#pragma once

#include <string>
#include <vector>

#include "dag/graph.hpp"
#include "runtime/trace.hpp"

namespace tqr::runtime {

/// Fraction of `slots` busy per device per time bin over [0, makespan].
/// Result[d][bin] in [0, 1] (can exceed 1 only if the trace overcommits).
std::vector<std::vector<double>> utilization_timeline(
    const TraceSnapshot& events, const std::vector<int>& slots_per_device,
    int bins);

/// Renders one device's utilization row as a terminal string
/// ('#' > 0.75, '+' > 0.25, '.' > 0, ' ' idle).
std::string utilization_row(const std::vector<double>& bins);

/// Per-panel (task.k) aggregate: busy seconds and span (first start to last
/// end) — where the factorization spends its wall time.
struct PanelStat {
  int panel = 0;
  double busy_s = 0;
  double start_s = 0;
  double end_s = 0;
  std::int64_t tasks = 0;
};
std::vector<PanelStat> per_panel_stats(const TraceSnapshot& events,
                                       const dag::TaskGraph& graph);

/// Extracts the realized critical path: walks back from the last-finishing
/// task through, at each step, the predecessor that finished latest.
/// Returns task ids in execution order. Requires the trace to cover every
/// task in the graph.
std::vector<dag::task_id> realized_critical_path(const TraceSnapshot& events,
                                                 const dag::TaskGraph& graph);

/// Share of the makespan covered by `device`'s busy time on the realized
/// critical path — how much of the run one device's serial work explains.
double critical_path_share(const TraceSnapshot& events,
                           const dag::TaskGraph& graph, int device);

}  // namespace tqr::runtime
