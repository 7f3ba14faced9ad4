#include "runtime/analysis.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tqr::runtime {

std::vector<std::vector<double>> utilization_timeline(
    const TraceSnapshot& events, const std::vector<int>& slots_per_device,
    int bins) {
  TQR_REQUIRE(bins > 0, "need at least one bin");
  double makespan = 0;
  for (const auto& e : events) makespan = std::max(makespan, e.end_s);
  std::vector<std::vector<double>> out(slots_per_device.size(),
                                       std::vector<double>(bins, 0.0));
  if (makespan <= 0) return out;
  for (const auto& e : events) {
    if (e.device < 0 || e.device >= static_cast<int>(out.size())) continue;
    const double s = e.start_s / makespan * bins;
    const double t = e.end_s / makespan * bins;
    for (int bin = static_cast<int>(s);
         bin <= std::min(bins - 1, static_cast<int>(t)); ++bin) {
      const double lo = std::max(s, static_cast<double>(bin));
      const double hi = std::min(t, static_cast<double>(bin + 1));
      if (hi > lo) out[e.device][bin] += hi - lo;
    }
  }
  // Normalize by slots (bin width is already 1 in bin units).
  for (std::size_t d = 0; d < out.size(); ++d) {
    const double slots = std::max(1, slots_per_device[d]);
    for (double& v : out[d]) v /= slots;
  }
  return out;
}

std::string utilization_row(const std::vector<double>& bins) {
  std::string row;
  row.reserve(bins.size());
  for (double u : bins)
    row += u > 0.75 ? '#' : (u > 0.25 ? '+' : (u > 0.0 ? '.' : ' '));
  return row;
}

std::vector<PanelStat> per_panel_stats(const TraceSnapshot& events,
                                       const dag::TaskGraph& graph) {
  int max_panel = -1;
  for (const auto& t : graph.tasks()) max_panel = std::max(max_panel, int(t.k));
  std::vector<PanelStat> stats(max_panel + 1);
  for (int p = 0; p <= max_panel; ++p) {
    stats[p].panel = p;
    stats[p].start_s = 1e300;
  }
  for (const auto& e : events) {
    const int p = graph.task(e.task).k;
    auto& s = stats[p];
    s.busy_s += e.end_s - e.start_s;
    s.start_s = std::min(s.start_s, e.start_s);
    s.end_s = std::max(s.end_s, e.end_s);
    ++s.tasks;
  }
  for (auto& s : stats)
    if (s.tasks == 0) s.start_s = 0;
  return stats;
}

std::vector<dag::task_id> realized_critical_path(const TraceSnapshot& events,
                                                 const dag::TaskGraph& graph) {
  TQR_REQUIRE(events.size() == graph.size(), "trace must cover every task");
  std::vector<double> start(graph.size()), end(graph.size());
  for (const auto& e : events) {
    start[e.task] = e.start_s;
    end[e.task] = e.end_s;
  }
  dag::task_id cur = 0;
  for (dag::task_id t = 1; t < static_cast<dag::task_id>(graph.size()); ++t)
    if (end[t] > end[cur]) cur = t;
  std::vector<dag::task_id> path{cur};
  for (;;) {
    dag::task_id best = -1;
    for (auto it = graph.predecessors_begin(cur);
         it != graph.predecessors_end(cur); ++it)
      if (best < 0 || end[*it] > end[best]) best = *it;
    if (best < 0) break;
    path.push_back(best);
    cur = best;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double critical_path_share(const TraceSnapshot& events,
                           const dag::TaskGraph& graph, int device) {
  const auto path = realized_critical_path(events, graph);
  std::vector<int> dev_of(graph.size(), -1);
  std::vector<double> dur(graph.size(), 0);
  double makespan = 0;
  for (const auto& e : events) {
    dev_of[e.task] = e.device;
    dur[e.task] = e.end_s - e.start_s;
    makespan = std::max(makespan, e.end_s);
  }
  if (makespan <= 0) return 0;
  double share = 0;
  for (dag::task_id t : path)
    if (dev_of[t] == device) share += dur[t];
  return share / makespan;
}

}  // namespace tqr::runtime
