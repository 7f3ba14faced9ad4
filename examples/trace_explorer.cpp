// Trace explorer: simulate a factorization, dump the schedule trace, and
// render a per-device utilization timeline in the terminal — the tool to see
// *why* a schedule is fast or slow (main-device stalls, bus contention).
//
//   ./trace_explorer [--size 320] [--tile 16] [--bins 60]
//                    [--csv trace.csv] [--svg gantt.svg] [--json trace.json]
//
// --json writes Chrome trace-event JSON (Perfetto / chrome://tracing) through
// obs::TraceLog: pid 0, one tid per device (1 + device id), one "X" span per
// task with task/k/i/p/j args and derived GFLOP/s.
#include <algorithm>
#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/simulate.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "obs/trace_log.hpp"
#include "runtime/analysis.hpp"
#include "runtime/gantt.hpp"

int main(int argc, char** argv) {
  using namespace tqr;
  Cli cli;
  cli.flag("size", "matrix size (multiple of tile)", "320");
  cli.flag("tile", "tile size", "16");
  cli.flag("csv", "write the raw trace as CSV to this path");
  cli.flag("svg", "write a gantt chart SVG to this path");
  cli.flag("json", "write a chrome://tracing JSON to this path");
  cli.flag("bins", "timeline resolution", "60");
  if (!cli.parse(argc, argv)) return 0;
  const auto n = cli.get_int("size", 320);
  const int b = static_cast<int>(cli.get_int("tile", 16));
  const int bins = static_cast<int>(cli.get_int("bins", 60));

  const sim::Platform platform = sim::paper_platform();
  const auto nt = static_cast<std::int32_t>(n / b);
  core::PlanConfig pc;
  pc.tile_size = b;
  core::Plan plan(platform, nt, nt, pc);
  dag::TaskGraph graph = dag::build_tiled_qr_graph(nt, nt, pc.elim);

  runtime::Trace trace;
  sim::SimOptions sopts;
  sopts.tile_size = b;
  sopts.trace = &trace;
  const auto assign = plan.assignment(graph);
  const auto result =
      sim::simulate(graph, assign, platform, nt, nt, sopts);

  const runtime::TraceSnapshot events = trace.events();

  std::printf("%s\n", plan.summary(platform).c_str());
  std::printf("makespan %.3f ms, %lld tasks, %lld transfers (%.1f KB), "
              "comm share %.1f%%\n\n",
              result.makespan_s * 1e3,
              static_cast<long long>(result.tasks),
              static_cast<long long>(result.transfers),
              result.bytes_moved / 1024.0, result.comm_fraction() * 100);

  // Per-device utilization timeline: fraction of slots busy per time bin.
  std::printf("utilization timeline (each column = %.2f ms; '#' >75%%, "
              "'+' >25%%, '.' >0%%)\n",
              result.makespan_s * 1e3 / bins);
  std::vector<int> slots;
  for (int d = 0; d < platform.num_devices(); ++d)
    slots.push_back(platform.device(d).slots);
  const auto util = runtime::utilization_timeline(events, slots, bins);
  for (int d = 0; d < platform.num_devices(); ++d)
    std::printf("%-12s |%s|\n", platform.device(d).name.c_str(),
                runtime::utilization_row(util[d]).c_str());

  // Realized critical path: which device's serial work bounds the run.
  std::printf("\ncritical-path share by device: ");
  for (int d = 0; d < platform.num_devices(); ++d)
    std::printf("%s %.0f%%  ", platform.device(d).name.c_str(),
                runtime::critical_path_share(events, graph, d) * 100);
  std::printf("\n");

  // Per-step busy breakdown.
  std::printf("\nbusy seconds by paper step:\n");
  Table steps({"step", "busy_s", "share"});
  const char* names[4] = {"T (geqrt)", "E (ttqrt)", "UT (unmqr)",
                          "UE (ttmqr)"};
  for (int s = 0; s < 4; ++s)
    steps.add_row({names[s], fmt(result.step_busy_s[s], 4),
                   fmt(result.step_busy_s[s] / result.total_busy_s() * 100,
                       1) +
                       "%"});
  steps.print();

  const std::string svg_path = cli.get_string("svg", "");
  if (!svg_path.empty()) {
    runtime::GanttOptions gopts;
    for (int d = 0; d < platform.num_devices(); ++d)
      gopts.device_names.push_back(platform.device(d).name);
    gopts.max_events = 200000;
    FILE* f = std::fopen(svg_path.c_str(), "w");
    if (f) {
      const std::string svg = runtime::render_gantt_svg(events, gopts);
      std::fwrite(svg.data(), 1, svg.size(), f);
      std::fclose(f);
      std::printf("\n(gantt svg written to %s)\n", svg_path.c_str());
    }
  }
  const std::string json_path = cli.get_string("json", "");
  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f) {
      obs::TraceLog log(events.size() + 1 + platform.num_devices());
      log.process_name(0, "simulated run");
      for (int d = 0; d < platform.num_devices(); ++d)
        log.thread_name(0, 1 + d, platform.device(d).name);
      obs::append_task_events(log, events, graph, b, /*pid=*/0,
                              /*offset_s=*/0);
      const std::string json = log.to_json();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("(chrome trace written to %s)\n", json_path.c_str());
    }
  }
  const std::string path = cli.get_string("csv", "");
  if (!path.empty()) {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f) {
      const std::string csv = trace.to_csv();
      std::fwrite(csv.data(), 1, csv.size(), f);
      std::fclose(f);
      std::printf("\n(raw trace written to %s)\n", path.c_str());
    }
  }
  return 0;
}
