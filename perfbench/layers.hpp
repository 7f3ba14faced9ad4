// Per-layer measurements for the traced run.
//
// Everything here calls the public functions of one layer directly (la,
// core, dag) or reads what the running service already exposes (the Chrome
// trace from QrService::trace_json(), parsed with obs::Json). No span is
// added inside the program.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dag/graph.hpp"
#include "dag/task.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The tiled-QR kernels, in the order the per-layer metrics list them.
const std::vector<tqr::dag::Op>& qr_ops();
/// Lower-case metric name of a kernel ("geqrt").
std::string op_key(tqr::dag::Op op);
/// la::flops_* of one task at tile size b. The benchmark calls la directly
/// rather than obs::task_flops, so it keeps building when obs's trace
/// helpers are reshaped.
double task_flops(tqr::dag::Op op, int b);

/// One kernel span from the service trace.
struct TaskSpan {
  tqr::dag::Op op = tqr::dag::Op::kGeqrt;
  int pid = 0, tid = 0;
  double ts_us = 0, dur_us = 0;
  std::int64_t task = -1, k = -1, i = -1, p = -1, j = -1;
};

/// One job lifecycle span (lane pickup to completion).
struct JobSpan {
  std::int64_t job = 0;
  int pid = 0;
  double ts_us = 0, dur_us = 0;
};

struct ParsedTrace {
  std::vector<TaskSpan> tasks;
  std::vector<JobSpan> jobs;
};

/// Parses a Chrome trace document one event at a time (each event object
/// through obs::Json), keeping only kernel and job spans. Throws on
/// malformed input.
ParsedTrace parse_trace(const std::string& json);

/// Kernel spans that ran inside `job`: same lane, inside its time window.
std::vector<TaskSpan> tasks_of(const ParsedTrace& trace, const JobSpan& job);

/// The task graph a traced job executed, found by building the graph of
/// every elimination strategy the dag layer names for the job's tile grid
/// and keeping the one whose tasks match the spans id for id. Throws
/// tqr::Error when no graph matches (a span is missing, duplicated or
/// mislabelled).
struct GraphMatch {
  tqr::dag::Elimination strategy = tqr::dag::Elimination::kTs;
  tqr::dag::TaskGraph graph;
};
GraphMatch match_graph(std::int32_t mt, std::int32_t nt,
                       const std::vector<TaskSpan>& spans);

/// Spans per kernel, and per paper step in dag::TaskGraph::step_counts()
/// order.
std::map<tqr::dag::Op, std::int64_t> op_counts(
    const std::vector<TaskSpan>& spans);
std::array<std::int64_t, 4> step_counts(const std::vector<TaskSpan>& spans);

/// la.gemm.gflops and la.<op>.gflops / la.<op>.gemm_share at tile size b.
std::map<std::string, double> la_metrics(int b);

/// core::BatchedQr<double>::factor throughput on `members` random problems
/// of `shape`, in problems per second.
double batch_problems_per_s(Shape shape, int members);

}  // namespace perfbench
