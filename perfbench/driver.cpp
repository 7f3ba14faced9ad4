// Repo benchmark driver: runs one workload through the public svc::QrService
// API as a closed loop and prints its metrics; the last line of standard
// output is one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics (tracing off). --trace 1 prints
// the per-layer metrics: it repeats the closed loop for svc numbers, traces
// one pass over the workload's shapes, and times direct calls into la, dag
// and core at the tile size the jobs ran. The driver sets no execution
// setting: services use ServiceConfig{} and jobs the JobSpec defaults, apart
// from the matrix, the verification tier, the batch and, in the traced pass,
// the trace switch and its event cap.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "common/timer.hpp"
#include "core/plan.hpp"
#include "core/tiled_qr.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "la/flops.hpp"
#include "layers.hpp"
#include "sim/platform.hpp"
#include "svc/qr_service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using tqr::svc::JobResult;
using tqr::svc::JobStatus;
using tqr::svc::QrService;
using tqr::svc::ServiceConfig;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Set-ups per run, setup_s being their median: at least kMinSetups, more
/// while they add up to less than kSetupSeconds, at most kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupSeconds = 1.0;
/// A pass runs in rounds that end once the unchecked R factors reach this
/// many bytes; they are checked between rounds, with no job in flight.
constexpr std::size_t kRoundBytes = std::size_t{64} << 20;
/// Allocations from this size up are mapped and unmapped one by one, so
/// peak_rss_mb follows live memory. Under glibc's default, the threshold
/// moves with the allocation history and the same run's peak varies by
/// about 10 %.
constexpr int kMmapThreshold = 64 << 10;
/// Event cap for the traced pass: one 2048 x 2048 job at the service's
/// default tile size emits about 1.4 million kernel spans.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 23;

int nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

const char* isa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "generic";
#endif
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A finished job with its R factors dropped once checked.
struct Record {
  JobInput in;
  JobResult result;
  double latency_s = 0;  // submit to future-ready, on the driver's clock
  bool ok() const {
    return result.status == JobStatus::kOk &&
           result.problems_ok == result.problems;
  }
};

/// Job counts, correctness failures, and the records of one run.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> wrong;  // one line per job whose R failed a check

  /// Checks a job's R factors off the clock, counts it, and drops the
  /// factors.
  void settle(const std::string& label, Record& rec) {
    ++attempted;
    if (!rec.ok()) ++failed;
    const JobInput& in = rec.in;
    std::string where = label + " " + std::to_string(in.shape.rows) + "x" +
                        std::to_string(in.shape.cols);
    if (in.batch == 0) {
      if (rec.result.status == JobStatus::kOk) {
        const std::string why =
            check_r(make_matrix(in), rec.result.r, probe_seed(in));
        if (!why.empty()) wrong.push_back(where + ": " + why);
      }
    } else {
      for (int p = 0; p < in.batch; ++p) {
        if (static_cast<std::size_t>(p) >= rec.result.problem_status.size() ||
            rec.result.problem_status[p] != JobStatus::kOk)
          continue;
        const std::string why = check_r(make_matrix(in, p),
                                        rec.result.batch_r[p], probe_seed(in, p));
        if (!why.empty())
          wrong.push_back(where + " member " + std::to_string(p) + ": " + why);
      }
    }
    rec.result.r = {};
    rec.result.batch_r.clear();
  }
};

tqr::svc::JobSpec make_spec(const Workload& w, const JobInput& in) {
  tqr::svc::JobSpec spec;
  if (in.batch == 0) {
    spec.a = make_matrix(in);
  } else {
    for (int p = 0; p < in.batch; ++p) spec.batch.push_back(make_matrix(in, p));
  }
  if (w.probe_verify) spec.verify = tqr::svc::Verify::kProbe;
  return spec;
}

/// Submits one job and waits for it.
Record run_job(QrService& service, const Workload& w, const JobInput& in) {
  tqr::svc::JobSpec spec = make_spec(w, in);
  tqr::Timer t;
  JobResult r = service.submit(std::move(spec)).get();
  return Record{in, std::move(r), t.seconds()};
}

/// Constructs a service and runs the warm-up pass: one job of each distinct
/// shape, one after another, into a cold plan cache and an empty workspace
/// pool. `setup_s` receives construction-to-last-result time.
std::unique_ptr<QrService> set_up(const Workload& w, std::uint64_t seed,
                                  const ServiceConfig& config, Tally& tally,
                                  double* setup_s,
                                  std::vector<Record>* warm = nullptr) {
  std::vector<Record> records;
  tqr::Timer t;
  auto service = std::make_unique<QrService>(config);
  for (const JobInput& in : warmup_inputs(w, seed))
    records.push_back(run_job(*service, w, in));
  *setup_s = t.seconds();
  for (Record& rec : records) tally.settle(w.name + " warm-up", rec);
  if (warm != nullptr) *warm = std::move(records);
  return service;
}

/// What a timed closed-loop pass leaves behind (R factors already checked
/// and dropped).
struct Pass {
  std::vector<Record> records;
  double wall_s = 0;     // summed round wall time
  double ok_flops = 0;   // useful flops of jobs that resolved kOk
};

std::size_t r_bytes(const JobResult& r) {
  std::size_t n = static_cast<std::size_t>(r.r.rows()) * r.r.cols();
  for (const auto& m : r.batch_r) n += static_cast<std::size_t>(m.rows()) * m.cols();
  return n * sizeof(double);
}

/// Closed loop: each client submits its next job only after the previous
/// one resolved, until `seconds` of wall time have been measured.
Pass run_pass(QrService& service, const Workload& w, std::uint64_t seed,
              double seconds, Tally& tally) {
  std::vector<JobStream> streams;
  for (int c = 0; c < w.clients; ++c) streams.emplace_back(w, seed, c);
  std::vector<std::int64_t> issued(static_cast<std::size_t>(w.clients), 0);

  Pass pass;
  while (pass.wall_s < seconds) {
    const double round_s = seconds - pass.wall_s;
    std::atomic<std::size_t> unchecked{0};
    std::vector<std::vector<Record>> done(static_cast<std::size_t>(w.clients));
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(w.clients));
    tqr::Timer round;
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < w.clients; ++c) {
        clients.emplace_back([&, c] {
          try {
            while (round.seconds() < round_s && unchecked.load() < kRoundBytes) {
              done[c].push_back(run_job(service, w, streams[c].next()));
              unchecked += r_bytes(done[c].back().result);
            }
          } catch (...) {
            errors[c] = std::current_exception();
          }
        });
      }
      for (std::thread& t : clients) t.join();
    }
    pass.wall_s += round.seconds();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    for (int c = 0; c < w.clients; ++c) {
      for (Record& rec : done[c]) {
        tally.settle(w.name + " client " + std::to_string(c) + " job " +
                         std::to_string(issued[c]++),
                     rec);
        if (rec.ok()) pass.ok_flops += useful_flops(rec.in);
        pass.records.push_back(std::move(rec));
      }
    }
  }
  return pass;
}

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Prints the tail-latency line: the highest of p50/p75/p90/p95/p99/p99.9
/// with at least 10 samples beyond it, or why the run has none.
void print_tail(const std::string& workload, std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  const double n = static_cast<double>(ms.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double beyond = std::floor(n * (1 - p / 100) + 1e-9);
    if (beyond < 10) continue;
    const auto idx = static_cast<std::size_t>(n - beyond) - 1;
    std::printf("%s job_tail_ms %.6g ms (p%g of %zu jobs, %g beyond)\n",
                workload.c_str(), ms[idx], p, ms.size(), beyond);
    return;
  }
  std::printf("%s job_tail_ms omitted (%zu jobs: no percentile has 10 beyond)\n",
              workload.c_str(), ms.size());
}

Metrics end_to_end(const Workload& w, const Options& opt, Tally& tally) {
  std::vector<double> setups;
  double setup_total_s = 0;
  std::unique_ptr<QrService> service;
  while (setups.size() < kMinSetups ||
         (setup_total_s < kSetupSeconds && setups.size() < kMaxSetups)) {
    service.reset();  // the previous set-up's service is torn down untimed
    double setup_s = 0;
    service = set_up(w, opt.seed, ServiceConfig{}, tally, &setup_s);
    setups.push_back(setup_s);
    setup_total_s += setup_s;
  }
  const Pass pass = run_pass(*service, w, opt.seed, opt.seconds, tally);
  service.reset();

  std::vector<double> latency_ms;
  std::int64_t ok = 0;
  for (const Record& rec : pass.records) {
    latency_ms.push_back(rec.latency_s * 1e3);
    ok += rec.ok() ? 1 : 0;
  }
  const auto jobs = static_cast<double>(pass.records.size());
  std::printf("%s failed_frac %.6g ratio (%g of %g jobs)\n", w.name.c_str(),
              1 - ok / jobs, jobs - ok, jobs);
  print_tail(w.name, latency_ms);
  return {
      {"gflops", {pass.ok_flops / pass.wall_s * 1e-9, "GFLOP/s"}},
      {"job_p50_ms", {median(latency_ms), "ms"}},
      {"setup_s", {median(setups), "s"}},
      {"ok_frac", {ok / jobs, "ratio"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
  };
}

std::uint64_t counter(const tqr::obs::Registry::Snapshot& s, const char* name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double gauge(const tqr::obs::Registry::Snapshot& s, const char* name) {
  const auto it = s.gauges.find(name);
  return it == s.gauges.end() ? 0 : it->second;
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

/// Exec-time GFLOP/s of a single-matrix job.
double exec_gflops(const Record& rec) {
  return tqr::la::flops_qr(rec.in.shape.rows, rec.in.shape.cols) /
         rec.result.exec_s * 1e-9;
}

/// Tile grid of a shape at tile size b.
std::pair<std::int32_t, std::int32_t> grid(Shape s, int b) {
  return {static_cast<std::int32_t>((s.rows + b - 1) / b),
          static_cast<std::int32_t>((s.cols + b - 1) / b)};
}

/// One traced job: its kernel spans and the task graph they executed.
struct TracedJob {
  std::vector<TaskSpan> spans;
  GraphMatch match;
};

/// Checks that the kernel spans of one traced job are exactly its task
/// graph: every task once, per-step counts equal to step_counts().
TracedJob traced_job(const ParsedTrace& trace, const Record& rec) {
  const JobSpan* span = nullptr;
  for (const JobSpan& j : trace.jobs)
    if (j.job == static_cast<std::int64_t>(rec.result.id)) span = &j;
  if (span == nullptr)
    throw tqr::Error("trace: no lifecycle span for job " +
                     std::to_string(rec.result.id));
  TracedJob out;
  out.spans = tasks_of(trace, *span);
  const auto [mt, nt] = grid(rec.in.shape, rec.result.tile_size);
  out.match = match_graph(mt, nt, out.spans);
  if (step_counts(out.spans) != out.match.graph.step_counts())
    throw tqr::Error("trace: per-step span counts differ from step_counts()");
  return out;
}

Metrics per_layer(const Workload& w, const Options& opt, Tally& tally) {
  namespace dag = tqr::dag;
  Metrics m;
  const Shape ref = w.warm_shapes.front();
  auto is_ref = [&](const Record& rec) {
    return rec.in.batch == 0 && rec.in.shape == ref && rec.ok();
  };

  // svc: an untraced service, warmed up, then the closed loop.
  double setup_s = 0;
  std::unique_ptr<QrService> service =
      set_up(w, opt.seed, ServiceConfig{}, tally, &setup_s);
  const auto before = service->metrics();
  const Pass pass = run_pass(*service, w, opt.seed, opt.seconds / 2, tally);
  const auto after = service->metrics();
  std::vector<double> queue_ms, exec_ms, other_ms, occupancy, ref_rates;
  for (const Record& rec : pass.records) {
    const JobResult& r = rec.result;
    queue_ms.push_back(r.queue_s * 1e3);
    exec_ms.push_back(r.exec_s * 1e3);
    other_ms.push_back((r.total_s - r.queue_s - r.exec_s) * 1e3);
    if (rec.in.batch > 0) occupancy.push_back(r.batch_occupancy);
    if (is_ref(rec)) ref_rates.push_back(exec_gflops(rec));
  }
  auto delta = [&](const char* name) {
    return static_cast<double>(counter(after, name) - counter(before, name));
  };
  const double jobs = static_cast<double>(pass.records.size());
  m["svc.queue_ms.p50"] = {median(queue_ms), "ms"};
  m["svc.exec_ms.p50"] = {median(exec_ms), "ms"};
  m["svc.other_ms.p50"] = {median(other_ms), "ms"};
  m["svc.plan_cache_hit_ratio"] = {
      ratio(delta("plan_cache.hits"),
            delta("plan_cache.hits") + delta("plan_cache.misses")),
      "ratio"};
  m["svc.workspace_reuse_ratio"] = {
      ratio(delta("workspace.reused"),
            delta("workspace.reused") + delta("workspace.allocated")),
      "ratio"};
  m["svc.batch_occupancy"] = {median(occupancy), "ratio"};
  m["runtime.steals"] = {ratio(delta("exec.steals"), jobs), "count/job"};
  m["runtime.parks"] = {ratio(delta("exec.parks"), jobs), "count/job"};
  const double untraced_rate = median(ref_rates);
  service.reset();

  // runtime + obs: a traced service runs the warm-up pass once.
  ServiceConfig traced;
  traced.collect_trace = true;
  traced.trace_capacity = kTraceCapacity;
  // The trace document is taken before the service (and its event log) is
  // destroyed, and parsed after, so the two never share the memory peak.
  std::vector<Record> warm;
  std::string trace_json;
  {
    double traced_setup_s = 0;
    std::unique_ptr<QrService> ts =
        set_up(w, opt.seed, traced, tally, &traced_setup_s, &warm);
    const auto snap = ts->metrics();
    m["obs.trace_events"] = {gauge(snap, "trace.events"), "count"};
    m["obs.trace_dropped"] = {gauge(snap, "trace.dropped"), "count"};
    trace_json = ts->trace_json();
  }
  const ParsedTrace trace = parse_trace(trace_json);
  trace_json.clear();
  trace_json.shrink_to_fit();
  if (m["obs.trace_dropped"].value != 0)
    throw tqr::Error("trace dropped events; per-op counts would be short");

  // Every traced single-matrix job must match its task graph; the
  // reference job's spans give the runtime numbers.
  const Record* ref_job = nullptr;
  TracedJob ref_trace;
  for (const Record& rec : warm) {
    if (rec.in.batch != 0 || !rec.ok()) continue;
    TracedJob job = traced_job(trace, rec);
    if (ref_job == nullptr && is_ref(rec)) {
      ref_job = &rec;
      ref_trace = std::move(job);
    }
  }
  if (ref_job == nullptr) throw tqr::Error("traced reference job did not run");
  const int b = ref_job->result.tile_size;
  const double exec_s = ref_job->result.exec_s;
  const std::vector<TaskSpan>& spans = ref_trace.spans;
  const GraphMatch& match = ref_trace.match;

  std::map<dag::Op, double> busy_s;
  std::set<std::pair<int, int>> groups;
  double busy_total_s = 0;
  for (const TaskSpan& s : spans) {
    busy_s[s.op] += s.dur_us * 1e-6;
    busy_total_s += s.dur_us * 1e-6;
    groups.insert({s.pid, s.tid});
  }
  const auto counts = op_counts(spans);
  for (const dag::Op op : qr_ops()) {
    const std::string k = "runtime.op." + op_key(op);
    m[k + ".calls"] = {static_cast<double>(counts.at(op)), "count"};
    m[k + ".busy_ms"] = {busy_s[op] * 1e3, "ms"};
  }
  m["runtime.kernel_busy_share"] = {busy_total_s / (nproc() * exec_s), "ratio"};
  m["runtime.groups_with_work"] = {static_cast<double>(groups.size()), "count"};
  const double cp_time_s = match.graph.critical_path([&](const dag::Task& t) {
    return busy_s[t.op] / static_cast<double>(counts.at(t.op));
  });
  m["runtime.cp_time_share"] = {cp_time_s / exec_s, "ratio"};
  m["obs.trace_overhead"] = {exec_gflops(*ref_job) / untraced_rate, "ratio"};

  // dag: build time, size and the flop share of the critical path.
  const auto [mt, nt] = grid(ref, b);
  std::vector<double> build_ms;
  for (int r = 0; r < 3; ++r) {
    tqr::Timer t;
    const dag::TaskGraph g = dag::build_tiled_qr_graph(mt, nt, match.strategy);
    build_ms.push_back(t.millis());
  }
  double total_flops = 0;
  for (const dag::Task& t : match.graph.tasks()) total_flops += task_flops(t.op, b);
  const double cp_flops = match.graph.critical_path(
      [&](const dag::Task& t) { return task_flops(t.op, b); });
  m["dag.tasks"] = {static_cast<double>(match.graph.size()), "count"};
  m["dag.build_ms"] = {median(build_ms), "ms"};
  m["dag.cp_flop_share"] = {cp_flops / total_flops, "ratio"};

  // core: planning on the paper's node (the service's planning platform at
  // its defaults), and one sequential factorization as the 1-thread base.
  const tqr::sim::Platform node = tqr::sim::paper_platform();
  std::vector<double> plan_ms;
  for (int r = 0; r < 5; ++r) {
    tqr::Timer t;
    const tqr::core::Plan plan(node, mt, nt, tqr::core::PlanConfig{});
    plan_ms.push_back(t.millis());
  }
  m["core.plan_ms"] = {median(plan_ms), "ms"};
  const tqr::la::Matrix<double> a = make_matrix(ref_job->in);
  tqr::la::Matrix<double> padded(mt * b, nt * b);
  for (tqr::la::index_t j = 0; j < a.cols(); ++j)
    for (tqr::la::index_t i = 0; i < a.rows(); ++i) padded(i, j) = a(i, j);
  std::vector<double> seq_rates;  // up to 5 factorizations, or 1 s of them
  for (tqr::Timer total;
       seq_rates.empty() || (seq_rates.size() < 5 && total.seconds() < 1.0);) {
    tqr::Timer t;
    (void)tqr::core::TiledQrFactorization<double>::factor(padded, b);
    seq_rates.push_back(tqr::la::flops_qr(ref.rows, ref.cols) / t.seconds() *
                        1e-9);
  }
  const double seq = median(seq_rates);
  m["core.seq_gflops"] = {seq, "GFLOP/s"};
  m["core.parallel_speedup"] = {untraced_rate / seq, "ratio"};

  // la: the tile kernels against GEMM at the tile size the jobs ran.
  for (const auto& [name, value] : la_metrics(b)) {
    m[name] = {value, name.find("gemm_share") != std::string::npos ? "ratio"
                                                                   : "GFLOP/s"};
  }
  const Workload mixed = make_workload("small_mixed");
  m["la.batch.problems_per_s"] = {
      batch_problems_per_s(mixed.batch_shape, mixed.batch_members), "1/s"};
  std::printf("%s traced: tile %d, elimination %s, %zu kernel spans, "
              "peak RSS %.0f MB\n",
              w.name.c_str(), b, dag::elimination_name(match.strategy),
              spans.size(), peak_rss_mb());
  return m;
}

void print_result(const std::string& workload, const Metrics& metrics,
                  const Tally& tally) {
  for (const auto& [name, metric] : metrics)
    std::printf("%s %s %.6g %s\n", workload.c_str(), name.c_str(), metric.value,
                metric.unit.c_str());
  std::string json = "{\"correct\": ";
  json += tally.wrong.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") opt.workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stod(value);
      else if (flag == "--trace") opt.trace = std::stoi(value) != 0;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
#ifdef M_MMAP_THRESHOLD
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
#endif
  try {
    const Workload w = make_workload(opt.workload);
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%d "
                "isa=%s build=%s\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, nproc(), isa(),
                PERFBENCH_BUILD_TYPE);
    Tally tally;
    const Metrics metrics =
        opt.trace ? per_layer(w, opt, tally) : end_to_end(w, opt, tally);
    for (const std::string& line : tally.wrong)
      std::fprintf(stderr, "perfbench: wrong result: %s\n", line.c_str());
    print_result(w.name, metrics, tally);
    return tally.wrong.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
