// Self-test of the benchmark's own machinery: the off-clock R check, the
// seeded inputs, the trace parsing the per-layer numbers rest on, and the
// rule that the driver names no execution setting.
//
//   perfbench_selftest        (or: python3 perfbench/run.py --selftest)
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <regex>
#include <set>
#include <string>

#include "checks.hpp"
#include "core/tiled_qr.hpp"
#include "layers.hpp"
#include "svc/qr_service.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using tqr::la::Matrix;

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
    }                                                                  \
  } while (0)

bool same_matrix(const Matrix<double>& a, const Matrix<double>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (tqr::la::index_t j = 0; j < a.cols(); ++j)
    for (tqr::la::index_t i = 0; i < a.rows(); ++i)
      if (a(i, j) != b(i, j)) return false;
  return true;
}

void check_rejects_perturbed_r() {
  const JobInput in{{96, 64}, 0, 42};
  const Matrix<double> a = make_matrix(in);
  const Matrix<double> r =
      tqr::core::TiledQrFactorization<double>::factor(a, 16).r();
  EXPECT(check_r(a, r, probe_seed(in)).empty());

  Matrix<double> upper = r;  // one entry above the diagonal, off by 1e-6
  upper(3, 40) += 1e-6 * std::abs(r(3, 40)) + 1e-9;
  EXPECT(!check_r(a, upper, probe_seed(in)).empty());

  Matrix<double> lower = r;  // fill-in below the diagonal
  lower(40, 3) = 1e-6;
  EXPECT(!check_r(a, lower, probe_seed(in)).empty());

  Matrix<double> diag = r;  // a sign-preserving scale of one diagonal entry
  diag(10, 10) *= 1 + 1e-7;
  EXPECT(!check_r(a, diag, probe_seed(in)).empty());

  Matrix<double> poisoned = r;
  poisoned(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT(!check_r(a, poisoned, probe_seed(in)).empty());

  EXPECT(!check_r(a, Matrix<double>(63, 64), probe_seed(in)).empty());
}

void check_seeded_inputs() {
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name);
    JobStream s1(w, 7, 0), s2(w, 7, 0), other(w, 8, 0);
    bool differs = false;
    for (int k = 0; k < 50; ++k) {
      const JobInput x = s1.next(), y = s2.next(), z = other.next();
      EXPECT(x.shape == y.shape && x.batch == y.batch &&
             x.matrix_seed == y.matrix_seed);
      differs |= x.matrix_seed != z.matrix_seed;
    }
    EXPECT(differs);
    const JobInput first = JobStream(w, 7, 0).next();
    if (first.batch == 0 && first.shape.rows <= 512)
      EXPECT(same_matrix(make_matrix(first), make_matrix(first)));
    const auto warm1 = warmup_inputs(w, 7), warm2 = warmup_inputs(w, 7);
    EXPECT(warm1.size() == warm2.size());
    for (std::size_t i = 0; i < warm1.size() && i < warm2.size(); ++i)
      EXPECT(warm1[i].matrix_seed == warm2[i].matrix_seed);
  }
  const JobInput in{{32, 16}, 0, 5};
  EXPECT(same_matrix(make_matrix(in), make_matrix(in)));
  EXPECT(!same_matrix(make_matrix(in), make_matrix(JobInput{{32, 16}, 0, 6})));

  // small_mixed shares: 80 % repeating (evenly over four shapes), 10 % tail,
  // 10 % batched; the tail spans more shapes than the default plan cache.
  const Workload w = make_workload("small_mixed");
  const int draws = 40000;
  std::map<Draw, int> by_draw;
  std::map<std::pair<int, int>, int> repeating;
  std::set<std::pair<int, int>> tail;
  for (int c = 0; c < w.clients; ++c) {
    JobStream s(w, 11, c);
    for (int k = 0; k < draws / w.clients; ++k) {
      const JobInput in = s.next();
      ++by_draw[s.last_draw()];
      const std::pair<int, int> shape{in.shape.rows, in.shape.cols};
      if (s.last_draw() == Draw::kRepeating) ++repeating[shape];
      if (s.last_draw() == Draw::kTail) tail.insert(shape);
      if (s.last_draw() == Draw::kBatch)
        EXPECT(in.batch == 32 && in.shape == (Shape{16, 16}));
      EXPECT(in.shape.rows >= in.shape.cols);
    }
  }
  auto share = [&](Draw d) { return by_draw[d] / static_cast<double>(draws); };
  EXPECT(std::abs(share(Draw::kBatch) - kBatchShare) < 0.01);
  EXPECT(std::abs(share(Draw::kTail) - kTailShare) < 0.01);
  EXPECT(repeating.size() == 4);
  for (const auto& [shape, n] : repeating)
    EXPECT(std::abs(n / static_cast<double>(draws) - 0.2) < 0.01);
  EXPECT(tail.size() > tqr::svc::ServiceConfig{}.plan_cache_capacity);
}

void check_traced_consistency() {
  tqr::svc::ServiceConfig config;
  config.collect_trace = true;
  tqr::svc::QrService service(config);
  tqr::svc::JobSpec spec;
  spec.a = Matrix<double>::random(96, 64, 3);
  const tqr::svc::JobResult r = service.submit(std::move(spec)).get();
  EXPECT(r.status == tqr::svc::JobStatus::kOk);
  const ParsedTrace trace = parse_trace(service.trace_json());
  EXPECT(trace.jobs.size() == 1);
  if (trace.jobs.size() != 1) return;
  const std::vector<TaskSpan> spans = tasks_of(trace, trace.jobs.front());
  const int b = r.tile_size;
  const GraphMatch m = match_graph((96 + b - 1) / b, (64 + b - 1) / b, spans);
  std::int64_t calls = 0;
  for (const auto& [op, n] : op_counts(spans)) calls += n;
  EXPECT(calls == static_cast<std::int64_t>(m.graph.size()));
  EXPECT(step_counts(spans) == m.graph.step_counts());
  std::map<tqr::dag::Op, std::int64_t> graph_ops;
  for (const tqr::dag::Task& t : m.graph.tasks()) ++graph_ops[t.op];
  for (const auto& [op, n] : op_counts(spans))
    EXPECT(n == (graph_ops.count(op) ? graph_ops.at(op) : 0));

  // A span the parser missed must make the match fail, not pass quietly.
  std::vector<TaskSpan> short_by_one(spans.begin() + 1, spans.end());
  bool threw = false;
  try {
    (void)match_graph((96 + b - 1) / b, (64 + b - 1) / b, short_by_one);
  } catch (const tqr::Error&) {
    threw = true;
  }
  EXPECT(threw);
}

void check_knob_free_driver() {
  // The driver and its helpers must never set an execution setting; such
  // fields may be reshaped or removed without the benchmark changing.
  const std::regex knob(
      R"(\b(lanes|threads_per_device|gpus|inner_block|default_tile|elim|hier_groups|plan_cache_capacity|queue_capacity|workspace_max_bytes)\b|tile_size\s*=[^=])");
  for (const char* file :
       {"driver.cpp", "workloads.cpp", "layers.cpp", "checks.cpp"}) {
    std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/" + file);
    EXPECT(in.good());
    std::string line;
    for (int n = 1; std::getline(in, line); ++n) {
      if (std::regex_search(line, knob)) {
        ++failures;
        std::fprintf(stderr, "%s:%d names an execution setting: %s\n", file, n,
                     line.c_str());
      }
    }
  }
}

}  // namespace

int main() {
  const std::pair<const char*, void (*)()> tests[] = {
      {"check_rejects_perturbed_r", check_rejects_perturbed_r},
      {"seeded_inputs", check_seeded_inputs},
      {"traced_consistency", check_traced_consistency},
      {"knob_free_driver", check_knob_free_driver},
  };
  for (const auto& [name, fn] : tests) {
    const int before = failures;
    try {
      fn();
    } catch (const std::exception& e) {
      ++failures;
      std::fprintf(stderr, "%s threw: %s\n", name, e.what());
    }
    std::printf("[%s] %s\n", failures == before ? "  OK  " : "FAILED", name);
  }
  std::printf("%s\n", failures == 0 ? "all self-tests passed" : "self-tests FAILED");
  return failures == 0 ? 0 : 1;
}
