#include "layers.hpp"

#include <algorithm>
#include <cctype>
#include <functional>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/batched_qr.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "la/blas.hpp"
#include "la/flops.hpp"
#include "la/kernels.hpp"
#include "obs/json.hpp"

namespace perfbench {

using tqr::dag::Op;
using tqr::la::Matrix;
using tqr::obs::Json;

const std::vector<Op>& qr_ops() {
  static const std::vector<Op> ops = {Op::kGeqrt, Op::kTsqrt, Op::kTtqrt,
                                      Op::kUnmqr, Op::kTsmqr, Op::kTtmqr};
  return ops;
}

std::string op_key(Op op) {
  std::string s = tqr::dag::op_name(op);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

double task_flops(Op op, int b) {
  switch (op) {
    case Op::kGeqrt: return tqr::la::flops_geqrt(b);
    case Op::kTsqrt: return tqr::la::flops_tsqrt(b);
    case Op::kTtqrt: return tqr::la::flops_ttqrt(b);
    case Op::kUnmqr: return tqr::la::flops_unmqr(b);
    case Op::kTsmqr: return tqr::la::flops_tsmqr(b);
    case Op::kTtmqr: return tqr::la::flops_ttmqr(b);
    default: break;
  }
  throw tqr::Error(std::string("not a tiled-QR kernel: ") + tqr::dag::op_name(op));
}

namespace {

/// Index one past the '}' closing the object that opens at `pos`.
std::size_t object_end(const std::string& s, std::size_t pos) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = pos; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return i + 1;
    }
  }
  throw tqr::Error("trace: unterminated event object");
}

double number(const Json& obj, const char* key, double fallback) {
  const Json* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

void add_event(const Json& ev, ParsedTrace& out) {
  const Json* ph = ev.find("ph");
  const Json* name = ev.find("name");
  const Json* args = ev.find("args");
  if (ph == nullptr || !ph->is_string() || ph->as_string() != "X" ||
      name == nullptr || !name->is_string() || args == nullptr)
    return;
  const int pid = static_cast<int>(number(ev, "pid", -1));
  const int tid = static_cast<int>(number(ev, "tid", -1));
  const double ts = number(ev, "ts", 0), dur = number(ev, "dur", 0);
  const std::string& n = name->as_string();
  if (tid == 0 && n.rfind("job ", 0) == 0 && args->find("job") != nullptr) {
    out.jobs.push_back(
        {static_cast<std::int64_t>(number(*args, "job", 0)), pid, ts, dur});
    return;
  }
  if (args->find("task") == nullptr) return;
  for (const Op op : qr_ops()) {
    if (n != tqr::dag::op_name(op)) continue;
    auto field = [&](const char* key) {
      return static_cast<std::int64_t>(number(*args, key, -1));
    };
    out.tasks.push_back({op, pid, tid, ts, dur, field("task"), field("k"),
                         field("i"), field("p"), field("j")});
    return;
  }
}

bool matches(const tqr::dag::TaskGraph& g, const std::vector<TaskSpan>& spans) {
  if (g.size() != spans.size()) return false;
  std::vector<char> seen(g.size(), 0);
  for (const TaskSpan& s : spans) {
    if (s.task < 0 || s.task >= static_cast<std::int64_t>(g.size()) ||
        seen[static_cast<std::size_t>(s.task)])
      return false;
    seen[static_cast<std::size_t>(s.task)] = 1;
    const tqr::dag::Task& t = g.task(static_cast<tqr::dag::task_id>(s.task));
    const bool has_partner = t.op != Op::kGeqrt && t.op != Op::kUnmqr;
    if (t.op != s.op || t.k != s.k || t.i != s.i || t.j != s.j ||
        (has_partner && t.p != s.p))
      return false;
  }
  return true;
}

/// Median seconds per call of `fn` over five timed batches of at least
/// `min_batch_s` each.
double seconds_per_call(const std::function<void()>& fn,
                        double min_batch_s = 0.02) {
  fn();  // warm caches and lazy allocations
  long reps = 1;
  for (;; reps *= 2) {
    tqr::Timer t;
    for (long r = 0; r < reps; ++r) fn();
    if (t.seconds() >= min_batch_s) break;
  }
  std::vector<double> per_call;
  for (int batch = 0; batch < 5; ++batch) {
    tqr::Timer t;
    for (long r = 0; r < reps; ++r) fn();
    per_call.push_back(t.seconds() / static_cast<double>(reps));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[2];
}

}  // namespace

ParsedTrace parse_trace(const std::string& json) {
  ParsedTrace out;
  const std::size_t key = json.find("\"traceEvents\"");
  std::size_t pos = key == std::string::npos ? key : json.find('[', key);
  if (pos == std::string::npos) throw tqr::Error("trace: no traceEvents array");
  for (++pos;;) {
    while (pos < json.size() &&
           (std::isspace(static_cast<unsigned char>(json[pos])) || json[pos] == ','))
      ++pos;
    if (pos >= json.size()) throw tqr::Error("trace: unterminated traceEvents");
    if (json[pos] == ']') break;
    if (json[pos] != '{') throw tqr::Error("trace: expected an event object");
    const std::size_t end = object_end(json, pos);
    add_event(Json::parse(json.substr(pos, end - pos)), out);
    pos = end;
  }
  return out;
}

std::vector<TaskSpan> tasks_of(const ParsedTrace& trace, const JobSpan& job) {
  // Trace timestamps are rounded to the microsecond; allow that much slack.
  const double lo = job.ts_us - 1, hi = job.ts_us + job.dur_us + 1;
  std::vector<TaskSpan> out;
  for (const TaskSpan& s : trace.tasks)
    if (s.pid == job.pid && s.ts_us >= lo && s.ts_us + s.dur_us <= hi)
      out.push_back(s);
  return out;
}

GraphMatch match_graph(std::int32_t mt, std::int32_t nt,
                       const std::vector<TaskSpan>& spans) {
  // Every strategy the dag layer names; elimination_name() is "?" past the
  // last one.
  for (int e = 0;; ++e) {
    const auto strategy = static_cast<tqr::dag::Elimination>(e);
    if (std::string(tqr::dag::elimination_name(strategy)) == "?") break;
    tqr::dag::TaskGraph g = tqr::dag::build_tiled_qr_graph(mt, nt, strategy);
    if (matches(g, spans)) return {strategy, std::move(g)};
  }
  throw tqr::Error("trace: the " + std::to_string(spans.size()) +
                   " kernel spans of a " + std::to_string(mt) + "x" +
                   std::to_string(nt) + "-tile job match no task graph");
}

std::map<Op, std::int64_t> op_counts(const std::vector<TaskSpan>& spans) {
  std::map<Op, std::int64_t> out;
  for (const Op op : qr_ops()) out[op] = 0;
  for (const TaskSpan& s : spans) ++out[s.op];
  return out;
}

std::array<std::int64_t, 4> step_counts(const std::vector<TaskSpan>& spans) {
  std::array<std::int64_t, 4> out{};
  for (const TaskSpan& s : spans)
    ++out[static_cast<std::size_t>(tqr::dag::step_of(s.op))];
  return out;
}

std::map<std::string, double> la_metrics(int b) {
  namespace la = tqr::la;
  using la::Trans;
  std::map<std::string, double> out;
  std::map<Op, double> rate;
  auto record = [&](Op op, double s) { rate[op] = task_flops(op, b) / s * 1e-9; };

  const auto a = Matrix<double>::random(b, b, 1);
  const auto x = Matrix<double>::random(b, b, 2);
  Matrix<double> c(b, b), t(b, b);
  const double gemm_s = seconds_per_call([&] {
    la::gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a.view(), x.view(),
                     0.0, c.view());
  });
  const double gemm_gflops = 2.0 * b * double(b) * b / gemm_s * 1e-9;
  out["la.gemm.gflops"] = gemm_gflops;

  // Factor kernels restore their inputs each call; that copy is timed too.
  record(Op::kGeqrt, seconds_per_call([&] {
           Matrix<double> w = a;
           la::geqrt<double>(w.view(), t.view());
         }));
  Matrix<double> r1(b, b), r2(b, b);
  for (la::index_t j = 0; j < b; ++j)
    for (la::index_t i = 0; i <= j; ++i) {
      r1(i, j) = a(i, j) + (i == j ? 2.0 : 0.0);
      r2(i, j) = x(i, j) + (i == j ? 2.0 : 0.0);
    }
  record(Op::kTsqrt, seconds_per_call([&] {
           Matrix<double> r = r1, a2 = x;
           la::tsqrt<double>(r.view(), a2.view(), t.view());
         }));
  record(Op::kTtqrt, seconds_per_call([&] {
           Matrix<double> u = r1, v = r2;
           la::ttqrt<double>(u.view(), v.view(), t.view());
         }));

  // Update kernels apply reflectors factored once up front.
  const auto c1_src = Matrix<double>::random(b, b, 3);
  const auto c2_src = Matrix<double>::random(b, b, 4);
  Matrix<double> v = a, tv(b, b);
  la::geqrt<double>(v.view(), tv.view());
  record(Op::kUnmqr, seconds_per_call([&] {
           Matrix<double> c1 = c1_src;
           la::unmqr<double>(v.view(), tv.view(), c1.view(), Trans::kTrans);
         }));
  Matrix<double> rs = r1, vs = x, ts(b, b);
  la::tsqrt<double>(rs.view(), vs.view(), ts.view());
  record(Op::kTsmqr, seconds_per_call([&] {
           Matrix<double> c1 = c1_src, c2 = c2_src;
           la::tsmqr<double>(vs.view(), ts.view(), c1.view(), c2.view(),
                             Trans::kTrans);
         }));
  Matrix<double> rt = r1, vt = r2, tt(b, b);
  la::ttqrt<double>(rt.view(), vt.view(), tt.view());
  record(Op::kTtmqr, seconds_per_call([&] {
           Matrix<double> c1 = c1_src, c2 = c2_src;
           la::ttmqr<double>(vt.view(), tt.view(), c1.view(), c2.view(),
                             Trans::kTrans);
         }));

  for (const auto& [op, gflops] : rate) {
    out["la." + op_key(op) + ".gflops"] = gflops;
    out["la." + op_key(op) + ".gemm_share"] = gflops / gemm_gflops;
  }
  return out;
}

double batch_problems_per_s(Shape shape, int members) {
  std::vector<Matrix<double>> problems;
  for (int p = 0; p < members; ++p)
    problems.push_back(Matrix<double>::random(shape.rows, shape.cols,
                                              static_cast<std::uint64_t>(p) + 1));
  const double s = seconds_per_call(
      [&] { (void)tqr::core::BatchedQr<double>::factor(problems); });
  return members / s;
}

}  // namespace perfbench
