// Microbenches over the functional tile kernels and the supporting layers.
//
// Two modes share this binary:
//   - default: google-benchmark suite (counters report flop rates),
//   - --json [--out PATH] [--quick]: a deterministic harness that times the
//     naive GEMM loops against the packed micro-kernel engine and every tile
//     kernel across a tile-size sweep, then emits per-kernel GFLOP/s as JSON.
//     This is the perf-baseline trajectory: scripts/run_all_benches.sh
//     refreshes BENCH_kernels.json from it, and PRs regress against the
//     committed numbers (see docs/PERF.md). The same mode also times one
//     whole 1024x1024 factorization at the host defaults (TS elimination,
//     core::host_tile) on 1, 2 and 4 workers: the e2e.factor.* lines.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "core/tiled_qr.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "la/blocked_qr.hpp"
#include "la/flops.hpp"
#include "la/kernels.hpp"
#include "la/microkernel.hpp"
#include "la/pivoted_qr.hpp"
#include "la/reference_qr.hpp"
#include "sim/des.hpp"

namespace {

using namespace tqr;
using la::Matrix;

void BM_Geqrt(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  const auto src = Matrix<double>::random(b, b, 1);
  Matrix<double> t(b, b);
  for (auto _ : state) {
    Matrix<double> a = src;
    la::geqrt<double>(a.view(), t.view());
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_geqrt(b) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Geqrt)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Tsqrt(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  Matrix<double> r1(b, b);
  const auto rnd = Matrix<double>::random(b, b, 2);
  for (la::index_t j = 0; j < b; ++j)
    for (la::index_t i = 0; i <= j; ++i)
      r1(i, j) = rnd(i, j) + (i == j ? 2.0 : 0.0);
  const auto a2_src = Matrix<double>::random(b, b, 3);
  Matrix<double> t(b, b);
  for (auto _ : state) {
    Matrix<double> r = r1, a2 = a2_src;
    la::tsqrt<double>(r.view(), a2.view(), t.view());
    benchmark::DoNotOptimize(a2.data());
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_tsqrt(b) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Tsqrt)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Tsmqr(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  Matrix<double> r1(b, b);
  for (la::index_t j = 0; j < b; ++j)
    for (la::index_t i = 0; i <= j; ++i) r1(i, j) = 1.0 + i + j;
  Matrix<double> v2 = Matrix<double>::random(b, b, 4);
  Matrix<double> t(b, b);
  la::tsqrt<double>(r1.view(), v2.view(), t.view());
  const auto c1_src = Matrix<double>::random(b, b, 5);
  const auto c2_src = Matrix<double>::random(b, b, 6);
  for (auto _ : state) {
    Matrix<double> c1 = c1_src, c2 = c2_src;
    la::tsmqr<double>(v2.view(), t.view(), c1.view(), c2.view(),
                      la::Trans::kTrans);
    benchmark::DoNotOptimize(c2.data());
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_tsmqr(b) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Tsmqr)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_Ttqrt(benchmark::State& state) {
  const int b = static_cast<int>(state.range(0));
  Matrix<double> r1(b, b), r2(b, b);
  for (la::index_t j = 0; j < b; ++j)
    for (la::index_t i = 0; i <= j; ++i) {
      r1(i, j) = 1.0 + i + j;
      r2(i, j) = 2.0 + i - j;
    }
  Matrix<double> t(b, b);
  for (auto _ : state) {
    Matrix<double> x1 = r1, x2 = r2;
    la::ttqrt<double>(x1.view(), x2.view(), t.view());
    benchmark::DoNotOptimize(x2.data());
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_ttqrt(b) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Ttqrt)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_GeqrtInnerBlocked(benchmark::State& state) {
  const int b = 64;
  const int ib = static_cast<int>(state.range(0));
  const auto src = Matrix<double>::random(b, b, 9);
  Matrix<double> t(b, b);
  for (auto _ : state) {
    Matrix<double> a = src;
    la::geqrt<double>(a.view(), t.view(), ib);
    benchmark::DoNotOptimize(a.data());
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_geqrt(b) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GeqrtInnerBlocked)->Arg(0)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_BlockedQr(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = Matrix<double>::random(n, n, 10);
  for (auto _ : state) {
    la::BlockedQr<double> qr(a, 32);
    benchmark::DoNotOptimize(&qr);
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_qr(n, n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BlockedQr)->Arg(64)->Arg(128)->Arg(256);

void BM_PivotedQr(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = Matrix<double>::random(n, n, 11);
  for (auto _ : state) {
    la::PivotedQr<double> qr(a);
    benchmark::DoNotOptimize(&qr);
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_qr(n, n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PivotedQr)->Arg(64)->Arg(128);

void BM_TiledQrFactorization(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int b = 16;
  const auto a = Matrix<double>::random(n, n, 7);
  for (auto _ : state) {
    auto f = core::TiledQrFactorization<double>::factor(a, b);
    benchmark::DoNotOptimize(&f);
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_qr(n, n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TiledQrFactorization)->Arg(64)->Arg(128)->Arg(256);

void BM_ReferenceQr(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto a = Matrix<double>::random(n, n, 8);
  for (auto _ : state) {
    la::ReferenceQr<double> qr(a);
    benchmark::DoNotOptimize(&qr);
  }
  state.counters["flops"] = benchmark::Counter(
      la::flops_qr(n, n) * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReferenceQr)->Arg(64)->Arg(128)->Arg(256);

void BM_GraphConstruction(benchmark::State& state) {
  const int nt = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto g = dag::build_tiled_qr_graph(nt, nt, dag::Elimination::kTt);
    benchmark::DoNotOptimize(&g);
    state.counters["tasks"] = static_cast<double>(g.size());
  }
}
BENCHMARK(BM_GraphConstruction)->Arg(16)->Arg(32)->Arg(64);

void BM_SimulationThroughput(benchmark::State& state) {
  const int nt = static_cast<int>(state.range(0));
  const auto g = dag::build_tiled_qr_graph(nt, nt, dag::Elimination::kTt);
  const sim::Platform p = sim::paper_platform();
  std::vector<std::uint8_t> assign(g.size());
  for (std::size_t t = 0; t < g.size(); ++t)
    assign[t] = static_cast<std::uint8_t>(1 + (g.task(t).j >= 0
                                                   ? g.task(t).j % 3
                                                   : 0));
  for (auto _ : state) {
    auto r = sim::simulate(g, assign, p, nt, nt, sim::SimOptions{});
    benchmark::DoNotOptimize(&r);
  }
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(g.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulationThroughput)->Arg(16)->Arg(32)->Arg(64);

// ---------------------------------------------------------------------------
// --json mode: deterministic GFLOP/s harness.
// ---------------------------------------------------------------------------

/// Runs f repeatedly until at least min_seconds of wall clock is covered,
/// then repeats the measurement several times and returns the best (smallest)
/// seconds per call. Best-of-N filters scheduler noise on shared/virtualized
/// CPUs, which otherwise dominates the committed baseline numbers.
template <typename F>
double seconds_per_call(F&& f, double min_seconds) {
  f();  // warmup: faults, caches, pack-buffer growth
  int iters = 1;
  double s;
  for (;;) {
    Timer t;
    for (int i = 0; i < iters; ++i) f();
    s = t.seconds();
    if (s >= min_seconds) break;
    const double grow = s > 1e-9 ? (min_seconds * 1.3) / s : 4.0;
    iters = std::max(iters + 1, static_cast<int>(iters * grow));
  }
  double best = s / iters;
  for (int rep = 0; rep < 4; ++rep) {
    Timer t;
    for (int i = 0; i < iters; ++i) f();
    best = std::min(best, t.seconds() / iters);
  }
  return best;
}

struct JsonResult {
  std::string kernel;
  int tile;
  double gflops;
  double sec_per_call;
};

void bench_gemm_pair(int b, double min_s, std::vector<JsonResult>& out) {
  const auto a = Matrix<double>::random(b, b, 41);
  const auto x = Matrix<double>::random(b, b, 42);
  Matrix<double> c(b, b);
  const double flops = 2.0 * b * double(b) * b;

  const double naive = seconds_per_call(
      [&] {
        la::gemm_naive<double>(la::Trans::kNoTrans, la::Trans::kNoTrans, 1.0,
                               a.view(), x.view(), 0.0, c.view());
      },
      min_s);
  out.push_back({"gemm_naive", b, flops / naive * 1e-9, naive});

  const double packed = seconds_per_call(
      [&] {
        la::mk::gemm_packed<double>(la::Trans::kNoTrans, la::Trans::kNoTrans,
                                    1.0, a.view(), x.view(), 0.0, c.view());
      },
      min_s);
  out.push_back({"gemm_packed", b, flops / packed * 1e-9, packed});
}

void bench_tile_kernels(int b, double min_s, int ib,
                        std::vector<JsonResult>& out) {
  // geqrt (copy cost included in both modes, as in the gbench suite).
  {
    const auto src = Matrix<double>::random(b, b, 1);
    Matrix<double> t(b, b);
    const double s = seconds_per_call(
        [&] {
          Matrix<double> w = src;
          la::geqrt<double>(w.view(), t.view(), ib);
        },
        min_s);
    out.push_back({"geqrt", b, la::flops_geqrt(b) / s * 1e-9, s});
  }
  // unmqr: apply a factored tile's Q^T to a dense tile.
  {
    Matrix<double> v = Matrix<double>::random(b, b, 2);
    Matrix<double> t(b, b);
    la::geqrt<double>(v.view(), t.view(), ib);
    const auto c_src = Matrix<double>::random(b, b, 3);
    const double s = seconds_per_call(
        [&] {
          Matrix<double> c = c_src;
          la::unmqr<double>(v.view(), t.view(), c.view(), la::Trans::kTrans);
        },
        min_s);
    out.push_back({"unmqr", b, la::flops_unmqr(b) / s * 1e-9, s});
  }
  // tsqrt / tsmqr.
  {
    Matrix<double> r1(b, b);
    const auto rnd = Matrix<double>::random(b, b, 4);
    for (la::index_t j = 0; j < b; ++j)
      for (la::index_t i = 0; i <= j; ++i)
        r1(i, j) = rnd(i, j) + (i == j ? 2.0 : 0.0);
    const auto a2_src = Matrix<double>::random(b, b, 5);
    Matrix<double> t(b, b);
    const double s = seconds_per_call(
        [&] {
          Matrix<double> r = r1, a2 = a2_src;
          la::tsqrt<double>(r.view(), a2.view(), t.view(), ib);
        },
        min_s);
    out.push_back({"tsqrt", b, la::flops_tsqrt(b) / s * 1e-9, s});

    Matrix<double> r = r1, v2 = a2_src;
    la::tsqrt<double>(r.view(), v2.view(), t.view(), ib);
    const auto c1_src = Matrix<double>::random(b, b, 6);
    const auto c2_src = Matrix<double>::random(b, b, 7);
    const double s2 = seconds_per_call(
        [&] {
          Matrix<double> c1 = c1_src, c2 = c2_src;
          la::tsmqr<double>(v2.view(), t.view(), c1.view(), c2.view(),
                            la::Trans::kTrans);
        },
        min_s);
    out.push_back({"tsmqr", b, la::flops_tsmqr(b) / s2 * 1e-9, s2});
  }
  // ttqrt / ttmqr.
  {
    Matrix<double> r1(b, b), r2(b, b);
    for (la::index_t j = 0; j < b; ++j)
      for (la::index_t i = 0; i <= j; ++i) {
        r1(i, j) = 1.0 + i + j;
        r2(i, j) = 2.0 + i - j;
      }
    Matrix<double> t(b, b);
    const double s = seconds_per_call(
        [&] {
          Matrix<double> x1 = r1, x2 = r2;
          la::ttqrt<double>(x1.view(), x2.view(), t.view(), ib);
        },
        min_s);
    out.push_back({"ttqrt", b, la::flops_ttqrt(b) / s * 1e-9, s});

    Matrix<double> x1 = r1, v2 = r2;
    la::ttqrt<double>(x1.view(), v2.view(), t.view(), ib);
    const auto c1_src = Matrix<double>::random(b, b, 8);
    const auto c2_src = Matrix<double>::random(b, b, 9);
    const double s2 = seconds_per_call(
        [&] {
          Matrix<double> c1 = c1_src, c2 = c2_src;
          la::ttmqr<double>(v2.view(), t.view(), c1.view(), c2.view(),
                            la::Trans::kTrans);
        },
        min_s);
    out.push_back({"ttmqr", b, la::flops_ttmqr(b) / s2 * 1e-9, s2});
  }
}

/// GFLOP/s of one n x n TiledQrFactorization<double>::factor call at the
/// host defaults (TS, core::host_tile(n)), per worker count. Each call
/// builds its graph and spawns its executor, as `tqr factor` does.
std::vector<std::pair<int, double>> bench_e2e_factor(la::index_t n,
                                                     double min_s, int ib) {
  const auto a = Matrix<double>::random(n, n, 43);
  const int b = core::host_tile(n);
  std::vector<std::pair<int, double>> out;
  for (const int workers : {1, 2, 4}) {
    core::TiledQrFactorization<double>::Options opts;
    opts.inner_block = ib;
    opts.workers = workers;
    const double s = seconds_per_call(
        [&] {
          benchmark::DoNotOptimize(
              core::TiledQrFactorization<double>::factor(a, b, opts));
        },
        min_s);
    out.emplace_back(workers, la::flops_qr(n, n) / s * 1e-9);
  }
  return out;
}

int run_json_mode(bool quick, const std::string& out_path, int ib) {
  const double min_s = quick ? 0.02 : 0.15;
  const std::vector<int> tiles =
      quick ? std::vector<int>{64, 128} : std::vector<int>{64, 128, 192, 256};
  std::vector<JsonResult> results;
  for (int b : tiles) bench_gemm_pair(b, min_s, results);
  for (int b : tiles) bench_tile_kernels(b, min_s, ib, results);
  constexpr la::index_t kE2eN = 1024;
  const auto e2e = bench_e2e_factor(kE2eN, min_s, ib);

  double naive256 = 0, packed256 = 0;
  for (const auto& r : results) {
    if (r.tile != tiles.back()) continue;
    if (r.kernel == "gemm_naive") naive256 = r.gflops;
    if (r.kernel == "gemm_packed") packed256 = r.gflops;
  }

  std::string json;
  char buf[256];
  json += "{\n";
  std::snprintf(buf, sizeof buf,
                "  \"bench\": \"kernels\",\n  \"isa\": \"%s\",\n"
                "  \"vectorized\": %s,\n  \"quick\": %s,\n  \"ib\": %d,\n",
                la::mk::isa_name(), la::mk::vectorized() ? "true" : "false",
                quick ? "true" : "false", ib);
  json += buf;
  std::snprintf(buf, sizeof buf,
                "  \"gemm_speedup_at_%d\": %.3f,\n", tiles.back(),
                naive256 > 0 ? packed256 / naive256 : 0.0);
  json += buf;
  // bench_diff keys these e2e.factor.n1024.w<workers>.gflops.
  std::snprintf(buf, sizeof buf, "  \"e2e\": {\"factor\": {\"n%d\": {",
                kE2eN);
  json += buf;
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"w%d\": {\"gflops\": %.3f}",
                  i ? ", " : "", e2e[i].first, e2e[i].second);
    json += buf;
  }
  json += "}}},\n";
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"kernel\": \"%s\", \"tile\": %d, \"gflops\": %.3f, "
                  "\"sec_per_call\": %.6e}%s\n",
                  r.kernel.c_str(), r.tile, r.gflops, r.sec_per_call,
                  i + 1 < results.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "(json written to %s)\n", out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false, quick = false;
  int ib = 0;
  std::string out_path;
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--ib") == 0 && i + 1 < argc) {
      // Inner block (recursion leaf width) for the factor kernels; 0 keeps
      // the library default. Reject junk instead of silently benching with
      // atoi garbage.
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 0 || v > 4096) {
        std::fprintf(stderr, "invalid --ib '%s' (expect integer in [0, 4096])\n",
                     argv[i]);
        return 1;
      }
      ib = static_cast<int>(v);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (json) return run_json_mode(quick, out_path, ib);

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
