// Property sweeps: the tiled QR invariants must hold across matrix classes,
// elimination strategies, tile sizes, and schedules — not just on uniform
// random inputs.
#include <gtest/gtest.h>

#include "core/simulate.hpp"
#include "core/tiled_qr.hpp"
#include "la/checks.hpp"
#include "la/generators.hpp"
#include "sim/platform.hpp"

namespace tqr::core {
namespace {

using la::index_t;
using la::Matrix;

enum class MatrixClass {
  kUniform,
  kOrthogonal,
  kIllConditioned,
  kGraded,
  kRankDeficient,
};

const char* class_name(MatrixClass c) {
  switch (c) {
    case MatrixClass::kUniform:
      return "uniform";
    case MatrixClass::kOrthogonal:
      return "orthogonal";
    case MatrixClass::kIllConditioned:
      return "ill-conditioned";
    case MatrixClass::kGraded:
      return "graded";
    case MatrixClass::kRankDeficient:
      return "rank-deficient";
  }
  return "?";
}

Matrix<double> make_matrix(MatrixClass c, index_t n, std::uint64_t seed) {
  switch (c) {
    case MatrixClass::kUniform:
      return Matrix<double>::random(n, n, seed);
    case MatrixClass::kOrthogonal:
      return la::random_orthogonal<double>(n, seed);
    case MatrixClass::kIllConditioned:
      return la::random_with_condition<double>(n, 1e10, seed);
    case MatrixClass::kGraded:
      return la::graded_rows<double>(n, n, 8.0, seed);
    case MatrixClass::kRankDeficient:
      return la::random_rank_deficient<double>(n, n, n / 2, seed);
  }
  return Matrix<double>(n, n);
}

struct Sweep {
  MatrixClass cls;
  int n;
  int b;
  dag::Elimination elim;
};

void PrintTo(const Sweep& s, std::ostream* os) {
  *os << class_name(s.cls) << "/" << s.n << "/b" << s.b << "/"
      << dag::elimination_name(s.elim);
}

class FactorizationProperties : public ::testing::TestWithParam<Sweep> {};

TEST_P(FactorizationProperties, BackwardStableFactorization) {
  const Sweep s = GetParam();
  auto a = make_matrix(s.cls, s.n, 100 + s.n * 13 + s.b);
  typename TiledQrFactorization<double>::Options opts;
  opts.elim = s.elim;
  auto f = TiledQrFactorization<double>::factor(a, s.b, opts);

  // Invariant 1: Q orthogonal to machine precision regardless of input.
  auto q = f.form_q();
  EXPECT_LT(la::orthogonality_residual<double>(q.view()),
            la::residual_tolerance<double>(s.n));

  // Invariant 2: backward error ||A - QR|| / ||A|| at machine precision
  // (vacuous only for the zero matrix, which this sweep never produces).
  auto r = f.r();
  Matrix<double> r_full(s.n, s.n);
  for (index_t j = 0; j < s.n; ++j)
    for (index_t i = 0; i <= j; ++i) r_full(i, j) = r(i, j);
  EXPECT_LT(la::reconstruction_residual<double>(a.view(), q.view(),
                                                r_full.view()),
            la::residual_tolerance<double>(s.n));

  // Invariant 3: R strictly upper triangular in storage.
  EXPECT_LT(la::lower_triangle_residual<double>(r.view()), 1e-12);
}

std::vector<Sweep> all_sweeps() {
  std::vector<Sweep> sweeps;
  for (MatrixClass cls :
       {MatrixClass::kUniform, MatrixClass::kOrthogonal,
        MatrixClass::kIllConditioned, MatrixClass::kGraded,
        MatrixClass::kRankDeficient}) {
    for (dag::Elimination elim :
         {dag::Elimination::kTs, dag::Elimination::kTt,
          dag::Elimination::kTtFlat}) {
      sweeps.push_back(Sweep{cls, 32, 8, elim});
    }
    sweeps.push_back(Sweep{cls, 48, 16, dag::Elimination::kTt});
    sweeps.push_back(Sweep{cls, 24, 4, dag::Elimination::kTt});
  }
  return sweeps;
}

INSTANTIATE_TEST_SUITE_P(MatrixClasses, FactorizationProperties,
                         ::testing::ValuesIn(all_sweeps()));

// --- simulator properties -----------------------------------------------------

class SimProperties : public ::testing::TestWithParam<int> {};

TEST_P(SimProperties, MoreSlotsNeverSlower) {
  const int nt = GetParam();
  dag::TaskGraph g = dag::build_tiled_qr_graph(nt, nt, dag::Elimination::kTt);
  std::vector<std::uint8_t> assign(g.size(), 0);
  double prev = 1e300;
  for (int slots : {1, 2, 8, 64}) {
    sim::Platform p;
    sim::DeviceSpec d = sim::make_gtx580();
    d.slots = slots;
    p.devices.push_back(d);
    const auto r = sim::simulate(g, assign, p, nt, nt, sim::SimOptions{});
    EXPECT_LE(r.makespan_s, prev + 1e-12) << "slots=" << slots;
    prev = r.makespan_s;
  }
}

TEST_P(SimProperties, FasterBusNeverSlower) {
  const int nt = GetParam();
  dag::TaskGraph g = dag::build_tiled_qr_graph(nt, nt, dag::Elimination::kTt);
  const sim::Platform base = sim::paper_platform();
  PlanConfig pc;
  pc.tile_size = 16;
  pc.count_policy = CountPolicy::kAll;
  Plan plan(base, nt, nt, pc);
  double prev = 1e300;
  for (double bw : {0.5, 2.0, 8.0, 64.0}) {
    sim::Platform p = base;
    p.comm.gbytes_per_s = bw;
    const auto r = simulate_on_graph(g, plan, p);
    EXPECT_LE(r.makespan_s, prev + 1e-12) << "bw=" << bw;
    prev = r.makespan_s;
  }
}

TEST_P(SimProperties, MakespanBoundedByWorkAndCriticalPath) {
  const int nt = GetParam();
  dag::TaskGraph g = dag::build_tiled_qr_graph(nt, nt, dag::Elimination::kTt);
  sim::Platform p;
  p.devices.push_back(sim::make_gtx680());
  p.comm = sim::CommModel{0, 1e9, true};
  std::vector<std::uint8_t> assign(g.size(), 0);
  const auto r = sim::simulate(g, assign, p, nt, nt, sim::SimOptions{});
  const auto weight = [&](const dag::Task& t) {
    return p.devices[0].kernel_time_s(t.op, 16);
  };
  double serial = 0;
  for (const auto& t : g.tasks()) serial += weight(t);
  EXPECT_GE(r.makespan_s, g.critical_path(weight) - 1e-12);
  EXPECT_LE(r.makespan_s, serial + 1e-9);
  EXPECT_NEAR(r.total_busy_s(), serial, serial * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(GridSizes, SimProperties,
                         ::testing::Values(4, 8, 12));

// --- schedule-invariance of numerics -------------------------------------------

TEST(ScheduleInvariance, AllEliminationVariantsSolveIdentically) {
  const int n = 40, b = 8;
  auto a = la::random_with_condition<double>(n, 1e4, 55);
  auto x_true = Matrix<double>::random(n, 1, 56);
  Matrix<double> rhs(n, 1);
  la::gemm<double>(la::Trans::kNoTrans, la::Trans::kNoTrans, 1.0, a.view(),
                   x_true.view(), 0.0, rhs.view());
  for (dag::Elimination elim :
       {dag::Elimination::kTs, dag::Elimination::kTt,
        dag::Elimination::kTtFlat}) {
    typename TiledQrFactorization<double>::Options opts;
    opts.elim = elim;
    auto x = TiledQrFactorization<double>::factor(a, b, opts).solve(rhs);
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(x(i, 0), x_true(i, 0), 1e-8)
          << dag::elimination_name(elim);
  }
}

TEST(ScheduleInvariance, ThreadCountDoesNotChangeFactors) {
  const int n = 48, b = 8;
  auto a = la::graded_rows<double>(n, n, 4.0, 57);
  la::Matrix<double> reference;
  for (int threads : {1, 2, 4}) {
    typename TiledQrFactorization<double>::Options opts;
    opts.workers = threads;
    auto f = TiledQrFactorization<double>::factor(a, b, opts);
    auto r = f.r();
    if (threads == 1) {
      reference = r;
      continue;
    }
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i <= j; ++i)
        EXPECT_EQ(r(i, j), reference(i, j)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace tqr::core
