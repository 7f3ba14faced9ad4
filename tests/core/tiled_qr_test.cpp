// Functional correctness of the full tiled QR factorization: residuals
// against machine precision, equivalence with the reference Householder QR,
// TS/TT equivalence, solve paths, and schedule-independence under the
// threaded executor.
#include "core/tiled_qr.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dag/task_accesses.hpp"
#include "la/reference_qr.hpp"
#include "sim/platform.hpp"

namespace tqr::core {
namespace {

using la::index_t;
using la::Matrix;
using la::Trans;

struct Case {
  int rows, cols, b;
  dag::Elimination elim;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.rows << "x" << c.cols << "/b" << c.b
      << (c.elim == dag::Elimination::kTs ? "/TS" : "/TT");
}

class TiledQrCases : public ::testing::TestWithParam<Case> {};

TEST_P(TiledQrCases, FactorizationResidualsAtMachinePrecision) {
  const Case c = GetParam();
  auto a = Matrix<double>::random(c.rows, c.cols, 7000 + c.rows + c.b);
  typename TiledQrFactorization<double>::Options opts;
  opts.elim = c.elim;
  auto f = TiledQrFactorization<double>::factor(a, c.b, opts);

  auto q = f.form_q();
  EXPECT_LT(la::orthogonality_residual<double>(q.view()),
            la::residual_tolerance<double>(c.rows));

  auto r = f.r();
  EXPECT_LT(la::lower_triangle_residual<double>(r.view()), 1e-13);

  Matrix<double> r_full(c.rows, c.cols);
  for (index_t j = 0; j < c.cols; ++j)
    for (index_t i = 0; i <= j; ++i) r_full(i, j) = r(i, j);
  EXPECT_LT(la::reconstruction_residual<double>(a.view(), q.view(),
                                                r_full.view()),
            la::residual_tolerance<double>(c.rows));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TiledQrCases,
    ::testing::Values(Case{4, 4, 4, dag::Elimination::kTs},    // single tile
                      Case{8, 8, 4, dag::Elimination::kTs},
                      Case{8, 8, 4, dag::Elimination::kTt},
                      Case{16, 16, 4, dag::Elimination::kTs},
                      Case{16, 16, 4, dag::Elimination::kTt},
                      Case{32, 32, 8, dag::Elimination::kTs},
                      Case{32, 32, 8, dag::Elimination::kTt},
                      Case{48, 16, 8, dag::Elimination::kTs},  // tall
                      Case{48, 16, 8, dag::Elimination::kTt},
                      Case{64, 64, 16, dag::Elimination::kTt},
                      Case{40, 40, 8, dag::Elimination::kTt},
                      Case{56, 24, 8, dag::Elimination::kTt}));

TEST(TiledQr, MatchesReferenceR) {
  // R is unique up to row signs for a full-rank matrix.
  const int n = 24, b = 8;
  auto a = Matrix<double>::random(n, n, 99);
  auto f = TiledQrFactorization<double>::factor(a, b);
  auto r_tiled = f.r();
  la::ReferenceQr<double> ref(a);
  auto r_ref = ref.r();
  for (index_t i = 0; i < n; ++i) {
    const double sign =
        (r_tiled(i, i) >= 0) == (r_ref(i, i) >= 0) ? 1.0 : -1.0;
    for (index_t j = i; j < n; ++j)
      EXPECT_NEAR(r_tiled(i, j), sign * r_ref(i, j), 1e-9)
          << "at (" << i << "," << j << ")";
  }
}

TEST(TiledQr, TsAndTtProduceSameRUpToSigns) {
  const int n = 32, b = 8;
  auto a = Matrix<double>::random(n, n, 123);
  typename TiledQrFactorization<double>::Options ts, tt;
  ts.elim = dag::Elimination::kTs;
  tt.elim = dag::Elimination::kTt;
  auto rts = TiledQrFactorization<double>::factor(a, b, ts).r();
  auto rtt = TiledQrFactorization<double>::factor(a, b, tt).r();
  for (index_t i = 0; i < n; ++i) {
    const double sign = (rts(i, i) >= 0) == (rtt(i, i) >= 0) ? 1.0 : -1.0;
    for (index_t j = i; j < n; ++j)
      EXPECT_NEAR(rts(i, j), sign * rtt(i, j), 1e-9);
  }
}

TEST(TiledQr, HierEliminationMatchesTsUpToSigns) {
  // The hierarchical reduction tree reorders the eliminations but must
  // produce the same R (up to row signs) on a tall-skinny matrix.
  const int rows = 64, cols = 16, b = 8;
  auto a = Matrix<double>::random(rows, cols, 321);
  typename TiledQrFactorization<double>::Options ts, hier;
  ts.elim = dag::Elimination::kTs;
  hier.elim = dag::Elimination::kHier;
  hier.hier_groups = 2;
  auto rts = TiledQrFactorization<double>::factor(a, b, ts).r();
  auto rh = TiledQrFactorization<double>::factor(a, b, hier).r();
  for (index_t i = 0; i < cols; ++i) {
    const double sign = (rts(i, i) >= 0) == (rh(i, i) >= 0) ? 1.0 : -1.0;
    for (index_t j = i; j < cols; ++j)
      EXPECT_NEAR(rts(i, j), sign * rh(i, j), 1e-9);
  }
}

TEST(TiledQr, ApplyQThenQtRoundTrips) {
  const int n = 24, b = 8;
  auto a = Matrix<double>::random(n, n, 5);
  auto f = TiledQrFactorization<double>::factor(a, b);
  auto c0 = Matrix<double>::random(n, 3, 6);
  Matrix<double> c = c0;
  f.apply_q(c.view(), Trans::kTrans);
  f.apply_q(c.view(), Trans::kNoTrans);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < n; ++i) EXPECT_NEAR(c(i, j), c0(i, j), 1e-10);
}

TEST(TiledQr, QtAEqualsR) {
  const int n = 24, b = 8;
  auto a = Matrix<double>::random(n, n, 15);
  auto f = TiledQrFactorization<double>::factor(a, b);
  Matrix<double> qta = a;
  f.apply_q(qta.view(), Trans::kTrans);
  auto r = f.r();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i <= j; ++i) EXPECT_NEAR(qta(i, j), r(i, j), 1e-9);
    for (index_t i = j + 1; i < n; ++i) EXPECT_NEAR(qta(i, j), 0.0, 1e-9);
  }
}

TEST(TiledQr, SolveRecoversKnownSolution) {
  const int n = 32, b = 8;
  auto a = Matrix<double>::random(n, n, 20);
  for (index_t i = 0; i < n; ++i) a(i, i) += 6.0;
  auto x_true = Matrix<double>::random(n, 2, 21);
  Matrix<double> rhs(n, 2);
  la::gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a.view(),
                   x_true.view(), 0.0, rhs.view());
  auto f = TiledQrFactorization<double>::factor(a, b);
  auto x = f.solve(rhs);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(x(i, j), x_true(i, j), 1e-8);
}

TEST(TiledQr, QrSolveConvenienceMatchesReference) {
  const int n = 16, b = 4;
  auto a = Matrix<double>::random(n, n, 30);
  for (index_t i = 0; i < n; ++i) a(i, i) += 5.0;
  auto rhs = Matrix<double>::random(n, 1, 31);
  auto x_tiled = qr_solve<double>(a, rhs, b);
  la::ReferenceQr<double> ref(a);
  auto x_ref = ref.solve(rhs);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(x_tiled(i, 0), x_ref(i, 0), 1e-9);
}

TEST(TiledQr, LeastSquaresOverdetermined) {
  const int m = 48, n = 16, b = 8;
  auto a = Matrix<double>::random(m, n, 40);
  auto rhs = Matrix<double>::random(m, 1, 41);
  auto f = TiledQrFactorization<double>::factor(a, b);
  auto x = f.solve(rhs);
  // Normal equations residual: A^T (b - A x) = 0.
  Matrix<double> resid = rhs;
  la::gemm<double>(Trans::kNoTrans, Trans::kNoTrans, -1.0, a.view(), x.view(),
                   1.0, resid.view());
  Matrix<double> atr(n, 1);
  la::gemm<double>(Trans::kTrans, Trans::kNoTrans, 1.0, a.view(),
                   resid.view(), 0.0, atr.view());
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(atr(i, 0), 0.0, 1e-8);
}

TEST(TiledQr, FloatPrecisionFactorization) {
  const int n = 32, b = 8;
  auto a = Matrix<float>::random(n, n, 50);
  auto f = TiledQrFactorization<float>::factor(a, b);
  auto q = f.form_q();
  EXPECT_LT(la::orthogonality_residual<float>(q.view()),
            la::residual_tolerance<float>(n));
}

TEST(TiledQr, ParallelExecutionMatchesSequentialBitwise) {
  // The DAG enforces all orderings that matter; a work-stealing run on any
  // worker count must produce the exact same factors as sequential replay,
  // for every elimination tree.
  const int n = 48, b = 8;
  auto a = Matrix<double>::random(n, n, 60);
  for (const dag::Elimination elim :
       {dag::Elimination::kTs, dag::Elimination::kTt,
        dag::Elimination::kHier}) {
    typename TiledQrFactorization<double>::Options opts;
    opts.elim = elim;
    opts.hier_groups = 2;
    auto f_seq = TiledQrFactorization<double>::factor(a, b, opts);
    for (int workers = 2; workers <= 4; ++workers) {
      opts.workers = workers;
      auto f_par = TiledQrFactorization<double>::factor(a, b, opts);
      const auto& ts = f_seq.tiles();
      const auto& tp = f_par.tiles();
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i)
          ASSERT_EQ(ts.at(i, j), tp.at(i, j))
              << dag::elimination_name(elim) << " workers " << workers
              << ": tiles differ at " << i << "," << j;
    }
  }
}

TEST(TiledQr, UnwrittenReflectorTilesAreNeverRead) {
  // The planes are allocated unfilled. Poisoning every tg/te tile the graph
  // does not write with NaN must change nothing: R, Q applied either way
  // and the least-squares solve stay bitwise equal to a run on zeroed
  // planes, for every elimination tree, sequential and on 4 workers.
  const int b = 8, m = 5 * b, n = 3 * b;
  const Matrix<double> a = Matrix<double>::random(m, n, 62);
  const Matrix<double> c = Matrix<double>::random(m, 2, 63);
  // solve() of a factorization held in planes: R^{-1} (Q^T c)(0:n).
  auto solve = [&](const dag::TaskGraph& g, const QrPlanes<double>& p) {
    Matrix<double> qtc = c;
    apply_q_tiles<double>(g, p, qtc.view(), Trans::kTrans);
    Matrix<double> x(n, c.cols());
    la::copy<double>(qtc.block(0, 0, n, c.cols()), x.view());
    const Matrix<double> r = p.a.upper_triangle(n);
    la::trsm_left<double>(la::UpLo::kUpper, Trans::kNoTrans,
                          la::Diag::kNonUnit, r.view(), x.view());
    return x;
  };
  auto expect_same = [](const Matrix<double>& x, const Matrix<double>& y,
                        const std::string& what) {
    ASSERT_EQ(x.rows(), y.rows());
    ASSERT_EQ(x.cols(), y.cols());
    for (index_t j = 0; j < x.cols(); ++j)
      for (index_t i = 0; i < x.rows(); ++i)
        ASSERT_EQ(x(i, j), y(i, j)) << what << " differs at " << i << "," << j;
  };
  for (const dag::Elimination elim :
       {dag::Elimination::kTs, dag::Elimination::kTt,
        dag::Elimination::kHier}) {
    const dag::TaskGraph g = dag::build_tiled_qr_graph(m / b, n / b, elim, 2);
    for (const int workers : {1, 4}) {
      const std::string where = std::string(dag::elimination_name(elim)) +
                                " workers " + std::to_string(workers);
      QrPlanes<double> zeroed_planes;
      zeroed_planes.a = la::TiledMatrix<double>(m, n, b);
      zeroed_planes.tg = la::TiledMatrix<double>(
          elim == dag::Elimination::kTs ? n : m, n, b);
      zeroed_planes.te = la::TiledMatrix<double>(m, n, b);
      QrTaskRunner<double> zeroed_run(g, a.view(), std::move(zeroed_planes),
                                      0);
      zeroed_run.run_all(workers);
      const QrPlanes<double>& zeroed = zeroed_run.planes();

      QrPlanes<double> poisoned_planes(m, n, b, elim);
      for (const dag::Plane plane : {dag::Plane::kTg, dag::Plane::kTe}) {
        la::TiledMatrix<double>& t = poisoned_planes.plane(plane);
        for (index_t tj = 0; tj < t.tile_cols(); ++tj)
          for (index_t ti = 0; ti < t.tile_rows(); ++ti) {
            bool written = false;
            for (const dag::Task& task : g.tasks()) {
              dag::TileAccess acc[5];
              const int n_acc = dag::tile_accesses(task, acc);
              for (int idx = 0; idx < n_acc; ++idx)
                written |= acc[idx].write && acc[idx].plane == plane &&
                           acc[idx].i == ti && acc[idx].j == tj;
            }
            if (!written)
              t.tile(ti, tj).fill(std::numeric_limits<double>::quiet_NaN());
          }
      }
      QrTaskRunner<double> poisoned_run(g, a.view(),
                                        std::move(poisoned_planes), 0);
      poisoned_run.run_all(workers);
      const QrPlanes<double>& poisoned = poisoned_run.planes();

      expect_same(poisoned.a.upper_triangle(n), zeroed.a.upper_triangle(n),
                  where + " R");
      for (const Trans trans : {Trans::kNoTrans, Trans::kTrans}) {
        Matrix<double> qz = c, qp = c;
        apply_q_tiles<double>(g, zeroed, qz.view(), trans);
        apply_q_tiles<double>(g, poisoned, qp.view(), trans);
        expect_same(qp, qz, where + " apply_q");
      }
      const Matrix<double> x = solve(g, poisoned);
      expect_same(x, solve(g, zeroed), where + " solve");
      typename TiledQrFactorization<double>::Options opts;
      opts.elim = elim;
      opts.hier_groups = 2;
      opts.workers = workers;
      expect_same(TiledQrFactorization<double>::factor(a, b, opts).solve(c),
                  x, where + " factor().solve");
    }
  }
}

TEST(TiledQr, RSinkEqualsUpperTriangleBitwise) {
  // The R sink stores each R-block tile from its last writer inside the
  // graph. Pre-filled with NaN, so an element no store writes cannot compare
  // equal, it must match upper_triangle of the finished planes bit for bit:
  // every elimination tree, sequential and on 4 workers, padded rows and
  // columns, a single tile row, a sink of the whole padded R and one
  // clipped to the caller's columns, fp64 planes and fp32 planes widened
  // into the fp64 sink.
  const int b = 8;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto round_up = [&](index_t x) { return (x + b - 1) / b * b; };
  for (const auto& [m, n] : std::vector<std::pair<index_t, index_t>>{
           {5 * b, 3 * b}, {37, 21}, {b, b}, {7, 5}}) {
    const Matrix<double> a = Matrix<double>::random(m, n, 64);
    const index_t pr = round_up(m), pc = round_up(n);
    for (const dag::Elimination elim :
         {dag::Elimination::kTs, dag::Elimination::kTt,
          dag::Elimination::kHier}) {
      const dag::TaskGraph g =
          dag::build_tiled_qr_graph(pr / b, pc / b, elim, 2);
      for (const int workers : {1, 4}) {
        for (const index_t rn : {pc, n}) {
          const std::string where =
              std::to_string(m) + "x" + std::to_string(n) + " " +
              dag::elimination_name(elim) + " workers " +
              std::to_string(workers) + " sink " + std::to_string(rn);
          Matrix<double> r64(rn, rn), r32(rn, rn);
          r64.view().fill(nan);
          r32.view().fill(nan);
          QrTaskRunner<double> run64(g, a.view(),
                                     QrPlanes<double>(pr, pc, b, elim), 0,
                                     r64.view());
          QrTaskRunner<float, double> run32(
              g, a.view(), QrPlanes<float>(pr, pc, b, elim), 0, r32.view());
          run64.run_all(workers);
          run32.run_all(workers);
          const Matrix<double> ref64 = run64.planes().a.upper_triangle(rn);
          const Matrix<float> ref32 = run32.planes().a.upper_triangle(rn);
          for (index_t j = 0; j < rn; ++j)
            for (index_t i = 0; i < rn; ++i) {
              ASSERT_EQ(r64(i, j), ref64(i, j))
                  << where << ": fp64 R differs at " << i << "," << j;
              ASSERT_EQ(r32(i, j), static_cast<double>(ref32(i, j)))
                  << where << ": fp32 R differs at " << i << "," << j;
            }
        }
      }
    }
  }
}

TEST(TiledQr, ParallelRunRecordsTrace) {
  const int n = 32, b = 8;
  auto a = Matrix<double>::random(n, n, 61);
  runtime::Trace trace;
  typename TiledQrFactorization<double>::Options opts;
  opts.workers = 2;
  opts.trace = &trace;
  auto f = TiledQrFactorization<double>::factor(a, b, opts);
  EXPECT_EQ(trace.events().size(), f.graph().size());
}

TEST(TiledQr, WideMatrixRejected) {
  auto a = Matrix<double>::random(8, 16, 70);
  EXPECT_THROW(TiledQrFactorization<double>::factor(a, 4),
               tqr::InvalidArgument);
}

TEST(TiledQr, NonDivisibleSizeRejected) {
  auto a = Matrix<double>::random(10, 10, 71);
  EXPECT_THROW(TiledQrFactorization<double>::factor(a, 4),
               tqr::InvalidArgument);
}

TEST(TiledQr, PaddedFactorizationOfOddSize) {
  // pad_to_tiles lets callers factor non-multiple sizes: QR of the padded
  // matrix restricts to QR of the original in the leading block.
  const int m = 10, n = 10, b = 4;
  auto a = Matrix<double>::random(m, n, 72);
  auto padded = la::pad_to_tiles<double>(a.view(), b);
  auto f = TiledQrFactorization<double>::factor(padded, b);
  auto q = f.form_q();
  EXPECT_LT(la::orthogonality_residual<double>(q.view()), 1e-12);
  auto r = f.r();
  // Reconstruct the original block.
  Matrix<double> qr(padded.rows(), padded.cols());
  Matrix<double> r_full(padded.rows(), padded.cols());
  for (index_t j = 0; j < padded.cols(); ++j)
    for (index_t i = 0; i <= j && i < padded.rows(); ++i)
      r_full(i, j) = r(i, j);
  la::gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, q.view(),
                   r_full.view(), 0.0, qr.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) EXPECT_NEAR(qr(i, j), a(i, j), 1e-10);
}

TEST(HostTile, PinsTheMeasuredLadder) {
  // 128 from 1024 columns up; below that the largest of 16/32/64 that is at
  // most half the columns, and 16 when none is.
  EXPECT_EQ(host_tile(16), 16);
  EXPECT_EQ(host_tile(48), 16);
  EXPECT_EQ(host_tile(64), 32);
  EXPECT_EQ(host_tile(127), 32);
  EXPECT_EQ(host_tile(128), 64);
  EXPECT_EQ(host_tile(256), 64);
  EXPECT_EQ(host_tile(1023), 64);
  EXPECT_EQ(host_tile(1024), 128);
  EXPECT_EQ(host_tile(2048), 128);
}

}  // namespace
}  // namespace tqr::core
