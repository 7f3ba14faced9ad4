// Chunk-interleaved batched QR: layout round-trips, parity with the scalar
// unblocked kernel per problem, pad-lane behavior, and the batched
// apply/solve kernels. Sizes deliberately include non-multiples of the SIMD
// width and batch counts that leave partial final chunks.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/batched_qr.hpp"
#include "la/batch_qr.hpp"
#include "la/checks.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"

namespace tqr::la {
namespace {

template <typename T>
std::vector<Matrix<T>> random_batch(index_t m, index_t n, int count,
                                    std::uint64_t seed, double scale = 1) {
  std::vector<Matrix<T>> out;
  for (int p = 0; p < count; ++p) {
    out.push_back(Matrix<T>::random(m, n, seed + static_cast<std::uint64_t>(p)));
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i)
        out.back()(i, j) = static_cast<T>(out.back()(i, j) * scale);
  }
  return out;
}

/// Divides the R part (upper triangle) of in-place V/R storage by `scale`,
/// so factors of a scaled input compare at unit magnitude. V is scale
/// invariant and stays as is.
template <typename T>
Matrix<T> unscale_r(Matrix<T> vr, double scale) {
  for (index_t j = 0; j < vr.cols(); ++j)
    for (index_t i = 0; i <= j && i < vr.rows(); ++i)
      vr(i, j) = static_cast<T>(vr(i, j) / scale);
  return vr;
}

/// Factors one problem with the scalar reference path (geqrt_unblocked's
/// Householder sweep) and returns the in-place V/R storage plus tau.
template <typename T>
std::pair<Matrix<T>, Matrix<T>> reference_factor(const Matrix<T>& a) {
  Matrix<T> vr = a;
  Matrix<T> t(a.cols(), a.cols());
  geqrt_unblocked<T>(vr.view(), t.view());
  Matrix<T> tau(a.cols(), 1);
  for (index_t k = 0; k < a.cols(); ++k) tau(k, 0) = t(k, k);
  return {std::move(vr), std::move(tau)};
}

TEST(BatchMatrix, LoadExtractRoundTripsEveryLane) {
  constexpr index_t kW = BatchMatrix<double>::kWidth;
  const int count = static_cast<int>(kW) + 3;  // forces a padded final chunk
  BatchMatrix<double> b(5, 3, count);
  EXPECT_EQ(b.chunks(), 2);
  const auto problems = random_batch<double>(5, 3, count, 7);
  for (int p = 0; p < count; ++p)
    b.load(static_cast<index_t>(p), problems[static_cast<std::size_t>(p)]
                                        .view());
  for (int p = 0; p < count; ++p) {
    Matrix<double> back(5, 3);
    b.extract(static_cast<index_t>(p), back.view());
    EXPECT_EQ(relative_error<double>(back.view(),
                                     problems[static_cast<std::size_t>(p)]
                                         .view()),
              0.0);
  }
  // Interleaved addressing: consecutive problems of one chunk are adjacent.
  EXPECT_EQ(&b.at(0, 0, 1) - &b.at(0, 0, 0), 1);
  EXPECT_EQ(&b.at(1, 0, 0) - &b.at(0, 0, 0), static_cast<std::ptrdiff_t>(kW));
}

struct ParityCase {
  int m, n, count;
  double scale = 1;  // every entry is multiplied by this
};

void PrintTo(const ParityCase& c, std::ostream* os) {
  *os << c.m << "x" << c.n << "/b" << c.count;
  if (c.scale != 1) *os << "/s" << c.scale;
}

class BatchedParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(BatchedParity, MatchesScalarKernelPerProblem) {
  const auto c = GetParam();
  const auto problems =
      random_batch<double>(c.m, c.n, c.count,
                           100 + static_cast<std::uint64_t>(c.m), c.scale);
  const auto f = core::BatchedQr<double>::factor(problems);
  const double tol = verify_tolerance<double>(c.m + c.n);
  for (int p = 0; p < c.count; ++p) {
    const auto [vr, tau] = reference_factor(problems[
        static_cast<std::size_t>(p)]);
    Matrix<double> got(c.m, c.n);
    f.factors().extract(static_cast<index_t>(p), got.view());
    // The two recipes agree to rounding, not bitwise (sqrt vs hypot norms).
    EXPECT_LT(relative_error<double>(unscale_r(got, c.scale).view(),
                                     unscale_r(vr, c.scale).view()),
              tol)
        << "problem " << p;
    Matrix<double> got_tau(c.n, 1);
    f.tau().extract(static_cast<index_t>(p), got_tau.view());
    EXPECT_LT(relative_error<double>(got_tau.view(), tau.view()),
              tol)
        << "problem " << p;
    // Independent ground truth: reconstruction residual per problem.
    EXPECT_LT(f.residual(static_cast<index_t>(p),
                         problems[static_cast<std::size_t>(p)]),
              tol)
        << "problem " << p;
    // ... which must flag a wrong factor at every scale, never reading 0.
    Matrix<double> wrong = problems[static_cast<std::size_t>(p)];
    wrong(c.m - 1, 0) += c.scale;
    EXPECT_GT(f.residual(static_cast<index_t>(p), wrong), tol)
        << "problem " << p;
  }
}

// Sizes straddle the SIMD width (4/5/7/8/12/16/33/64), tall shapes included;
// batch counts of 1, 3, and 64 cover a lone lane, a partial chunk, and many
// full chunks. The scaled cases put the sum of squares past the overflow
// (1e155) and underflow (1e-155, 1e-160, 1e-300) thresholds of double.
INSTANTIATE_TEST_SUITE_P(
    Sweep, BatchedParity,
    ::testing::Values(ParityCase{4, 4, 3}, ParityCase{5, 5, 3},
                      ParityCase{7, 7, 1}, ParityCase{8, 8, 64},
                      ParityCase{12, 8, 3}, ParityCase{16, 16, 3},
                      ParityCase{33, 33, 3}, ParityCase{64, 64, 3},
                      ParityCase{48, 12, 64}, ParityCase{16, 16, 3, 1e155},
                      ParityCase{16, 16, 3, 1e-155},
                      ParityCase{16, 16, 3, 1e-160},
                      ParityCase{16, 16, 3, 1e-300},
                      ParityCase{48, 12, 11, 1e155}));

TEST(BatchedQr, Fp32ParityWithinFloatTolerance) {
  // 1e20 and 1e-20, 1e-22 push the float sum of squares past its overflow
  // and underflow thresholds.
  for (const double scale : {1.0, 1e20, 1e-20, 1e-22}) {
    SCOPED_TRACE(scale);
    const auto problems = random_batch<float>(16, 16, 11, 500, scale);
    const auto f = core::BatchedQr<float>::factor(problems);
    const double tol = verify_tolerance<float>(32);
    for (int p = 0; p < 11; ++p) {
      const auto [vr, tau] = reference_factor(problems[
          static_cast<std::size_t>(p)]);
      Matrix<float> got(16, 16);
      f.factors().extract(static_cast<index_t>(p), got.view());
      EXPECT_LT(relative_error<float>(unscale_r(got, scale).view(),
                                      unscale_r(vr, scale).view()),
                tol)
          << "problem " << p;
      EXPECT_LT(f.residual(static_cast<index_t>(p),
                           problems[static_cast<std::size_t>(p)]),
                tol)
          << "problem " << p;
    }
  }
}

TEST(BatchedQr, PadLanesStayIdentityAndRIsUpperTriangular) {
  constexpr index_t kW = BatchMatrix<double>::kWidth;
  const int count = static_cast<int>(kW) - 1;  // one pad lane in the chunk
  const auto problems = random_batch<double>(8, 8, count, 900);
  const auto f = core::BatchedQr<double>::factor(problems);
  // Pad lane (index `count` inside the storage) must be all-zero with
  // tau = 0 — the factorization treats it as an identity problem.
  for (index_t k = 0; k < 8; ++k) {
    EXPECT_EQ(f.tau().at(k, 0, count), 0.0);
    for (index_t i = 0; i < 8; ++i) EXPECT_EQ(f.factors().at(i, k, count), 0.0);
  }
  for (int p = 0; p < count; ++p) {
    const auto r = f.r(static_cast<index_t>(p));
    for (index_t j = 0; j < 8; ++j)
      for (index_t i = j + 1; i < 8; ++i) EXPECT_EQ(r(i, j), 0.0);
  }
}

TEST(BatchedQr, SolveMatchesPerProblemLeastSquares) {
  const int count = 9;
  const auto problems = random_batch<double>(12, 7, count, 1300);
  const auto rhs = random_batch<double>(12, 2, count, 1400);
  const auto f = core::BatchedQr<double>::factor(problems);
  const auto xs = f.solve(rhs);
  ASSERT_EQ(xs.size(), static_cast<std::size_t>(count));
  const double tol = verify_tolerance<double>(12 + 7);
  for (int p = 0; p < count; ++p) {
    const auto& a = problems[static_cast<std::size_t>(p)];
    const auto& x = xs[static_cast<std::size_t>(p)];
    ASSERT_EQ(x.rows(), 7);
    ASSERT_EQ(x.cols(), 2);
    // Least-squares optimality: the residual b - A x is orthogonal to
    // range(A), i.e. A^T (b - A x) ~ 0 relative to ||A^T b||.
    for (index_t col = 0; col < 2; ++col) {
      double gnorm2 = 0, rnorm2 = 0;
      for (index_t j = 0; j < 7; ++j) {
        double atb = 0, atr = 0;
        for (index_t i = 0; i < 12; ++i) {
          double ri = rhs[static_cast<std::size_t>(p)](i, col);
          for (index_t l = 0; l < 7; ++l) ri -= a(i, l) * x(l, col);
          atr += a(i, j) * ri;
          atb += a(i, j) * rhs[static_cast<std::size_t>(p)](i, col);
        }
        gnorm2 += atb * atb;
        rnorm2 += atr * atr;
      }
      EXPECT_LT(std::sqrt(rnorm2), tol * std::sqrt(gnorm2) + tol)
          << "problem " << p << " rhs col " << col;
    }
  }
}

TEST(BatchedQr, ShapeViolationsThrow) {
  EXPECT_THROW(core::BatchedQr<double>::factor({}), InvalidArgument);
  std::vector<Matrix<double>> wide;
  wide.push_back(Matrix<double>::random(4, 6, 1));
  EXPECT_THROW(core::BatchedQr<double>::factor(wide), InvalidArgument);
  std::vector<Matrix<double>> mixed;
  mixed.push_back(Matrix<double>::random(8, 8, 1));
  mixed.push_back(Matrix<double>::random(8, 4, 2));
  EXPECT_THROW(core::BatchedQr<double>::factor(mixed), InvalidArgument);
}

}  // namespace
}  // namespace tqr::la
