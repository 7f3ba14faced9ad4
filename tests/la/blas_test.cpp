#include "la/blas.hpp"

#include <gtest/gtest.h>

#include "la/matrix.hpp"

namespace tqr::la {
namespace {

Matrix<double> naive_mm(const Matrix<double>& a, const Matrix<double>& b,
                        bool ta, bool tb) {
  const index_t m = ta ? a.cols() : a.rows();
  const index_t k = ta ? a.rows() : a.cols();
  const index_t n = tb ? b.rows() : b.cols();
  Matrix<double> c(m, n);
  for (index_t i = 0; i < m; ++i)
    for (index_t j = 0; j < n; ++j) {
      double acc = 0;
      for (index_t p = 0; p < k; ++p) {
        const double av = ta ? a(p, i) : a(i, p);
        const double bv = tb ? b(j, p) : b(p, j);
        acc += av * bv;
      }
      c(i, j) = acc;
    }
  return c;
}

class GemmVariants : public ::testing::TestWithParam<std::pair<Trans, Trans>> {
};

TEST_P(GemmVariants, MatchesNaiveReference) {
  const auto [ta, tb] = GetParam();
  const index_t m = 7, k = 5, n = 6;
  auto a = (ta == Trans::kNoTrans) ? Matrix<double>::random(m, k, 1)
                                   : Matrix<double>::random(k, m, 1);
  auto b = (tb == Trans::kNoTrans) ? Matrix<double>::random(k, n, 2)
                                   : Matrix<double>::random(n, k, 2);
  Matrix<double> c(m, n);
  gemm<double>(ta, tb, 1.0, a.view(), b.view(), 0.0, c.view());
  auto ref = naive_mm(a, b, ta == Trans::kTrans, tb == Trans::kTrans);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) EXPECT_NEAR(c(i, j), ref(i, j), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransCombos, GemmVariants,
    ::testing::Values(std::pair{Trans::kNoTrans, Trans::kNoTrans},
                      std::pair{Trans::kTrans, Trans::kNoTrans},
                      std::pair{Trans::kNoTrans, Trans::kTrans},
                      std::pair{Trans::kTrans, Trans::kTrans}));

TEST(Gemm, AlphaBetaScaling) {
  auto a = Matrix<double>::random(4, 4, 3);
  auto b = Matrix<double>::random(4, 4, 4);
  Matrix<double> c(4, 4);
  c.view().fill(1.0);
  gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 2.0, a.view(), b.view(), 3.0,
               c.view());
  auto ref = naive_mm(a, b, false, false);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 4; ++i)
      EXPECT_NEAR(c(i, j), 2.0 * ref(i, j) + 3.0, 1e-12);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  auto a = Matrix<double>::random(3, 3, 5);
  auto b = Matrix<double>::random(3, 3, 6);
  Matrix<double> c(3, 3);
  c.view().fill(std::numeric_limits<double>::quiet_NaN());
  gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a.view(), b.view(), 0.0,
               c.view());
  auto ref = naive_mm(a, b, false, false);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_NEAR(c(i, j), ref(i, j), 1e-12);
}

TEST(Gemm, InnerDimensionMismatchThrows) {
  Matrix<double> a(3, 4), b(5, 2), c(3, 2);
  EXPECT_THROW(gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a.view(),
                            b.view(), 0.0, c.view()),
               InvalidArgument);
}

// trmm against explicit triangular multiply.
class TrmmVariants
    : public ::testing::TestWithParam<std::tuple<UpLo, Trans, Diag>> {};

TEST_P(TrmmVariants, MatchesExplicitTriangularProduct) {
  const auto [uplo, trans, diag] = GetParam();
  const index_t m = 6, n = 4;
  auto a_full = Matrix<double>::random(m, m, 11);
  // Build the explicit triangular operator.
  Matrix<double> tri(m, m);
  for (index_t j = 0; j < m; ++j)
    for (index_t i = 0; i < m; ++i) {
      const bool keep = (uplo == UpLo::kUpper) ? (i <= j) : (i >= j);
      tri(i, j) = keep ? a_full(i, j) : 0.0;
      if (i == j && diag == Diag::kUnit) tri(i, j) = 1.0;
    }
  auto b = Matrix<double>::random(m, n, 12);
  Matrix<double> expect(m, n);
  gemm<double>(trans, Trans::kNoTrans, 1.0, tri.view(), b.view(), 0.0,
               expect.view());

  Matrix<double> got = b;
  trmm_left<double>(uplo, trans, diag, a_full.view(), got.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      EXPECT_NEAR(got(i, j), expect(i, j), 1e-12)
          << "at (" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TrmmVariants,
    ::testing::Combine(::testing::Values(UpLo::kUpper, UpLo::kLower),
                       ::testing::Values(Trans::kNoTrans, Trans::kTrans),
                       ::testing::Values(Diag::kUnit, Diag::kNonUnit)));

class TrsmVariants
    : public ::testing::TestWithParam<std::tuple<UpLo, Trans, Diag>> {};

TEST_P(TrsmVariants, SolveThenMultiplyRoundTrips) {
  const auto [uplo, trans, diag] = TrsmVariants::GetParam();
  const index_t m = 6, n = 3;
  auto a = Matrix<double>::random(m, m, 21);
  for (index_t i = 0; i < m; ++i) a(i, i) += 4.0;  // well-conditioned
  auto b = Matrix<double>::random(m, n, 22);
  Matrix<double> x = b;
  trsm_left<double>(uplo, trans, diag, a.view(), x.view());
  // Multiply back: op(tri(A)) * x should equal b.
  Matrix<double> back = x;
  trmm_left<double>(uplo, trans, diag, a.view(), back.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) EXPECT_NEAR(back(i, j), b(i, j), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TrsmVariants,
    ::testing::Combine(::testing::Values(UpLo::kUpper, UpLo::kLower),
                       ::testing::Values(Trans::kNoTrans, Trans::kTrans),
                       ::testing::Values(Diag::kUnit, Diag::kNonUnit)));

TEST(VectorOps, DotAndAxpy) {
  Matrix<double> x(4, 1), y(4, 1);
  for (index_t i = 0; i < 4; ++i) {
    x(i, 0) = i + 1;  // 1 2 3 4
    y(i, 0) = 1.0;
  }
  EXPECT_DOUBLE_EQ(dot<double>(x.view(), y.view()), 10.0);
  axpy<double>(2.0, x.view(), y.view());
  EXPECT_DOUBLE_EQ(y(3, 0), 9.0);
}

TEST(VectorOps, Nrm2MatchesHypot) {
  Matrix<double> x(3, 1);
  x(0, 0) = 3;
  x(1, 0) = 4;
  x(2, 0) = 12;
  EXPECT_NEAR(nrm2<double>(x.view()), 13.0, 1e-12);
}

TEST(VectorOps, Nrm2AvoidsOverflow) {
  Matrix<double> x(2, 1);
  x(0, 0) = 1e200;
  x(1, 0) = 1e200;
  EXPECT_NEAR(nrm2<double>(x.view()), std::sqrt(2.0) * 1e200, 1e188);
}

TEST(Norms, FrobeniusOfIdentity) {
  auto id = Matrix<double>::identity(9);
  EXPECT_NEAR(norm_frobenius<double>(id.view()), 3.0, 1e-12);
}

TEST(Norms, MaxAbs) {
  Matrix<double> m(2, 2);
  m(0, 0) = -5;
  m(1, 1) = 3;
  EXPECT_DOUBLE_EQ(norm_max<double>(m.view()), 5.0);
}

}  // namespace
}  // namespace tqr::la

namespace tqr::la {
namespace {

class TrsmRightVariants
    : public ::testing::TestWithParam<std::tuple<UpLo, Trans, Diag>> {};

TEST_P(TrsmRightVariants, SolveThenMultiplyRoundTrips) {
  const auto [uplo, trans, diag] = GetParam();
  const index_t m = 5, n = 6;
  auto a = Matrix<double>::random(n, n, 31);
  for (index_t i = 0; i < n; ++i) a(i, i) += 4.0;
  auto b = Matrix<double>::random(m, n, 32);
  Matrix<double> x = b;
  trsm_right<double>(uplo, trans, diag, a.view(), x.view());
  // Multiply back: X * op(tri(A)) must equal B. Build op(tri(A)) densely.
  Matrix<double> tri(n, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const bool keep = (uplo == UpLo::kUpper) ? (i <= j) : (i >= j);
      tri(i, j) = keep ? a(i, j) : 0.0;
      if (i == j && diag == Diag::kUnit) tri(i, j) = 1.0;
    }
  Matrix<double> back(m, n);
  gemm<double>(Trans::kNoTrans, trans, 1.0, x.view(), tri.view(), 0.0,
               back.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) EXPECT_NEAR(back(i, j), b(i, j), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TrsmRightVariants,
    ::testing::Combine(::testing::Values(UpLo::kUpper, UpLo::kLower),
                       ::testing::Values(Trans::kNoTrans, Trans::kTrans),
                       ::testing::Values(Diag::kUnit, Diag::kNonUnit)));

TEST(SyrkLower, MatchesGemmOnLowerTriangle) {
  const index_t n = 6, k = 4;
  auto a = Matrix<double>::random(n, k, 33);
  Matrix<double> c(n, n);
  c.view().fill(2.0);
  Matrix<double> expect = c;
  syrk_lower<double>(Trans::kNoTrans, 1.5, a.view(), 0.5, c.view());
  Matrix<double> aat(n, n);
  gemm<double>(Trans::kNoTrans, Trans::kTrans, 1.0, a.view(), a.view(), 0.0,
               aat.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      if (i >= j)
        EXPECT_NEAR(c(i, j), 1.5 * aat(i, j) + 0.5 * 2.0, 1e-12);
      else
        EXPECT_EQ(c(i, j), 2.0);  // strictly-upper untouched
    }
}

TEST(SyrkLower, TransposedInput) {
  const index_t n = 5, k = 7;
  auto a = Matrix<double>::random(k, n, 34);
  Matrix<double> c(n, n);
  syrk_lower<double>(Trans::kTrans, 1.0, a.view(), 0.0, c.view());
  Matrix<double> ata(n, n);
  gemm<double>(Trans::kTrans, Trans::kNoTrans, 1.0, a.view(), a.view(), 0.0,
               ata.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) EXPECT_NEAR(c(i, j), ata(i, j), 1e-12);
}

TEST(SyrkLower, ShapeMismatchRejected) {
  Matrix<double> a(4, 3), c(5, 5);
  EXPECT_THROW(
      syrk_lower<double>(Trans::kNoTrans, 1.0, a.view(), 0.0, c.view()),
      InvalidArgument);
}

// ---------------------------------------------------------------------------
// Degenerate / edge cases for the dispatching routines, pinned against plain
// reference triple loops: k = 0, alpha = 0, beta in {0, 1, other}, 1x1, and
// sub-views with non-unit leading dimension. These are the shapes where a
// fast path (packed gemm, blocked trmm) could silently diverge from the
// loop-based semantics.
// ---------------------------------------------------------------------------

struct DegenerateCase {
  index_t m, n, k;
  double alpha, beta;
};

class GemmDegenerate : public ::testing::TestWithParam<DegenerateCase> {};

TEST_P(GemmDegenerate, MatchesScaledReference) {
  const auto p = GetParam();
  auto a = Matrix<double>::random(p.m, p.k, 41);
  auto b = Matrix<double>::random(p.k, p.n, 42);
  const auto c0 = Matrix<double>::random(p.m, p.n, 43);
  Matrix<double> c = c0;
  gemm<double>(Trans::kNoTrans, Trans::kNoTrans, p.alpha, a.view(), b.view(),
               p.beta, c.view());
  for (index_t j = 0; j < p.n; ++j)
    for (index_t i = 0; i < p.m; ++i) {
      double acc = 0;
      for (index_t q = 0; q < p.k; ++q) acc += a(i, q) * b(q, j);
      const double want = p.alpha * acc + p.beta * c0(i, j);
      EXPECT_NEAR(c(i, j), want, 1e-11) << i << "," << j;
    }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeShapes, GemmDegenerate,
    ::testing::Values(DegenerateCase{3, 4, 0, 1.0, 0.5},   // k = 0
                      DegenerateCase{5, 2, 0, 1.0, 0.0},   // k = 0, beta = 0
                      DegenerateCase{4, 4, 4, 0.0, 2.0},   // alpha = 0
                      DegenerateCase{1, 1, 1, 2.0, 3.0},   // 1x1
                      DegenerateCase{1, 7, 5, -1.0, 1.0},  // single row
                      DegenerateCase{7, 1, 5, 1.0, 0.0},   // single column
                      DegenerateCase{33, 29, 31, 1.5, 1.0}));  // packed path

TEST(GemmDegenerate, SubviewsWithNonUnitLd) {
  // All operands are interior blocks of larger matrices; the halo of C must
  // survive untouched for both the naive and the packed path.
  for (index_t s : {5, 40}) {  // below and above the dispatch threshold
    auto abig = Matrix<double>::random(s + 9, s + 6, 51);
    auto bbig = Matrix<double>::random(s + 4, s + 8, 52);
    auto cbig = Matrix<double>::random(s + 7, s + 5, 53);
    const Matrix<double> csnap = cbig;
    const auto a = ConstMatrixView<double>(abig.view()).block(2, 3, s, s);
    const auto b = ConstMatrixView<double>(bbig.view()).block(1, 4, s, s);
    auto c = cbig.view().block(3, 2, s, s);
    gemm<double>(Trans::kNoTrans, Trans::kNoTrans, 1.0, a, b, 1.0, c);
    for (index_t j = 0; j < s; ++j)
      for (index_t i = 0; i < s; ++i) {
        double acc = 0;
        for (index_t q = 0; q < s; ++q) acc += a(i, q) * b(q, j);
        EXPECT_NEAR(c(i, j), acc + csnap(3 + i, 2 + j), 1e-11 * s);
      }
    for (index_t j = 0; j < cbig.cols(); ++j)
      for (index_t i = 0; i < cbig.rows(); ++i)
        if (!(i >= 3 && i < 3 + s && j >= 2 && j < 2 + s))
          ASSERT_EQ(cbig(i, j), csnap(i, j));
  }
}

TEST(TrmmDegenerate, OneByOneAndSubview) {
  // 1x1 triangle.
  Matrix<double> a1(1, 1), b1(1, 1);
  a1(0, 0) = 3.0;
  b1(0, 0) = 2.0;
  trmm_left<double>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit, a1.view(),
                    b1.view());
  EXPECT_DOUBLE_EQ(b1(0, 0), 6.0);
  b1(0, 0) = 2.0;
  trmm_left<double>(UpLo::kUpper, Trans::kNoTrans, Diag::kUnit, a1.view(),
                    b1.view());
  EXPECT_DOUBLE_EQ(b1(0, 0), 2.0);

  // Sub-view with non-unit ld, m large enough for the blocked split.
  const index_t m = 80, n = 6;
  auto abig = Matrix<double>::random(m + 5, m + 5, 61);
  auto bbig = Matrix<double>::random(m + 8, n + 3, 62);
  const Matrix<double> bsnap = bbig;
  const auto a = ConstMatrixView<double>(abig.view()).block(2, 2, m, m);
  auto b = bbig.view().block(4, 1, m, n);
  trmm_left<double>(UpLo::kLower, Trans::kNoTrans, Diag::kUnit, a, b);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double acc = bsnap(4 + i, 1 + j);  // unit diagonal
      for (index_t q = 0; q < i; ++q) acc += a(i, q) * bsnap(4 + q, 1 + j);
      ASSERT_NEAR(b(i, j), acc, 1e-10) << i << "," << j;
    }
  for (index_t j = 0; j < bbig.cols(); ++j)
    for (index_t i = 0; i < bbig.rows(); ++i)
      if (!(i >= 4 && i < 4 + m && j >= 1 && j < 1 + n))
        ASSERT_EQ(bbig(i, j), bsnap(i, j));
}

TEST(TrmmDegenerate, BlockedMatchesSmallAcrossSizes) {
  // The recursive split must agree with the base-case loops for every
  // uplo/trans/diag at sizes straddling the split threshold, and must only
  // read the stored triangle (the other triangle is poisoned with NaN).
  for (index_t m : {31, 32, 33, 64, 97}) {
    for (auto uplo : {UpLo::kUpper, UpLo::kLower})
      for (auto trans : {Trans::kNoTrans, Trans::kTrans})
        for (auto diag : {Diag::kUnit, Diag::kNonUnit}) {
          auto a = Matrix<double>::random(m, m, 71);
          for (index_t j = 0; j < m; ++j)
            for (index_t i = 0; i < m; ++i) {
              const bool stored = (uplo == UpLo::kUpper) ? (i <= j) : (i >= j);
              if (!stored)
                a(i, j) = std::numeric_limits<double>::quiet_NaN();
            }
          auto b0 = Matrix<double>::random(m, 5, 72);
          Matrix<double> got = b0;
          trmm_left<double>(uplo, trans, diag, a.view(), got.view());
          // Reference: explicit dense triangular product.
          Matrix<double> tri(m, m);
          for (index_t j = 0; j < m; ++j)
            for (index_t i = 0; i < m; ++i) {
              const bool keep = (uplo == UpLo::kUpper) ? (i <= j) : (i >= j);
              tri(i, j) = keep ? a(i, j) : 0.0;
              if (i == j && diag == Diag::kUnit) tri(i, j) = 1.0;
            }
          Matrix<double> want(m, 5);
          gemm_naive<double>(trans, Trans::kNoTrans, 1.0, tri.view(),
                             b0.view(), 0.0, want.view());
          for (index_t j = 0; j < 5; ++j)
            for (index_t i = 0; i < m; ++i)
              ASSERT_NEAR(got(i, j), want(i, j), 1e-10 * m)
                  << "m=" << m << " i=" << i << " j=" << j;
        }
  }
}

TEST(TrsmDegenerate, OneByOneAndSubview) {
  Matrix<double> a1(1, 1), b1(1, 1);
  a1(0, 0) = 4.0;
  b1(0, 0) = 2.0;
  trsm_left<double>(UpLo::kUpper, Trans::kNoTrans, Diag::kNonUnit, a1.view(),
                    b1.view());
  EXPECT_DOUBLE_EQ(b1(0, 0), 0.5);
  trsm_right<double>(UpLo::kLower, Trans::kNoTrans, Diag::kNonUnit, a1.view(),
                     b1.view());
  EXPECT_DOUBLE_EQ(b1(0, 0), 0.125);

  // trsm_left and trsm_right on interior sub-views round-trip through trmm.
  const index_t m = 9, n = 7;
  auto abig = Matrix<double>::random(m + 4, m + 4, 81);
  for (index_t i = 0; i < m + 4; ++i) abig(i, i) += 4.0;
  auto bbig = Matrix<double>::random(m + 6, n + 2, 82);
  const Matrix<double> bsnap = bbig;
  const auto a = ConstMatrixView<double>(abig.view()).block(1, 1, m, m);
  auto b = bbig.view().block(2, 1, m, n);
  Matrix<double> rhs(m, n);
  copy<double>(ConstMatrixView<double>(b), rhs.view());
  trsm_left<double>(UpLo::kLower, Trans::kTrans, Diag::kNonUnit, a, b);
  Matrix<double> back(m, n);
  copy<double>(ConstMatrixView<double>(b), back.view());
  trmm_left<double>(UpLo::kLower, Trans::kTrans, Diag::kNonUnit, a,
                    back.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      EXPECT_NEAR(back(i, j), rhs(i, j), 1e-9);
  for (index_t j = 0; j < bbig.cols(); ++j)
    for (index_t i = 0; i < bbig.rows(); ++i)
      if (!(i >= 2 && i < 2 + m && j >= 1 && j < 1 + n))
        ASSERT_EQ(bbig(i, j), bsnap(i, j));
}

TEST(TrsmRightDegenerate, IdentityOperatorAndZeroRhs) {
  // Zero RHS against an identity triangle stays exactly zero.
  Matrix<double> a(3, 3);
  a.view().set_identity();
  Matrix<double> b(4, 3);
  auto bv = b.view().block(0, 0, 4, 3);
  trsm_right<double>(UpLo::kUpper, Trans::kNoTrans, Diag::kUnit, a.view(), bv);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 4; ++i) EXPECT_EQ(b(i, j), 0.0);
}

// trmm at the shapes the tile kernels use, on both dispatch paths: every
// uplo/trans/diag, both sides, triangle orders across the base-case and
// packing thresholds, on sub-views with ld > m. The unstored triangle — and,
// under Diag::kUnit, the stored diagonal — holds NaN, so any read of it
// shows; the reference is the dense product with the explicit triangle.
template <typename T>
void expect_trmm_matches_dense(Side side) {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T eps = std::numeric_limits<T>::epsilon();
  for (index_t m : {1, 7, 8, 31, 32, 33, 64, 127, 128, 200})
    for (index_t n : {1, 4, 5, 128}) {
      // B is m x n on the left, n x m on the right (m is the triangle).
      const index_t br = side == Side::kLeft ? m : n;
      const index_t bc = side == Side::kLeft ? n : m;
      const auto abig = Matrix<T>::random(m + 3, m + 2, 81);
      const auto bbig = Matrix<T>::random(br + 5, bc + 2, 82);
      for (auto uplo : {UpLo::kUpper, UpLo::kLower})
        for (auto trans : {Trans::kNoTrans, Trans::kTrans})
          for (auto diag : {Diag::kUnit, Diag::kNonUnit}) {
            Matrix<T> astore = abig;
            const auto a = astore.view().block(2, 1, m, m);
            Matrix<T> tri(m, m);
            for (index_t j = 0; j < m; ++j)
              for (index_t i = 0; i < m; ++i) {
                const bool stored =
                    (uplo == UpLo::kUpper) ? (i <= j) : (i >= j);
                if (i == j && diag == Diag::kUnit) {
                  tri(i, j) = T(1);
                  a(i, j) = nan;
                } else if (stored) {
                  tri(i, j) = a(i, j);
                } else {
                  a(i, j) = nan;
                }
              }
            Matrix<T> bstore = bbig;
            const auto b = bstore.view().block(3, 1, br, bc);
            Matrix<T> want(br, bc);
            if (side == Side::kLeft) {
              gemm_naive<T>(trans, Trans::kNoTrans, T(1), tri.view(), b, T(0),
                            want.view());
              trmm_left<T>(uplo, trans, diag, a, b);
            } else {
              gemm_naive<T>(Trans::kNoTrans, trans, T(1), b, tri.view(), T(0),
                            want.view());
              trmm_right<T>(uplo, trans, diag, a, b);
            }
            // Each entry sums at most m products of magnitude <= 1.
            const T tol = T(2) * eps * T(m) * T(m);
            for (index_t j = 0; j < bc; ++j)
              for (index_t i = 0; i < br; ++i)
                ASSERT_NEAR(b(i, j), want(i, j), tol)
                    << "m=" << m << " n=" << n << " uplo=" << int(uplo)
                    << " trans=" << int(trans) << " diag=" << int(diag)
                    << " at (" << i << "," << j << ")";
            for (index_t j = 0; j < bstore.cols(); ++j)
              for (index_t i = 0; i < bstore.rows(); ++i) {
                const bool inside =
                    i >= 3 && i < 3 + br && j >= 1 && j < 1 + bc;
                if (!inside) ASSERT_EQ(bstore(i, j), bbig(i, j));
              }
          }
    }
}

TEST(TrmmShapes, LeftMatchesDenseProductDouble) {
  expect_trmm_matches_dense<double>(Side::kLeft);
}

TEST(TrmmShapes, LeftMatchesDenseProductFloat) {
  expect_trmm_matches_dense<float>(Side::kLeft);
}

TEST(TrmmShapes, RightMatchesDenseProductDouble) {
  expect_trmm_matches_dense<double>(Side::kRight);
}

TEST(TrmmShapes, RightMatchesDenseProductFloat) {
  expect_trmm_matches_dense<float>(Side::kRight);
}

}  // namespace
}  // namespace tqr::la
