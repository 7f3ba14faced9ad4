#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "la/blas.hpp"
#include "la/checks.hpp"

namespace perfbench {

using tqr::la::Matrix;

std::string check_r(const Matrix<double>& a, const Matrix<double>& r,
                    std::uint64_t probe_seed) {
  const auto n = a.cols();
  if (r.rows() != n || r.cols() != n) {
    std::ostringstream os;
    os << "R is " << r.rows() << "x" << r.cols() << ", expected " << n << "x"
       << n;
    return os.str();
  }
  if (!tqr::la::all_finite<double>(r.view())) return "R has a non-finite entry";
  const double tol =
      tqr::la::verify_tolerance<double>(std::max(a.rows(), a.cols()));
  auto over = [&](const char* what, double value) {
    std::ostringstream os;
    os << what << " " << value << " exceeds tolerance " << tol;
    return os.str();
  };
  const double lower = tqr::la::lower_triangle_residual<double>(r.view());
  if (!(lower <= tol)) return over("lower-triangle residual", lower);
  const double drift = tqr::la::column_norm_drift<double>(a.view(), r.view());
  if (!(drift <= tol)) return over("column-norm drift", drift);

  const Matrix<double> x = tqr::la::probe_vector<double>(n, probe_seed);
  Matrix<double> rx(n, 1), ax(a.rows(), 1);
  tqr::la::gemm<double>(tqr::la::Trans::kNoTrans, tqr::la::Trans::kNoTrans, 1.0,
                        r.view(), x.view(), 0.0, rx.view());
  tqr::la::gemm<double>(tqr::la::Trans::kNoTrans, tqr::la::Trans::kNoTrans, 1.0,
                        a.view(), x.view(), 0.0, ax.view());
  const double rx_norm = tqr::la::norm_frobenius<double>(rx.view());
  const double ax_norm = tqr::la::norm_frobenius<double>(ax.view());
  const double probe =
      std::abs(rx_norm - ax_norm) / (ax_norm > 0 ? ax_norm : 1.0);
  if (!(probe <= tol)) return over("probe norm mismatch", probe);
  return {};
}

}  // namespace perfbench
