#include "core/tiled_cholesky.hpp"

#include "common/error.hpp"

namespace tqr::core {

template <typename T>
void execute_cholesky_task(const dag::Task& task, la::TiledMatrix<T>& a) {
  using dag::Op;
  switch (task.op) {
    case Op::kPotrf:
      la::potrf_lower<T>(a.tile(task.k, task.k));
      break;
    case Op::kTrsm:
      // L(i,k) = A(i,k) L(k,k)^{-T}.
      la::trsm_right<T>(la::UpLo::kLower, la::Trans::kTrans,
                        la::Diag::kNonUnit,
                        la::ConstMatrixView<T>(a.tile(task.k, task.k)),
                        a.tile(task.i, task.k));
      break;
    case Op::kSyrk:
      // A(i,i) -= L(i,k) L(i,k)^T (lower triangle).
      la::syrk_lower<T>(la::Trans::kNoTrans, T(-1),
                        la::ConstMatrixView<T>(a.tile(task.i, task.k)), T(1),
                        a.tile(task.i, task.i));
      break;
    case Op::kGemm:
      // A(i,j) -= L(i,k) L(j,k)^T; p carries the second source row j.
      la::gemm<T>(la::Trans::kNoTrans, la::Trans::kTrans, T(-1),
                  la::ConstMatrixView<T>(a.tile(task.i, task.k)),
                  la::ConstMatrixView<T>(a.tile(task.p, task.k)), T(1),
                  a.tile(task.i, task.j));
      break;
    default:
      TQR_ASSERT(false, "non-Cholesky task routed to the Cholesky driver");
  }
}

template <typename T>
TiledCholesky<T> TiledCholesky<T>::factor(const la::Matrix<T>& a, int b,
                                          const Options& options) {
  TQR_REQUIRE(a.rows() == a.cols(), "Cholesky needs a square matrix");
  la::TiledMatrix<T> tiles = la::TiledMatrix<T>::from_dense(a, b);
  dag::TaskGraph graph = dag::build_tiled_cholesky_graph(tiles.tile_rows());

  if (options.workers <= 1) {
    for (const dag::Task& task : graph.tasks())
      execute_cholesky_task<T>(task, tiles);
  } else {
    runtime::DagExecutor::Options exec_opts;
    exec_opts.workers = options.workers;
    exec_opts.trace = options.trace;
    runtime::DagExecutor::run(
        graph,
        [&](dag::task_id, const dag::Task& task, int) {
          execute_cholesky_task<T>(task, tiles);
        },
        exec_opts);
  }
  return TiledCholesky<T>(std::move(tiles), std::move(graph));
}

template <typename T>
la::Matrix<T> TiledCholesky<T>::l() const {
  const std::int32_t n = a_.rows();
  la::Matrix<T> out(n, n);
  for (std::int32_t j = 0; j < n; ++j)
    for (std::int32_t i = j; i < n; ++i) out(i, j) = a_.at(i, j);
  return out;
}

template <typename T>
la::Matrix<T> TiledCholesky<T>::solve(const la::Matrix<T>& rhs) const {
  TQR_REQUIRE(rhs.rows() == a_.rows(), "solve: rhs row mismatch");
  la::Matrix<T> x = rhs;
  la::Matrix<T> ll = l();
  // L y = rhs, then L^T x = y.
  la::trsm_left<T>(la::UpLo::kLower, la::Trans::kNoTrans, la::Diag::kNonUnit,
                   ll.view(), x.view());
  la::trsm_left<T>(la::UpLo::kLower, la::Trans::kTrans, la::Diag::kNonUnit,
                   ll.view(), x.view());
  return x;
}

template void execute_cholesky_task<float>(const dag::Task&,
                                           la::TiledMatrix<float>&);
template void execute_cholesky_task<double>(const dag::Task&,
                                            la::TiledMatrix<double>&);
template class TiledCholesky<float>;
template class TiledCholesky<double>;

}  // namespace tqr::core
