#include "core/tiled_qr.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/timer.hpp"

namespace tqr::core {

la::index_t host_tile(la::index_t cols) {
  if (cols >= 1024) return 128;
  for (const la::index_t b : {64, 32})
    if (b <= cols / 2) return b;
  return 16;
}

namespace {

template <typename T>
void execute_task(const dag::Task& task, QrPlanes<T>& planes,
                  la::index_t inner_block) {
  using dag::Op;
  la::TiledMatrix<T>& a = planes.a;
  la::TiledMatrix<T>& tg = planes.tg;
  la::TiledMatrix<T>& te = planes.te;
  switch (task.op) {
    case Op::kGeqrt:
      la::geqrt<T>(a.tile(task.i, task.k), tg.tile(task.i, task.k),
                   inner_block);
      break;
    case Op::kUnmqr:
      la::unmqr<T>(a.tile(task.i, task.k), tg.tile(task.i, task.k),
                   a.tile(task.i, task.j), la::Trans::kTrans);
      break;
    case Op::kTsqrt:
      la::tsqrt<T>(a.tile(task.p, task.k), a.tile(task.i, task.k),
                   te.tile(task.i, task.k), inner_block);
      break;
    case Op::kTsmqr:
      la::tsmqr<T>(a.tile(task.i, task.k), te.tile(task.i, task.k),
                   a.tile(task.p, task.j), a.tile(task.i, task.j),
                   la::Trans::kTrans);
      break;
    case Op::kTtqrt:
      la::ttqrt<T>(a.tile(task.p, task.k), a.tile(task.i, task.k),
                   te.tile(task.i, task.k), inner_block);
      break;
    case Op::kTtmqr:
      la::ttmqr<T>(a.tile(task.i, task.k), te.tile(task.i, task.k),
                   a.tile(task.p, task.j), a.tile(task.i, task.j),
                   la::Trans::kTrans);
      break;
    default:
      TQR_ASSERT(false, "non-QR task routed to the QR driver");
  }
}

}  // namespace

template <typename T>
QrPlanes<T>::QrPlanes(la::index_t rows, la::index_t cols, la::index_t b,
                      dag::Elimination elim)
    : a(rows, cols, b, typename la::TiledMatrix<T>::Unfilled{}),
      tg(elim == dag::Elimination::kTs ? cols : rows, cols, b,
         typename la::TiledMatrix<T>::Unfilled{}),
      te(rows, cols, b, typename la::TiledMatrix<T>::Unfilled{}) {}

template <typename T, typename S>
QrTaskRunner<T, S>::QrTaskRunner(const dag::TaskGraph& graph,
                                 la::ConstMatrixView<S> src,
                                 QrPlanes<T> planes, la::index_t inner_block)
    : graph_(graph),
      src_(src),
      planes_(std::move(planes)),
      inner_block_(inner_block),
      loads_(graph.size(), 0) {
  const la::TiledMatrix<T>& a = planes_.a;
  TQR_REQUIRE(src.rows <= a.rows() && src.cols <= a.cols() &&
                  a.rows() - src.rows < a.tile_size() &&
                  a.cols() - src.cols < a.tile_size(),
              "QrTaskRunner: planes are not the padded shape of the input");
  std::vector<bool> touched(
      static_cast<std::size_t>(a.tile_rows()) * a.tile_cols(), false);
  for (std::size_t t = 0; t < graph.size(); ++t) {
    dag::TileAccess acc[5];
    const int n_acc = dag::tile_accesses(graph.tasks()[t], acc);
    for (int idx = 0; idx < n_acc; ++idx) {
      if (acc[idx].plane != dag::Plane::kA) continue;
      const std::size_t tile =
          static_cast<std::size_t>(acc[idx].j) * a.tile_rows() + acc[idx].i;
      if (touched[tile]) continue;
      touched[tile] = true;
      loads_[t] = static_cast<std::uint8_t>(loads_[t] | (1u << idx));
    }
  }
}

template <typename T, typename S>
void QrTaskRunner<T, S>::operator()(dag::task_id t, const dag::Task& task) {
  if (const unsigned loads = loads_[static_cast<std::size_t>(t)]) {
    dag::TileAccess acc[5];
    const int n_acc = dag::tile_accesses(task, acc);
    for (int idx = 0; idx < n_acc; ++idx)
      if (loads & (1u << idx))
        planes_.a.load_tile(acc[idx].i, acc[idx].j, src_);
  }
  execute_task<T>(task, planes_, inner_block_);
}

template <typename T, typename S>
double QrTaskRunner<T, S>::run_all(int workers, runtime::Trace* trace) {
  if (workers <= 1) {
    Timer clock;
    for (std::size_t t = 0; t < graph_.size(); ++t)
      (*this)(static_cast<dag::task_id>(t), graph_.tasks()[t]);
    return clock.seconds();
  }
  runtime::DagExecutor::Options exec_opts;
  exec_opts.workers = workers;
  exec_opts.trace = trace;
  return runtime::DagExecutor::run(
      graph_,
      [this](dag::task_id t, const dag::Task& task, int) { (*this)(t, task); },
      exec_opts);
}

QrPlanes<double> widen(const QrPlanes<float>& planes,
                       const dag::TaskGraph& graph) {
  const la::index_t b = planes.a.tile_size();
  // Only TS sizes tg cols x cols; for a square matrix both shapes agree.
  QrPlanes<double> out(planes.a.rows(), planes.a.cols(), b,
                       planes.tg.rows() == planes.a.cols()
                           ? dag::Elimination::kTs
                           : dag::Elimination::kTt);
  const std::size_t count = static_cast<std::size_t>(b) * b;
  auto copy_tile = [&](dag::Plane p, la::index_t i, la::index_t j) {
    const float* from = planes.plane(p).tile_data(i, j);
    std::copy(from, from + count, out.plane(p).tile_data(i, j));
  };
  for (la::index_t j = 0; j < planes.a.tile_cols(); ++j)
    for (la::index_t i = 0; i < planes.a.tile_rows(); ++i)
      copy_tile(dag::Plane::kA, i, j);
  for (const dag::Task& task : graph.tasks()) {
    if (task.op == dag::Op::kGeqrt)
      copy_tile(dag::Plane::kTg, task.i, task.k);
    else if (task.op == dag::Op::kTsqrt || task.op == dag::Op::kTtqrt)
      copy_tile(dag::Plane::kTe, task.i, task.k);
  }
  return out;
}

template <typename T>
TiledQrFactorization<T> TiledQrFactorization<T>::factor(
    const la::Matrix<T>& a, int b, const Options& options) {
  TQR_REQUIRE(a.rows() >= a.cols(), "tiled QR requires rows >= cols");
  QrPlanes<T> planes(a.rows(), a.cols(), b, options.elim);
  dag::TaskGraph graph = dag::build_tiled_qr_graph(
      planes.a.tile_rows(), planes.a.tile_cols(), options.elim,
      options.hier_groups);
  QrTaskRunner<T> run(graph, a.view(), std::move(planes),
                      options.inner_block);
  const double exec_s = run.run_all(options.workers, options.trace);
  return TiledQrFactorization<T>(std::move(run.planes()), std::move(graph),
                                 options.elim, options.inner_block, exec_s);
}

template <typename T>
void apply_q_tiles(const dag::TaskGraph& graph, const QrPlanes<T>& planes,
                   la::MatrixView<T> c, la::Trans trans) {
  const la::TiledMatrix<T>& a = planes.a;
  const la::TiledMatrix<T>& tg = planes.tg;
  const la::TiledMatrix<T>& te = planes.te;
  TQR_REQUIRE(c.rows == a.rows(), "apply_q: row mismatch");
  const la::index_t b = a.tile_size();
  auto row_block = [&](std::int32_t i) {
    return c.block(i * b, 0, b, c.cols);
  };
  auto apply_one = [&](const dag::Task& task) {
    switch (task.op) {
      case dag::Op::kGeqrt:
        la::unmqr<T>(a.tile(task.i, task.k), tg.tile(task.i, task.k),
                     row_block(task.i), trans);
        break;
      case dag::Op::kTsqrt:
        la::tsmqr<T>(a.tile(task.i, task.k), te.tile(task.i, task.k),
                     row_block(task.p), row_block(task.i), trans);
        break;
      case dag::Op::kTtqrt:
        la::ttmqr<T>(a.tile(task.i, task.k), te.tile(task.i, task.k),
                     row_block(task.p), row_block(task.i), trans);
        break;
      default:
        break;  // update tasks carry no reflectors
    }
  };
  const auto& tasks = graph.tasks();
  if (trans == la::Trans::kTrans) {
    // Q^T = P_last ... P_first: forward replay.
    for (const dag::Task& task : tasks) apply_one(task);
  } else {
    // Q = P_first^{-1} ... : reverse replay.
    for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) apply_one(*it);
  }
}

template <typename T>
void TiledQrFactorization<T>::apply_q(la::MatrixView<T> c,
                                      la::Trans trans) const {
  apply_q_tiles<T>(graph_, planes_, c, trans);
}

template <typename T>
la::Matrix<T> TiledQrFactorization<T>::form_q() const {
  la::Matrix<T> q = la::Matrix<T>::identity(rows());
  apply_q(q.view(), la::Trans::kNoTrans);
  return q;
}

template <typename T>
la::Matrix<T> TiledQrFactorization<T>::form_q_thin() const {
  la::Matrix<T> q(rows(), cols());
  for (std::int32_t i = 0; i < cols(); ++i) q(i, i) = T(1);
  apply_q(q.view(), la::Trans::kNoTrans);
  return q;
}

template <typename T>
la::Matrix<T> TiledQrFactorization<T>::solve_refined(
    const la::Matrix<T>& a, const la::Matrix<T>& rhs, int iterations) const {
  TQR_REQUIRE(a.rows() == rows() && a.cols() == cols(),
              "solve_refined: matrix shape does not match the factorization");
  la::Matrix<T> x = solve(rhs);
  for (int it = 0; it < iterations; ++it) {
    la::Matrix<T> resid = rhs;
    la::gemm<T>(la::Trans::kNoTrans, la::Trans::kNoTrans, T(-1), a.view(),
                x.view(), T(1), resid.view());
    la::Matrix<T> dx = solve(resid);
    for (std::int32_t j = 0; j < x.cols(); ++j)
      for (std::int32_t i = 0; i < x.rows(); ++i) x(i, j) += dx(i, j);
  }
  return x;
}

template <typename T>
la::Matrix<T> TiledQrFactorization<T>::solve(const la::Matrix<T>& rhs) const {
  TQR_REQUIRE(rhs.rows() == rows(), "solve: rhs row mismatch");
  la::Matrix<T> qtb = rhs;
  apply_q(qtb.view(), la::Trans::kTrans);
  const std::int32_t n = cols();
  la::Matrix<T> x(n, rhs.cols());
  la::copy<T>(qtb.block(0, 0, n, rhs.cols()), x.view());
  la::Matrix<T> rr = r();
  la::trsm_left<T>(la::UpLo::kUpper, la::Trans::kNoTrans, la::Diag::kNonUnit,
                   rr.view(), x.view());
  return x;
}

template <typename T>
la::Matrix<T> qr_solve(const la::Matrix<T>& a, const la::Matrix<T>& b,
                       int tile_size, dag::Elimination elim) {
  typename TiledQrFactorization<T>::Options opts;
  opts.elim = elim;
  return TiledQrFactorization<T>::factor(a, tile_size, opts).solve(b);
}

namespace {

// Elementwise precision conversions for the mixed solver. Kept local: the
// solver is the only place the library crosses precisions, and keeping the
// narrowing explicit here makes that boundary easy to audit.
la::Matrix<float> to_f32(const la::Matrix<double>& a) {
  la::Matrix<float> out(a.rows(), a.cols());
  for (std::int32_t j = 0; j < a.cols(); ++j)
    for (std::int32_t i = 0; i < a.rows(); ++i)
      out(i, j) = static_cast<float>(a(i, j));
  return out;
}

}  // namespace

MixedSolveResult qr_solve_mixed(const la::Matrix<double>& a,
                                const la::Matrix<double>& b, int tile_size,
                                dag::Elimination elim, int max_iterations,
                                double tolerance, la::index_t inner_block) {
  TQR_REQUIRE(a.rows() == b.rows(), "qr_solve_mixed: rhs row mismatch");
  const std::int32_t n = a.cols();
  if (tolerance <= 0)
    tolerance = la::verify_tolerance<double>(std::max(a.rows(), n));

  // One fp32 factorization, reused for the initial solve and every
  // correction solve.
  typename TiledQrFactorization<float>::Options opts;
  opts.elim = elim;
  opts.inner_block = inner_block;
  const auto f32 =
      TiledQrFactorization<float>::factor(to_f32(a), tile_size, opts);

  const double a_fro = la::norm_frobenius<double>(a.view());
  const double b_fro = la::norm_frobenius<double>(b.view());

  MixedSolveResult result;
  {
    const la::Matrix<float> x32 = f32.solve(to_f32(b));
    result.x = la::Matrix<double>(n, b.cols());
    for (std::int32_t j = 0; j < b.cols(); ++j)
      for (std::int32_t i = 0; i < n; ++i)
        result.x(i, j) = static_cast<double>(x32(i, j));
  }

  for (int it = 0; it <= max_iterations; ++it) {
    // fp64 residual of the current iterate.
    la::Matrix<double> resid = b;
    la::gemm<double>(la::Trans::kNoTrans, la::Trans::kNoTrans, -1.0, a.view(),
                     result.x.view(), 1.0, resid.view());
    const double x_fro = la::norm_frobenius<double>(result.x.view());
    const double denom = a_fro * x_fro + b_fro;
    result.residual = denom > 0
                          ? la::norm_frobenius<double>(resid.view()) / denom
                          : la::norm_frobenius<double>(resid.view());
    if (result.residual <= tolerance) {
      result.converged = true;
      break;
    }
    if (it == max_iterations) break;  // budget spent; report unconverged
    // fp32 correction solve, fp64 accumulation.
    const la::Matrix<float> dx32 = f32.solve(to_f32(resid));
    for (std::int32_t j = 0; j < result.x.cols(); ++j)
      for (std::int32_t i = 0; i < n; ++i)
        result.x(i, j) += static_cast<double>(dx32(i, j));
    result.iterations = it + 1;
  }
  return result;
}

// Explicit instantiations.
template struct QrPlanes<float>;
template struct QrPlanes<double>;
template class QrTaskRunner<float>;
template class QrTaskRunner<double>;
template class QrTaskRunner<float, double>;
template void apply_q_tiles<float>(const dag::TaskGraph&,
                                   const QrPlanes<float>&,
                                   la::MatrixView<float>, la::Trans);
template void apply_q_tiles<double>(const dag::TaskGraph&,
                                    const QrPlanes<double>&,
                                    la::MatrixView<double>, la::Trans);
template class TiledQrFactorization<float>;
template class TiledQrFactorization<double>;
template la::Matrix<float> qr_solve<float>(const la::Matrix<float>&,
                                           const la::Matrix<float>&, int,
                                           dag::Elimination);
template la::Matrix<double> qr_solve<double>(const la::Matrix<double>&,
                                             const la::Matrix<double>&, int,
                                             dag::Elimination);

}  // namespace tqr::core
