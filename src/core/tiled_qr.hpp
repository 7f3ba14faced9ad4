// Tiled QR factorization driver — the library's main functional entry point.
//
// TiledQrFactorization<T> owns the factored tile storage (the matrix tiles
// plus the two block-reflector planes) and the task graph that produced it,
// so Q can be re-applied by replaying the factor tasks. Factorization runs
// sequentially (deterministic order) or on a work-stealing
// runtime::DagExecutor; tests compare the two to prove the numerics are
// schedule-independent. Either way the tasks run through QrTaskRunner,
// which loads each tile at its first touch inside the graph.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/graph.hpp"
#include "dag/task_accesses.hpp"
#include "dag/tiled_qr_dag.hpp"
#include "la/checks.hpp"
#include "la/kernels.hpp"
#include "la/tiled_matrix.hpp"
#include "runtime/dag_executor.hpp"
#include "runtime/trace.hpp"

namespace tqr::core {

/// Host tile size for a matrix with `cols` columns, read off the measured
/// tile x elimination ladder (docs/PERF.md): 128 once cols >= 1024;
/// otherwise the largest of 16, 32 and 64 that is at most cols / 2, and 16
/// below that, so the identity padding never dominates a small job. The
/// simulator keeps the paper's b = 16 (core::PlanConfig).
la::index_t host_tile(la::index_t cols);

/// Tile storage of one tiled QR factorization: the matrix tiles plus the
/// two block-reflector planes. The planes are allocated unfilled: every A
/// tile is written by its loader (QrTaskRunner), every factor kernel zeroes
/// its own T block, and nothing reads a reflector tile the graph did not
/// write, so a tile nothing touches (most of tg under TS) costs no memory.
template <typename T>
struct QrPlanes {
  QrPlanes() = default;
  /// Unfilled planes for a rows x cols problem (multiples of b). TS runs
  /// geqrt on the diagonal tiles only, so its tg plane is cols x cols.
  QrPlanes(la::index_t rows, la::index_t cols, la::index_t b,
           dag::Elimination elim);

  la::TiledMatrix<T>& plane(dag::Plane p) {
    return p == dag::Plane::kA ? a : (p == dag::Plane::kTg ? tg : te);
  }
  const la::TiledMatrix<T>& plane(dag::Plane p) const {
    return p == dag::Plane::kA ? a : (p == dag::Plane::kTg ? tg : te);
  }

  la::TiledMatrix<T> a;
  la::TiledMatrix<T> tg;  // geqrt block-reflector factors
  la::TiledMatrix<T> te;  // ts/ttqrt block-reflector factors
};

/// Runs the tasks of a tiled QR factorization graph against the planes it
/// owns, the one kernel wrapper of every host factorization
/// (TiledQrFactorization and the svc job service). Each A tile is loaded
/// from `src` by its first toucher — the first task in graph order whose
/// accesses name the tile — just before that task's kernel, on the worker
/// that runs it: a column copy narrowed to T, with the identity pad of
/// la::pad_to_tiles beyond src. Every other access to the tile is a graph
/// successor of the first toucher, so loading there is race-free and the
/// first kernel starts as soon as its own tiles are in.
template <typename T, typename S = T>
class QrTaskRunner {
 public:
  /// `graph` and `src` must outlive the runner; `planes` has the padded
  /// shape of src at the graph's tile grid.
  QrTaskRunner(const dag::TaskGraph& graph, la::ConstMatrixView<S> src,
               QrPlanes<T> planes, la::index_t inner_block);

  /// Loads the A tiles task t touches first, then runs its kernel. Safe to
  /// call concurrently for tasks the graph leaves unordered.
  void operator()(dag::task_id t, const dag::Task& task);

  /// Runs every task — in graph order when workers <= 1, else on a
  /// transient DagExecutor recording into `trace` — and returns the
  /// execution seconds.
  double run_all(int workers, runtime::Trace* trace = nullptr);

  QrPlanes<T>& planes() { return planes_; }

 private:
  const dag::TaskGraph& graph_;
  la::ConstMatrixView<S> src_;
  QrPlanes<T> planes_;
  la::index_t inner_block_;
  // Per task, a bit per dag::tile_accesses entry that first touches an A
  // tile.
  std::vector<std::uint8_t> loads_;
};

/// Applies Q (kNoTrans) or Q^T (kTrans) of a completed tiled factorization
/// to c in place by replaying the factor tasks of `graph` against the tile
/// storage the factorization wrote. c.rows must equal planes.a.rows(). Reads
/// only tiles the graph wrote. Free-standing so callers that own tile
/// storage directly — e.g. tqr::svc's per-job planes — can apply Q without
/// wrapping the tiles in a TiledQrFactorization.
template <typename T>
void apply_q_tiles(const dag::TaskGraph& graph, const QrPlanes<T>& planes,
                   la::MatrixView<T> c, la::Trans trans);

/// fp64 copy of fp32 planes: every A tile and the reflector tiles `graph`
/// writes (float -> double is exact); the other reflector tiles stay
/// unfilled, as nothing reads them.
QrPlanes<double> widen(const QrPlanes<float>& planes,
                       const dag::TaskGraph& graph);

template <typename T>
class TiledQrFactorization {
 public:
  struct Options {
    dag::Elimination elim = dag::Elimination::kTs;
    /// Row groups for Elimination::kHier (0 = single group).
    std::int32_t hier_groups = 0;
    /// Inner blocking width for the tile kernels (0 = unblocked). Purely a
    /// locality knob; the factorization is numerically valid either way.
    la::index_t inner_block = 0;
    /// Worker threads. 1 runs the tasks sequentially in graph order; more
    /// runs them on a transient DagExecutor with this many workers.
    int workers = 1;
    /// Records the executor's task spans (only when workers > 1).
    runtime::Trace* trace = nullptr;
  };

  /// Factors `a` (rows >= cols, both multiples of b).
  static TiledQrFactorization factor(const la::Matrix<T>& a, int b,
                                     const Options& options = {});

  std::int32_t rows() const { return planes_.a.rows(); }
  std::int32_t cols() const { return planes_.a.cols(); }
  int tile_size() const { return planes_.a.tile_size(); }
  dag::Elimination elimination() const { return elim_; }
  la::index_t inner_block() const { return inner_block_; }
  const dag::TaskGraph& graph() const { return graph_; }
  const la::TiledMatrix<T>& tiles() const { return planes_.a; }
  /// Seconds the factor tasks took: the executor's run, or the sequential
  /// loop. The rest of factor() is setup (graph build, thread start).
  double exec_seconds() const { return exec_s_; }

  /// The n x n upper-triangular R factor.
  la::Matrix<T> r() const { return planes_.a.upper_triangle(cols()); }

  /// Applies Q (kNoTrans) or Q^T (kTrans) to c in place; c.rows == rows().
  void apply_q(la::MatrixView<T> c, la::Trans trans) const;

  /// Forms Q explicitly (m x m). Quadratic memory; intended for
  /// verification and small problems.
  la::Matrix<T> form_q() const;

  /// Economy-size Q: the first n columns (m x n), enough for thin QR uses.
  la::Matrix<T> form_q_thin() const;

  /// Least-squares / linear solve via R^{-1} (Q^T b)(0:n).
  la::Matrix<T> solve(const la::Matrix<T>& rhs) const;

  /// solve() followed by `iterations` rounds of iterative refinement
  /// (x += solve(rhs - A x)); needs the original matrix back. Worthwhile in
  /// single precision or for ill-conditioned systems.
  la::Matrix<T> solve_refined(const la::Matrix<T>& a,
                              const la::Matrix<T>& rhs,
                              int iterations = 1) const;

 private:
  TiledQrFactorization(QrPlanes<T> planes, dag::TaskGraph graph,
                       dag::Elimination elim, la::index_t inner_block,
                       double exec_s)
      : planes_(std::move(planes)),
        graph_(std::move(graph)),
        elim_(elim),
        inner_block_(inner_block),
        exec_s_(exec_s) {}

  QrPlanes<T> planes_;
  dag::TaskGraph graph_;
  dag::Elimination elim_;
  la::index_t inner_block_ = 0;
  double exec_s_ = 0;
};

/// One-call convenience: QR-based least-squares solve of A x = b.
template <typename T>
la::Matrix<T> qr_solve(const la::Matrix<T>& a, const la::Matrix<T>& b, int
                       tile_size, dag::Elimination elim = dag::Elimination::kTs);

/// Outcome of qr_solve_mixed: the fp64 solution plus convergence
/// diagnostics, so callers can tell whether the cheap factorization was
/// actually good enough for this system.
struct MixedSolveResult {
  la::Matrix<double> x;
  int iterations = 0;   ///< refinement rounds actually run
  double residual = 0;  ///< final ||b - A x||_F / (||A||_F ||x||_F + ||b||_F)
  bool converged = false;  ///< residual fell below the tolerance
};

/// Mixed-precision least-squares solve of A x = b: factor A once in fp32 —
/// half the factorization bandwidth, and the vectorized tile kernels run at
/// twice the lanes — then recover fp64 accuracy by iterative refinement.
/// Each round computes the residual r = b - A x in fp64, solves the fp32
/// factorization for the correction, and accumulates x in fp64 (the
/// classical dsgesv scheme, here on the tiled QR). Converges to fp64-level
/// backward error whenever kappa(A) is well below 1/eps32 (~1e7); for
/// systems beyond that the result reports converged = false and callers
/// should fall back to qr_solve<double>.
///
/// `tolerance` <= 0 picks the library's fp64 acceptance threshold
/// (la::verify_tolerance<double>). `inner_block` is forwarded to the fp32
/// factor kernels (0 = library default).
MixedSolveResult qr_solve_mixed(const la::Matrix<double>& a,
                                const la::Matrix<double>& b, int tile_size,
                                dag::Elimination elim = dag::Elimination::kTs,
                                int max_iterations = 8, double tolerance = 0,
                                la::index_t inner_block = 0);

}  // namespace tqr::core
