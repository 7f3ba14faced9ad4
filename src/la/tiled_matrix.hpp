// Tile-major storage for tiled algorithms.
//
// A TiledMatrix partitions an m x n matrix into b x b tiles, each stored
// contiguously (column-major inside the tile). Tile-contiguous storage is
// what makes per-tile device transfers a single contiguous copy — the
// communication model in src/sim charges exactly these b*b*sizeof(T) blocks,
// matching Eq. 11 of the paper.
//
// Matrix dimensions must be multiples of the tile size; pad_to_tiles() embeds
// an arbitrary matrix into the smallest padded one (identity diagonal on the
// pad so QR of the padded matrix restricts to QR of the original), and
// load_tile() writes one tile of that padded matrix straight from the
// unpadded one.
#pragma once

#include <algorithm>
#include <cstdint>

#include "la/matrix.hpp"

namespace tqr::la {

template <typename T>
class TiledMatrix {
 public:
  TiledMatrix() = default;

  /// Zero-initialized rows x cols matrix with tile size b.
  TiledMatrix(index_t rows, index_t cols, index_t b) {
    data_.assign(shape(rows, cols, b), T(0));
  }

  /// Tag for the constructor that leaves the tiles unwritten.
  struct Unfilled {};

  /// rows x cols matrix whose tiles are allocated but not written: a page is
  /// faulted in by the first write to it, so a tile nothing writes costs no
  /// memory. Reading a tile before writing it is a bug.
  TiledMatrix(index_t rows, index_t cols, index_t b, Unfilled) {
    data_.resize(shape(rows, cols, b));
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t tile_size() const { return b_; }
  index_t tile_rows() const { return mt_; }  // number of tile rows (M)
  index_t tile_cols() const { return nt_; }  // number of tile columns (N)

  /// Mutable view of tile (i, j); contiguous, ld == b.
  MatrixView<T> tile(index_t i, index_t j) {
    return MatrixView<T>{tile_data(i, j), b_, b_, b_};
  }
  ConstMatrixView<T> tile(index_t i, index_t j) const {
    return ConstMatrixView<T>{tile_data(i, j), b_, b_, b_};
  }

  /// Raw pointer to a tile's storage (used by the transfer accounting).
  T* tile_data(index_t i, index_t j) {
    TQR_ASSERT(i >= 0 && i < mt_ && j >= 0 && j < nt_, "tile out of range");
    return data_.data() +
           (static_cast<std::size_t>(j) * mt_ + i) * b_ * b_;
  }
  const T* tile_data(index_t i, index_t j) const {
    TQR_ASSERT(i >= 0 && i < mt_ && j >= 0 && j < nt_, "tile out of range");
    return data_.data() +
           (static_cast<std::size_t>(j) * mt_ + i) * b_ * b_;
  }

  /// Bytes in one tile; the unit of every device-to-device transfer.
  std::size_t tile_bytes() const {
    return static_cast<std::size_t>(b_) * b_ * sizeof(T);
  }

  /// Element access across tile boundaries (slow; for tests/conversion).
  T& at(index_t i, index_t j) {
    return tile(i / b_, j / b_)(i % b_, j % b_);
  }
  const T& at(index_t i, index_t j) const {
    return tile(i / b_, j / b_)(i % b_, j % b_);
  }

  /// Writes tile (i, j) of the identity-padded `src` (pad_to_tiles
  /// semantics): a column copy, converting S to T, of the part inside src,
  /// zeros elsewhere and 1 on the pad diagonal.
  template <typename S>
  void load_tile(index_t i, index_t j, ConstMatrixView<S> src) {
    T* tile = tile_data(i, j);
    const index_t r0 = i * b_;
    const index_t inside = std::clamp<index_t>(src.rows - r0, 0, b_);
    for (index_t jj = 0; jj < b_; ++jj, tile += b_) {
      const index_t c = j * b_ + jj;
      const index_t copied = c < src.cols ? inside : 0;
      if (copied > 0) std::copy_n(&src(r0, c), copied, tile);
      std::fill(tile + copied, tile + b_, T(0));
      const index_t pad_row = src.rows + (c - src.cols) - r0;
      if (c >= src.cols && pad_row >= 0 && pad_row < b_) tile[pad_row] = T(1);
    }
  }

  /// The leading n x n upper triangle as a dense matrix (zero below the
  /// diagonal), copied tile by tile one column segment at a time.
  Matrix<T> upper_triangle(index_t n) const {
    TQR_REQUIRE(n >= 0 && n <= rows_ && n <= cols_,
                "upper_triangle: order exceeds the matrix");
    Matrix<T> r(n, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t r0 = 0; r0 <= j; r0 += b_)
        std::copy_n(tile_data(r0 / b_, j / b_) +
                        static_cast<std::size_t>(j % b_) * b_,
                    std::min(b_, j + 1 - r0), &r(r0, j));
    return r;
  }

  /// Conversion from/to dense column-major layout.
  static TiledMatrix from_dense(ConstMatrixView<T> a, index_t b) {
    TiledMatrix t(a.rows, a.cols, b, Unfilled{});
    for (index_t j = 0; j < t.nt_; ++j)
      for (index_t i = 0; i < t.mt_; ++i) t.load_tile(i, j, a);
    return t;
  }
  static TiledMatrix from_dense(const Matrix<T>& a, index_t b) {
    return from_dense(a.view(), b);
  }

  Matrix<T> to_dense() const {
    Matrix<T> a(rows_, cols_);
    for (index_t j = 0; j < cols_; ++j)
      for (index_t i = 0; i < rows_; ++i) a(i, j) = at(i, j);
    return a;
  }

 private:
  /// Validates and records the shape; returns the element count.
  std::size_t shape(index_t rows, index_t cols, index_t b) {
    TQR_REQUIRE(b > 0, "tile size must be positive");
    // Validates sign and index_t overflow before sizing the buffer (the
    // tile-grid footprint equals rows * cols elements exactly).
    const std::size_t count = checked_extent(rows, cols);
    TQR_REQUIRE(rows % b == 0 && cols % b == 0,
                "matrix dimensions must be multiples of the tile size "
                "(use pad_to_tiles)");
    rows_ = rows;
    cols_ = cols;
    b_ = b;
    mt_ = rows / b;
    nt_ = cols / b;
    return count;
  }

  index_t rows_ = 0, cols_ = 0, b_ = 0, mt_ = 0, nt_ = 0;
  // Aligned so tile(0, 0) starts on a cache line; tiles whose footprint is a
  // multiple of kMatrixAlignment (any b with b*b*sizeof(T) % 64 == 0, e.g.
  // every even tile size for doubles) all start aligned. The allocator
  // leaves elements unwritten on resize(); the zeroing constructor fills.
  std::vector<T, UnfilledAlignedAllocator<T>> data_;
};

/// Embeds `a` into the smallest (ceil to tile) padded matrix. The pad block
/// gets an identity diagonal, so the padded matrix stays full-rank and its QR
/// factors restrict to those of `a` (R's leading block is R of `a` up to the
/// pad columns).
template <typename T>
Matrix<T> pad_to_tiles(ConstMatrixView<T> a, index_t b) {
  const index_t pr = (a.rows + b - 1) / b * b;
  const index_t pc = (a.cols + b - 1) / b * b;
  Matrix<T> p(pr, pc);
  for (index_t j = 0; j < a.cols; ++j)
    for (index_t i = 0; i < a.rows; ++i) p(i, j) = a(i, j);
  for (index_t d = 0; d + a.cols < pc && d + a.rows < pr; ++d)
    p(a.rows + d, a.cols + d) = T(1);
  return p;
}

}  // namespace tqr::la
