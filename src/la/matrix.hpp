// Dense column-major matrices and non-owning views.
//
// Conventions follow LAPACK: column-major storage with a leading dimension,
// indices are 0-based. Views are cheap, trivially copyable handles; owning
// matrices manage a contiguous buffer. All kernels in la/ operate on views so
// the same code serves owning matrices, tiles of a TiledMatrix, and
// sub-blocks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/aligned.hpp"

namespace tqr::la {

using index_t = std::int32_t;

/// Validates a rows x cols allocation request and returns the element count.
/// Rejects negative extents and products that overflow index_t — the limit
/// every kernel's index arithmetic assumes — with a clear InvalidArgument
/// instead of letting a size_t wraparound request a UB-sized allocation.
inline std::size_t checked_extent(index_t rows, index_t cols) {
  TQR_REQUIRE(rows >= 0 && cols >= 0,
              "matrix dimensions must be >= 0 (got " + std::to_string(rows) +
                  " x " + std::to_string(cols) + ")");
  const std::uint64_t count =
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
  TQR_REQUIRE(
      count <= static_cast<std::uint64_t>(std::numeric_limits<index_t>::max()),
      "matrix element count overflows index_t: " + std::to_string(rows) +
          " x " + std::to_string(cols));
  return static_cast<std::size_t>(count);
}

/// Owning buffers are 64-byte aligned (la/aligned.hpp) so SIMD loads in the
/// micro-kernel engine — and any future vector code — start on cache-line
/// boundaries.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

template <typename T>
struct ConstMatrixView;

/// Mutable non-owning view of a column-major block.
template <typename T>
struct MatrixView {
  T* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;  // leading dimension (stride between columns)

  T& operator()(index_t i, index_t j) const {
    TQR_ASSERT_HEAVY(i >= 0 && i < rows && j >= 0 && j < cols,
                     "matrix index out of range");
    return data[static_cast<std::size_t>(j) * ld + i];
  }

  /// Sub-block view [i0, i0+r) x [j0, j0+c).
  MatrixView block(index_t i0, index_t j0, index_t r, index_t c) const {
    TQR_ASSERT(i0 >= 0 && j0 >= 0 && i0 + r <= rows && j0 + c <= cols,
               "block out of range");
    return MatrixView{data + static_cast<std::size_t>(j0) * ld + i0, r, c, ld};
  }

  /// Column j as a view of shape rows x 1.
  MatrixView col(index_t j) const { return block(0, j, rows, 1); }

  void fill(T value) const {
    for (index_t j = 0; j < cols; ++j)
      for (index_t i = 0; i < rows; ++i) (*this)(i, j) = value;
  }

  void set_identity() const {
    for (index_t j = 0; j < cols; ++j)
      for (index_t i = 0; i < rows; ++i)
        (*this)(i, j) = (i == j) ? T(1) : T(0);
  }
};

/// Read-only non-owning view.
template <typename T>
struct ConstMatrixView {
  const T* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  ConstMatrixView() = default;
  ConstMatrixView(const T* d, index_t r, index_t c, index_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  // Implicit widening from a mutable view keeps call sites clean.
  ConstMatrixView(const MatrixView<T>& v)  // NOLINT(google-explicit-constructor)
      : data(v.data), rows(v.rows), cols(v.cols), ld(v.ld) {}

  const T& operator()(index_t i, index_t j) const {
    TQR_ASSERT_HEAVY(i >= 0 && i < rows && j >= 0 && j < cols,
                     "matrix index out of range");
    return data[static_cast<std::size_t>(j) * ld + i];
  }

  ConstMatrixView block(index_t i0, index_t j0, index_t r, index_t c) const {
    TQR_ASSERT(i0 >= 0 && j0 >= 0 && i0 + r <= rows && j0 + c <= cols,
               "block out of range");
    return ConstMatrixView{data + static_cast<std::size_t>(j0) * ld + i0, r, c,
                           ld};
  }
};

/// Owning column-major dense matrix.
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  // checked_extent runs before the buffer is sized, so a negative or
  // overflowing request throws instead of allocating.
  Matrix(index_t rows, index_t cols)
      : rows_(rows), cols_(cols), data_(checked_extent(rows, cols), T(0)) {}

  /// Tag for the constructor that leaves the elements unwritten.
  struct Unfilled {};

  /// rows x cols matrix whose elements are allocated but not written, so
  /// each page is faulted in by whichever thread first writes it. Reading
  /// an element before writing it is a bug.
  Matrix(index_t rows, index_t cols, Unfilled) : rows_(rows), cols_(cols) {
    data_.resize(checked_extent(rows, cols));
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  T& operator()(index_t i, index_t j) {
    TQR_ASSERT_HEAVY(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                     "matrix index out of range");
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }
  const T& operator()(index_t i, index_t j) const {
    TQR_ASSERT_HEAVY(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                     "matrix index out of range");
    return data_[static_cast<std::size_t>(j) * rows_ + i];
  }

  MatrixView<T> view() {
    return MatrixView<T>{data_.data(), rows_, cols_, rows_};
  }
  ConstMatrixView<T> view() const {
    return ConstMatrixView<T>{data_.data(), rows_, cols_, rows_};
  }
  MatrixView<T> block(index_t i0, index_t j0, index_t r, index_t c) {
    return view().block(i0, j0, r, c);
  }
  ConstMatrixView<T> block(index_t i0, index_t j0, index_t r,
                           index_t c) const {
    return view().block(i0, j0, r, c);
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  /// Identity of size n.
  static Matrix identity(index_t n) {
    Matrix m(n, n);
    for (index_t i = 0; i < n; ++i) m(i, i) = T(1);
    return m;
  }

  /// Uniform random entries in [-1, 1), deterministic in the seed.
  static Matrix random(index_t rows, index_t cols, std::uint64_t seed) {
    Matrix m(rows, cols);
    Rng rng(seed);
    for (index_t j = 0; j < cols; ++j)
      for (index_t i = 0; i < rows; ++i)
        m(i, j) = static_cast<T>(rng.next_double(-1.0, 1.0));
    return m;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  // resize() leaves elements unwritten; the zeroing constructor fills.
  std::vector<T, UnfilledAlignedAllocator<T>> data_;
};

/// Copies src into dst (shapes must match).
template <typename T>
void copy(ConstMatrixView<T> src, MatrixView<T> dst) {
  TQR_REQUIRE(src.rows == dst.rows && src.cols == dst.cols,
              "copy: shape mismatch");
  for (index_t j = 0; j < src.cols; ++j)
    for (index_t i = 0; i < src.rows; ++i) dst(i, j) = src(i, j);
}

}  // namespace tqr::la
