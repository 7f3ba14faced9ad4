// Per-thread scratch stack for the tile kernels.
//
// Every temporary a tile kernel needs — the compact-WY W blocks, the T-merge
// cross products, the Householder column buffer of the unblocked factors, the
// packed GEMM panels and the triangular multiply's copy of its operand —
// comes from the calling thread's Workspace instead of the heap. The kernels
// nest (tsqrt -> tsmqr -> trmm -> packed engine, geqrt -> unmqr -> gemm), so
// the workspace is a stack: a Frame marks the top when it is constructed and
// releases everything taken through it when it is destroyed.
//
// Storage is a list of 64-byte-aligned chunks. A request that does not fit
// the current chunk opens a new one, so growth never moves memory an outer
// frame still holds. When the outermost frame closes, the chunks are merged
// into one chunk sized to the peak the stack has reached. After one call of
// a given shape the same call again takes nothing from the heap, and what a
// thread keeps is the peak scratch of the largest kernel call it has run
// (DESIGN.md, "Kernel workspace").
//
// Memory is handed out uninitialized: every caller writes what it reads.
#pragma once

#include <cstddef>
#include <vector>

#include "la/aligned.hpp"
#include "la/matrix.hpp"

namespace tqr::la {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The calling thread's workspace.
  static Workspace& local();

  /// Bytes this workspace holds from the heap, over all chunks.
  std::size_t reserved_bytes() const;

 private:
  // Stack top: chunk index and byte offset into it (chunks after `chunk`
  // hold nothing live), plus the bytes taken so far.
  struct Top {
    std::size_t chunk, offset, in_use;
  };

 public:
  /// Scope of scratch: everything taken through a Frame is released when it
  /// is destroyed. Frames on one thread must close in reverse order of
  /// opening, which RAII scoping gives.
  class Frame {
   public:
    Frame() : Frame(Workspace::local()) {}
    explicit Frame(Workspace& ws) : ws_(ws), top_(ws.top_) {}
    ~Frame() { ws_.release(top_); }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    /// n uninitialized, kMatrixAlignment-aligned elements.
    template <typename T>
    T* array(std::size_t n) {
      return static_cast<T*>(ws_.take(n * sizeof(T)));
    }

    /// Uninitialized rows x cols column-major block (ld == rows).
    template <typename T>
    MatrixView<T> matrix(index_t rows, index_t cols) {
      return MatrixView<T>{array<T>(checked_extent(rows, cols)), rows, cols,
                           rows};
    }

   private:
    Workspace& ws_;
    const Top top_;
  };

 private:
  using Chunk = std::vector<std::byte, UnfilledAlignedAllocator<std::byte>>;

  void* take(std::size_t bytes);
  void release(const Top& top);

  std::vector<Chunk> chunks_;
  Top top_{0, 0, 0};
  std::size_t peak_ = 0;  // high-water mark of top_.in_use
};

}  // namespace tqr::la
