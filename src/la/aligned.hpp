// 64-byte aligned allocation for matrix storage.
//
// The SIMD micro-kernel in la/microkernel.hpp issues vector loads from packed
// panels and from owning-matrix columns; allocating every owning buffer on a
// 64-byte boundary (one cache line, one AVX-512 vector) makes those loads
// aligned and keeps tiles from straddling cache lines. All owning containers
// (Matrix, TiledMatrix, the packing buffers) use AlignedAllocator so the
// guarantee holds end to end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace tqr::la {

/// Alignment (bytes) of every owning matrix buffer. One cache line; covers
/// the widest vector unit we target (AVX-512).
inline constexpr std::size_t kMatrixAlignment = 64;

static_assert((kMatrixAlignment & (kMatrixAlignment - 1)) == 0,
              "alignment must be a power of two");

/// Minimal std::allocator replacement returning kMatrixAlignment-aligned
/// storage. Stateless, so all instances compare equal and containers can
/// swap/move buffers freely.
///
/// Alignment is done by over-allocating with plain `operator new` and
/// stashing the raw pointer just below the aligned block, instead of
/// `operator new(align_val_t)`: glibc's aligned path costs several times a
/// plain allocation, which is measurable on the many small per-kernel-call
/// temporaries the tile kernels create.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  static_assert(alignof(T) <= kMatrixAlignment,
                "type alignment exceeds the matrix buffer alignment");

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}  // NOLINT

  T* allocate(std::size_t n) {
    const std::size_t pad = kMatrixAlignment + sizeof(void*);
    void* raw = ::operator new(n * sizeof(T) + pad);
    auto addr = reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*);
    addr = (addr + kMatrixAlignment - 1) & ~(kMatrixAlignment - 1);
    auto* aligned = reinterpret_cast<void**>(addr);
    aligned[-1] = raw;
    return reinterpret_cast<T*>(aligned);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const { return true; }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const { return false; }
};

/// AlignedAllocator whose value-less construct default-initializes, so
/// resize() on a vector of a trivially constructible T leaves the new
/// elements unwritten and their pages unfaulted until first use. Only
/// TiledMatrix's unfilled planes use it; every other AlignedVector keeps the
/// zeroing std::vector semantics.
template <typename T>
struct UnfilledAlignedAllocator : AlignedAllocator<T> {
  UnfilledAlignedAllocator() = default;
  template <typename U>
  UnfilledAlignedAllocator(const UnfilledAlignedAllocator<U>&) {}  // NOLINT

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// True when p sits on a kMatrixAlignment boundary (test/assert helper).
inline bool is_matrix_aligned(const void* p) {
  return (reinterpret_cast<std::uintptr_t>(p) % kMatrixAlignment) == 0;
}

}  // namespace tqr::la
