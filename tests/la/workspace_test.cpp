// The tile kernels' scratch comes from the per-thread Workspace: after one
// warm-up call per shape no kernel call allocates, and no kernel reads
// workspace memory it did not write in the same call.
//
// Allocations are counted by replacing the global operator new in this test
// binary; the count only runs on a thread that has armed it, and only around
// the kernel call itself.
#include "la/workspace.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "la/kernels.hpp"
#include "la/matrix.hpp"

namespace {

thread_local bool g_count_allocations = false;
thread_local long g_allocations = 0;

void* counted_alloc(std::size_t n) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  if (g_count_allocations) ++g_allocations;
  const std::size_t align = static_cast<std::size_t>(al);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0)
    throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tqr::la {
namespace {

/// Heap allocations made on this thread while f runs.
long allocations_during(const std::function<void()>& f) {
  g_allocations = 0;
  g_count_allocations = true;
  f();
  g_count_allocations = false;
  return g_allocations;
}

/// One kernel call on b x b tiles: its inputs (restored before each call)
/// and the call itself. The tiles it writes are `work`.
template <typename T>
struct KernelCase {
  std::string name;
  std::vector<Matrix<T>> source, work;
  std::function<void(std::vector<Matrix<T>>&)> call;

  void run() {
    for (std::size_t i = 0; i < source.size(); ++i)
      copy<T>(source[i].view(), work[i].view());
    call(work);
  }
};

template <typename T>
Matrix<T> upper_tile(index_t b, std::uint64_t seed) {
  const auto rnd = Matrix<T>::random(b, b, seed);
  Matrix<T> r(b, b);
  for (index_t j = 0; j < b; ++j)
    for (index_t i = 0; i <= j; ++i) r(i, j) = rnd(i, j) + (i == j ? 2 : 0);
  return r;
}

/// geqrt/unmqr/tsqrt/tsmqr/ttqrt/ttmqr (both directions for the applies)
/// at tile size b; with `poison`, every input holds NaN.
template <typename T>
std::vector<KernelCase<T>> kernel_cases(index_t b, bool poison) {
  const auto a = Matrix<T>::random(b, b, 1);
  const auto c1 = Matrix<T>::random(b, b, 2);
  const auto c2 = Matrix<T>::random(b, b, 3);
  const auto r1 = upper_tile<T>(b, 4);
  const auto r2 = upper_tile<T>(b, 5);
  const auto a2 = Matrix<T>::random(b, b, 6);
  Matrix<T> t(b, b);

  Matrix<T> vg = a, tg(b, b);
  geqrt<T>(vg.view(), tg.view());
  Matrix<T> rs = r1, vs = a2, ts(b, b);
  tsqrt<T>(rs.view(), vs.view(), ts.view());
  Matrix<T> rt = r1, vt = r2, tt(b, b);
  ttqrt<T>(rt.view(), vt.view(), tt.view());

  using W = std::vector<Matrix<T>>;
  std::vector<KernelCase<T>> cases;
  cases.push_back({"geqrt", {a, t}, {}, [](W& w) {
                     geqrt<T>(w[0].view(), w[1].view());
                   }});
  cases.push_back({"tsqrt", {r1, a2, t}, {}, [](W& w) {
                     tsqrt<T>(w[0].view(), w[1].view(), w[2].view());
                   }});
  cases.push_back({"ttqrt", {r1, r2, t}, {}, [](W& w) {
                     ttqrt<T>(w[0].view(), w[1].view(), w[2].view());
                   }});
  for (const Trans trans : {Trans::kTrans, Trans::kNoTrans}) {
    const std::string dir = trans == Trans::kTrans ? "^T" : "";
    cases.push_back({"unmqr" + dir, {vg, tg, c1}, {}, [trans](W& w) {
                       unmqr<T>(w[0].view(), w[1].view(), w[2].view(), trans);
                     }});
    cases.push_back({"tsmqr" + dir, {vs, ts, c1, c2}, {}, [trans](W& w) {
                       tsmqr<T>(w[0].view(), w[1].view(), w[2].view(),
                                w[3].view(), trans);
                     }});
    cases.push_back({"ttmqr" + dir, {vt, tt, c1, c2}, {}, [trans](W& w) {
                       ttmqr<T>(w[0].view(), w[1].view(), w[2].view(),
                                w[3].view(), trans);
                     }});
  }
  for (auto& c : cases) {
    if (poison)
      for (auto& s : c.source)
        s.view().fill(std::numeric_limits<T>::quiet_NaN());
    c.work = c.source;
  }
  return cases;
}

template <typename T>
void expect_no_allocation_after_warmup() {
  for (const index_t b : {16, 64, 128}) {
    auto cases = kernel_cases<T>(b, false);
    for (auto& c : cases) c.run();  // warm-up: one call per shape
    for (int rep = 0; rep < 3; ++rep)
      for (auto& c : cases)
        EXPECT_EQ(allocations_during([&] { c.run(); }), 0)
            << c.name << " b=" << b << " call " << rep + 2;
  }
}

TEST(Kernels, NoHeapAllocationAfterWarmup) {
  expect_no_allocation_after_warmup<double>();
  expect_no_allocation_after_warmup<float>();
}

/// Fills every byte this thread's workspace holds with NaN.
template <typename T>
void poison_workspace() {
  Workspace& ws = Workspace::local();
  Workspace::Frame frame(ws);
  const std::size_t n = ws.reserved_bytes() / sizeof(T);
  T* p = frame.array<T>(n);
  for (std::size_t i = 0; i < n; ++i)
    p[i] = std::numeric_limits<T>::quiet_NaN();
}

template <typename T>
void expect_stale_workspace_unread() {
  for (const index_t b : {16, 64, 128}) {
    auto cases = kernel_cases<T>(b, false);
    auto poisoned = kernel_cases<T>(b, true);
    for (auto& c : cases) {
      // A fresh thread starts with an empty workspace.
      std::vector<Matrix<T>> fresh;
      std::thread([&] {
        c.run();
        fresh = c.work;
      }).join();
      // This one first runs every kernel on NaN input, then overwrites all
      // of its workspace with NaN.
      std::vector<Matrix<T>> stale;
      std::thread([&] {
        for (auto& p : poisoned) p.run();
        poison_workspace<T>();
        c.run();
        stale = c.work;
      }).join();
      for (std::size_t i = 0; i < fresh.size(); ++i)
        EXPECT_EQ(std::memcmp(fresh[i].data(), stale[i].data(),
                              sizeof(T) * static_cast<std::size_t>(b) * b),
                  0)
            << c.name << " b=" << b << " output " << i;
    }
  }
}

TEST(Kernels, StaleWorkspaceIsNeverRead) {
  expect_stale_workspace_unread<double>();
  expect_stale_workspace_unread<float>();
}

TEST(Workspace, NestedFramesReleaseInOrderAndKeepThePeak) {
  Workspace ws;
  {
    Workspace::Frame outer(ws);
    double* x = outer.array<double>(100);
    EXPECT_TRUE(is_matrix_aligned(x));
    x[0] = 1.0;
    {
      Workspace::Frame inner(ws);
      // Larger than anything reserved so far: a new chunk, and x stays put.
      double* y = inner.array<double>(10000);
      EXPECT_TRUE(is_matrix_aligned(y));
      y[9999] = 2.0;
    }
    EXPECT_EQ(x[0], 1.0);
  }
  // The stack emptied: one chunk holding the peak, enough to replay it.
  const std::size_t reserved = ws.reserved_bytes();
  EXPECT_GE(reserved, (100 + 10000) * sizeof(double));
  {
    Workspace::Frame outer(ws);
    (void)outer.array<double>(100);
    Workspace::Frame inner(ws);
    EXPECT_EQ(allocations_during([&] { (void)inner.array<double>(10000); }),
              0);
  }
  EXPECT_EQ(ws.reserved_bytes(), reserved);
}

}  // namespace
}  // namespace tqr::la
