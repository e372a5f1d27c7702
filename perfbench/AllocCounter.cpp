//===- perfbench/AllocCounter.cpp - Counting global operator new ----------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> Armed{false};
std::atomic<uint64_t> ExitedAllocs{0};
std::atomic<uint64_t> ExitedBytes{0};

/// One thread's tally, folded into the Exited* totals when the thread ends.
/// The thread_local's destructor registration goes through calloc, never
/// operator new, so first use inside operator new does not recurse.
struct ThreadTally {
  perfbench::AllocTally T;
  ~ThreadTally() {
    ExitedAllocs.fetch_add(T.Allocs, std::memory_order_relaxed);
    ExitedBytes.fetch_add(T.Bytes, std::memory_order_relaxed);
  }
};
thread_local ThreadTally Tally;

void *counted(void *P, std::size_t Size) {
  if (!P)
    throw std::bad_alloc();
  if (Armed.load(std::memory_order_relaxed)) {
    Tally.T.Allocs += 1;
    Tally.T.Bytes += Size;
  }
  return P;
}

void release(void *P) noexcept { std::free(P); }

void *alignedAlloc(std::size_t Size, std::align_val_t Al) {
  void *P = nullptr;
  if (posix_memalign(&P, static_cast<std::size_t>(Al), Size ? Size : 1) != 0)
    P = nullptr;
  return P;
}

} // namespace

void perfbench::setAllocCounting(bool On) {
  Armed.store(On, std::memory_order_relaxed);
}

perfbench::AllocTally perfbench::allocTotals() {
  AllocTally Sum = Tally.T;
  Sum.Allocs += ExitedAllocs.load(std::memory_order_relaxed);
  Sum.Bytes += ExitedBytes.load(std::memory_order_relaxed);
  return Sum;
}

void *operator new(std::size_t Size) {
  return counted(std::malloc(Size ? Size : 1), Size);
}
void *operator new[](std::size_t Size) {
  return counted(std::malloc(Size ? Size : 1), Size);
}
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return operator new(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return operator new[](Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new(std::size_t Size, std::align_val_t Al) {
  return counted(alignedAlloc(Size, Al), Size);
}
void *operator new[](std::size_t Size, std::align_val_t Al) {
  return counted(alignedAlloc(Size, Al), Size);
}

void operator delete(void *P) noexcept { release(P); }
void operator delete[](void *P) noexcept { release(P); }
void operator delete(void *P, std::size_t) noexcept { release(P); }
void operator delete[](void *P, std::size_t) noexcept { release(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { release(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  release(P);
}
void operator delete(void *P, std::align_val_t) noexcept { release(P); }
void operator delete[](void *P, std::align_val_t) noexcept { release(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  release(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  release(P);
}
