// Pooled allocation for the simulation hot path.
//
// A 16384-rank simulation allocates millions of small, short-lived objects:
// coroutine frames (one per Task invocation), Async states, pending
// send/recv queue nodes. Under the seed engine these all hit the global
// allocator; FramePool replaces that with a size-binned free list so
// steady-state simulation performs no heap allocation at all. The
// simulation is single-threaded by construction (the engine resumes one
// coroutine at a time), so the free lists are thread-local and unlocked.
//
// Memory is recycled, never returned to the OS until thread exit; peak
// usage is bounded by the peak live population of each size class, which
// for a simulation is reached within the first few steps.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace hs::desim {

class FramePool {
 public:
  /// Allocate `bytes` (rounded up to a 64-byte bin; > 4 KiB falls through
  /// to the global allocator).
  static void* allocate(std::size_t bytes) {
    const std::size_t bin = bin_index(bytes);
    if (bin < kBins) {
      auto& list = bins().free[bin];
      if (!list.empty()) {
        void* p = list.back();
        list.pop_back();
        return p;
      }
      return ::operator new((bin + 1) * kBinBytes);
    }
    return ::operator new(bytes);
  }

  static void deallocate(void* p, std::size_t bytes) noexcept {
    const std::size_t bin = bin_index(bytes);
    if (bin < kBins) {
      try {
        bins().free[bin].push_back(p);
        return;
      } catch (...) {
        // Free-list bookkeeping failed to grow; fall through and release.
      }
    }
    ::operator delete(p);
  }

 private:
  static constexpr std::size_t kBinBytes = 64;
  static constexpr std::size_t kBins = 64;  // bins cover 64 B .. 4 KiB

  static std::size_t bin_index(std::size_t bytes) noexcept {
    return bytes == 0 ? 0 : (bytes - 1) / kBinBytes;
  }

  struct BinSet {
    std::vector<void*> free[kBins];
    ~BinSet() {
      for (auto& list : free)
        for (void* p : list) ::operator delete(p);
    }
  };

  static BinSet& bins() {
    static thread_local BinSet set;
    return set;
  }
};

/// std::allocator drop-in backed by FramePool; used for the hot hash maps
/// and queues of the message-passing core (node and small-array churn).
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    return static_cast<T*>(FramePool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace hs::desim
