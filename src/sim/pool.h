// Per-thread pooled allocator for coroutine frames and spawn join-states.
//
// Every simulated activity is a coroutine, so the kernel's hot path used to
// pay one global operator new/delete per task frame and per spawned process.
// FramePool recycles those blocks through per-thread, size-bucketed free
// lists: after warm-up, creating a task or spawning a process performs no
// global allocation at all (see FramePool::threadStats in tests).
//
// Thread model: the pool is thread_local. A Simulation and everything it
// spawns live on a single thread (sim::parallelMap runs each simulation
// to completion on one thread), so blocks never migrate between pools in
// practice; if a block is freed on a different thread than it was allocated
// on, it simply joins that thread's free list, which is benign.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

namespace daosim::sim::detail {

class FramePool {
 public:
  struct Stats {
    std::uint64_t allocs = 0;    // total allocate() calls
    std::uint64_t reuses = 0;    // served from a free list
    std::uint64_t fresh = 0;     // new bucketed block from ::operator new
    std::uint64_t oversize = 0;  // larger than the largest bucket
  };

  static void* allocate(std::size_t n) { return local().alloc(n); }
  static void deallocate(void* p) noexcept { local().free(p); }

  /// Allocation counters for the calling thread (tests assert steady-state
  /// reuse through these).
  static const Stats& threadStats() noexcept { return local().stats_; }

  /// Returns all cached blocks on the calling thread to the system.
  static void trimThreadCache() noexcept { local().trim(); }

  ~FramePool() { trim(); }

 private:
  // Block layout: [16-byte header][payload]. The header stores the bucket
  // index (or kOversize) and doubles as the free-list link; 16 bytes keeps
  // the payload at the default operator-new alignment coroutine frames
  // require.
  static constexpr std::size_t kHeader = 16;
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kBucketCount = 64;  // payloads up to 4 KiB
  static constexpr std::uint64_t kOversize = ~std::uint64_t{0};

  struct FreeNode {
    FreeNode* next;
  };

  static FramePool& local() noexcept {
    thread_local FramePool pool;
    return pool;
  }

  void* alloc(std::size_t n) {
    ++stats_.allocs;
    if (n == 0) n = 1;
    const std::size_t idx = (n - 1) / kGranularity;
    if (idx >= kBucketCount) {
      ++stats_.oversize;
      return stamp(::operator new(kHeader + n), kOversize);
    }
    if (FreeNode* node = free_[idx]) {
      free_[idx] = node->next;
      ++stats_.reuses;
      return stamp(node, idx);
    }
    ++stats_.fresh;
    return stamp(::operator new(kHeader + (idx + 1) * kGranularity), idx);
  }

  void free(void* p) noexcept {
    if (p == nullptr) return;
    auto* head =
        reinterpret_cast<std::uint64_t*>(static_cast<char*>(p) - kHeader);
    const std::uint64_t idx = head[0];
    if (idx == kOversize) {
      ::operator delete(head);
      return;
    }
    auto* node = reinterpret_cast<FreeNode*>(head);
    node->next = free_[idx];
    free_[idx] = node;
  }

  void trim() noexcept {
    for (auto& list : free_) {
      while (list != nullptr) {
        FreeNode* next = list->next;
        ::operator delete(list);
        list = next;
      }
    }
  }

  static void* stamp(void* block, std::uint64_t idx) noexcept {
    auto* head = static_cast<std::uint64_t*>(block);
    head[0] = idx;
    return static_cast<char*>(block) + kHeader;
  }

  FreeNode* free_[kBucketCount] = {};
  Stats stats_;
};

}  // namespace daosim::sim::detail
