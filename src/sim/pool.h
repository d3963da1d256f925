// Per-thread pooled allocator for coroutine frames and spawn join-states.
//
// Every simulated activity is a coroutine, so the kernel's hot path used to
// pay one global operator new/delete per task frame and per spawned process.
// FramePool recycles those blocks through per-thread, size-bucketed free
// lists: after warm-up, creating a task or spawning a process performs no
// global allocation at all (see FramePool::threadStats in tests).
//
// A block carries no header: every owner frees it with the size it asked
// for (the sized operator delete of the promise types and JoinState), and
// the size names the bucket.
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
  /// Frees a block from allocate(n); `n` must be the size it was given.
  static void deallocate(void* p, std::size_t n) noexcept {
    local().free(p, n);
  }

  /// Allocation counters for the calling thread (tests assert steady-state
  /// reuse through these).
  static const Stats& threadStats() noexcept { return local().stats_; }

  /// Returns all cached blocks on the calling thread to the system.
  static void trimThreadCache() noexcept { local().trim(); }

  ~FramePool() { trim(); }

 private:
  // Bucket i holds blocks of (i + 1) * kGranularity bytes; a free block's
  // first word links the free list. Larger requests go to ::operator new.
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kBucketCount = 64;  // blocks up to 4 KiB

  struct FreeNode {
    FreeNode* next;
  };

  static FramePool& local() noexcept {
    thread_local FramePool pool;
    return pool;
  }

  static std::size_t bucket(std::size_t n) noexcept {
    return n == 0 ? 0 : (n - 1) / kGranularity;
  }

  void* alloc(std::size_t n) {
    ++stats_.allocs;
    const std::size_t idx = bucket(n);
    if (idx >= kBucketCount) {
      ++stats_.oversize;
      return ::operator new(n);
    }
    if (FreeNode* node = free_[idx]) {
      free_[idx] = node->next;
      ++stats_.reuses;
      return node;
    }
    ++stats_.fresh;
    return ::operator new((idx + 1) * kGranularity);
  }

  void free(void* p, std::size_t n) noexcept {
    if (p == nullptr) return;
    const std::size_t idx = bucket(n);
    if (idx >= kBucketCount) {
      ::operator delete(p, n);
      return;
    }
    auto* node = static_cast<FreeNode*>(p);
    node->next = free_[idx];
    free_[idx] = node;
  }

  void trim() noexcept {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      while (FreeNode* node = free_[i]) {
        free_[i] = node->next;
        ::operator delete(node, (i + 1) * kGranularity);
      }
    }
  }

  FreeNode* free_[kBucketCount] = {};
  Stats stats_;
};

}  // namespace daosim::sim::detail
