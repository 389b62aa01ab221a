// Bump allocator shared by the KV memtable's skip list and the graph
// layer's adjacency-cache rows. Allocations live until the arena is
// destroyed; there is no per-allocation free.
//
// Thread-compatibility contract: Allocate/AllocateAligned must be
// externally serialized (the memtable runs them under the DB write lock;
// a cache row is built by one thread before it is published); MemoryUsage()
// alone may be read concurrently.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace gt {

class Arena {
 public:
  static constexpr size_t kDefaultBlockSize = 64 * 1024;

  // `block_size` tunes the bump-block granularity: the memtable keeps the
  // 64 KiB default, adjacency-cache rows use exact-sized arenas so a small
  // CSR row does not pin a full block.
  explicit Arena(size_t block_size = kDefaultBlockSize)
      : block_size_(block_size == 0 ? kDefaultBlockSize : block_size) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  char* Allocate(size_t bytes) {
    if (bytes <= avail_) {
      char* r = ptr_;
      ptr_ += bytes;
      avail_ -= bytes;
      mem_.fetch_add(bytes, std::memory_order_relaxed);
      return r;
    }
    return AllocateFallback(bytes);
  }

  // Aligned for pointer-bearing structures (skip list nodes, CSR arrays).
  char* AllocateAligned(size_t bytes) {
    constexpr size_t align = alignof(std::max_align_t);
    const size_t mod = reinterpret_cast<uintptr_t>(ptr_) & (align - 1);
    const size_t slop = mod == 0 ? 0 : align - mod;
    if (bytes + slop <= avail_) {
      char* r = ptr_ + slop;
      ptr_ += bytes + slop;
      avail_ -= bytes + slop;
      mem_.fetch_add(bytes + slop, std::memory_order_relaxed);
      return r;
    }
    return AllocateFallback(bytes);  // fresh blocks are max-aligned
  }

  // Bytes handed out to callers (the memtable's flush-threshold signal).
  size_t MemoryUsage() const { return mem_.load(std::memory_order_relaxed); }

  // Bytes reserved in blocks — the arena's real footprint, which is what a
  // byte-budgeted cache must charge for.
  size_t BlockBytes() const {
    size_t total = 0;
    for (const auto& [block, size] : blocks_) {
      (void)block;
      total += size;
    }
    return total;
  }

 private:
  char* AllocateFallback(size_t bytes) {
    if (bytes > block_size_ / 4) {
      // Large allocation gets its own block; keeps current block usable.
      blocks_.emplace_back(std::make_unique<char[]>(bytes), bytes);
      mem_.fetch_add(bytes, std::memory_order_relaxed);
      return blocks_.back().first.get();
    }
    blocks_.emplace_back(std::make_unique<char[]>(block_size_), block_size_);
    ptr_ = blocks_.back().first.get();
    avail_ = block_size_;
    char* r = ptr_;
    ptr_ += bytes;
    avail_ -= bytes;
    mem_.fetch_add(bytes, std::memory_order_relaxed);
    return r;
  }

  const size_t block_size_;
  char* ptr_ = nullptr;
  size_t avail_ = 0;
  std::vector<std::pair<std::unique_ptr<char[]>, size_t>> blocks_;
  std::atomic<size_t> mem_{0};
};

}  // namespace gt
