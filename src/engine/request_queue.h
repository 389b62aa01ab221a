// Per-server request queue implementing the paper's execution scheduling
// and merging (Section V-B).
//
// Incoming traversal requests explode into per-vertex tasks. Worker threads
// pop tasks; scheduling and merging behaviour is carried per task because
// the engine mode travels with each traversal:
//   GraphTrek tasks - smallest-step-first order ("process the slow steps
//                     with higher priority to help them catch up"), and
//                     mergeable: popping one extracts every queued task for
//                     the same {travel, vertex} so a single disk access
//                     serves them all ("combined visits").
//   Async-GT tasks  - plain FIFO, never merged.
#pragma once

#include <cassert>
#include <map>
#include <vector>

#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/engine/types.h"

namespace gt::engine {

struct VertexTask {
  TravelId travel = 0;
  uint32_t step = 0;
  graph::VertexId vid = 0;
  ExecId exec = 0;      // owning local execution (0 for sync-engine tasks)
  bool is_owner = true; // false: redundant arrival that must re-consult the memo
  bool sync = false;    // synchronous-engine task
};

class RequestQueue {
 public:
  RequestQueue() : cv_(&mu_) {}

  // `priority`: order by (step, arrival) rather than arrival only.
  // `mergeable`: candidate for execution merging.
  void Push(VertexTask task, bool priority, bool mergeable) GT_EXCLUDES(mu_) {
    {
      MutexLock lk(&mu_);
      const uint64_t seq = next_seq_++;
      // Priority tasks rank by (step, arrival); FIFO tasks rank in the
      // step-0 band by arrival alone, so fresh travels of either class
      // interleave exactly as before. The two classes can never collide:
      // `seq` is globally unique and carried at full 64-bit width (the old
      // packed encoding truncated it to 44 bits, so a FIFO key could equal
      // a priority key and the emplace below silently dropped a task while
      // merge_index_ still recorded it).
      const OrderKey key = priority ? OrderKey{task.step, seq} : OrderKey{0, seq};
      if (mergeable) merge_index_[MergeKey{task.travel, task.vid}].push_back(key);
      queue_.emplace(key, Item{std::move(task), mergeable});
      if (queue_.size() > high_watermark_) high_watermark_ = queue_.size();
    }
    cv_.Signal();
  }

  // Blocks until tasks are available (or shutdown). Returns the scheduled
  // task plus — when it is mergeable — all other queued tasks for the same
  // {travel, vertex}: exactly one merge group, served by one disk access.
  // Returns false on shutdown.
  bool PopBatch(std::vector<VertexTask>* batch) GT_EXCLUDES(mu_) {
    batch->clear();
    MutexLock lk(&mu_);
    while (!stop_ && queue_.empty()) cv_.Wait();
    if (stop_) return false;

    auto first = queue_.begin();
    if (!first->second.mergeable) {
      batch->push_back(std::move(first->second.task));
      queue_.erase(first);
      return true;
    }
    ExtractGroupLocked(
        merge_index_.find(MergeKey{first->second.task.travel, first->second.task.vid}),
        batch);
    return true;
  }

  // Drops every queued task belonging to `travel` (cooperative abort /
  // cancellation reclaim). Returns the number of tasks removed.
  size_t EraseTravel(TravelId travel) GT_EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    size_t erased = 0;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (it->second.task.travel == travel) {
        it = queue_.erase(it);
        erased++;
      } else {
        ++it;
      }
    }
    auto lo = merge_index_.lower_bound(MergeKey{travel, 0});
    auto hi = lo;
    while (hi != merge_index_.end() && hi->first.travel == travel) ++hi;
    merge_index_.erase(lo, hi);
    return erased;
  }

  // Test hook: fast-forwards the arrival sequence (the key-collision
  // regression needs seq values near the old 44-bit packing boundary, which
  // brute-force pushes cannot reach).
  void SetNextSeqForTest(uint64_t seq) GT_EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    next_seq_ = seq;
  }

  void Shutdown() GT_EXCLUDES(mu_) {
    {
      MutexLock lk(&mu_);
      stop_ = true;
    }
    cv_.SignalAll();
  }

  size_t size() const GT_EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    return queue_.size();
  }

  size_t high_watermark() const GT_EXCLUDES(mu_) {
    MutexLock lk(&mu_);
    return high_watermark_;
  }

 private:
  // Scheduling rank. Priority tasks carry their step in `band`; FIFO tasks
  // always use band 0. `seq` is the full 64-bit arrival number, so keys are
  // unique across both classes by construction (no packing, no wrap).
  struct OrderKey {
    uint64_t band;
    uint64_t seq;
    bool operator<(const OrderKey& o) const {
      if (band != o.band) return band < o.band;
      return seq < o.seq;
    }
    bool operator==(const OrderKey& o) const { return band == o.band && seq == o.seq; }
  };

  struct Item {
    VertexTask task;
    bool mergeable;
  };

  struct MergeKey {
    TravelId travel;
    graph::VertexId vid;
    bool operator<(const MergeKey& o) const {
      if (travel != o.travel) return travel < o.travel;
      return vid < o.vid;
    }
  };

  // Moves every queued task of one merge-index group into `batch` and
  // erases the group. Every key the index records must still be queued —
  // the two are updated together under mu_ — so a failed find means the
  // key spaces collided (the pre-fix bug) and dereferencing end() is UB.
  void ExtractGroupLocked(std::map<MergeKey, std::vector<OrderKey>>::iterator idx,
                          std::vector<VertexTask>* batch) GT_REQUIRES(mu_) {
    for (const OrderKey& key : idx->second) {
      auto it = queue_.find(key);
      assert(it != queue_.end() && "merge_index_ key missing from queue_");
      if (it == queue_.end()) continue;
      batch->push_back(std::move(it->second.task));
      queue_.erase(it);
    }
    merge_index_.erase(idx);
  }

  mutable Mutex mu_;
  CondVar cv_;
  std::map<OrderKey, Item> queue_ GT_GUARDED_BY(mu_);
  std::map<MergeKey, std::vector<OrderKey>> merge_index_ GT_GUARDED_BY(mu_);
  uint64_t next_seq_ GT_GUARDED_BY(mu_) = 0;
  size_t high_watermark_ GT_GUARDED_BY(mu_) = 0;
  bool stop_ GT_GUARDED_BY(mu_) = false;
};

}  // namespace gt::engine
