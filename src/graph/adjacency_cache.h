// Compact CSR-style adjacency cache: the in-memory topology companion to
// the LSM-backed GraphStore (GRAPHITE's pairing of a durable store with a
// compact traversal representation).
//
// Unit of caching: one immutable *row* per (src vertex, edge label) — or per
// src vertex across all labels (kAllLabels) — holding that vertex's
// out-edges as flat arrays carved from one arena: per-edge label, dst and an
// offset table into a concatenated buffer of encoded edge values. Rows are
// built once from a KV prefix scan (or in bulk by GraphStore::WarmAdjacency)
// and served read-only via shared_ptr, so traversal workers iterate plain
// contiguous memory instead of the memtable/table iterator stack, and
// eviction or invalidation never pulls a row out from under a reader.
//
// Eviction: byte-budgeted sharded LRU (the src/kv/lru_cache.h idiom; rows
// are charged at their arena footprint). Sharding is by src vertex so every
// row of one vertex lives in one shard and invalidation is single-lock.
//
// Invalidation contract (mutators must call these, which GraphStore does):
//   PutEdge(src, label)  -> InvalidateEdge(src, label): drops the (src,
//                           label) row and the (src, kAllLabels) row.
//   DeleteVertex(vid)    -> InvalidateVertex(vid): drops every row of vid.
// Edges *pointing to* a mutated vertex are untouched — identical to the KV
// layout, where an edge lives only under its source key and the engine
// re-reads the dst vertex record (absorbing deletions) on the next step.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/arena.h"
#include "src/common/hash.h"
#include "src/common/metrics.h"
#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/graph/encoding.h"

namespace gt::graph {

struct AdjacencyCacheOptions {
  size_t capacity_bytes = 16 << 20;
  int shards = 4;
  uint32_t server_id = 0;  // metrics instance label
};

// One immutable CSR row. Edges are in KV key order: (label, dst) ascending,
// so a single-label slice of an all-labels row is a contiguous run.
class AdjacencyRow {
 public:
  // The sentinel label for a row covering every out-edge of its src.
  static constexpr LabelId kAllLabels = 0xffffffffu;

  uint32_t size() const { return count_; }
  LabelId label_at(uint32_t i) const { return labels_[i]; }
  VertexId dst_at(uint32_t i) const { return dsts_[i]; }
  // Encoded edge value (DecodeEdgeValue) of edge i.
  std::string_view props_at(uint32_t i) const {
    return {prop_bytes_ + prop_off_[i], prop_off_[i + 1] - prop_off_[i]};
  }

  // Bytes the KV layer read to build this row (key + value sizes); the
  // device model charges this on a hit, mirroring the original scan.
  uint64_t source_bytes() const { return source_bytes_; }
  // Cache charge: the arena footprint plus the object itself.
  size_t charge() const { return arena_.BlockBytes() + sizeof(AdjacencyRow); }

  // KV sequence number this row's content is valid from. A *resident* row
  // is valid on [build_seq, now] — every mutation of its src after the
  // build either invalidated the row or discarded its insert (epoch token)
  // — so a snapshot read pinned at sequence S may be served from cache iff
  // build_seq <= S; a row built after the pin may contain edges the
  // snapshot must not see and is bypassed instead.
  uint64_t build_seq() const { return build_seq_; }

  // Builder: append edges in scan order, then Build() to flatten.
  class Builder {
   public:
    void Add(LabelId label, VertexId dst, std::string_view encoded_props) {
      labels_.push_back(label);
      dsts_.push_back(dst);
      prop_off_.push_back(static_cast<uint32_t>(prop_bytes_.size()));
      prop_bytes_.append(encoded_props);
    }
    void AddSourceBytes(uint64_t n) { source_bytes_ += n; }
    // Sequence the finished row is valid from (see AdjacencyRow::build_seq).
    void SetBuildSeq(uint64_t seq) { build_seq_ = seq; }
    size_t size() const { return dsts_.size(); }
    std::shared_ptr<const AdjacencyRow> Build() const;

   private:
    std::vector<LabelId> labels_;
    std::vector<VertexId> dsts_;
    std::vector<uint32_t> prop_off_;
    std::string prop_bytes_;
    uint64_t source_bytes_ = 0;
    uint64_t build_seq_ = 0;
  };

 private:
  AdjacencyRow() : arena_(/*block_size=*/512) {}

  Arena arena_;  // exact-sized large allocations; small rows share one block
  uint32_t count_ = 0;
  const LabelId* labels_ = nullptr;
  const VertexId* dsts_ = nullptr;
  const uint32_t* prop_off_ = nullptr;  // count_ + 1 entries
  const char* prop_bytes_ = nullptr;
  uint64_t source_bytes_ = 0;
  uint64_t build_seq_ = 0;
};

class AdjacencyCache {
 public:
  static constexpr LabelId kAllLabels = AdjacencyRow::kAllLabels;

  explicit AdjacencyCache(AdjacencyCacheOptions opts);
  // Hands the resident bytes back to the shared gt_graph_adj_bytes gauge.
  ~AdjacencyCache();

  // nullptr on miss. Hits refresh LRU recency. `count_miss=false` makes a
  // miss silent — used for the exact-label probe in ScanEdges, which can
  // still be served by the (src, all-labels) row; hits+misses then count
  // scans served from cache vs scans that had to touch the KV store, not
  // raw probe attempts.
  std::shared_ptr<const AdjacencyRow> Lookup(VertexId src, LabelId label,
                                             bool count_miss = true);

  // Call before scanning the KV store to build a row for `src`; the
  // returned token captures the shard's invalidation epoch. Insert() drops
  // the row on the floor if any invalidation for the shard ran in between —
  // without this, a row built from a KV snapshot taken before a concurrent
  // PutEdge could be cached *after* that PutEdge's invalidation, and the
  // stale row would be served forever.
  uint64_t BeginBuild(VertexId src);

  // Inserts (replacing any existing row for the key) and evicts LRU rows
  // beyond the shard's byte budget. No-op if the shard was invalidated
  // since `token` was issued by BeginBuild.
  void Insert(VertexId src, LabelId label,
              std::shared_ptr<const AdjacencyRow> row, uint64_t token);

  // See the invalidation contract in the header comment.
  void InvalidateEdge(VertexId src, LabelId label);
  void InvalidateVertex(VertexId src);

  // Records one row build of `us` microseconds (gt_graph_adj_build metrics).
  void RecordBuild(uint64_t us);

  size_t capacity_bytes() const { return opts_.capacity_bytes; }
  size_t usage() const;
  uint64_t hits() const { return hits_->Value(); }
  uint64_t misses() const { return misses_->Value(); }
  uint64_t evictions() const { return evictions_->Value(); }
  uint64_t builds() const { return builds_->Value(); }

 private:
  struct RowKey {
    VertexId src;
    LabelId label;
    bool operator<(const RowKey& o) const {
      if (src != o.src) return src < o.src;
      return label < o.label;
    }
  };

  struct Entry {
    std::shared_ptr<const AdjacencyRow> row;
    size_t charge = 0;
    std::list<RowKey>::iterator lru_pos;
  };

  struct Shard {
    mutable Mutex mu;  // leaf lock: nothing else is acquired while held
    std::list<RowKey> lru GT_GUARDED_BY(mu);  // front = most recent
    std::map<RowKey, Entry> rows GT_GUARDED_BY(mu);
    size_t usage GT_GUARDED_BY(mu) = 0;
    uint64_t gen GT_GUARDED_BY(mu) = 0;  // bumped by every invalidation
  };

  Shard& ShardFor(VertexId src) { return shard_[Mix64(src) % num_shards_]; }
  void EraseLocked(Shard& s, std::map<RowKey, Entry>::iterator it) GT_REQUIRES(s.mu);
  void EvictLocked(Shard& s) GT_REQUIRES(s.mu);

  AdjacencyCacheOptions opts_;
  size_t num_shards_;
  size_t per_shard_capacity_;
  std::unique_ptr<Shard[]> shard_;

  // Registry handles (lock-free on the hot path), labeled by server.
  metrics::Counter* hits_;
  metrics::Counter* misses_;
  metrics::Counter* evictions_;
  metrics::Counter* builds_;
  metrics::Gauge* bytes_;
  metrics::Histogram* build_us_;
};

}  // namespace gt::graph
