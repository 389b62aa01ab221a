#include "src/graph/adjacency_cache.h"

#include <cstring>
#include <utility>

namespace gt::graph {

std::shared_ptr<const AdjacencyRow> AdjacencyRow::Builder::Build() const {
  std::shared_ptr<AdjacencyRow> row(new AdjacencyRow());
  const uint32_t n = static_cast<uint32_t>(dsts_.size());
  row->count_ = n;
  row->source_bytes_ = source_bytes_;
  row->build_seq_ = build_seq_;

  auto* labels = reinterpret_cast<LabelId*>(
      row->arena_.AllocateAligned(n * sizeof(LabelId)));
  auto* dsts = reinterpret_cast<VertexId*>(
      row->arena_.AllocateAligned(n * sizeof(VertexId)));
  auto* off = reinterpret_cast<uint32_t*>(
      row->arena_.AllocateAligned((n + 1) * sizeof(uint32_t)));
  char* props = row->arena_.Allocate(prop_bytes_.size());

  if (n > 0) {
    std::memcpy(labels, labels_.data(), n * sizeof(LabelId));
    std::memcpy(dsts, dsts_.data(), n * sizeof(VertexId));
    std::memcpy(off, prop_off_.data(), n * sizeof(uint32_t));
  }
  off[n] = static_cast<uint32_t>(prop_bytes_.size());
  if (!prop_bytes_.empty()) {
    std::memcpy(props, prop_bytes_.data(), prop_bytes_.size());
  }

  row->labels_ = labels;
  row->dsts_ = dsts;
  row->prop_off_ = off;
  row->prop_bytes_ = props;
  return row;
}

AdjacencyCache::AdjacencyCache(AdjacencyCacheOptions opts)
    : opts_(opts),
      num_shards_(opts.shards > 0 ? static_cast<size_t>(opts.shards) : 1),
      per_shard_capacity_(opts.capacity_bytes / num_shards_),
      shard_(std::make_unique<Shard[]>(num_shards_)) {
  metrics::Labels labels{{"server", std::to_string(opts_.server_id)}};
  auto* reg = metrics::Registry::Default();
  hits_ = reg->GetCounter("gt_graph_adj_hits_total", labels,
                          "Adjacency cache row lookups served from memory");
  misses_ = reg->GetCounter("gt_graph_adj_misses_total", labels,
                            "Adjacency cache lookups that fell through to the KV store");
  evictions_ = reg->GetCounter("gt_graph_adj_evictions_total", labels,
                               "Adjacency cache rows evicted under byte pressure");
  builds_ = reg->GetCounter("gt_graph_adj_builds_total", labels,
                            "CSR rows built from KV scans");
  bytes_ = reg->GetGauge("gt_graph_adj_bytes", labels,
                         "Resident adjacency cache bytes");
  build_us_ = reg->GetHistogram(
      "gt_graph_adj_build_us", labels,
      {10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000},
      "CSR row build latency in microseconds");
}

AdjacencyCache::~AdjacencyCache() { bytes_->Add(-static_cast<int64_t>(usage())); }

std::shared_ptr<const AdjacencyRow> AdjacencyCache::Lookup(VertexId src,
                                                           LabelId label,
                                                           bool count_miss) {
  Shard& s = ShardFor(src);
  MutexLock l(&s.mu);
  auto it = s.rows.find(RowKey{src, label});
  if (it == s.rows.end()) {
    if (count_miss) misses_->Inc();
    return nullptr;
  }
  s.lru.splice(s.lru.begin(), s.lru, it->second.lru_pos);
  hits_->Inc();
  return it->second.row;
}

uint64_t AdjacencyCache::BeginBuild(VertexId src) {
  Shard& s = ShardFor(src);
  MutexLock l(&s.mu);
  return s.gen;
}

void AdjacencyCache::Insert(VertexId src, LabelId label,
                            std::shared_ptr<const AdjacencyRow> row,
                            uint64_t token) {
  if (opts_.capacity_bytes == 0 || row == nullptr) return;
  const size_t charge = row->charge();
  Shard& s = ShardFor(src);
  MutexLock l(&s.mu);
  if (s.gen != token) return;  // invalidated while building: row may be stale
  RowKey key{src, label};
  auto it = s.rows.find(key);
  if (it != s.rows.end()) EraseLocked(s, it);
  s.lru.push_front(key);
  s.rows.emplace(key, Entry{std::move(row), charge, s.lru.begin()});
  s.usage += charge;
  bytes_->Add(static_cast<int64_t>(charge));
  EvictLocked(s);
}

void AdjacencyCache::InvalidateEdge(VertexId src, LabelId label) {
  Shard& s = ShardFor(src);
  MutexLock l(&s.mu);
  ++s.gen;
  for (LabelId k : {label, kAllLabels}) {
    auto it = s.rows.find(RowKey{src, k});
    if (it != s.rows.end()) EraseLocked(s, it);
  }
}

void AdjacencyCache::InvalidateVertex(VertexId src) {
  Shard& s = ShardFor(src);
  MutexLock l(&s.mu);
  ++s.gen;
  // All rows of one src are contiguous under RowKey ordering.
  auto it = s.rows.lower_bound(RowKey{src, 0});
  while (it != s.rows.end() && it->first.src == src) {
    auto next = std::next(it);
    EraseLocked(s, it);
    it = next;
  }
}

void AdjacencyCache::RecordBuild(uint64_t us) {
  builds_->Inc();
  build_us_->Observe(static_cast<double>(us));
}

size_t AdjacencyCache::usage() const {
  size_t total = 0;
  for (size_t i = 0; i < num_shards_; ++i) {
    MutexLock l(&shard_[i].mu);
    total += shard_[i].usage;
  }
  return total;
}

void AdjacencyCache::EraseLocked(Shard& s,
                                 std::map<RowKey, Entry>::iterator it) {
  s.usage -= it->second.charge;
  bytes_->Add(-static_cast<int64_t>(it->second.charge));
  s.lru.erase(it->second.lru_pos);
  s.rows.erase(it);
}

void AdjacencyCache::EvictLocked(Shard& s) {
  while (s.usage > per_shard_capacity_ && s.rows.size() > 1) {
    auto it = s.rows.find(s.lru.back());
    EraseLocked(s, it);
    evictions_->Inc();
  }
}

}  // namespace gt::graph
