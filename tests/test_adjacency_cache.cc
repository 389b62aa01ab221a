// Tests for the CSR adjacency cache (src/graph/adjacency_cache.h) and its
// GraphStore integration: lazy fill, all-labels row slicing, byte-budgeted
// eviction, invalidation on PutEdge/DeleteVertex, bulk warm-up, batched
// MultiGetVertices, type-scan warm accounting, and a randomized
// mutate-while-traversing leg.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <vector>

#include "src/common/device_model.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/graph/adjacency_cache.h"
#include "src/graph/graph_store.h"
#include "tests/test_util.h"

namespace gt::graph {
namespace {

using EdgeList = std::vector<std::pair<VertexId, int64_t>>;  // (dst, weight)

constexpr LabelId kTypeA = 1;
constexpr LabelId kEdgeX = 10;
constexpr LabelId kEdgeY = 11;
constexpr PropMap::KeyId kWeightKey = 100;

class AdjacencyCacheTest : public ::testing::Test {
 protected:
  std::unique_ptr<GraphStore> OpenStore(const std::string& dir,
                                        size_t cache_bytes,
                                        DeviceModel* device = nullptr) {
    GraphStoreOptions opts;
    opts.adjacency_cache_bytes = cache_bytes;
    opts.device = device;
    auto store = GraphStore::Open(dir, opts);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(*store);
  }

  static VertexRecord MakeVertex(VertexId vid) {
    VertexRecord v;
    v.id = vid;
    v.label = kTypeA;
    return v;
  }

  static EdgeRecord MakeEdge(VertexId src, LabelId label, VertexId dst,
                             int64_t weight) {
    EdgeRecord e;
    e.src = src;
    e.label = label;
    e.dst = dst;
    e.props.Set(kWeightKey, PropValue(weight));
    return e;
  }

  // Out-edges of (src, label) as the store reports them.
  static EdgeList Scan(GraphStore* store, VertexId src, LabelId label,
                       const GraphStore::ReadSnapshot* snap = nullptr) {
    EdgeList out;
    store
        ->ScanEdges(
            src, label,
            [&](VertexId dst, const PropMap& props) {
              const PropValue* w = props.Find(kWeightKey);
              out.emplace_back(dst, w != nullptr ? w->as_int() : -1);
              return true;
            },
            /*warm=*/false, snap)
        .ok();
    return out;
  }

  static EdgeList ScanAll(GraphStore* store, VertexId src,
                          const GraphStore::ReadSnapshot* snap = nullptr) {
    EdgeList out;
    store
        ->ScanAllEdges(
            src,
            [&](LabelId label, VertexId dst, const PropMap& props) {
              const PropValue* w = props.Find(kWeightKey);
              out.emplace_back(dst * 1000 + label, w != nullptr ? w->as_int() : -1);
              return true;
            },
            /*warm=*/false, snap)
        .ok();
    return out;
  }
};

TEST_F(AdjacencyCacheTest, LazyFillServesSameEdgesAsUncachedStore) {
  testing::ScopedTempDir dir;
  auto cached = OpenStore(dir.sub("cached"), 1 << 20);
  auto raw = OpenStore(dir.sub("raw"), 0);
  ASSERT_EQ(raw->adjacency_cache(), nullptr);
  ASSERT_NE(cached->adjacency_cache(), nullptr);

  for (auto* s : {cached.get(), raw.get()}) {
    for (VertexId v = 1; v <= 20; v++) {
      ASSERT_TRUE(s->PutVertex(MakeVertex(v)).ok());
      for (VertexId d = 1; d <= 5; d++) {
        ASSERT_TRUE(s->PutEdge(MakeEdge(v, kEdgeX, v * 100 + d, int64_t(d))).ok());
        if (d % 2 == 0) {
          ASSERT_TRUE(s->PutEdge(MakeEdge(v, kEdgeY, v * 100 + d, int64_t(-d))).ok());
        }
      }
    }
  }

  // First scan = miss + build; second scan = hit. Both match the raw store.
  for (int pass = 0; pass < 2; pass++) {
    for (VertexId v = 1; v <= 20; v++) {
      EXPECT_EQ(Scan(cached.get(), v, kEdgeX), Scan(raw.get(), v, kEdgeX));
      EXPECT_EQ(Scan(cached.get(), v, kEdgeY), Scan(raw.get(), v, kEdgeY));
      EXPECT_EQ(ScanAll(cached.get(), v), ScanAll(raw.get(), v));
    }
  }
  EXPECT_GT(cached->adjacency_cache()->hits(), 0u);
  EXPECT_GT(cached->adjacency_cache()->builds(), 0u);
  EXPECT_GT(cached->adjacency_cache()->usage(), 0u);
}

TEST_F(AdjacencyCacheTest, AllLabelsRowServesPerLabelScan) {
  testing::ScopedTempDir dir;
  auto store = OpenStore(dir.sub("s"), 1 << 20);
  ASSERT_TRUE(store->PutVertex(MakeVertex(1)).ok());
  for (VertexId d = 1; d <= 4; d++) {
    ASSERT_TRUE(store->PutEdge(MakeEdge(1, kEdgeX, d, int64_t(d))).ok());
    ASSERT_TRUE(store->PutEdge(MakeEdge(1, kEdgeY, d + 10, int64_t(d))).ok());
  }

  // Build the all-labels row, then per-label scans must be cache hits that
  // slice it (no new builds).
  (void)ScanAll(store.get(), 1);
  const uint64_t builds = store->adjacency_cache()->builds();
  const uint64_t hits_before = store->adjacency_cache()->hits();

  EdgeList x = Scan(store.get(), 1, kEdgeX);
  ASSERT_EQ(x.size(), 4u);
  EXPECT_EQ(x[0].first, 1u);
  EdgeList y = Scan(store.get(), 1, kEdgeY);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_EQ(y[0].first, 11u);

  EXPECT_EQ(store->adjacency_cache()->builds(), builds);
  EXPECT_GT(store->adjacency_cache()->hits(), hits_before);
}

TEST_F(AdjacencyCacheTest, EvictionUnderBytePressure) {
  testing::ScopedTempDir dir;
  // A budget far smaller than the working set: rows must LRU out.
  auto store = OpenStore(dir.sub("s"), 8 << 10);
  const int kVertices = 200;
  for (VertexId v = 1; v <= kVertices; v++) {
    ASSERT_TRUE(store->PutVertex(MakeVertex(v)).ok());
    for (VertexId d = 1; d <= 8; d++) {
      ASSERT_TRUE(store->PutEdge(MakeEdge(v, kEdgeX, v * 100 + d, int64_t(d))).ok());
    }
  }

  for (VertexId v = 1; v <= kVertices; v++) {
    ASSERT_EQ(Scan(store.get(), v, kEdgeX).size(), 8u);
  }
  AdjacencyCache* cache = store->adjacency_cache();
  EXPECT_GT(cache->evictions(), 0u);
  EXPECT_LE(cache->usage(), cache->capacity_bytes());

  // Evicted rows rebuild correctly.
  for (VertexId v = 1; v <= kVertices; v++) {
    EdgeList edges = Scan(store.get(), v, kEdgeX);
    ASSERT_EQ(edges.size(), 8u);
    EXPECT_EQ(edges.front().first, v * 100 + 1);
  }
}

TEST_F(AdjacencyCacheTest, PutEdgeInvalidatesCachedRows) {
  testing::ScopedTempDir dir;
  auto store = OpenStore(dir.sub("s"), 1 << 20);
  ASSERT_TRUE(store->PutVertex(MakeVertex(1)).ok());
  ASSERT_TRUE(store->PutEdge(MakeEdge(1, kEdgeX, 2, 1)).ok());

  ASSERT_EQ(Scan(store.get(), 1, kEdgeX).size(), 1u);  // row cached
  ASSERT_EQ(ScanAll(store.get(), 1).size(), 1u);       // all-labels row cached

  ASSERT_TRUE(store->PutEdge(MakeEdge(1, kEdgeX, 3, 2)).ok());
  EdgeList after = Scan(store.get(), 1, kEdgeX);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1].first, 3u);
  EXPECT_EQ(ScanAll(store.get(), 1).size(), 2u);

  // Overwriting an edge's properties must be visible too.
  ASSERT_TRUE(store->PutEdge(MakeEdge(1, kEdgeX, 2, 99)).ok());
  EXPECT_EQ(Scan(store.get(), 1, kEdgeX).front().second, 99);
}

TEST_F(AdjacencyCacheTest, DeleteVertexInvalidatesAndRecountsMisses) {
  testing::ScopedTempDir dir;
  auto store = OpenStore(dir.sub("s"), 1 << 20);
  ASSERT_TRUE(store->PutVertex(MakeVertex(1)).ok());
  ASSERT_TRUE(store->PutEdge(MakeEdge(1, kEdgeX, 2, 1)).ok());
  ASSERT_EQ(Scan(store.get(), 1, kEdgeX).size(), 1u);

  const uint64_t misses = store->adjacency_cache()->misses();
  ASSERT_TRUE(store->DeleteVertex(1).ok());
  // The rows of vid 1 are gone: the next scan misses and rebuilds (from the
  // still-present edge keys — DeleteVertex removes the record + type index).
  ASSERT_EQ(Scan(store.get(), 1, kEdgeX).size(), 1u);
  EXPECT_GT(store->adjacency_cache()->misses(), misses);
  EXPECT_FALSE(store->GetVertex(1).ok());
}

TEST_F(AdjacencyCacheTest, WarmAdjacencyMakesScansHit) {
  testing::ScopedTempDir dir;
  auto store = OpenStore(dir.sub("s"), 4 << 20);
  for (VertexId v = 1; v <= 50; v++) {
    ASSERT_TRUE(store->PutVertex(MakeVertex(v)).ok());
    for (VertexId d = 1; d <= 4; d++) {
      ASSERT_TRUE(store->PutEdge(MakeEdge(v, kEdgeX, v * 10 + d, int64_t(d))).ok());
    }
  }
  ASSERT_TRUE(store->WarmAdjacency().ok());
  EXPECT_GE(store->adjacency_cache()->builds(), 50u);

  const uint64_t misses = store->adjacency_cache()->misses();
  for (VertexId v = 1; v <= 50; v++) {
    ASSERT_EQ(ScanAll(store.get(), v).size(), 4u);
    ASSERT_EQ(Scan(store.get(), v, kEdgeX).size(), 4u);
  }
  EXPECT_EQ(store->adjacency_cache()->misses(), misses);
}

TEST_F(AdjacencyCacheTest, CacheHitsChargeWarmDeviceAccesses) {
  testing::ScopedTempDir dir;
  DeviceModelConfig dcfg;  // zero latency: counters only
  DeviceModel device(dcfg);
  auto store = OpenStore(dir.sub("s"), 1 << 20, &device);
  ASSERT_TRUE(store->PutVertex(MakeVertex(1)).ok());
  ASSERT_TRUE(store->PutEdge(MakeEdge(1, kEdgeX, 2, 1)).ok());

  ASSERT_EQ(Scan(store.get(), 1, kEdgeX).size(), 1u);  // cold: builds the row
  const uint64_t warm_before = device.warm_accesses();
  ASSERT_EQ(Scan(store.get(), 1, kEdgeX).size(), 1u);  // hit: charged warm
  EXPECT_EQ(device.warm_accesses(), warm_before + 1);
}

TEST_F(AdjacencyCacheTest, MultiGetVerticesMatchesGetVertex) {
  testing::ScopedTempDir dir;
  auto store = OpenStore(dir.sub("s"), 1 << 20);
  for (VertexId v = 1; v <= 30; v += 2) {  // odd vids only
    VertexRecord rec = MakeVertex(v);
    rec.props.Set(kWeightKey, PropValue(int64_t(v) * 7));
    ASSERT_TRUE(store->PutVertex(rec).ok());
  }

  // Unsorted batch with present and absent vids.
  std::vector<GraphStore::VertexLookup> lookups;
  for (VertexId v : {29u, 2u, 1u, 15u, 16u, 3u}) {
    GraphStore::VertexLookup lk;
    lk.vid = v;
    lookups.push_back(lk);
  }
  ASSERT_TRUE(store->MultiGetVertices(&lookups).ok());
  for (const auto& lk : lookups) {
    auto single = store->GetVertex(lk.vid);
    ASSERT_EQ(lk.found, single.ok()) << "vid " << lk.vid;
    if (lk.found) {
      EXPECT_EQ(lk.rec.label, single->label);
      EXPECT_EQ(lk.rec.props.Find(kWeightKey)->as_int(),
                single->props.Find(kWeightKey)->as_int());
    }
  }
}

TEST_F(AdjacencyCacheTest, ScanVerticesByTypeWarmFlagChargesWarm) {
  testing::ScopedTempDir dir;
  DeviceModelConfig dcfg;
  DeviceModel device(dcfg);
  auto store = OpenStore(dir.sub("s"), 1 << 20, &device);
  for (VertexId v = 1; v <= 10; v++) {
    ASSERT_TRUE(store->PutVertex(MakeVertex(v)).ok());
  }

  size_t n = 0;
  const uint64_t warm_before = device.warm_accesses();
  ASSERT_TRUE(store->ScanVerticesByType(kTypeA, [&](VertexId) { ++n; return true; }).ok());
  EXPECT_EQ(n, 10u);
  EXPECT_EQ(device.warm_accesses(), warm_before);  // first scan is cold

  ASSERT_TRUE(store
                  ->ScanVerticesByType(kTypeA, [&](VertexId) { return true; },
                                       /*warm=*/true)
                  .ok());
  EXPECT_EQ(device.warm_accesses(), warm_before + 1);
}

// Regression for the torn-read bug this PR fixes. The cache used to be
// snapshot-oblivious: a pinned reader whose scan missed would build a row
// from the LIVE store and be handed post-pin edges. Rows now carry the
// sequence they were built at; a row newer than the reader's snapshot is
// bypassed (the reader falls back to an uncached scan of the KV snapshot),
// while rows built at or before the pin are served from cache as usual.
TEST_F(AdjacencyCacheTest, PinnedSnapshotNeverSeesPostPinRows) {
  testing::ScopedTempDir dir;
  auto store = OpenStore(dir.sub("s"), 1 << 20);
  for (VertexId v : {1u, 2u, 4u}) {
    ASSERT_TRUE(store->PutVertex(MakeVertex(v)).ok());
  }
  ASSERT_TRUE(store->PutEdge(MakeEdge(1, kEdgeX, 2, 1)).ok());
  ASSERT_TRUE(store->PutEdge(MakeEdge(2, kEdgeX, 1, 1)).ok());
  ASSERT_TRUE(store->PutEdge(MakeEdge(4, kEdgeX, 1, 1)).ok());

  // Rows for vids 2 and 4 are resident before the pin; vid 1 stays cold.
  ASSERT_EQ(Scan(store.get(), 2, kEdgeX).size(), 1u);
  ASSERT_EQ(Scan(store.get(), 4, kEdgeX).size(), 1u);

  const GraphStore::ReadSnapshot* snap = store->GetSnapshot();

  // Post-pin mutations: vid 1's row will be built fresh (too new), vid 2's
  // resident row is invalidated and also rebuilds too new. Vid 4 untouched.
  ASSERT_TRUE(store->PutEdge(MakeEdge(1, kEdgeX, 3, 2)).ok());
  ASSERT_TRUE(store->PutEdge(MakeEdge(2, kEdgeX, 3, 2)).ok());

  // Cold scan under the pin: the freshly built row carries a build sequence
  // newer than the snapshot, so the pinned reader must not be served it.
  EdgeList pinned = Scan(store.get(), 1, kEdgeX, snap);
  ASSERT_EQ(pinned.size(), 1u);
  EXPECT_EQ(pinned[0].first, 2u);
  EXPECT_EQ(ScanAll(store.get(), 1, snap).size(), 1u);

  // Same for the invalidated-then-rebuilt row of vid 2.
  EdgeList pinned2 = Scan(store.get(), 2, kEdgeX, snap);
  ASSERT_EQ(pinned2.size(), 1u);
  EXPECT_EQ(pinned2[0].first, 1u);

  // A row built before the pin and never invalidated is still a plain cache
  // hit for the pinned reader.
  const uint64_t builds_before = store->adjacency_cache()->builds();
  const uint64_t hits_before = store->adjacency_cache()->hits();
  EdgeList pinned4 = Scan(store.get(), 4, kEdgeX, snap);
  ASSERT_EQ(pinned4.size(), 1u);
  EXPECT_EQ(pinned4[0].first, 1u);
  EXPECT_GT(store->adjacency_cache()->hits(), hits_before);
  EXPECT_EQ(store->adjacency_cache()->builds(), builds_before);

  // Live readers see the post-pin edges, served by the rows the pinned
  // scans populated (no additional build).
  EXPECT_EQ(Scan(store.get(), 1, kEdgeX).size(), 2u);
  EXPECT_EQ(Scan(store.get(), 2, kEdgeX).size(), 2u);
  EXPECT_EQ(store->adjacency_cache()->builds(), builds_before);

  store->ReleaseSnapshot(snap);
}

// Concurrent scanners + a mutator: scans must never crash, never observe a
// torn row, and once the mutator is done every scan must match a fresh
// cache-less store (no stale rows survive — the epoch token in
// AdjacencyCache::Insert is what this leg exercises).
TEST_F(AdjacencyCacheTest, MutateWhileTraversingConverges) {
  testing::ScopedTempDir dir;
  auto store = OpenStore(dir.sub("s"), 64 << 10);  // small: eviction in play
  const int kVertices = 40;
  for (VertexId v = 1; v <= kVertices; v++) {
    ASSERT_TRUE(store->PutVertex(MakeVertex(v)).ok());
    for (VertexId d = 1; d <= 4; d++) {
      ASSERT_TRUE(store->PutEdge(MakeEdge(v, kEdgeX, (v % kVertices) + d, 1)).ok());
    }
  }

  std::atomic<bool> stop{false};
  ThreadPool pool(4);
  for (int t = 0; t < 3; t++) {
    pool.Submit([&, t] {
      Rng rng(1234 + t);
      while (!stop.load()) {
        const VertexId v = 1 + rng.Uniform(kVertices);
        EdgeList edges = Scan(store.get(), v, kEdgeX);
        // Rows are immutable: a scan sees a consistent dst order even while
        // the mutator rewrites the vertex.
        for (size_t i = 1; i < edges.size(); i++) {
          ASSERT_LT(edges[i - 1].first, edges[i].first);
        }
        (void)ScanAll(store.get(), v);
      }
    });
  }

  Rng rng(999);
  for (int op = 0; op < 500; op++) {
    const VertexId v = 1 + rng.Uniform(kVertices);
    switch (rng.Uniform(3)) {
      case 0:
        ASSERT_TRUE(
            store->PutEdge(MakeEdge(v, kEdgeX, 500 + rng.Uniform(50), int64_t(op)))
                .ok());
        break;
      case 1:
        ASSERT_TRUE(store->PutEdge(MakeEdge(v, kEdgeY, 900 + rng.Uniform(10), 1)).ok());
        break;
      case 2:
        ASSERT_TRUE(store->PutVertex(MakeVertex(v)).ok());
        break;
    }
  }
  stop.store(true);
  pool.Shutdown();

  // Every cached answer now equals a store that never caches.
  auto raw = OpenStore(dir.sub("s"), 0);  // same directory, cache off
  for (VertexId v = 1; v <= kVertices; v++) {
    EXPECT_EQ(Scan(store.get(), v, kEdgeX), Scan(raw.get(), v, kEdgeX)) << "vid " << v;
    EXPECT_EQ(ScanAll(store.get(), v), ScanAll(raw.get(), v)) << "vid " << v;
  }
}

TEST(AdjacencyCacheGaugeTest, DestroyedCachesReturnTheirBytes) {
  // Two caches share one server label, like successive clusters do.
  AdjacencyCacheOptions opts;
  opts.server_id = 9901;
  metrics::Gauge* gauge = metrics::Registry::Default()->GetGauge(
      "gt_graph_adj_bytes", {{"server", "9901"}});
  const int64_t start = gauge->Value();
  {
    AdjacencyCache first(opts);
    AdjacencyCache second(opts);
    for (VertexId src = 0; src < 8; src++) {
      AdjacencyRow::Builder b;
      b.Add(kEdgeX, src + 1, "");
      first.Insert(src, kEdgeX, b.Build(), first.BeginBuild(src));
      second.Insert(src, kEdgeX, b.Build(), second.BeginBuild(src));
    }
    EXPECT_EQ(gauge->Value(), start + static_cast<int64_t>(first.usage() + second.usage()));
    EXPECT_GT(gauge->Value(), start);
  }
  EXPECT_EQ(gauge->Value(), start);
}

}  // namespace
}  // namespace gt::graph
