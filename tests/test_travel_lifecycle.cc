// Travel-lifecycle tests: request-queue order-key collision regression,
// cooperative cancellation reclaim, coordinator admission control and
// server-enforced deadlines.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

// Detect ThreadSanitizer on both GCC (__SANITIZE_THREAD__) and Clang
// (__has_feature) so timing-sensitive assertions can opt out.
#if defined(__SANITIZE_THREAD__)
#define GT_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GT_UNDER_TSAN 1
#endif
#endif

#include "src/common/metrics.h"
#include "src/engine/cluster.h"
#include "src/engine/request_queue.h"
#include "src/lang/gtravel.h"

namespace gt::engine {
namespace {

using graph::Catalog;
using graph::EdgeRecord;
using graph::RefGraph;
using graph::VertexId;
using graph::VertexRecord;
using lang::GTravel;

double MetricSum(const char* name) {
  return metrics::Registry::Default()->Sum(name);
}

// --- request-queue order keys ------------------------------------------------

// Regression: the old packed order key truncated the arrival sequence to 44
// bits, so a FIFO task whose raw seq equalled a priority task's packed
// (step << 44) | seq silently overwrote it in queue_ while merge_index_
// still recorded the orphaned key. With disjoint key classes both tasks
// must coexist and both must pop.
TEST(RequestQueueTest, OrderKeysDoNotCollideAcrossClasses) {
  RequestQueue q;

  // Priority task: step 1, seq 5. Old packed key: (1 << 44) | 5.
  q.SetNextSeqForTest(5);
  q.Push(VertexTask{/*travel=*/1, /*step=*/1, /*vid=*/7, /*exec=*/11,
                    /*is_owner=*/true, /*sync=*/false},
         /*priority=*/true, /*mergeable=*/true);

  // FIFO task whose raw seq equals that packed value. Old key: (1 << 44) + 5
  // — identical, so the emplace was a silent no-op and this task vanished.
  q.SetNextSeqForTest((1ULL << 44) + 5);
  q.Push(VertexTask{/*travel=*/2, /*step=*/0, /*vid=*/9, /*exec=*/22,
                    /*is_owner=*/true, /*sync=*/false},
         /*priority=*/false, /*mergeable=*/false);

  EXPECT_EQ(q.size(), 2u);

  // Both tasks must come back out (order is irrelevant here; the pre-fix
  // bug either dropped one or died asserting in ExtractGroupLocked).
  std::vector<VertexTask> popped;
  std::vector<VertexTask> batch;
  while (q.size() > 0 && q.PopBatch(&batch)) {
    popped.insert(popped.end(), batch.begin(), batch.end());
  }
  ASSERT_EQ(popped.size(), 2u);
  EXPECT_NE(popped[0].travel, popped[1].travel);
}

TEST(RequestQueueTest, EraseTravelDrainsQueuedTasks) {
  RequestQueue q;
  for (uint32_t i = 0; i < 8; i++) {
    q.Push(VertexTask{/*travel=*/100, /*step=*/i % 3, /*vid=*/i, /*exec=*/i,
                      /*is_owner=*/true, /*sync=*/false},
           /*priority=*/(i % 2) == 0, /*mergeable=*/(i % 2) == 0);
  }
  for (uint32_t i = 0; i < 3; i++) {
    q.Push(VertexTask{/*travel=*/200, /*step=*/0, /*vid=*/50 + i, /*exec=*/i,
                      /*is_owner=*/true, /*sync=*/false},
           /*priority=*/false, /*mergeable=*/false);
  }
  ASSERT_EQ(q.size(), 11u);

  EXPECT_EQ(q.EraseTravel(100), 8u);
  EXPECT_EQ(q.size(), 3u);

  // The survivors all belong to the other travel, and popping them never
  // touches a dangling merge_index_ entry.
  std::vector<VertexTask> batch;
  size_t seen = 0;
  while (q.size() > 0 && q.PopBatch(&batch)) {
    for (const auto& t : batch) {
      EXPECT_EQ(t.travel, 200u);
      seen++;
    }
  }
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(q.EraseTravel(100), 0u);  // idempotent on an empty queue
}

// --- cluster-level lifecycle -------------------------------------------------

// Two-level fan-out: root 0 -> 1..fan1, each mid vertex -> fan2 distinct
// leaves. A two-hop travel from the root keeps hundreds of vertex tasks in
// flight, which (with a slow device model) pins the travel in the server
// queues long enough to observe admission rejections and cancellation.
RefGraph FanoutGraph(Catalog* catalog, uint32_t fan1, uint32_t fan2) {
  RefGraph g;
  const auto t = catalog->Intern("N");
  const auto out = catalog->Intern("out");
  const VertexId leaves_base = 1 + fan1;
  const VertexId total = leaves_base + fan1 * fan2;
  for (VertexId v = 0; v < total; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
  }
  for (VertexId mid = 1; mid <= fan1; mid++) {
    EdgeRecord e;
    e.src = 0;
    e.label = out;
    e.dst = mid;
    g.AddEdge(e);
    for (uint32_t j = 0; j < fan2; j++) {
      EdgeRecord leaf;
      leaf.src = mid;
      leaf.label = out;
      leaf.dst = leaves_base + (mid - 1) * fan2 + j;
      g.AddEdge(leaf);
    }
  }
  return g;
}

lang::TraversalPlan TwoHopPlan(Catalog* catalog) {
  auto plan = GTravel(catalog).v({0}).e("out").e("out").Build();
  EXPECT_TRUE(plan.ok());
  return *plan;
}

TEST(TravelLifecycleTest, AdmissionLimitRejectsThenBackoffRetrySucceeds) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.admission_limits = {{1, 1, 1}};  // one in-flight travel per class
  cfg.device.access_latency_us = 2000;
  // Cold device charging keeps the first travel in flight while the
  // second submits (adjacency-cache hits would charge the warm rate).
  cfg.adjacency_cache_bytes = 0;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  ASSERT_TRUE((*cluster)->Load(FanoutGraph(catalog, 20, 10)).ok());
  auto plan = TwoHopPlan(catalog);

  auto holder = (*cluster)->NewClient();
  auto contender = (*cluster)->NewClient();
  RunOptions opts;  // kGraphTrek, class kNormal

  const double rejected_before = MetricSum("gt_travel_rejected_total");
  const double admitted_before = MetricSum("gt_travel_admitted_total");

  // Travel A occupies the sole kNormal slot (~200 slow vertex accesses).
  auto travel_a = holder->Submit(plan, opts);
  ASSERT_TRUE(travel_a.ok());

  // Travel B bounces off the limit with a retryable Unavailable.
  auto travel_b = contender->Submit(plan, opts);
  ASSERT_FALSE(travel_b.ok());
  EXPECT_TRUE(travel_b.status().IsUnavailable()) << travel_b.status().ToString();
  EXPECT_GE(MetricSum("gt_travel_rejected_total"), rejected_before + 1);

  // A different class has its own slot: an interactive submit is admitted
  // even while the normal slot is taken.
  RunOptions interactive = opts;
  interactive.priority = TravelClass::kInteractive;
  auto travel_c = contender->Submit(plan, interactive);
  ASSERT_TRUE(travel_c.ok()) << travel_c.status().ToString();
  auto result_c = contender->Await(*travel_c, 60000);
  ASSERT_TRUE(result_c.ok()) << result_c.status().ToString();

  auto result_a = holder->Await(*travel_a, 60000);
  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  EXPECT_EQ(result_a->vids.size(), 200u);

  // Run() absorbs rejections with jittered backoff: occupy the slot again,
  // then Run a contender; its resubmits land once the holder finishes.
  auto travel_d = holder->Submit(plan, opts);
  ASSERT_TRUE(travel_d.ok());
  RunOptions retry = opts;
  retry.backoff_base_ms = 5;
  auto result_e = contender->Run(plan, retry);
  ASSERT_TRUE(result_e.ok()) << result_e.status().ToString();
  EXPECT_EQ(result_e->vids.size(), 200u);
  ASSERT_TRUE(holder->Await(*travel_d, 60000).ok());

  EXPECT_GE(MetricSum("gt_travel_admitted_total"), admitted_before + 4);
}

TEST(TravelLifecycleTest, CancelledTravelIsFullyReclaimedOnEveryServer) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.device.access_latency_us = 20000;  // 20ms per vertex access
  cfg.adjacency_cache_bytes = 0;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  ASSERT_TRUE((*cluster)->Load(FanoutGraph(catalog, 30, 12)).ok());
  auto plan = TwoHopPlan(catalog);

  const double cancelled_before = MetricSum("gt_travel_cancelled_total");

  // ~390 vertex accesses at 20ms across 3 servers x 2 workers: the travel
  // runs for seconds unless cancellation reclaims it.
  auto client = (*cluster)->NewClient();
  RunOptions opts;
  auto travel = client->Submit(plan, opts);
  ASSERT_TRUE(travel.ok());

  // Give up after 50ms; Await cancels the travel at its coordinator, which
  // fans kAbortTraversal out to every server.
  auto result = client->Await(*travel, 50);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsTimeout()) << result.status().ToString();

  // Every server must drain the travel's queued tasks and drop its state
  // (plans, execs, memo entries, cache residue, trace buffers).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool reclaimed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    reclaimed = true;
    for (uint32_t s = 0; s < cfg.num_servers; s++) {
      BackendServer* server = (*cluster)->server(s);
      if (server->queue_depth() != 0 || server->HasTravelResidue(*travel)) {
        reclaimed = false;
        break;
      }
    }
    if (reclaimed) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(reclaimed) << "travel state not reclaimed within 20s";
  EXPECT_GE(MetricSum("gt_travel_cancelled_total"), cancelled_before + 1);

  // The cluster keeps serving after the cancellation.
  auto after = (*cluster)->Run(TwoHopPlan(catalog), EngineMode::kGraphTrek);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->vids.size(), 360u);
}

TEST(TravelLifecycleTest, DeadlineExceededCompletesAsTimeout) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.device.access_latency_us = 20000;
  cfg.adjacency_cache_bytes = 0;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  ASSERT_TRUE((*cluster)->Load(FanoutGraph(catalog, 20, 10)).ok());

  const double deadline_before = MetricSum("gt_travel_deadline_exceeded_total");

  auto client = (*cluster)->NewClient();
  RunOptions opts;
  opts.deadline_ms = 30;  // far below the ~2s the travel needs
  opts.client_timeout_ms = 30000;
  auto result = client->Run(TwoHopPlan(catalog), opts);
  ASSERT_FALSE(result.ok());
  // Timeout, not Aborted: deadline expiry must not trigger the restart
  // policy (the resubmission would blow the deadline again).
  EXPECT_TRUE(result.status().IsTimeout()) << result.status().ToString();
  EXPECT_GE(MetricSum("gt_travel_deadline_exceeded_total"), deadline_before + 1);

  // Deadline enforcement reclaims like cancellation does.
  const auto wait_until =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool drained = false;
  while (std::chrono::steady_clock::now() < wait_until) {
    drained = true;
    for (uint32_t s = 0; s < cfg.num_servers; s++) {
      if ((*cluster)->server(s)->queue_depth() != 0) {
        drained = false;
        break;
      }
    }
    if (drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(drained) << "queues not drained after deadline expiry";
}

}  // namespace
}  // namespace gt::engine
