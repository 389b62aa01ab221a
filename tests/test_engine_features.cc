// Engine feature tests: status tracing + failure detection + restart,
// progress reporting, result streaming, concurrent traversals, visit
// statistics accounting and straggler behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
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

#include "src/engine/cluster.h"
#include "src/gen/rmat.h"
#include "src/lang/gtravel.h"
#include "tests/test_util.h"

namespace gt::engine {
namespace {

using graph::Catalog;
using graph::EdgeRecord;
using graph::PropValue;
using graph::RefGraph;
using graph::VertexId;
using graph::VertexRecord;
using lang::FilterOp;
using lang::GTravel;

RefGraph ChainGraph(Catalog* catalog, uint32_t length) {
  RefGraph g;
  const auto t = catalog->Intern("N");
  const auto next = catalog->Intern("next");
  for (VertexId v = 0; v <= length; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
  }
  for (VertexId v = 0; v < length; v++) {
    EdgeRecord e;
    e.src = v;
    e.label = next;
    e.dst = v + 1;
    g.AddEdge(e);
  }
  return g;
}

RefGraph RandomishGraph(Catalog* catalog, uint64_t seed, uint32_t n, uint32_t m) {
  Rng rng(seed);
  RefGraph g;
  const auto t = catalog->Intern("N");
  const auto link = catalog->Intern("link");
  for (VertexId v = 0; v < n; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
  }
  for (uint32_t i = 0; i < m; i++) {
    EdgeRecord e;
    e.src = rng.Uniform(n);
    e.label = link;
    e.dst = rng.Uniform(n);
    g.AddEdge(e);
  }
  return g;
}

// --- result streaming ---------------------------------------------------------

TEST(EngineFeatureTest, LargeResultsStreamInChunks) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();

  // Hub with 10k leaves; the coordinator's result_chunk is 4096, so the
  // client must reassemble 3 chunks.
  RefGraph g;
  const auto t = catalog->Intern("N");
  const auto out = catalog->Intern("out");
  VertexRecord hub;
  hub.id = 0;
  hub.label = t;
  g.AddVertex(hub);
  for (VertexId v = 1; v <= 10000; v++) {
    VertexRecord rec;
    rec.id = v;
    rec.label = t;
    g.AddVertex(rec);
    EdgeRecord e;
    e.src = 0;
    e.label = out;
    e.dst = v;
    g.AddEdge(e);
  }
  ASSERT_TRUE((*cluster)->Load(g).ok());

  auto plan = GTravel(catalog).v({0}).e("out").Build();
  ASSERT_TRUE(plan.ok());
  auto result = (*cluster)->Run(*plan, EngineMode::kGraphTrek);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->vids.size(), 10000u);
  EXPECT_EQ(result->vids.front(), 1u);
  EXPECT_EQ(result->vids.back(), 10000u);
}

// --- failure detection + restart (paper Section IV-C) ----------------------------

TEST(EngineFeatureTest, LostExecutionIsDetectedAndReported) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.exec_timeout_ms = 300;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 3, 60, 240);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  // Silently drop every frontier hand-off after the third: the downstream
  // executions are registered as created but never terminate.
  std::atomic<int> traverse_count{0};
  (*cluster)->inproc_transport()->SetFaultHook([&](const rpc::Message& m) {
    if (m.type != rpc::MsgType::kTraverse) return false;
    return traverse_count.fetch_add(1) >= 3;
  });

  auto client = (*cluster)->NewClient();
  GTravel travel(catalog);
  travel.v({1, 2, 3});
  for (int i = 0; i < 4; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  RunOptions opts;
  opts.mode = EngineMode::kGraphTrek;
  opts.max_restarts = 0;  // surface the failure instead of retrying
  opts.failure_timeout_ms = 300;
  auto travel_id = client->Submit(*plan, opts);
  ASSERT_TRUE(travel_id.ok());
  auto result = client->Await(*travel_id, 10000);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted()) << result.status().ToString();
}

TEST(EngineFeatureTest, ClientRestartsAfterTransientFailure) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  cfg.exec_timeout_ms = 300;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 4, 60, 240);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  // Drop exactly one frontier hand-off; the restarted traversal runs clean.
  std::atomic<bool> dropped{false};
  (*cluster)->inproc_transport()->SetFaultHook([&](const rpc::Message& m) {
    if (m.type != rpc::MsgType::kTraverse) return false;
    return !dropped.exchange(true);
  });

  GTravel travel(catalog);
  travel.v({1, 2, 3});
  for (int i = 0; i < 3; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  const auto expected = lang::EvaluatePlanOnRefGraph(*plan, g, *catalog);

  auto client = (*cluster)->NewClient();
  RunOptions opts;
  opts.mode = EngineMode::kGraphTrek;
  opts.max_restarts = 2;
  opts.failure_timeout_ms = 300;
  auto result = client->Run(*plan, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->restarts, 1u);
  EXPECT_EQ(result->vids, expected);
}

// --- progress reporting -----------------------------------------------------------

TEST(EngineFeatureTest, ProgressReportsExecutionCounts) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  cfg.device.access_latency_us = 2000;  // slow traversal so we catch it live
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 5, 150, 800);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  GTravel travel(catalog);
  travel.v({1, 2, 3, 4, 5});
  for (int i = 0; i < 4; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  auto client = (*cluster)->NewClient();
  RunOptions opts;
  opts.mode = EngineMode::kGraphTrek;
  auto travel_id = client->Submit(*plan, opts);
  ASSERT_TRUE(travel_id.ok());

  // Poll progress while the traversal runs; counts must be sane.
  bool saw_activity = false;
  for (int i = 0; i < 50; i++) {
    auto progress = client->Progress(*travel_id, /*coordinator=*/0);
    if (!progress.ok()) break;  // traversal finished and state was cleaned up
    if (progress->total_created > 0) {
      saw_activity = true;
      EXPECT_GE(progress->total_created, progress->total_terminated);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  auto result = client->Await(*travel_id, 60000);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(saw_activity);
}

// --- concurrent traversals ---------------------------------------------------------

TEST(EngineFeatureTest, ConcurrentTraversalsAllCorrect) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 6, 200, 1200);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  struct Job {
    lang::TraversalPlan plan;
    std::vector<VertexId> expected;
    EngineMode mode;
  };
  std::vector<Job> jobs;
  const EngineMode modes[] = {EngineMode::kSync, EngineMode::kAsyncPlain,
                              EngineMode::kGraphTrek};
  for (uint64_t i = 0; i < 9; i++) {
    GTravel travel(catalog);
    travel.v({i, i + 50, i + 100});
    for (uint64_t s = 0; s < 2 + i % 3; s++) travel.e("link");
    auto plan = travel.Build();
    ASSERT_TRUE(plan.ok());
    jobs.push_back(Job{*plan, lang::EvaluatePlanOnRefGraph(*plan, g, *catalog),
                       modes[i % 3]});
  }

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (auto& job : jobs) {
    threads.emplace_back([&cluster, &job, &failures] {
      auto client = (*cluster)->NewClient();
      RunOptions opts;
      opts.mode = job.mode;
      opts.coordinator = static_cast<ServerId>(job.plan.start_ids[0] % 4);
      auto result = client->Run(job.plan, opts);
      if (!result.ok() || result->vids != job.expected) failures++;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Regression: NewClient() used to bump a plain uint32_t counter, so threads
// creating clients concurrently (as the test above does) raced on it and
// could be handed the same endpoint id. TSan caught it; the counter is
// atomic now. Verify ids stay unique under contention.
TEST(EngineFeatureTest, ConcurrentNewClientIdsAreUnique) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::vector<rpc::EndpointId> ids[kThreads];
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&cluster, &ids, t] {
      for (int i = 0; i < kPerThread; i++) {
        auto client = (*cluster)->NewClient();
        ids[t].push_back(client->id());
      }
    });
  }
  for (auto& t : threads) t.join();

  std::set<rpc::EndpointId> unique;
  for (auto& v : ids) unique.insert(v.begin(), v.end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(kThreads) * kPerThread);
}

// --- visit statistics (the Fig. 7 counters) ------------------------------------------

TEST(EngineFeatureTest, GraphTrekVisitCountersPartitionReceivedRequests) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 7, 150, 1200);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  GTravel travel(catalog);
  travel.v({1});
  for (int i = 0; i < 6; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  (*cluster)->ResetStats();
  auto result = (*cluster)->Run(*plan, EngineMode::kGraphTrek);
  ASSERT_TRUE(result.ok());

  uint64_t received = 0, redundant = 0, combined = 0, real_io = 0;
  for (uint32_t s = 0; s < 4; s++) {
    auto snap = (*cluster)->server(s)->visit_stats().Read();
    received += snap.received;
    redundant += snap.redundant;
    combined += snap.combined;
    real_io += snap.real_io;
  }
  EXPECT_GT(received, 0u);
  EXPECT_GT(real_io, 0u);
  // The paper's accounting identity: the three counters partition the
  // received requests.
  EXPECT_EQ(received, redundant + combined + real_io);
  // On a deep traversal over a small graph, revisits dominate (Fig. 7).
  EXPECT_GT(redundant, real_io / 2);
}

TEST(EngineFeatureTest, AsyncPlainDoesMoreIoThanGraphTrek) {
  ClusterConfig cfg;
  cfg.num_servers = 4;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 8, 150, 1200);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  GTravel travel(catalog);
  travel.v({1});
  for (int i = 0; i < 6; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  auto run_and_count = [&](EngineMode mode) {
    (*cluster)->ResetStats();
    auto result = (*cluster)->Run(*plan, mode);
    EXPECT_TRUE(result.ok());
    uint64_t io = 0;
    for (uint32_t s = 0; s < 4; s++) {
      io += (*cluster)->server(s)->visit_stats().Read().real_io;
    }
    return io;
  };

  const uint64_t async_io = run_and_count(EngineMode::kAsyncPlain);
  const uint64_t graphtrek_io = run_and_count(EngineMode::kGraphTrek);
  // The traversal-affiliate cache absorbs redundant visits before they hit
  // storage; plain async pays for each of them.
  EXPECT_GT(async_io, graphtrek_io);
}

// --- straggler injection ---------------------------------------------------------------

TEST(EngineFeatureTest, InjectedStragglerSlowsSyncMoreThanGraphTrek) {
#if defined(GT_UNDER_TSAN)
  // This test compares wall-clock timings; TSan's instrumentation overhead
  // swamps the injected 2 ms delays and makes the comparison meaningless.
  GTEST_SKIP() << "timing comparison is not meaningful under ThreadSanitizer";
#endif
  ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.device.access_latency_us = 100;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 9, 300, 2400);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  GTravel travel(catalog);
  travel.v({1});
  for (int i = 0; i < 6; i++) travel.e("link");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  auto timed_run = [&](EngineMode mode) {
    auto result = (*cluster)->Run(*plan, mode);
    EXPECT_TRUE(result.ok());
    return result->elapsed_ms;
  };

  // Straggler on server 2, steps 1 and 3: fixed 2 ms delays.
  auto straggled_run = [&](EngineMode mode) {
    for (int step : {1, 3}) {
      (*cluster)->straggler()->AddRule(
          StragglerRule{.server_id = 2, .step = step, .delay_us = 2000, .max_hits = 40});
    }
    const double ms = timed_run(mode);
    (*cluster)->straggler()->ClearRules();
    return ms;
  };

  // Best of three interleaved runs per configuration, so one run slowed by
  // other processes on the machine does not decide the comparison.
  double sync_base = 1e9, gt_base = 1e9, sync_straggled = 1e9, gt_straggled = 1e9;
  for (int rep = 0; rep < 3; rep++) {
    sync_base = std::min(sync_base, timed_run(EngineMode::kSync));
    gt_base = std::min(gt_base, timed_run(EngineMode::kGraphTrek));
    sync_straggled = std::min(sync_straggled, straggled_run(EngineMode::kSync));
    gt_straggled = std::min(gt_straggled, straggled_run(EngineMode::kGraphTrek));
  }

  // Both engines must feel the delay; the asynchronous engine's *relative*
  // penalty must not exceed the synchronous one's by more than noise.
  EXPECT_GT(sync_straggled, sync_base);
  EXPECT_GT(gt_straggled, gt_base);
  const double sync_penalty = sync_straggled / sync_base;
  const double gt_penalty = gt_straggled / gt_base;
  EXPECT_LT(gt_penalty, sync_penalty * 1.5)
      << "sync " << sync_base << "->" << sync_straggled << " gt " << gt_base << "->"
      << gt_straggled;
}

TEST(EngineFeatureTest, StragglerDelaysChargeTheMatchedServersDevice) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  ASSERT_TRUE((*cluster)->Load(ChainGraph(catalog, 16)).ok());
  GTravel travel(catalog);
  travel.v({0});
  for (int i = 0; i < 16; i++) travel.e("next");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());

  constexpr uint64_t kDelayUs = 1000;
  (*cluster)->straggler()->AddRule(
      StragglerRule{.server_id = 1, .step = -1, .delay_us = kDelayUs, .max_hits = 2});
  ASSERT_TRUE((*cluster)->Run(*plan, EngineMode::kGraphTrek).ok());

  const uint64_t hits = (*cluster)->straggler()->total_injected_delays();
  EXPECT_EQ(hits, 2u);
  EXPECT_EQ((*cluster)->device(1)->injected_us(), hits * kDelayUs);
  EXPECT_EQ((*cluster)->device(0)->injected_us(), 0u);
}

// --- outbox ordering ------------------------------------------------------------------

// Stalls the first direct-protocol answer to the coordinator (kReturnVertices
// with parent_exec == 0) inside Send, holding no lock of its own, so any
// drain that starts later has time to send first.
class StallFirstAnswerTransport final : public rpc::Transport {
 public:
  explicit StallFirstAnswerTransport(rpc::Transport* inner) : inner_(inner) {}

  Status RegisterEndpoint(rpc::EndpointId id, rpc::MessageHandler handler) override {
    return inner_->RegisterEndpoint(id, std::move(handler));
  }
  void UnregisterEndpoint(rpc::EndpointId id) override { inner_->UnregisterEndpoint(id); }
  Status Send(rpc::Message msg) override {
    if (msg.type == rpc::MsgType::kReturnVertices) {
      auto ans = AnswerPayload::Decode(msg.payload);
      if (ans.ok() && ans->parent_exec == 0 && !stalled_.exchange(true)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    return inner_->Send(std::move(msg));
  }
  void Shutdown() override { inner_->Shutdown(); }

  bool stalled() const { return stalled_.load(); }

 private:
  rpc::Transport* inner_;
  std::atomic<bool> stalled_{false};
};

// The final-step execution stages its answer before its termination trace
// item. While the answer's send stalls, the 5 ms maintenance tick flushes
// the termination; if that flush could overtake the answer, the coordinator
// would complete the travel OK with no results.
TEST(EngineFeatureTest, DirectAnswerIsNotOvertakenByALaterDrain) {
  gt::testing::ScopedTempDir dir;
  Catalog catalog;
  const RefGraph g = ChainGraph(&catalog, 1);
  auto store = graph::GraphStore::Open(dir.sub("s0"), graph::GraphStoreOptions{});
  ASSERT_TRUE(store.ok());
  graph::HashPartitioner partitioner(1);
  graph::GraphLoader loader(&partitioner, {store->get()});
  ASSERT_TRUE(g.LoadInto(&loader).ok());

  rpc::InProcTransport inner;
  StallFirstAnswerTransport transport(&inner);
  BackendServer server(ServerConfig{}, store->get(), &partitioner, &catalog, &transport);
  ASSERT_TRUE(server.Start().ok());
  {
    GraphTrekClient client(&transport, rpc::kClientIdBase, /*num_servers=*/1);
    auto plan = GTravel(&catalog).v({0}).e("next").Build();
    ASSERT_TRUE(plan.ok());
    auto result = client.Run(*plan, RunOptions{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(transport.stalled());
    EXPECT_EQ(result->vids, std::vector<VertexId>{1});
  }
  server.Stop();
  inner.Shutdown();
}

// --- misc -----------------------------------------------------------------------------

TEST(EngineFeatureTest, InvalidPlanBytesRejectedAtSubmit) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->NewClient();
  // Hand-craft a submit with garbage plan bytes.
  SubmitPayload submit;
  submit.mode = static_cast<uint8_t>(EngineMode::kGraphTrek);
  submit.plan = "not-a-plan";
  rpc::Mailbox mailbox((*cluster)->transport(), rpc::kClientIdBase + 500);
  auto reply = mailbox.Call(0, rpc::MsgType::kSubmitTraversal, submit.Encode());
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, rpc::MsgType::kTraversalComplete);
  auto done = CompletePayload::Decode(reply->payload);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->ok, 0);
}

TEST(EngineFeatureTest, CacheIsCleanedUpAfterTraversal) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = RandomishGraph(catalog, 10, 100, 500);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  auto plan = GTravel(catalog).v({1, 2}).e("link").e("link").Build();
  ASSERT_TRUE(plan.ok());
  auto result = (*cluster)->Run(*plan, EngineMode::kGraphTrek);
  ASSERT_TRUE(result.ok());

  // The completion broadcast erases the travel's cache entries on every
  // server (poll briefly: the abort message is asynchronous).
  bool clean = false;
  for (int i = 0; i < 100 && !clean; i++) {
    clean = (*cluster)->server(0)->cache_size() == 0 &&
            (*cluster)->server(1)->cache_size() == 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(clean);
}

TEST(EngineFeatureTest, DeepChainTraversal) {
  // 40-hop traversal down a chain: far beyond any social-network diameter,
  // the paper's "longer traversals" scenario in miniature.
  ClusterConfig cfg;
  cfg.num_servers = 4;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  RefGraph g = ChainGraph(catalog, 64);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  GTravel travel(catalog);
  travel.v({0});
  for (int i = 0; i < 40; i++) travel.e("next");
  auto plan = travel.Build();
  ASSERT_TRUE(plan.ok());
  for (EngineMode mode :
       {EngineMode::kSync, EngineMode::kAsyncPlain, EngineMode::kGraphTrek}) {
    auto result = (*cluster)->Run(*plan, mode);
    ASSERT_TRUE(result.ok()) << EngineModeName(mode);
    EXPECT_EQ(result->vids, std::vector<VertexId>{40}) << EngineModeName(mode);
  }
}

}  // namespace
}  // namespace gt::engine
