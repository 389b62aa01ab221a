// Operational-surface tests: dumping a live cluster back into staging form
// (the inverse of Load), text export of the dump, and the stats report.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <tuple>

#include "src/engine/cluster.h"
#include "src/gen/darshan.h"
#include "src/graph/text_io.h"
#include "src/lang/gtravel.h"
#include "tests/test_util.h"

namespace gt::engine {
namespace {

using graph::Catalog;
using graph::RefGraph;

TEST(ClusterOpsTest, DumpInvertsLoad) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();

  gen::DarshanConfig dcfg;
  dcfg.users = 8;
  dcfg.files = 128;
  gen::DarshanGenerator generator(dcfg);
  RefGraph g = generator.Build(catalog);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  // The store keys edges by (src, label, dst), so parallel edges emitted by
  // the generator collapse to one; compare against the deduplicated count.
  std::set<std::tuple<graph::VertexId, graph::LabelId, graph::VertexId>> unique_edges;
  for (const auto& [vid, rec] : g.vertices()) {
    (void)rec;
    for (uint32_t label = 0; label < catalog->size(); label++) {
      for (const auto& [dst, props] : g.Edges(vid, label)) {
        (void)props;
        unique_edges.insert({vid, label, dst});
      }
    }
  }

  auto dumped = (*cluster)->Dump();
  ASSERT_TRUE(dumped.ok()) << dumped.status().ToString();
  EXPECT_EQ(dumped->num_vertices(), g.num_vertices());
  EXPECT_EQ(dumped->num_edges(), unique_edges.size());

  // Spot-check structure: every user's run edges survive the round trip.
  const auto run = catalog->Lookup("run");
  for (uint32_t u = 0; u < dcfg.users; u++) {
    EXPECT_EQ(dumped->Edges(generator.UserVid(u), run).size(),
              g.Edges(generator.UserVid(u), run).size())
        << "user " << u;
  }

  // And the dump is text-exportable / re-importable losslessly.
  std::ostringstream out;
  ASSERT_TRUE(graph::ExportText(*dumped, *catalog, &out).ok());
  Catalog fresh;
  std::istringstream in(out.str());
  auto reimported = graph::ImportText(&in, &fresh);
  ASSERT_TRUE(reimported.ok());
  EXPECT_EQ(reimported->num_vertices(), g.num_vertices());
  EXPECT_EQ(reimported->num_edges(), unique_edges.size());
}

TEST(ClusterOpsTest, DumpedGraphEvaluatesLikeTheOriginal) {
  ClusterConfig cfg;
  cfg.num_servers = 2;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  gen::DarshanConfig dcfg;
  dcfg.users = 6;
  dcfg.files = 64;
  gen::DarshanGenerator generator(dcfg);
  RefGraph g = generator.Build(catalog);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  auto dumped = (*cluster)->Dump();
  ASSERT_TRUE(dumped.ok());

  auto plan = lang::GTravel(catalog)
                  .v({generator.UserVid(1)})
                  .e("run")
                  .e("hasExecutions")
                  .e("read")
                  .Build();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(lang::EvaluatePlanOnRefGraph(*plan, *dumped, *catalog),
            lang::EvaluatePlanOnRefGraph(*plan, g, *catalog));
}

TEST(ClusterOpsTest, StatsReportCoversEveryServer) {
  ClusterConfig cfg;
  cfg.num_servers = 3;
  auto cluster = Cluster::Create(cfg);
  ASSERT_TRUE(cluster.ok());
  Catalog* catalog = (*cluster)->catalog();
  gen::DarshanConfig dcfg;
  dcfg.users = 6;
  dcfg.files = 64;
  gen::DarshanGenerator generator(dcfg);
  RefGraph g = generator.Build(catalog);
  ASSERT_TRUE((*cluster)->Load(g).ok());

  auto plan = lang::GTravel(catalog).v({generator.UserVid(0)}).e("run").Build();
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE((*cluster)->Run(*plan, EngineMode::kGraphTrek).ok());

  std::ostringstream out;
  (*cluster)->DumpMetrics(&out);
  const std::string report = out.str();
  // One exposition document covers every layer: kv, rpc, engine visits and
  // per-travel durations, with one labelled series per server instance.
  for (const char* needle :
       {"server=\"s0\"", "server=\"s1\"", "server=\"s2\"",
        "gt_engine_visits_received_total", "gt_engine_travel_cache_misses_total",
        "gt_kv_puts_total", "gt_rpc_messages_sent_total",
        "gt_travel_duration_ms_bucket", "gt_travel_completed_total",
        "# TYPE gt_travel_duration_ms histogram", "# device model s2:"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }

  // The archived coordinator trace renders as Chrome trace-event JSON.
  std::string json;
  ASSERT_TRUE((*cluster)->ExportTraceJson(0, &json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("GraphTrek"), std::string::npos);
}

TEST(ClusterOpsTest, CreateOverMissingParentDirFails) {
  gt::testing::ScopedTempDir dir;
  ClusterConfig cfg;
  cfg.data_dir = dir.sub("missing/cluster");
  auto cluster = Cluster::Create(cfg);
  EXPECT_FALSE(cluster.ok());
}

}  // namespace
}  // namespace gt::engine
