// Planner ablation on Table III-style Darshan audit queries: the
// suspicious-user audits rewritten with the extended GTravel steps
// (count/group/path/branch/until) and run twice — once against a cluster
// with the statistics-driven planner off, once with it on — on all three
// engines. The planner's rewrites (selectivity-ordered filter lists,
// type-scan predicate pushdown) are result-identical by construction, so the bench doubles as a cheap
// correctness gate: any on/off result divergence fails the run.
//
// Reported per query and engine: planner-off ms, planner-on ms, speedup.
// The headline number is the filter-heavy scan-start query, where pushdown
// keeps non-matching vertices from ever becoming root executions.
// Persists BENCH_10.json.
//
//   table3_planner [--smoke] [--json FILE]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/gen/darshan.h"

namespace gt::bench {
namespace {

struct QueryCase {
  std::string name;
  lang::TraversalPlan plan;
};

lang::TraversalPlan MustBuild(Result<lang::TraversalPlan> plan, const char* what) {
  if (!plan.ok()) {
    std::fprintf(stderr, "table3_planner: %s: %s\n", what,
                 plan.status().ToString().c_str());
    std::abort();
  }
  return *plan;
}

// The audit workload: each query leans on one of the new language steps,
// and the first two are filter-heavy enough for the planner to matter.
std::vector<QueryCase> BuildQueries(graph::Catalog* catalog,
                                    const gen::DarshanGenerator& generator) {
  const gen::DarshanConfig& dcfg = generator.config();
  std::vector<QueryCase> queries;

  // Filter-heavy scan start: "how many executions read a large file?"
  // Planner-on pushes the size predicate into the type-index scan, so only
  // matching files become root execs; planner-off roots every File vertex
  // and filters at processing time.
  queries.push_back(
      {"big_files_readby_count",
       MustBuild(lang::GTravel(catalog)
                     .v()
                     .va("type", lang::FilterOp::kEq, {graph::PropValue("File")})
                     .va("size", lang::FilterOp::kRange,
                         {graph::PropValue(int64_t{3} << 28),
                          graph::PropValue(int64_t{1} << 30)})
                     .e("readBy")
                     .count()
                     .Build(),
                 "big_files_readby_count")});

  // Filter-heavy scan start over jobs in a narrow time window, with an
  // until() terminal picking out one execution shape.
  const int64_t window = (dcfg.ts_end - dcfg.ts_begin) / 8;
  queries.push_back(
      {"job_window_until_count",
       MustBuild(lang::GTravel(catalog)
                     .v()
                     .va("type", lang::FilterOp::kEq, {graph::PropValue("Job")})
                     .va("ts", lang::FilterOp::kRange,
                         {graph::PropValue(dcfg.ts_begin),
                          graph::PropValue(dcfg.ts_begin + window)})
                     .e("hasExecutions")
                     .until("params", lang::FilterOp::kEq,
                            {graph::PropValue("-n 8")})
                     .count()
                     .Build(),
                 "job_window_until_count")});

  // The classic 5-hop suspicious-user audit, returning the full visited
  // chains instead of just the final frontier.
  queries.push_back(
      {"suspicious_user_paths",
       MustBuild(lang::GTravel(catalog)
                     .v({generator.UserVid(7)})
                     .e("run")
                     .ea("ts", lang::FilterOp::kRange,
                         {graph::PropValue(dcfg.ts_begin),
                          graph::PropValue(dcfg.ts_end)})
                     .e("hasExecutions")
                     .e("write")
                     .e("readBy")
                     .e("write")
                     .path()
                     .Build(),
                 "suspicious_user_paths")});

  // Branch across two audit depths from one user, grouped by vertex type:
  // one result mode exercise for the fork/merge + aggregation machinery.
  queries.push_back(
      {"user_reach_branch_group",
       MustBuild(lang::GTravel(catalog)
                     .v({generator.UserVid(3)})
                     .branch({lang::GTravel::Alt(catalog).e("run"),
                              lang::GTravel::Alt(catalog).e("run").e("hasExecutions")})
                     .group("type")
                     .Build(),
                 "user_reach_branch_group")});
  return queries;
}

bool SameResult(const lang::TraversalPlan& plan, const engine::TraversalResult& a,
                const engine::TraversalResult& b) {
  switch (plan.result_mode) {
    case lang::ResultMode::kCount:
      return a.count == b.count;
    case lang::ResultMode::kGroup:
      return a.groups == b.groups;
    case lang::ResultMode::kPaths:
      return a.paths == b.paths;
    case lang::ResultMode::kVertices:
      return a.vids == b.vids;
  }
  return false;
}

}  // namespace
}  // namespace gt::bench

int main(int argc, char** argv) {
  using namespace gt;
  using namespace gt::bench;

  // Peel off --json before the shared parser (it rejects unknown flags).
  std::string json_path = "BENCH_10.json";
  std::vector<char*> rest = {argv[0]};
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      rest.push_back(argv[i]);
    }
  }
  BenchConfig cfg;
  ParseBenchArgs(static_cast<int>(rest.size()), rest.data(), &cfg);

  PrintHeader("table3_planner: Darshan audit queries, planner off vs on",
              "extended-GTravel audits (count/until/path/branch+group) on all "
              "three engines; the statistics-driven rewriter must be "
              "result-identical and faster on the filter-heavy scans");

  graph::Catalog catalog;
  gen::DarshanConfig dcfg;
  dcfg.users = g_smoke ? 12 : 96;
  dcfg.jobs_per_user_max = g_smoke ? 8 : 48;
  dcfg.execs_per_job_max = g_smoke ? 4 : 12;
  dcfg.files = g_smoke ? 512 : 8192;
  dcfg.seed = 2013;
  gen::DarshanGenerator generator(dcfg);
  graph::RefGraph g = generator.Build(&catalog);
  std::printf("graph: %zu vertices, %zu edges\n\n", g.num_vertices(), g.num_edges());

  const uint32_t servers = ServersOrSmoke(8);
  BenchConfig cfg_off = cfg;
  cfg_off.planner = false;
  BenchConfig cfg_on = cfg;
  cfg_on.planner = true;
  BenchCluster off(servers, cfg_off, &catalog, g);
  BenchCluster on(servers, cfg_on, &catalog, g);

  const std::vector<QueryCase> queries = BuildQueries(&catalog, generator);
  constexpr engine::EngineMode kModes[] = {engine::EngineMode::kSync,
                                           engine::EngineMode::kAsyncPlain,
                                           engine::EngineMode::kGraphTrek};

  struct Row {
    std::string query;
    const char* engine;
    double off_ms;
    double on_ms;
    bool match;
  };
  std::vector<Row> rows;
  bool all_match = true;

  std::printf("%-26s %-10s %12s %12s %9s\n", "query", "engine", "planner off",
              "planner on", "speedup");
  for (const QueryCase& q : queries) {
    for (engine::EngineMode mode : kModes) {
      // One untimed run each way for the equality gate (and cache warmup),
      // then the timed repetitions.
      auto off_result = off.get()->Run(q.plan, mode);
      auto on_result = on.get()->Run(q.plan, mode);
      if (!off_result.ok() || !on_result.ok()) {
        std::fprintf(stderr, "table3_planner: %s on %s failed: %s\n",
                     q.name.c_str(), engine::EngineModeName(mode),
                     (!off_result.ok() ? off_result.status() : on_result.status())
                         .ToString()
                         .c_str());
        return 1;
      }
      const bool match = SameResult(q.plan, *off_result, *on_result);
      if (!match) {
        std::fprintf(stderr,
                     "table3_planner: RESULT DIVERGENCE on %s (%s): planner "
                     "on/off disagree\n",
                     q.name.c_str(), engine::EngineModeName(mode));
        all_match = false;
      }
      const double off_ms = off.RunAveraged(q.plan, mode, cfg.runs);
      const double on_ms = on.RunAveraged(q.plan, mode, cfg.runs);
      std::printf("%-26s %-10s %9.1f ms %9.1f ms %8.2fx%s\n", q.name.c_str(),
                  engine::EngineModeName(mode), off_ms, on_ms,
                  on_ms > 0 ? off_ms / on_ms : 0.0, match ? "" : "  MISMATCH");
      std::fflush(stdout);
      rows.push_back({q.name, engine::EngineModeName(mode), off_ms, on_ms, match});
    }
  }
  std::printf("\n");
  PrintRpcStats(3);

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"table3_planner\",\n"
                 "  \"smoke\": %s,\n"
                 "  \"servers\": %u,\n"
                 "  \"all_match\": %s,\n"
                 "  \"rows\": [\n",
                 g_smoke ? "true" : "false", servers, all_match ? "true" : "false");
    for (size_t i = 0; i < rows.size(); i++) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"query\": \"%s\", \"engine\": \"%s\", "
                   "\"planner_off_ms\": %.3f, \"planner_on_ms\": %.3f, "
                   "\"speedup\": %.3f, \"match\": %s}%s\n",
                   r.query.c_str(), r.engine, r.off_ms, r.on_ms,
                   r.on_ms > 0 ? r.off_ms / r.on_ms : 0.0,
                   r.match ? "true" : "false", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "table3_planner: cannot write %s\n", json_path.c_str());
    return 1;
  }

  // The smoke gate is the planner's result-identity contract.
  if (!all_match) {
    std::fprintf(stderr, "table3_planner: planner identity gate FAILED\n");
    return 1;
  }
  return 0;
}
