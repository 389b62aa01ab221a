// Ablation: the GraphTrek optimizations, one at a time (DESIGN.md items 1-2).
// 8-step RMAT-1 traversal on 16 servers:
//   - full GraphTrek (cache + merge + smallest-step-first)
//   - merging off
//   - priority scheduling off (FIFO)
//   - both off (cache only)
//   - Async-GT (nothing)
// Also sweeps the traversal-affiliate cache capacity to show the eviction
// policy degrades gracefully.
#include "bench/bench_util.h"

using namespace gt;
using namespace gt::bench;

namespace {

double RunConfigured(const graph::RefGraph& g, graph::Catalog* catalog,
                     const lang::TraversalPlan& plan, const BenchConfig& cfg,
                     uint32_t servers, bool merging, bool priority,
                     size_t cache_capacity, engine::EngineMode mode,
                     size_t adjacency_cache_bytes = 16 << 20) {
  engine::ClusterConfig ccfg;
  ccfg.num_servers = servers;
  ccfg.workers_per_server = cfg.workers_per_server;
  ccfg.device.access_latency_us = cfg.access_latency_us;
  ccfg.device.per_kib_us = cfg.per_kib_us;
  ccfg.net.latency_us = cfg.net_latency_us;
  ccfg.exec_timeout_ms = 600000;
  ccfg.graphtrek_merging = merging;
  ccfg.graphtrek_priority_sched = priority;
  ccfg.cache_capacity = cache_capacity;
  ccfg.adjacency_cache_bytes = adjacency_cache_bytes;  // 0 = cache off
  auto cluster = engine::Cluster::Create(ccfg);
  if (!cluster.ok()) std::abort();
  (*cluster)->catalog()->CopyFrom(*catalog);
  if (!(*cluster)->Load(g).ok()) std::abort();
  auto result = (*cluster)->Run(plan, mode);
  if (!result.ok()) std::abort();
  return result->elapsed_ms;
}

}  // namespace

int main(int argc, char** argv) {
  PrintHeader("Ablation: GraphTrek optimizations, 8-step RMAT-1, 16 servers",
              "traversal-affiliate cache / execution merging / priority scheduling");

  BenchConfig cfg;
  ParseBenchArgs(argc, argv, &cfg);
  graph::Catalog catalog;
  graph::RefGraph g = BuildRmat1(&catalog, cfg);
  const auto plan = HopPlan(&catalog, kBenchSource, 8);
  const uint32_t servers = ServersOrSmoke(16);
  const size_t big_cache = 1 << 20;

  struct Variant {
    const char* name;
    bool merging, priority;
    engine::EngineMode mode;
  };
  const Variant variants[] = {
      {"GraphTrek (full)", true, true, engine::EngineMode::kGraphTrek},
      {"  - merging off", false, true, engine::EngineMode::kGraphTrek},
      {"  - sched FIFO", true, false, engine::EngineMode::kGraphTrek},
      {"  - merge+sched off", false, false, engine::EngineMode::kGraphTrek},
      {"Async-GT (no opts)", true, true, engine::EngineMode::kAsyncPlain},
      {"Sync-GT", true, true, engine::EngineMode::kSync},
  };
  std::printf("%-22s %12s\n", "variant", "elapsed");
  for (const auto& v : variants) {
    const double ms = RunConfigured(g, &catalog, plan, cfg, servers, v.merging,
                                    v.priority, big_cache, v.mode);
    std::printf("%-22s %9.1f ms\n", v.name, ms);
    std::fflush(stdout);
  }

  std::printf("\ncache-capacity sweep (GraphTrek, entries):\n");
  std::printf("%-12s %12s\n", "capacity", "elapsed");
  const std::vector<size_t> capacities =
      g_smoke ? std::vector<size_t>{64ul, 1ul << 20}
              : std::vector<size_t>{64ul, 256ul, 1024ul, 4096ul, 1ul << 20};
  for (size_t capacity : capacities) {
    const double ms = RunConfigured(g, &catalog, plan, cfg, servers, true, true,
                                    capacity, engine::EngineMode::kGraphTrek);
    std::printf("%-12zu %9.1f ms\n", capacity, ms);
    std::fflush(stdout);
  }

  // I/O-path ablation (DESIGN.md "Adjacency cache & merged vertex I/O"):
  // the CSR adjacency cache is orthogonal to the scheduling knobs above,
  // and the traversal semantics stay bit-identical with it off.
  std::printf("\nI/O-path ablation (GraphTrek, merge+priority on):\n");
  struct IoVariant {
    const char* name;
    size_t adjacency_cache_bytes;
  };
  const IoVariant io_variants[] = {
      {"full I/O path", 16 << 20},
      {"  - adj cache off", 0},
  };
  std::printf("%-26s %12s\n", "variant", "elapsed");
  for (const auto& v : io_variants) {
    const double ms =
        RunConfigured(g, &catalog, plan, cfg, servers, true, true, big_cache,
                      engine::EngineMode::kGraphTrek, v.adjacency_cache_bytes);
    std::printf("%-26s %9.1f ms\n", v.name, ms);
    std::fflush(stdout);
  }
  return 0;
}
