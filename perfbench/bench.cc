// perfbench: one end-to-end benchmark for GraphTrek, driven through the
// in-process Cluster's public API from a single process.
//
//   perfbench --workload <rmat-cold|rmat-warm|darshan-ingest-audit>
//             --seed N --seconds S --trace 0|1 --data-dir DIR [--out-dir DIR]
//
// Every answer is checked against the benchmark's own evaluation
// (perfbench/oracle.h), and every cluster is checked for RPC, travel and
// snapshot conservation before it is torn down. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). A
// traced run also writes its spans and the slowest GraphTrek travel's
// Chrome trace to --out-dir. perfbench/README.md describes the workloads.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/oracle.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/engine/cluster.h"
#include "src/gen/darshan.h"
#include "src/gen/rmat.h"
#include "src/graph/partitioner.h"
#include "src/lang/gtravel.h"
#include "src/rpc/message.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using gt::engine::Cluster;
using gt::engine::EngineMode;
using gt::engine::GraphTrekClient;

// Taken during static initialisation, before main(): set-up time counts
// from the start of the process.
const Clock::time_point g_process_start = Clock::now();

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}
double NowMs() { return MsSince(g_process_start); }

// ------------------------------------------------------------------ options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string out_dir;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <rmat-cold|rmat-warm|"
               "darshan-ingest-audit> --seed N --seconds S --trace 0|1 "
               "--data-dir DIR [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--data-dir") {
      o.data_dir = value;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || o.data_dir.empty()) Usage("--workload and --data-dir are required");
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

// ------------------------------------------------------------------- checks

// Every failed check; any entry makes the run incorrect.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    std::lock_guard<std::mutex> lk(mu_);
    if (failures_ < 20) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    failures_++;
  }
  bool ok() const {
    std::lock_guard<std::mutex> lk(mu_);
    return failures_ == 0;
  }

 private:
  mutable std::mutex mu_;
  uint64_t failures_ = 0;
};

// ------------------------------------------------------------------ samples

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

// ----------------------------------------------------------------- counters

// Process-wide totals of the registry's gt_* families (per-link rows and
// histogram buckets left out) plus the cluster's DeviceModel counters.
// Deltas of two snapshots attribute work to an interval.
using Counters = std::map<std::string, double>;

Counters Snapshot(Cluster* cluster) {
  Counters c;
  for (const auto& s : gt::metrics::Registry::Default()->Collect("gt_")) {
    const std::string& n = s.name;
    if (n.rfind("gt_rpc_link_", 0) == 0) continue;
    if (n.size() > 7 && n.compare(n.size() - 7, 7, "_bucket") == 0) continue;
    c[n] += s.value;
  }
  if (cluster != nullptr) {
    for (uint32_t i = 0; i < cluster->num_servers(); i++) {
      const gt::DeviceModel* d = cluster->device(i);
      c["device_accesses"] += static_cast<double>(d->total_accesses());
      c["device_warm_accesses"] += static_cast<double>(d->warm_accesses());
      c["device_charged_us"] += static_cast<double>(d->total_us());
    }
    // The cluster's straggler injector sleeps without charging the
    // DeviceModel, so its hits are read here.
    c["straggler_hits"] += static_cast<double>(cluster->straggler()->total_injected_delays());
  }
  return c;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters d = after;
  for (const auto& [k, v] : before) d[k] -= v;
  return d;
}

void Accumulate(Counters* into, const Counters& d) {
  for (const auto& [k, v] : d) (*into)[k] += v;
}

double Get(const Counters& c, const std::string& k) {
  auto it = c.find(k);
  return it == c.end() ? 0 : it->second;
}

double RegistrySum(const std::string& name) {
  return gt::metrics::Registry::Default()->Sum(name);
}

// Largest per-server value of a gauge family.
double MaxGauge(const std::string& name) {
  double m = 0;
  for (const auto& s : gt::metrics::Registry::Default()->Collect(name)) {
    if (s.name == name) m = std::max(m, s.value);
  }
  return m;
}

// Messages sent on links with one end in `endpoints` (client <-> server).
double LinkMessages(const std::set<std::string>& endpoints) {
  double n = 0;
  for (const auto& s :
       gt::metrics::Registry::Default()->Collect("gt_rpc_link_messages_sent_total")) {
    for (const auto& [k, v] : s.labels) {
      if ((k == "src" || k == "dst") && endpoints.count(v) != 0) {
        n += s.value;
        break;
      }
    }
  }
  return n;
}

// ------------------------------------------------------------------ tracing

// Spans kept in memory around the benchmark's own calls into each layer,
// written out when the run ends. Each span carries the counter deltas of
// its interval. Calls that overlap other work (the ingest clients) get one
// span per phase, whose deltas cover everything that ran in it.
struct Span {
  std::string name;
  std::string detail;
  double start_ms = 0;
  double end_ms = 0;
  Counters delta;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  // Runs `fn` inside a span; untraced runs call it bare.
  template <typename Fn>
  auto Record(const std::string& name, const std::string& detail, Cluster* cluster, Fn&& fn) {
    if (!on_) return fn();
    const double start = NowMs();
    const Counters before = Snapshot(cluster);
    auto result = fn();
    const double end = NowMs();
    Add(Span{name, detail, start, end, Delta(Snapshot(cluster), before)});
    return result;
  }

  // Thread-safe: the ingest thread records its phases beside the auditor.
  void Add(Span s) {
    if (!on_) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      out << "{\"name\": \"" << s.name << "\", \"detail\": \"" << s.detail
          << "\", \"start_ms\": " << s.start_ms << ", \"end_ms\": " << s.end_ms
          << ", \"delta\": {";
      bool first = true;
      for (const auto& [k, v] : s.delta) {
        if (v == 0) continue;
        out << (first ? "" : ", ") << "\"" << k << "\": " << v;
        first = false;
      }
      out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  bool on_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ----------------------------------------------------------------- measured

// Everything a workload measured; main() turns it into the result line.
struct Measured {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_s = 0;
  std::vector<double> gt_ms;    // timed GraphTrek travels, client-observed
  std::vector<double> sync_ms;  // timed Sync-GT travels on the same inputs
  uint64_t mutations = 0;       // timed ingest
  double ingest_s = 0;

  // Per-layer inputs. `gt` covers the GraphTrek travels that run alone
  // on their cluster, so their deltas are theirs.
  Counters gt;
  uint64_t gt_travels = 0;
  std::vector<double> client_gap_ms;  // client span - coordinator duration
  std::vector<double> build_us;       // GTravel::Build
  std::vector<double> mutation_us;    // PutVertex/PutEdge, client-observed
  std::vector<double> load_s;         // Cluster::Create over ingested data
  Counters life;                // every cluster, from before Create to teardown
  double device_charged_us = 0;  // in the measured interval
  double window_slot_s = 0;      // measured seconds x servers x workers
  double queue_high_watermark = 0;
  double adj_bytes = 0;  // largest resident adjacency cache of any cluster
  double mutation_messages = 0;  // on the ingest clients' links

  // Slowest timed GraphTrek travel, as a Chrome trace (traced runs).
  double slowest_ms = -1;
  std::string slowest_trace;
};

// ------------------------------------------------------------------ cluster

constexpr uint32_t kWorkersPerServer = 2;  // ClusterConfig's default

// GraphTrek's batched frontier grouping now and then returns OK with a
// strict subset of the answer, even for travels run one at a time
// (CHANGES.md), and an operation that fails now and then cannot be
// measured, so the benchmark leaves it out. Written so that deleting the
// option leaves nothing to switch off.
template <typename Config>
void LeaveOutBatchedFrontier(Config* c) {
  if constexpr (requires { c->batched_multiget; }) c->batched_multiget = false;
}

// The simulated environment. Every other engine option keeps the
// program's default, so a change of default is what gets measured.
gt::engine::ClusterConfig EnvConfig(uint32_t servers, const std::string& dir) {
  gt::engine::ClusterConfig c;
  c.num_servers = servers;
  c.data_dir = dir;
  c.device.access_latency_us = 800;
  c.device.warm_latency_us = 200;
  c.device.per_kib_us = 5;
  c.device.tail_prob = 0;  // capped straggler rules replace random tails
  c.net.latency_us = 20;
  LeaveOutBatchedFrontier(&c);
  return c;
}

// A cluster over a data directory of its own (empty, or a copy of an
// ingested graph), removed with the cluster unless `keep_dir`.
class BenchCluster {
 public:
  BenchCluster(gt::engine::ClusterConfig cfg, Checks* checks, Measured* m, Tracer* tracer,
               bool keep_dir = false)
      : dir_(cfg.data_dir), keep_dir_(keep_dir), checks_(checks), m_(m) {
    // Cluster::Create makes only the last path component.
    std::filesystem::create_directories(dir_);
    born_ = Snapshot(nullptr);
    auto c = tracer->Record("Cluster::Create", std::to_string(cfg.num_servers) + " servers",
                            nullptr, [&] {
                              const Clock::time_point start = Clock::now();
                              auto created = Cluster::Create(cfg);
                              create_s_ = MsSince(start) / 1e3;
                              return created;
                            });
    if (!c.ok()) {
      std::fprintf(stderr, "perfbench: Cluster::Create: %s\n", c.status().ToString().c_str());
      std::exit(1);
    }
    cluster_ = std::move(*c);
    completed_base_ = RegistrySum("gt_travel_completed_total");
  }
  ~BenchCluster() {
    const Counters life = Delta(Snapshot(cluster_.get()), born_);
    Accumulate(&m_->life, life);
    // gt_graph_adj_bytes is not lowered when a cache dies, so the
    // cluster's resident bytes are its own delta.
    m_->adj_bytes = std::max(m_->adj_bytes, Get(life, "gt_graph_adj_bytes"));
    cluster_.reset();
    std::error_code ec;
    if (!keep_dir_) std::filesystem::remove_all(dir_, ec);
  }
  BenchCluster(const BenchCluster&) = delete;
  BenchCluster& operator=(const BenchCluster&) = delete;

  Cluster* get() { return cluster_.get(); }
  double create_s() const { return create_s_; }
  void SawTravelsEnd(uint64_t n) { travels_ended_ += n; }

  // Conservation once the cluster is quiet: every RPC sent was received,
  // the coordinators completed exactly the travels the benchmark saw end,
  // and every snapshot a travel pinned was released.
  void CheckQuiet(const std::string& where) {
    double sent = 0, received = 0, completed = 0;
    uint64_t live = 0;
    const double want = static_cast<double>(travels_ended_);
    for (int spin = 0; spin < 400; spin++) {
      sent = RegistrySum("gt_rpc_messages_sent_total");
      received = RegistrySum("gt_rpc_messages_received_total");
      completed = RegistrySum("gt_travel_completed_total") - completed_base_;
      live = 0;
      for (uint32_t s = 0; s < cluster_->num_servers(); s++) {
        live += cluster_->store(s)->db()->NumLiveSnapshots();
      }
      if (sent == received && completed == want && live == 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    uint64_t taken = 0, released = 0;
    for (uint32_t s = 0; s < cluster_->num_servers(); s++) {
      const auto& st = cluster_->store(s)->db()->stats();
      taken += st.snapshots_taken.load();
      released += st.snapshots_released.load();
    }
    checks_->Expect(sent == received, where + ": rpc messages sent " + std::to_string(sent) +
                                          " != received " + std::to_string(received));
    checks_->Expect(completed == want,
                    where + ": gt_travel_completed_total moved by " +
                        std::to_string(completed) + ", the benchmark saw " +
                        std::to_string(travels_ended_) + " travels end");
    checks_->Expect(live == 0, where + ": " + std::to_string(live) + " snapshots still live");
    checks_->Expect(taken == released, where + ": snapshots taken " + std::to_string(taken) +
                                           " != released " + std::to_string(released));
    m_->queue_high_watermark =
        std::max(m_->queue_high_watermark, MaxGauge("gt_engine_queue_high_watermark"));
  }

 private:
  std::string dir_;
  bool keep_dir_;
  Checks* checks_;
  Measured* m_;
  std::unique_ptr<Cluster> cluster_;
  Counters born_;
  double create_s_ = 0;
  double completed_base_ = 0;
  uint64_t travels_ended_ = 0;
};

// Runs one travel, timed from the client. Failed travels are counted;
// the caller checks the answer of the others.
struct Travel {
  bool ok = false;
  double ms = 0;
  gt::engine::TraversalResult result;
  Counters delta;  // filled when `with_delta`
};

Travel RunTravel(BenchCluster* bc, GraphTrekClient* client, const gt::lang::TraversalPlan& plan,
                 EngineMode mode, bool with_delta, Measured* m) {
  Travel t;
  gt::engine::RunOptions opts;
  opts.mode = mode;
  Counters before;
  if (with_delta) before = Snapshot(bc->get());
  const Clock::time_point start = Clock::now();
  auto r = client->Run(plan, opts);
  t.ms = MsSince(start);
  if (with_delta) t.delta = Delta(Snapshot(bc->get()), before);
  m->attempted++;
  if (!r.ok()) {
    m->failed++;
    std::fprintf(stderr, "perfbench: %s travel failed: %s\n", gt::engine::EngineModeName(mode),
                 r.status().ToString().c_str());
    return t;
  }
  bc->SawTravelsEnd(1 + r->restarts);
  t.ok = true;
  t.result = std::move(*r);
  return t;
}

// Books a GraphTrek travel that ran alone on its cluster into the
// per-layer inputs, and keeps the slowest one's trace.
void BookGraphTrek(const Travel& t, Cluster* c, Measured* m, Tracer* tracer,
                   const std::string& what) {
  Accumulate(&m->gt, t.delta);
  m->gt_travels++;
  m->client_gap_ms.push_back(t.ms - Get(t.delta, "gt_travel_duration_ms_sum"));
  if (tracer->on()) {
    tracer->Add(Span{"GraphTrekClient::Run", what, NowMs() - t.ms, NowMs(), t.delta});
    if (t.ms > m->slowest_ms) {
      m->slowest_ms = t.ms;
      c->ExportTraceJson(t.result.travel_id, &m->slowest_trace);
    }
  }
}

template <typename Fn>
auto TimedBuild(Measured* m, Tracer* tracer, Fn&& build) {
  return tracer->Record("GTravel::Build", "", nullptr, [&] {
    const Clock::time_point start = Clock::now();
    auto plan = build();
    m->build_us.push_back(MsSince(start) * 1e3);
    return plan;
  });
}

// ------------------------------------------------------------------- ingest

// One mutation of an ingest stream.
struct Mutation {
  bool is_vertex = true;
  Vid src = 0;
  Vid dst = 0;
  std::string label;
  gt::engine::NamedProps props;
};

// An ingest stream: phases run one after the other; a phase's units are
// dealt out to the ingest clients, and each client sends a unit's
// mutations in order. Every edge's endpoints are written in an earlier
// phase or earlier in its own unit, since kPutEdge rejects dangling edges.
using Unit = std::vector<Mutation>;
struct Phase {
  std::string name;
  std::vector<Unit> units;
};
using Stream = std::vector<Phase>;

size_t StreamSize(const Stream& stream) {
  size_t n = 0;
  for (const Phase& p : stream) {
    for (const Unit& u : p.units) n += u.size();
  }
  return n;
}

// Names a record's ids through the catalog the generator interned them in.
class Namer {
 public:
  explicit Namer(const gt::graph::Catalog& catalog) : catalog_(catalog) {}
  std::string Name(gt::graph::Catalog::Id id) const {
    auto n = catalog_.Name(id);
    if (!n.ok()) {
      std::fprintf(stderr, "perfbench: unknown catalog id %u\n", id);
      std::exit(1);
    }
    return *n;
  }
  gt::engine::NamedProps Props(const gt::graph::PropMap& props) const {
    gt::engine::NamedProps out;
    for (const auto& [k, v] : props) out.emplace_back(Name(k), v);
    return out;
  }
  Mutation Vertex(const gt::graph::VertexRecord& rec) const {
    return Mutation{true, rec.id, 0, Name(rec.label), Props(rec.props)};
  }

 private:
  const gt::graph::Catalog& catalog_;
};

// Sorted ids, so a stream never depends on hash-map order.
std::vector<Vid> SortedIds(const gt::graph::RefGraph& g) {
  std::vector<Vid> ids;
  for (const auto& [vid, rec] : g.vertices()) ids.push_back(vid);
  std::sort(ids.begin(), ids.end());
  return ids;
}

constexpr uint32_t kIngestClients = 3;

// Streams `stream` into the cluster from kIngestClients client threads,
// counting finished phases in `phases_done` when given, and adds its
// tallies to `m`.
void Ingest(BenchCluster* bc, const Stream& stream, Measured* m, Tracer* tracer,
            std::atomic<size_t>* phases_done = nullptr) {
  Cluster* c = bc->get();
  std::vector<std::unique_ptr<GraphTrekClient>> clients;
  std::set<std::string> endpoints;
  for (uint32_t i = 0; i < kIngestClients; i++) {
    clients.push_back(c->NewClient());
    // The registry's name for a client endpoint (see EndpointName).
    endpoints.insert("c" + std::to_string(clients.back()->id() - gt::rpc::kClientIdBase));
  }
  std::vector<std::vector<double>> latency_us(kIngestClients);
  std::atomic<uint64_t> failed{0};
  const double link_before = LinkMessages(endpoints);
  auto send = [&](uint32_t t, const Phase& phase) {
    GraphTrekClient* client = clients[t].get();
    for (size_t u = t; u < phase.units.size(); u += kIngestClients) {
      for (const Mutation& op : phase.units[u]) {
        const Clock::time_point s = Clock::now();
        const gt::Status st = op.is_vertex ? client->PutVertex(op.src, op.label, op.props)
                                           : client->PutEdge(op.src, op.label, op.dst, op.props);
        latency_us[t].push_back(MsSince(s) * 1e3);
        if (!st.ok() && failed.fetch_add(1) < 5) {
          std::fprintf(stderr, "perfbench: mutation failed: %s\n", st.ToString().c_str());
        }
      }
    }
  };
  const Clock::time_point start = Clock::now();
  for (const Phase& phase : stream) {
    size_t calls = 0;
    for (const Unit& u : phase.units) calls += u.size();
    tracer->Record(phase.name,
                   std::to_string(calls) + " calls from " + std::to_string(kIngestClients) +
                       " clients",
                   c, [&] {
                     std::vector<std::thread> pool;
                     for (uint32_t t = 0; t < kIngestClients; t++) {
                       pool.emplace_back(send, t, std::cref(phase));
                     }
                     for (auto& th : pool) th.join();
                     return 0;
                   });
    if (phases_done != nullptr) phases_done->fetch_add(1);
  }
  const size_t size = StreamSize(stream);
  m->attempted += size;
  m->failed += failed.load();
  m->mutations += size;
  m->ingest_s += MsSince(start) / 1e3;
  m->mutation_messages += LinkMessages(endpoints) - link_before;
  for (const auto& v : latency_us) m->mutation_us.insert(m->mutation_us.end(), v.begin(), v.end());
}

// --------------------------------------------------------------------- rmat

constexpr uint32_t kRmatScale = 11;
constexpr uint32_t kRmatDegree = 6;
constexpr uint32_t kRmatAttrBytes = 64;

struct RmatInput {
  gt::graph::Catalog catalog;  // the generator's ids
  gt::graph::RefGraph graph;
  Adjacency adj;
  std::string data_dir;             // the ingested graph, reopened per cluster
  gt::graph::Catalog data_catalog;  // the ids the ingested data carries
};

// Generates the RMAT graph and streams it into a cluster through the
// mutation RPCs. The cluster is then stopped and its directory kept: every
// cluster of the workload opens a copy of it, so each starts cold over
// the same on-disk data, like a restarted service.
std::unique_ptr<RmatInput> IngestRmat(const Options& o, uint32_t servers, Checks* checks,
                                      Measured* m, Tracer* tracer) {
  auto in = std::make_unique<RmatInput>();
  gt::gen::RmatConfig rc;
  rc.scale = kRmatScale;
  rc.avg_degree = kRmatDegree;
  rc.attr_bytes = kRmatAttrBytes;
  rc.seed = o.seed;
  in->graph = gt::gen::RmatGenerator(rc).Build(&in->catalog, "node", "link");
  const auto link = in->catalog.Lookup("link");
  for (const auto& [vid, rec] : in->graph.vertices()) {
    for (const auto& [dst, props] : in->graph.Edges(vid, link)) {
      in->adj.AddEdge(vid, "link", dst, std::nullopt);
    }
  }
  // All vertices, then all edges, one mutation per unit.
  const Namer namer(in->catalog);
  Stream stream{{"PutVertex", {}}, {"PutEdge", {}}};
  for (Vid vid : SortedIds(in->graph)) {
    stream[0].units.push_back({namer.Vertex(*in->graph.FindVertex(vid))});
    for (const auto& [dst, props] : in->graph.Edges(vid, link)) {
      stream[1].units.push_back({Mutation{false, vid, dst, "link", namer.Props(props)}});
    }
  }
  in->data_dir = o.data_dir + "/ingested";
  BenchCluster bc(EnvConfig(servers, in->data_dir), checks, m, tracer, /*keep_dir=*/true);
  Ingest(&bc, stream, m, tracer);
  bc.CheckQuiet("rmat ingest");
  in->data_catalog.CopyFrom(*bc.get()->catalog());
  return in;
}

// A fresh cluster over a copy of the ingested graph.
std::unique_ptr<BenchCluster> OpenRmatCluster(uint32_t servers, const std::string& dir,
                                              RmatInput* in, Checks* checks, Measured* m,
                                              Tracer* tracer) {
  std::filesystem::remove_all(dir);
  std::filesystem::copy(in->data_dir, dir, std::filesystem::copy_options::recursive);
  auto bc = std::make_unique<BenchCluster>(EnvConfig(servers, dir), checks, m, tracer);
  m->load_s.push_back(bc->create_s());
  bc->get()->catalog()->CopyFrom(in->data_catalog);
  return bc;
}

std::vector<Hop> LinkHops(uint32_t n) { return std::vector<Hop>(n, Hop{"link"}); }

gt::Result<gt::lang::TraversalPlan> LinkPlan(gt::graph::Catalog* catalog, Vid src,
                                             uint32_t hops) {
  gt::lang::GTravel t(catalog);
  t.v({src});
  for (uint32_t i = 0; i < hops; i++) t.e("link");
  t.rtn();
  return t.Build();
}

// Checks one hop-plan answer against the independent frontiers, plus the
// lower bound on the visits any engine must receive.
void CheckHopTravel(const Travel& t, const std::vector<VidSet>& frontiers, Checks* checks,
                    const std::string& what) {
  const std::string diff = CompareSets(frontiers.back(), t.result.vids);
  checks->Expect(diff.empty(), what + ": " + diff);
  size_t sum = 0;
  for (const VidSet& f : frontiers) sum += f.size();
  const double visits = Get(t.delta, "gt_engine_visits_received_total");
  checks->Expect(visits >= static_cast<double>(sum),
                 what + ": visits_received " + std::to_string(visits) + " < frontier sum " +
                     std::to_string(sum));
}

// Seeded distinct sources whose travel work, the summed sizes of their
// frontier sets, lies in `band`, and that pass `also`. Travel time follows
// the work closely, so the band keeps per-source times comparable across
// seeds. Once the graph runs out, the picked sources repeat in order.
class SourcePicker {
 public:
  using Filter = std::function<bool(const std::vector<VidSet>&)>;
  SourcePicker(const Adjacency* adj, uint64_t seed, uint32_t hops,
               std::pair<size_t, size_t> band, Filter also)
      : adj_(adj), hops_(hops), band_(band), also_(std::move(also)) {
    gt::Rng rng(seed ^ 0x50c1ULL);
    for (Vid v = 0; v < (Vid{1} << kRmatScale); v++) order_.push_back(v);
    for (size_t i = order_.size(); i > 1; i--) std::swap(order_[i - 1], order_[rng.Uniform(i)]);
  }

  Vid Next(std::vector<VidSet>* frontiers) {
    for (; next_ < order_.size(); next_++) {
      *frontiers = adj_->Frontiers({order_[next_]}, LinkHops(hops_));
      size_t work = 0;
      for (const VidSet& f : *frontiers) work += f.size();
      if (work >= band_.first && work <= band_.second && also_(*frontiers)) {
        picked_.push_back(order_[next_]);
        return order_[next_++];
      }
    }
    if (picked_.empty()) {
      std::fprintf(stderr, "perfbench: no source qualifies\n");
      std::exit(1);
    }
    const Vid v = picked_[repeat_++ % picked_.size()];
    *frontiers = adj_->Frontiers({v}, LinkHops(hops_));
    return v;
  }

 private:
  const Adjacency* adj_;
  uint32_t hops_;
  std::pair<size_t, size_t> band_;
  Filter also_;
  std::vector<Vid> order_;
  size_t next_ = 0;
  std::vector<Vid> picked_;
  size_t repeat_ = 0;
};

// rmat-cold: 4-hop travels from distinct seeded sources, each on a fresh
// 8-server cluster opened over a copy of the ingested graph, GraphTrek then
// Sync-GT per source, one travel at a time, with one capped straggler rule.
constexpr uint32_t kColdServers = 8;
constexpr uint32_t kColdHops = 4;
constexpr std::pair<size_t, size_t> kColdWork{2200, 2800};
const gt::engine::StragglerRule kColdStraggler{/*server_id=*/3, /*step=*/2,
                                               /*delay_us=*/20000, /*max_hits=*/2};

void RunRmatCold(const Options& o, Checks* checks, Measured* m, Tracer* tracer) {
  auto in = IngestRmat(o, kColdServers, checks, m, tracer);
  const std::string dir = o.data_dir + "/cold";

  const gt::graph::HashPartitioner part(kColdServers);
  SourcePicker sources(&in->adj, o.seed, kColdHops, kColdWork, [&](const std::vector<VidSet>& f) {
    const VidSet& at_step = f[kColdStraggler.step];
    const auto on_server = std::count_if(at_step.begin(), at_step.end(), [&](Vid v) {
      return part.ServerFor(v) == kColdStraggler.server_id;
    });
    return on_server >= static_cast<long>(kColdStraggler.max_hits);
  });

  const Clock::time_point window_start = Clock::now();
  double busy_ms = 0;
  bool first = true;
  while (first || MsSince(window_start) < o.seconds * 1e3) {
    std::vector<VidSet> frontiers;
    const Vid src = sources.Next(&frontiers);
    VidSet touched;
    for (const VidSet& f : frontiers) touched.insert(touched.end(), f.begin(), f.end());
    Adjacency::Normalize(&touched);
    for (EngineMode mode : {EngineMode::kGraphTrek, EngineMode::kSync}) {
      auto bc = OpenRmatCluster(kColdServers, dir, in.get(), checks, m, tracer);
      Cluster* c = bc->get();
      c->straggler()->AddRule(kColdStraggler);
      if (first) {
        m->setup_s = NowMs() / 1e3;
        first = false;
      }
      auto client = c->NewClient();
      auto plan = TimedBuild(m, tracer, [&] { return LinkPlan(c->catalog(), src, kColdHops); });
      if (!plan.ok()) {
        checks->Expect(false, "GTravel::Build: " + plan.status().ToString());
        return;
      }
      const std::string what = std::string(gt::engine::EngineModeName(mode)) +
                               " 4-hop travel from " + std::to_string(src);
      const Travel t = RunTravel(bc.get(), client.get(), *plan, mode, true, m);
      if (t.ok) {
        CheckHopTravel(t, frontiers, checks, what);
        const double cold = Get(t.delta, "device_accesses") - Get(t.delta, "device_warm_accesses");
        checks->Expect(cold >= static_cast<double>(touched.size()),
                       what + ": " + std::to_string(cold) + " cold device accesses < " +
                           std::to_string(touched.size()) + " distinct vertices touched");
        const double hits = Get(t.delta, "straggler_hits");
        checks->Expect(hits == static_cast<double>(kColdStraggler.max_hits),
                       what + ": straggler rule hit " + std::to_string(hits) + " times");
        if (mode == EngineMode::kGraphTrek) {
          m->gt_ms.push_back(t.ms);
          BookGraphTrek(t, c, m, tracer, what);
        } else {
          m->sync_ms.push_back(t.ms);
          tracer->Add(Span{"GraphTrekClient::Run", what, NowMs() - t.ms, NowMs(), t.delta});
        }
        m->device_charged_us += Get(t.delta, "device_charged_us");
        busy_ms += t.ms;
      }
      bc->CheckQuiet(what);
    }
  }
  m->window_slot_s = busy_ms / 1e3 * kColdServers * kWorkersPerServer;
}

// rmat-warm: 2-hop travels over a hot set of sources, one client in a
// closed loop on one long-lived 8-server cluster, after an untimed warm-up
// pass. Each source runs on GraphTrek, then on Sync-GT.
constexpr uint32_t kWarmServers = 8;
constexpr uint32_t kWarmHops = 2;
constexpr uint32_t kHotSources = 64;
constexpr std::pair<size_t, size_t> kWarmWork{100, 200};

void RunRmatWarm(const Options& o, Checks* checks, Measured* m, Tracer* tracer) {
  auto in = IngestRmat(o, kWarmServers, checks, m, tracer);
  auto bc = OpenRmatCluster(kWarmServers, o.data_dir + "/warm", in.get(), checks, m, tracer);
  Cluster* c = bc->get();
  m->setup_s = NowMs() / 1e3;
  auto client = c->NewClient();

  SourcePicker picker(&in->adj, o.seed, kWarmHops, kWarmWork,
                      [](const std::vector<VidSet>&) { return true; });
  std::vector<Vid> hot;
  std::vector<std::vector<VidSet>> frontiers(kHotSources);
  for (uint32_t i = 0; i < kHotSources; i++) hot.push_back(picker.Next(&frontiers[i]));

  auto one_round = [&](bool timed) {
    for (size_t i = 0; i < hot.size(); i++) {
      for (EngineMode mode : {EngineMode::kGraphTrek, EngineMode::kSync}) {
        auto build = [&] { return LinkPlan(c->catalog(), hot[i], kWarmHops); };
        auto plan = timed ? TimedBuild(m, tracer, build) : build();
        if (!plan.ok()) {
          checks->Expect(false, "GTravel::Build: " + plan.status().ToString());
          return;
        }
        const std::string what = std::string(gt::engine::EngineModeName(mode)) +
                                 " 2-hop travel from " + std::to_string(hot[i]);
        const Travel t = RunTravel(bc.get(), client.get(), *plan, mode, true, m);
        if (!t.ok) continue;
        CheckHopTravel(t, frontiers[i], checks, what);
        if (!timed) continue;
        if (mode == EngineMode::kGraphTrek) {
          m->gt_ms.push_back(t.ms);
          BookGraphTrek(t, c, m, tracer, what);
        } else {
          m->sync_ms.push_back(t.ms);
          tracer->Add(Span{"GraphTrekClient::Run", what, NowMs() - t.ms, NowMs(), t.delta});
        }
      }
    }
  };

  one_round(false);  // warm-up: fills the adjacency and block caches
  const Counters before = Snapshot(c);
  const Clock::time_point window_start = Clock::now();
  do {
    one_round(true);
  } while (MsSince(window_start) < o.seconds * 1e3);
  m->device_charged_us = Get(Delta(Snapshot(c), before), "device_charged_us");
  m->window_slot_s = MsSince(window_start) / 1e3 * kWarmServers * kWorkersPerServer;
  bc->CheckQuiet("rmat-warm");
}

// ------------------------------------------------------------------ darshan

// darshan-ingest-audit: rounds of a fresh 4-server cluster with a small
// memtable, into which three clients stream a Darshan-style graph while
// one client runs the Table III audit serially, cycling over audit cases
// and alternating GraphTrek and Sync-GT.
constexpr uint32_t kDarshanServers = 4;
constexpr size_t kDarshanMemtableBytes = 64 << 10;
// Many light users rather than a few heavy ones: the generator's Zipf job
// counts then average out, and graphs of different seeds are alike.
constexpr uint32_t kDarshanUsers = 128;
constexpr uint32_t kDarshanJobsPerUserMax = 16;
constexpr uint32_t kDarshanExecsPerJobMax = 8;
constexpr uint32_t kDarshanFiles = 2048;
constexpr uint32_t kAuditWindows = 24;
constexpr std::pair<size_t, size_t> kAuditWork{80, 100};
constexpr size_t kRacingCases = 32;

// The Darshan stream the way a metadata service receives it: users and
// files first, then one unit per job in start-time order, carrying the
// job, its executions and every edge that touches them. Jobs that start
// before `live_from` form the history phase, the rest the live phase.
Stream DarshanStream(const gt::graph::RefGraph& g, const gt::graph::Catalog& catalog,
                     int64_t live_from) {
  const Namer namer(catalog);
  auto id = [&](const char* name) { return catalog.Lookup(name); };
  const auto job_t = id("Job");
  const auto exec_t = id("Execution");
  const auto ts_k = id("ts");
  std::map<Vid, Vid> job_of_exec;
  for (Vid job : g.VerticesByType(job_t)) {
    for (const auto& [exec, props] : g.Edges(job, id("hasExecutions"))) job_of_exec[exec] = job;
  }
  std::map<Vid, Unit> by_job;  // vertices, then edges
  std::map<Vid, Unit> edges_of_job;
  Stream stream{{"PutVertex", {}}, {"PutJob history", {}}, {"PutJob live", {}}};
  for (Vid vid : SortedIds(g)) {
    const auto* rec = g.FindVertex(vid);
    if (rec->label == job_t) {
      by_job[vid].push_back(namer.Vertex(*rec));
    } else if (rec->label == exec_t) {
      by_job[job_of_exec.at(vid)].push_back(namer.Vertex(*rec));
    } else {
      stream[0].units.push_back({namer.Vertex(*rec)});
    }
    for (const char* label : {"run", "hasExecutions", "exe", "read", "readBy", "write"}) {
      for (const auto& [dst, props] : g.Edges(vid, id(label))) {
        // Each edge rides with the job whose execution (or job) it touches.
        const Vid job = g.FindVertex(dst)->label == job_t ? dst
                        : job_of_exec.count(dst) != 0   ? job_of_exec.at(dst)
                        : rec->label == job_t           ? vid
                                                        : job_of_exec.at(vid);
        edges_of_job[job].push_back(Mutation{false, vid, dst, label, namer.Props(props)});
      }
    }
  }
  std::vector<std::pair<int64_t, Vid>> order;
  for (const auto& [job, unit] : by_job) {
    order.emplace_back(g.FindVertex(job)->props.Find(ts_k)->as_int(), job);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [ts, job] : order) {
    Unit unit = std::move(by_job[job]);
    for (Mutation& e : edges_of_job[job]) unit.push_back(std::move(e));
    stream[ts < live_from ? 1 : 2].units.push_back(std::move(unit));
  }
  return stream;
}

void RunDarshan(const Options& o, Checks* checks, Measured* m, Tracer* tracer) {
  gt::graph::Catalog catalog;
  gt::gen::DarshanConfig dc;
  dc.users = kDarshanUsers;
  dc.jobs_per_user_max = kDarshanJobsPerUserMax;
  dc.execs_per_job_max = kDarshanExecsPerJobMax;
  dc.files = kDarshanFiles;
  dc.seed = o.seed;
  gt::gen::DarshanGenerator gen(dc);
  const gt::graph::RefGraph g = gen.Build(&catalog);
  // The live phase is the last three quarters of the year.
  const int64_t live_from = dc.ts_begin + (dc.ts_end - dc.ts_begin) / 4;
  const Stream stream = DarshanStream(g, catalog, live_from);

  // Final answers, evaluated on the stream itself.
  Adjacency adj;
  for (const Phase& phase : stream) {
    for (const Unit& unit : phase.units) {
      for (const Mutation& op : unit) {
        if (op.is_vertex) continue;
        std::optional<int64_t> ts;
        for (const auto& [k, v] : op.props) {
          if (k == "ts" && v.is_int()) ts = v.as_int();
        }
        adj.AddEdge(op.src, op.label, op.dst, ts);
      }
    }
  }

  // Audit cases: a user and an eighth-of-a-year window, applied to every
  // timestamped hop, so an audit follows one period's activity. Every
  // window closes before the live phase: an edge stamped in it belongs to
  // a job that started before it closed, so a case's answer is complete
  // once the history phase is in, and audits racing the live phase must
  // return exactly it. The racing audits cycle over a seeded pick of the
  // cases whose work (summed frontier sizes) lies in kAuditWork; audit
  // cost follows the work, so the pick keeps runs of different seeds
  // comparable. After the last round every picked case, and every user in
  // the first picked window, is checked on all three engines.
  struct AuditCase {
    uint32_t user;
    int64_t lo, hi;
    VidSet answer;
  };
  const int64_t window = (dc.ts_end - dc.ts_begin) / 8;
  auto make_case = [&](uint32_t user, int64_t lo, size_t* work) {
    const int64_t hi = lo + window;
    const auto f = adj.Frontiers({gen.UserVid(user)}, AuditHops(lo, hi));
    *work = 0;
    for (const VidSet& s : f) *work += s.size();
    return AuditCase{user, lo, hi, f.back()};
  };
  const int64_t last_lo = live_from - 1 - window;
  std::vector<AuditCase> pool;
  for (uint32_t u = 0; u < dc.users; u++) {
    for (uint32_t w = 0; w < kAuditWindows; w++) {
      size_t work = 0;
      AuditCase a = make_case(u, dc.ts_begin + (last_lo - dc.ts_begin) * w / (kAuditWindows - 1),
                              &work);
      if (work >= kAuditWork.first && work <= kAuditWork.second) pool.push_back(std::move(a));
    }
  }
  if (pool.empty()) {
    std::fprintf(stderr, "perfbench: no audit case qualifies\n");
    std::exit(1);
  }
  gt::Rng rng(o.seed ^ 0xa0d1ULL);
  for (size_t i = pool.size(); i > 1; i--) std::swap(pool[i - 1], pool[rng.Uniform(i)]);
  std::vector<AuditCase> racing(pool.begin(),
                                pool.begin() + std::min<size_t>(pool.size(), kRacingCases));
  std::vector<AuditCase> final_cases = racing;
  for (uint32_t u = 0; u < dc.users; u++) {
    size_t work = 0;
    final_cases.push_back(make_case(u, racing[0].lo, &work));
  }

  auto audit_plan = [&](Cluster* c, const AuditCase& a) {
    const std::vector<gt::graph::PropValue> window{gt::graph::PropValue(a.lo),
                                                   gt::graph::PropValue(a.hi)};
    return gt::lang::GTravel(c->catalog())
        .v({gen.UserVid(a.user)})
        .e("run")
        .ea("ts", gt::lang::FilterOp::kRange, window)
        .e("hasExecutions")
        .e("write")
        .ea("ts", gt::lang::FilterOp::kRange, window)
        .e("readBy")
        .ea("ts", gt::lang::FilterOp::kRange, window)
        .e("write")
        .ea("ts", gt::lang::FilterOp::kRange, window)
        .rtn()
        .Build();
  };
  auto describe = [](EngineMode mode, const AuditCase& a, const char* when) {
    return std::string(gt::engine::EngineModeName(mode)) + " audit of user " +
           std::to_string(a.user) + " from ts " + std::to_string(a.lo) + " " + when;
  };
  // One audit after ingest, checked for equality. GraphTrek ones run
  // alone, so their deltas feed the per-layer figures.
  auto final_audit = [&](BenchCluster* bc, GraphTrekClient* client, const AuditCase& a) {
    for (EngineMode mode : {EngineMode::kGraphTrek, EngineMode::kSync, EngineMode::kAsyncPlain}) {
      auto plan = audit_plan(bc->get(), a);
      if (!plan.ok()) {
        checks->Expect(false, "GTravel::Build: " + plan.status().ToString());
        return;
      }
      const std::string what = describe(mode, a, "after ingest");
      const Travel t = RunTravel(bc, client, *plan, mode, true, m);
      if (!t.ok) continue;
      const std::string diff = CompareSets(a.answer, t.result.vids);
      checks->Expect(diff.empty(), what + ": " + diff);
      if (mode == EngineMode::kGraphTrek) BookGraphTrek(t, bc->get(), m, tracer, what);
    }
  };

  const Clock::time_point window_start = Clock::now();
  uint32_t round = 0;
  uint64_t audits = 0;  // the racing cases' cycle continues across rounds
  bool last = false;
  while (!last) {
    auto cfg = EnvConfig(kDarshanServers, o.data_dir + "/darshan");
    cfg.db.memtable_bytes = kDarshanMemtableBytes;
    BenchCluster bc(cfg, checks, m, tracer);
    Cluster* c = bc.get();
    if (round == 0) m->setup_s = NowMs() / 1e3;
    auto auditor = c->NewClient();

    // Racing audits run while the live jobs stream in.
    std::atomic<size_t> phases_done{0};
    const Counters before = Snapshot(c);
    const Clock::time_point round_start = Clock::now();
    Measured ingested;  // the ingest thread's tallies, added to `m` after join
    std::thread ingest([&] { Ingest(&bc, stream, &ingested, tracer, &phases_done); });
    while (phases_done.load() < stream.size() - 1) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    for (; phases_done.load() < stream.size(); audits++) {
      const size_t i = (audits / 2) % racing.size();
      const AuditCase& a = racing[i];
      const EngineMode mode = audits % 2 == 0 ? EngineMode::kGraphTrek : EngineMode::kSync;
      auto plan = TimedBuild(m, tracer, [&] { return audit_plan(c, a); });
      if (!plan.ok()) {
        checks->Expect(false, "GTravel::Build: " + plan.status().ToString());
        break;
      }
      const Travel t = RunTravel(&bc, auditor.get(), *plan, mode, false, m);
      if (!t.ok) continue;
      const std::string diff = CompareSets(a.answer, t.result.vids);
      checks->Expect(diff.empty(), describe(mode, a, "during ingest") + ": " + diff);
      (mode == EngineMode::kGraphTrek ? m->gt_ms : m->sync_ms).push_back(t.ms);
      tracer->Add(Span{"GraphTrekClient::Run", describe(mode, a, "during ingest"), NowMs() - t.ms,
                       NowMs(), {}});
    }
    ingest.join();
    m->attempted += ingested.attempted;
    m->failed += ingested.failed;
    m->mutations += ingested.mutations;
    m->ingest_s += ingested.ingest_s;
    m->mutation_messages += ingested.mutation_messages;
    m->mutation_us.insert(m->mutation_us.end(), ingested.mutation_us.begin(),
                          ingested.mutation_us.end());
    m->device_charged_us += Get(Delta(Snapshot(c), before), "device_charged_us");
    m->window_slot_s += MsSince(round_start) / 1e3 * kDarshanServers * kWorkersPerServer;

    // After ingest, audits must equal the independent answer on all three
    // engines: one case per round, and every final case after the last.
    last = MsSince(window_start) >= o.seconds * 1e3;
    if (last) {
      for (const AuditCase& a : final_cases) final_audit(&bc, auditor.get(), a);
    } else {
      final_audit(&bc, auditor.get(), final_cases[round % final_cases.size()]);
    }
    bc.CheckQuiet("darshan round " + std::to_string(round));
    round++;
  }
}

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::vector<Metric> EndToEnd(const Measured& m) {
  return {
      {"setup_s", m.setup_s, "s"},
      {"travel_p50_ms", Median(m.gt_ms), "ms"},
      {"sync_travel_p50_ms", Median(m.sync_ms), "ms"},
      {"ingest_mutations_per_s", Ratio(static_cast<double>(m.mutations), m.ingest_s), "1/s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
  };
}

std::vector<Metric> PerLayer(const Measured& m) {
  const Counters& g = m.gt;
  const Counters& w = m.life;
  const double n = static_cast<double>(m.gt_travels);
  auto per = [&](const std::string& k) { return Ratio(Get(g, k), n); };
  const double received = Get(g, "gt_engine_visits_received_total");
  const double cache_hits = Get(g, "gt_engine_travel_cache_hits_total");
  const double cache_misses = Get(g, "gt_engine_travel_cache_misses_total");
  const double adj_hits = Get(g, "gt_graph_adj_hits_total");
  const double adj_misses = Get(g, "gt_graph_adj_misses_total");
  const double block_hits = Get(w, "gt_kv_block_cache_hits_total");
  const double block_reads = Get(w, "gt_kv_block_reads_total");
  const double kv_written = Get(w, "gt_kv_bytes_written_total");
  return {
      {"engine.visits_received", per("gt_engine_visits_received_total"), "count"},
      {"engine.visits_real_io", per("gt_engine_visits_real_io_total"), "count"},
      {"engine.visits_redundant", per("gt_engine_visits_redundant_total"), "count"},
      {"engine.visits_combined", per("gt_engine_visits_combined_total"), "count"},
      {"engine.io_per_visit", Ratio(Get(g, "gt_engine_visits_real_io_total"), received), "ratio"},
      {"engine.travel_cache_hit_ratio", Ratio(cache_hits, cache_hits + cache_misses), "ratio"},
      {"engine.queue_high_watermark", m.queue_high_watermark, "count"},
      {"engine.client_gap_ms", Median(m.client_gap_ms), "ms"},
      {"engine.mutation_us", Median(m.mutation_us), "us"},
      {"device.cold_accesses", per("device_accesses") - per("device_warm_accesses"), "count"},
      {"device.warm_accesses", per("device_warm_accesses"), "count"},
      {"device.charged_ms", per("device_charged_us") / 1e3, "ms"},
      {"device.injected_ms", per("straggler_hits") * kColdStraggler.delay_us / 1e3, "ms"},
      {"device.busy_share", Ratio(m.device_charged_us / 1e6, m.window_slot_s), "ratio"},
      {"graph.adj_hits", per("gt_graph_adj_hits_total"), "count"},
      {"graph.adj_misses", per("gt_graph_adj_misses_total"), "count"},
      {"graph.adj_hit_ratio", Ratio(adj_hits, adj_hits + adj_misses), "ratio"},
      {"graph.adj_builds", per("gt_graph_adj_builds_total"), "count"},
      {"graph.adj_evictions", per("gt_graph_adj_evictions_total"), "count"},
      {"graph.adj_bytes", m.adj_bytes, "bytes"},
      {"graph.load_s", Median(m.load_s), "s"},
      {"kv.gets", Get(w, "gt_kv_gets_total"), "count"},
      {"kv.block_cache_hit_ratio", Ratio(block_hits, block_hits + block_reads), "ratio"},
      {"kv.bloom_negatives", Get(w, "gt_kv_bloom_negatives_total"), "count"},
      {"kv.puts", Get(w, "gt_kv_puts_total"), "count"},
      {"kv.wal_records", Get(w, "gt_kv_wal_records_total"), "count"},
      {"kv.flushes", Get(w, "gt_kv_flushes_total"), "count"},
      {"kv.compactions", Get(w, "gt_kv_compactions_total"), "count"},
      {"kv.compaction_bytes", Get(w, "gt_kv_compaction_bytes_total"), "bytes"},
      {"kv.write_amp",
       Ratio(kv_written + Get(w, "gt_kv_compaction_bytes_total"), kv_written), "ratio"},
      {"kv.snapshots_taken", Get(w, "gt_kv_snapshots_taken_total"), "count"},
      {"rpc.messages_per_travel", per("gt_rpc_messages_sent_total"), "count"},
      {"rpc.bytes_per_travel", per("gt_rpc_bytes_sent_total"), "bytes"},
      {"rpc.messages_per_mutation",
       Ratio(m.mutation_messages, static_cast<double>(m.mutations)), "count"},
      {"lang.build_us", Median(m.build_us), "us"},
  };
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options o = ParseOptions(argc, argv);
  Checks checks;
  Measured m;
  Tracer tracer(o.trace);
  if (o.workload == "rmat-cold") {
    RunRmatCold(o, &checks, &m, &tracer);
  } else if (o.workload == "rmat-warm") {
    RunRmatWarm(o, &checks, &m, &tracer);
  } else if (o.workload == "darshan-ingest-audit") {
    RunDarshan(o, &checks, &m, &tracer);
  } else {
    Usage("unknown workload " + o.workload);
  }
  std::error_code ec;
  std::filesystem::remove_all(o.data_dir, ec);

  const std::vector<Metric> e2e = EndToEnd(m);
  std::fprintf(stderr, "perfbench: %s seed %" PRIu64 "%s: %zu GraphTrek / %zu Sync-GT travels timed,"
               " %" PRIu64 " mutations\n",
               o.workload.c_str(), o.seed, o.trace ? " (traced)" : "", m.gt_ms.size(),
               m.sync_ms.size(), m.mutations);
  if (o.trace) {
    // End-to-end figures of the traced run, for the tracing overhead; the
    // result line carries the per-layer metrics.
    for (const Metric& x : e2e) {
      std::printf("traced %s = %.10g %s\n", x.name.c_str(), x.value, x.unit.c_str());
    }
    if (!o.out_dir.empty()) {
      std::filesystem::create_directories(o.out_dir, ec);
      const std::string base = o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
      tracer.Write(base + "-spans.json");
      std::ofstream(base + "-slowest-travel.json") << m.slowest_trace;
    }
  }
  PrintResult(checks.ok(), m.attempted, m.failed, o.trace ? PerLayer(m) : e2e);
  return checks.ok() ? 0 : 1;
}
