#include "src/engine/backend_server.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/engine/mutation.h"
#include "src/engine/straggler.h"

namespace gt::engine {

namespace {

constexpr uint32_t kBackwardKeyBit = 0x80000000u;
constexpr size_t kMaxAbortTombstones = 10000;
// Coordinator-side bound on accumulated kPaths results: path counts can grow
// combinatorially with fan-out, and the coordinator materializes every
// distinct chain before rendering.
constexpr size_t kMaxCoordinatorPaths = size_t{1} << 17;

std::string EncodeTravelId(TravelId id) {
  std::string s;
  PutVarint64(&s, id);
  return s;
}

Result<TravelId> DecodeTravelId(std::string_view payload) {
  CheckedReader dec(payload);
  uint64_t id;
  if (!dec.GetVarint64(&id)) return Status::Corruption("bad travel id payload");
  return id;
}

bool RtnAtStep(const lang::TraversalPlan& plan, uint32_t step) {
  if (step == 0) return plan.start_rtn;
  return plan.hops[step - 1].rtn;
}

// Whether a vertex surviving the final step is itself a result. until()
// plans return only the until() hits: final-step survivors that never
// matched the until filters are dropped.
bool FinalStepYieldsResults(const lang::TraversalPlan& plan) {
  if (plan.has_until()) return false;
  const uint32_t last = static_cast<uint32_t>(plan.num_steps());
  return !plan.has_rtn() || RtnAtStep(plan, last);
}

// The until() filter set checked on vertices entering `step` (stamped on
// every unrolled copy of a repeat hop), or null when the step has none.
const std::vector<lang::Filter>* UntilFiltersAtStep(const lang::TraversalPlan& plan,
                                                    uint32_t step) {
  if (step == 0 || step > plan.hops.size()) return nullptr;
  const auto& u = plan.hops[step - 1].until_filters;
  return u.empty() ? nullptr : &u;
}

// True when results require per-vertex attribution through the answer tree
// (an rtn() on a non-final step). Plans without intermediate rtn() use the
// paper's direct protocol: final vertices go straight to the coordinator.
bool NeedsAttribution(const lang::TraversalPlan& plan) {
  const uint32_t last = static_cast<uint32_t>(plan.num_steps());
  if (plan.start_rtn && last > 0) return true;
  for (size_t i = 0; i + 1 < plan.hops.size(); i++) {
    if (plan.hops[i].rtn) return true;
  }
  return false;
}

// Smallest rtn-marked step (coordinator stops the sync backward phase there).
uint32_t MinRtnStep(const lang::TraversalPlan& plan) {
  if (plan.start_rtn) return 0;
  for (size_t i = 0; i < plan.hops.size(); i++) {
    if (plan.hops[i].rtn) return static_cast<uint32_t>(i) + 1;
  }
  return static_cast<uint32_t>(plan.num_steps());
}

// Resolves the type-index label for an unanchored v() start (the validator
// guarantees a type EQ filter exists).
graph::LabelId ScanLabelFor(const lang::TraversalPlan& plan, graph::Catalog* catalog) {
  const graph::Catalog::Id type_key = catalog->Intern("type");
  for (const auto& f : plan.start_vertex_filters) {
    if (f.key == type_key && f.op == lang::FilterOp::kEq && !f.values.empty() &&
        f.values[0].is_string()) {
      return catalog->Intern(f.values[0].as_string());
    }
  }
  return graph::Catalog::kInvalidId;
}

}  // namespace

BackendServer::BackendServer(ServerConfig cfg, graph::GraphStore* store,
                             const graph::Partitioner* partitioner,
                             graph::Catalog* catalog, rpc::Transport* transport)
    : cfg_(cfg),
      store_(store),
      partitioner_(partitioner),
      catalog_(catalog),
      transport_(transport),
      cache_(cfg.cache_capacity),
      maint_cv_(&maint_mu_) {
  auto* reg = metrics::Registry::Default();
  const std::string server = "s" + std::to_string(cfg_.id);
  reg->DescribeFamily("gt_travel_duration_ms", metrics::MetricType::kHistogram,
                      "End-to-end travel wall time at the coordinator");
  reg->DescribeFamily("gt_travel_completed_total", metrics::MetricType::kCounter,
                      "Travels completed, by outcome");
  for (int m = 0; m < 3; m++) {
    travel_duration_ms_[m] = reg->GetHistogram(
        "gt_travel_duration_ms",
        {{"server", server}, {"mode", EngineModeName(static_cast<EngineMode>(m))}},
        metrics::Histogram::LatencyBucketsMs());
  }
  travels_ok_ = reg->GetCounter("gt_travel_completed_total",
                                {{"server", server}, {"outcome", "ok"}});
  travels_failed_ = reg->GetCounter("gt_travel_completed_total",
                                    {{"server", server}, {"outcome", "error"}});
  reg->DescribeFamily("gt_travel_admitted_total", metrics::MetricType::kCounter,
                      "Travels admitted by the coordinator, by priority class");
  reg->DescribeFamily("gt_travel_rejected_total", metrics::MetricType::kCounter,
                      "Travels rejected at admission (Unavailable), by priority class");
  reg->DescribeFamily("gt_travel_cancelled_total", metrics::MetricType::kCounter,
                      "Live travels aborted by client cancel/timeout");
  reg->DescribeFamily("gt_travel_deadline_exceeded_total", metrics::MetricType::kCounter,
                      "Travels failed by server-side deadline enforcement");
  for (uint32_t c = 0; c < kNumTravelClasses; c++) {
    const metrics::Labels labels = {
        {"server", server}, {"class", TravelClassName(static_cast<TravelClass>(c))}};
    travel_admitted_[c] = reg->GetCounter("gt_travel_admitted_total", labels);
    travel_rejected_[c] = reg->GetCounter("gt_travel_rejected_total", labels);
  }
  travel_cancelled_ = reg->GetCounter("gt_travel_cancelled_total", {{"server", server}});
  travel_deadline_exceeded_ =
      reg->GetCounter("gt_travel_deadline_exceeded_total", {{"server", server}});
  reg->DescribeFamily("gt_travel_snapshots_pinned_total", metrics::MetricType::kCounter,
                      "Per-travel store snapshots pinned on this server");
  travel_snapshots_pinned_ =
      reg->GetCounter("gt_travel_snapshots_pinned_total", {{"server", server}});
  reg->DescribeFamily("gt_engine_dangling_edges_rejected_total",
                      metrics::MetricType::kCounter,
                      "kPutEdge requests rejected because an endpoint vertex is missing");
  dangling_edges_rejected_ =
      reg->GetCounter("gt_engine_dangling_edges_rejected_total", {{"server", server}});
  reg->DescribeFamily("gt_engine_edge_dst_unverified_total", metrics::MetricType::kCounter,
                      "kPutEdge requests whose dst lives on another shard (existence "
                      "not checked; counted instead of rejected)");
  edge_dst_unverified_ =
      reg->GetCounter("gt_engine_edge_dst_unverified_total", {{"server", server}});
}

BackendServer::~BackendServer() { Stop(); }

Status BackendServer::Start() {
  GT_RETURN_IF_ERROR(transport_->RegisterEndpoint(
      cfg_.id, [this](rpc::Message&& m) { OnMessage(std::move(m)); }));
  // Workers plus the maintenance tick share one pool; each loop occupies a
  // pool thread until Stop() makes it return.
  pool_ = std::make_unique<ThreadPool>(cfg_.workers + 1);
  for (uint32_t i = 0; i < cfg_.workers; i++) {
    pool_->Submit([this] { WorkerLoop(); });
  }
  pool_->Submit([this] { MaintenanceLoop(); });
  started_ = true;

  // Exposition-time bridge: snapshots this server's engine-layer state into
  // the registry. Runs off the hot path (only when someone scrapes), so
  // taking mu_ for the cache/travel figures is fine — hot paths never call
  // into the registry while holding mu_.
  auto* reg = metrics::Registry::Default();
  const std::string server = "s" + std::to_string(cfg_.id);
  reg->DescribeFamily("gt_engine_visits_received_total", metrics::MetricType::kCounter,
                      "Vertex visit requests received");
  reg->DescribeFamily("gt_engine_visits_redundant_total", metrics::MetricType::kCounter,
                      "Redundant visits absorbed by the travel cache");
  reg->DescribeFamily("gt_engine_visits_combined_total", metrics::MetricType::kCounter,
                      "Visits folded into another access by execution merging");
  reg->DescribeFamily("gt_engine_visits_real_io_total", metrics::MetricType::kCounter,
                      "Visits that reached the storage backend");
  reg->DescribeFamily("gt_engine_step_visits_total", metrics::MetricType::kCounter,
                      "Visit requests received, by traversal step");
  reg->DescribeFamily("gt_engine_duplicate_frames_total", metrics::MetricType::kCounter,
                      "Re-delivered hand-off frames absorbed by exec-id dedup");
  reg->DescribeFamily("gt_engine_travel_cache_hits_total", metrics::MetricType::kCounter,
                      "Travel-cache lookups that found an entry");
  reg->DescribeFamily("gt_engine_travel_cache_misses_total", metrics::MetricType::kCounter,
                      "Travel-cache lookups that inserted a pending entry");
  reg->DescribeFamily("gt_engine_queue_depth", metrics::MetricType::kGauge,
                      "Request-queue depth");
  metrics_collector_ = reg->AddCollector([this, server](
                                             std::vector<metrics::Sample>* out) {
    using metrics::MetricType;
    const metrics::Labels base = {{"server", server}};
    auto counter = [&](const char* name, uint64_t v) {
      out->push_back({name, base, static_cast<double>(v), MetricType::kCounter});
    };
    const VisitStats::Snapshot vs = visit_stats_.Read();
    counter("gt_engine_visits_received_total", vs.received);
    counter("gt_engine_visits_redundant_total", vs.redundant);
    counter("gt_engine_visits_combined_total", vs.combined);
    counter("gt_engine_visits_real_io_total", vs.real_io);
    for (uint32_t i = 0; i < VisitStats::kMaxTrackedSteps; i++) {
      if (vs.per_step[i] == 0) continue;
      metrics::Labels labels = base;
      labels.emplace_back("step", std::to_string(i));
      out->push_back({"gt_engine_step_visits_total", std::move(labels),
                      static_cast<double>(vs.per_step[i]), MetricType::kCounter});
    }
    counter("gt_engine_send_failures_total", send_failures_.load());
    counter("gt_engine_duplicate_frames_total", visit_stats_.duplicate_frames.load());
    out->push_back({"gt_engine_queue_depth", base,
                    static_cast<double>(queue_.size()), MetricType::kGauge});
    out->push_back({"gt_engine_queue_high_watermark", base,
                    static_cast<double>(queue_.high_watermark()), MetricType::kGauge});
    MutexLock lk(&mu_);
    counter("gt_engine_travel_cache_hits_total", cache_.hits());
    counter("gt_engine_travel_cache_misses_total", cache_.misses());
    counter("gt_engine_travel_cache_evictions_total", cache_.evictions());
    out->push_back({"gt_engine_travel_cache_entries", base,
                    static_cast<double>(cache_.size()), MetricType::kGauge});
    out->push_back({"gt_engine_active_travels", base,
                    static_cast<double>(travels_.size()), MetricType::kGauge});
  });
  return Status::OK();
}

void BackendServer::Stop() {
  if (!started_) return;
  started_ = false;
  metrics::Registry::Default()->RemoveCollector(metrics_collector_);
  transport_->UnregisterEndpoint(cfg_.id);
  stop_.store(true);
  {
    MutexLock lk(&maint_mu_);
    maint_stop_ = true;
  }
  maint_cv_.SignalAll();  // wake the maintenance tick out of its sleep
  queue_.Shutdown();
  if (pool_ != nullptr) {
    pool_->Shutdown();  // joins worker + maintenance loops
    pool_.reset();
  }
}

size_t BackendServer::cache_size() const {
  MutexLock lk(&mu_);
  return cache_.size();
}

uint64_t BackendServer::cache_evictions() const {
  MutexLock lk(&mu_);
  return cache_.evictions();
}

bool BackendServer::HasTravelResidue(TravelId travel) const {
  MutexLock lk(&mu_);
  if (plans_.count(travel) != 0 || travels_.count(travel) != 0 ||
      sync_locals_.count(travel) != 0 || accessed_.count(travel) != 0 ||
      scanned_types_.count(travel) != 0 || travel_snaps_.count(travel) != 0 ||
      cache_.HasTravel(travel)) {
    return true;
  }
  for (const auto& [id, exec] : execs_) {
    if (exec->travel == travel) return true;
  }
  for (const auto& [key, items] : trace_buffer_) {
    if (key.second == travel && !items.empty()) return true;
  }
  return false;
}

std::shared_ptr<const graph::GraphStore::ReadSnapshot>
BackendServer::PinTravelSnapLocked(TravelId travel) {
  if (!cfg_.snapshot_isolation) return nullptr;
  auto it = travel_snaps_.find(travel);
  if (it != travel_snaps_.end()) return it->second;
  // Engine mu_ -> KV locks is a fresh lock order (the KV layer never calls
  // back into the engine).
  graph::GraphStore* store = store_;
  std::shared_ptr<const graph::GraphStore::ReadSnapshot> snap(
      store->GetSnapshot(),
      [store](const graph::GraphStore::ReadSnapshot* s) { store->ReleaseSnapshot(s); });
  travel_snaps_.emplace(travel, snap);
  travel_snapshots_pinned_->Inc();
  return snap;
}

std::shared_ptr<const graph::GraphStore::ReadSnapshot> BackendServer::TravelSnapLocked(
    TravelId travel) const {
  auto it = travel_snaps_.find(travel);
  return it == travel_snaps_.end() ? nullptr : it->second;
}

std::shared_ptr<const graph::GraphStore::ReadSnapshot>
BackendServer::TravelSnapshotForTest(TravelId travel) const {
  MutexLock lk(&mu_);
  if (auto it = travel_snaps_.find(travel); it != travel_snaps_.end()) return it->second;
  if (auto it = retained_snaps_.find(travel); it != retained_snaps_.end()) {
    return it->second;
  }
  return nullptr;
}

void BackendServer::DropRetainedSnapshotsForTest() {
  std::vector<std::shared_ptr<const graph::GraphStore::ReadSnapshot>> drained;
  {
    MutexLock lk(&mu_);
    drained.reserve(retained_snaps_.size());
    for (auto it = retained_snaps_.begin(); it != retained_snaps_.end();
         it = retained_snaps_.erase(it)) {
      drained.push_back(std::move(it->second));
    }
  }
  // Snapshots release outside mu_ as `drained` goes out of scope.
}

void BackendServer::QueueSendLocked(rpc::Message msg) {
  outbox_.push_back(std::move(msg));
}

void BackendServer::DrainOutbox() {
  MutexLock drain(&drain_mu_);
  std::vector<rpc::Message> staged;
  {
    MutexLock lk(&mu_);
    if (outbox_.empty()) return;
    staged.swap(outbox_);
  }
  for (auto& m : staged) SendLossy(std::move(m));
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

const std::vector<lang::Filter>& BackendServer::StepVertexFilters(
    const lang::TraversalPlan& plan, uint32_t step) const {
  if (step == 0) return plan.start_vertex_filters;
  return plan.hops[step - 1].vertex_filters;
}

bool BackendServer::VertexPassesLocked(const CompiledPlan& cplan,
                                       const graph::VertexRecord& rec,
                                       uint32_t step) const {
  return lang::VertexMatchesAll(StepVertexFilters(cplan.plan, step), rec, *catalog_,
                                cplan.type_key);
}

void BackendServer::SendTraceEventLocked(ServerId coordinator, TravelId travel,
                                         uint32_t step, std::vector<ExecId> ids,
                                         bool created) {
  if (ids.empty()) return;
  ExecEventPayload ev;
  ev.travel_id = travel;
  ev.step = step;
  ev.exec_ids = std::move(ids);
  rpc::Message m;
  m.type = created ? rpc::MsgType::kExecCreated : rpc::MsgType::kExecTerminated;
  m.src = cfg_.id;
  m.dst = coordinator;
  m.payload = ev.Encode();
  QueueSendLocked(std::move(m));
}

// Combined tracing event: registers the downstream executions AND reports
// the dispatching execution's own termination. Items are buffered per
// (coordinator, travel) and flushed by size or by the maintenance tick so
// tracing stays off the traversal's critical path.
void BackendServer::SendDispatchEventLocked(ServerId coordinator, TravelId travel,
                                            uint32_t child_step, std::vector<ExecId> children,
                                            ExecId term_exec, uint32_t term_step) {
  auto& buf = trace_buffer_[{coordinator, travel}];
  for (ExecId child : children) {
    buf.push_back(TraceItem{child, child_step, 1});
  }
  buf.push_back(TraceItem{term_exec, term_step, 0});
  if (buf.size() >= 48) FlushTraceBufferLocked(coordinator, travel);
}

void BackendServer::FlushTraceBufferLocked(ServerId coordinator, TravelId travel) {
  auto it = trace_buffer_.find({coordinator, travel});
  if (it == trace_buffer_.end() || it->second.empty()) return;
  TraceBatchPayload batch;
  batch.travel_id = travel;
  batch.items = std::move(it->second);
  trace_buffer_.erase(it);
  rpc::Message m;
  m.type = rpc::MsgType::kExecDispatched;
  m.src = cfg_.id;
  m.dst = coordinator;
  m.payload = batch.Encode();
  QueueSendLocked(std::move(m));
}

void BackendServer::FlushAllTraceBuffersLocked() {
  while (!trace_buffer_.empty()) {
    auto key = trace_buffer_.begin()->first;
    FlushTraceBufferLocked(key.first, key.second);
  }
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void BackendServer::OnMessage(rpc::Message&& msg) {
  switch (msg.type) {
    case rpc::MsgType::kSubmitTraversal:
      HandleSubmit(std::move(msg));
      break;
    case rpc::MsgType::kTraverse:
      HandleTraverse(std::move(msg));
      break;
    case rpc::MsgType::kReturnVertices:
      HandleAnswer(std::move(msg));
      break;
    case rpc::MsgType::kExecCreated:
      HandleExecEvent(std::move(msg), /*created=*/true);
      break;
    case rpc::MsgType::kExecTerminated:
      HandleExecEvent(std::move(msg), /*created=*/false);
      break;
    case rpc::MsgType::kExecDispatched:
      HandleExecEvent(std::move(msg), /*created=*/true);  // batch; flag unused
      break;
    case rpc::MsgType::kProgressRequest:
      HandleProgress(std::move(msg));
      break;
    case rpc::MsgType::kAbortTraversal:
      HandleAbort(std::move(msg));
      break;
    case rpc::MsgType::kPinTravel:
      HandlePinTravel(std::move(msg));
      break;
    case rpc::MsgType::kSyncStepStart:
      HandleSyncStepStart(std::move(msg));
      break;
    case rpc::MsgType::kSyncBatch:
      HandleSyncBatch(std::move(msg));
      break;
    case rpc::MsgType::kSyncStepDone:
      HandleSyncStepDone(std::move(msg));
      break;
    case rpc::MsgType::kPutVertex:
    case rpc::MsgType::kPutEdge:
    case rpc::MsgType::kGetVertex:
    case rpc::MsgType::kDeleteVertex:
      HandleMutation(std::move(msg));
      break;
    case rpc::MsgType::kCatalogIntern:
    case rpc::MsgType::kCatalogPull:
      HandleCatalog(std::move(msg));
      break;
    case rpc::MsgType::kPing: {
      rpc::Message reply;
      reply.type = rpc::MsgType::kPong;
      reply.src = cfg_.id;
      reply.dst = msg.src;
      reply.rpc_id = msg.rpc_id;
      SendLossy(std::move(reply));
      break;
    }
    default:
      GT_WARN << "server " << cfg_.id << ": unexpected message type "
              << rpc::MsgTypeName(msg.type);
  }
  DrainOutbox();  // flush sends the handler staged while holding mu_
}

// Coordinator broadcast: pin the travel's read view on this server. Sent at
// admission, before any frontier frame, so in-order transports pin every
// participant at (nearly) the same point in the mutation stream; when a
// faulty transport reorders it behind the first kTraverse/sync frame the
// lazy first-touch pin in that handler has already run and this is a no-op.
void BackendServer::HandlePinTravel(rpc::Message&& msg) {
  auto travel = DecodeTravelId(msg.payload);
  if (!travel.ok()) {
    GT_WARN << "server " << cfg_.id << ": bad pin-travel payload";
    return;
  }
  MutexLock lk(&mu_);
  if (aborted_travels_.count(*travel) != 0) return;  // raced with cleanup
  PinTravelSnapLocked(*travel);
}

// ---------------------------------------------------------------------------
// Submission (this server becomes the coordinator)
// ---------------------------------------------------------------------------

void BackendServer::HandleSubmit(rpc::Message&& msg) {
  auto submit = SubmitPayload::Decode(msg.payload);
  auto fail = [&](const Status& st) {
    CompletePayload done;
    done.ok = 0;
    done.code = static_cast<uint8_t>(st.code());
    done.error = st.ToString();
    rpc::Message reply;
    reply.type = rpc::MsgType::kTraversalComplete;
    reply.src = cfg_.id;
    reply.dst = msg.src;
    reply.rpc_id = msg.rpc_id;
    reply.payload = done.Encode();
    SendLossy(std::move(reply));
  };
  if (!submit.ok()) {
    fail(submit.status());
    return;
  }
  auto plan = lang::TraversalPlan::Decode(submit->plan);
  if (!plan.ok()) {
    fail(plan.status());
    return;
  }
  // The wire plan is untrusted: Decode enforces structure, Validate the
  // semantic rules (scan anchor, until/branch/paths restrictions, caps).
  if (Status vst = plan->Validate(); !vst.ok()) {
    fail(vst);
    return;
  }

  uint8_t cls_byte = submit->priority_class;
  if (cls_byte >= kNumTravelClasses) cls_byte = static_cast<uint8_t>(TravelClass::kNormal);
  const TravelClass cls = static_cast<TravelClass>(cls_byte);

  MutexLock lk(&mu_);

  // Statistics-driven rewrite (result-identical; see src/lang/planner.h).
  // Runs before expansion so hand-offs forward the rewritten compact form.
  std::string plan_bytes = submit->plan;
  if (cfg_.planner) {
    *plan = lang::RewritePlan(*plan, PlanStatsLocked(), *catalog_,
                              catalog_->Intern("type"));
    plan_bytes = plan->Encode();
  }

  // Expand to the executable form up front so oversized repeat chains
  // reject before admission. Branch plans flatten into one linear sub-plan
  // per alternative; each runs as an internal child travel below.
  auto locked_fail = [&](const Status& st) {
    CompletePayload done;
    done.ok = 0;
    done.code = static_cast<uint8_t>(st.code());
    done.error = st.ToString();
    rpc::Message reply;
    reply.type = rpc::MsgType::kTraversalComplete;
    reply.src = cfg_.id;
    reply.dst = msg.src;
    reply.rpc_id = msg.rpc_id;
    reply.payload = done.Encode();
    QueueSendLocked(std::move(reply));
  };
  std::vector<lang::TraversalPlan> subs;      // branch alternatives (compact)
  std::vector<lang::TraversalPlan> expanded;  // parallel: unrolled sub-plans
  lang::TraversalPlan unrolled;               // non-branch executable plan
  if (plan->has_branch()) {
    subs = plan->FlattenBranches();
    for (const auto& sub : subs) {
      auto u = sub.Unrolled();
      if (!u.ok()) {
        locked_fail(u.status());
        return;
      }
      expanded.push_back(std::move(*u));
    }
  } else {
    auto u = plan->Unrolled();
    if (!u.ok()) {
      locked_fail(u.status());
      return;
    }
    unrolled = std::move(*u);
  }

  // Admission control: bound the in-flight-travel table, overall and per
  // priority class. Rejection is backpressure, not failure — the client
  // retries with jittered backoff.
  const uint32_t class_limit = cfg_.admission_limits[cls_byte];
  if ((cfg_.max_inflight_travels != 0 && travels_.size() >= cfg_.max_inflight_travels) ||
      (class_limit != 0 && inflight_per_class_[cls_byte] >= class_limit)) {
    travel_rejected_[cls_byte]->Inc();
    CompletePayload done;
    done.ok = 0;
    done.code = static_cast<uint8_t>(StatusCode::kUnavailable);
    done.error = "admission limit reached";
    rpc::Message reply;
    reply.type = rpc::MsgType::kTraversalComplete;
    reply.src = cfg_.id;
    reply.dst = msg.src;
    reply.rpc_id = msg.rpc_id;
    reply.payload = done.Encode();
    QueueSendLocked(std::move(reply));
    return;
  }

  const TravelId travel = MakeExecId(cfg_.id, next_travel_seq_++);
  inflight_per_class_[cls_byte]++;
  travel_admitted_[cls_byte]->Inc();

  const EngineMode mode = static_cast<EngineMode>(submit->mode);
  const uint64_t now_us = NowMicros();
  const uint32_t timeout_ms =
      submit->timeout_ms == 0 ? cfg_.exec_timeout_ms : submit->timeout_ms;
  const uint64_t deadline_us =
      submit->deadline_ms == 0
          ? 0
          : now_us + static_cast<uint64_t>(submit->deadline_ms) * 1000;

  TravelState& ts = travels_[travel];
  ts.id = travel;
  ts.mode = mode;
  ts.client = msg.src;
  ts.plan_bytes = plan_bytes;
  ts.started_us = now_us;
  ts.last_activity_us = now_us;
  ts.timeout_ms = timeout_ms;
  ts.cls = cls;
  ts.deadline_us = deadline_us;
  ts.result_mode = plan->result_mode;
  ts.group_key = plan->group_key;

  // Acknowledge with the assigned travel id; results stream separately.
  rpc::Message reply;
  reply.type = rpc::MsgType::kTraversalAccepted;
  reply.src = cfg_.id;
  reply.dst = msg.src;
  reply.rpc_id = msg.rpc_id;
  reply.payload = EncodeTravelId(travel);
  QueueSendLocked(std::move(reply));

  if (plan->has_branch()) {
    // Branch fan-out: the parent travel does no engine work of its own —
    // each flattened alternative runs as an internal child travel
    // coordinated on this same server, so parent/child result folding
    // happens under one mu_. Children pin their own snapshots (per-child
    // consistency; union-of-consistent-views semantics under races) and
    // inherit the parent's absolute deadline so lifecycle enforcement
    // happens at the children, which propagate failure upward.
    ts.plan = *plan;
    ts.unfinished_per_step.assign(1, 0);
    ts.pending_children = static_cast<uint32_t>(subs.size());
    for (size_t a = 0; a < subs.size(); a++) {
      ts.children.push_back(MakeExecId(cfg_.id, next_travel_seq_++));
    }
    for (size_t a = 0; a < subs.size(); a++) {
      const TravelId child = ts.children[a];
      PinTravelSnapLocked(child);
      if (cfg_.snapshot_isolation) {
        for (ServerId s = 0; s < cfg_.num_servers; s++) {
          if (s == cfg_.id) continue;
          rpc::Message pin;
          pin.type = rpc::MsgType::kPinTravel;
          pin.src = cfg_.id;
          pin.dst = s;
          pin.payload = EncodeTravelId(child);
          QueueSendLocked(std::move(pin));
        }
      }
      TravelState& cs = travels_[child];
      cs.id = child;
      cs.mode = mode;
      cs.client = 0;
      cs.internal = true;
      cs.parent_travel = travel;
      cs.plan_bytes = subs[a].Encode();
      cs.plan = expanded[a];
      cs.started_us = now_us;
      cs.last_activity_us = now_us;
      cs.timeout_ms = timeout_ms;
      cs.cls = cls;
      cs.deadline_us = deadline_us;
      cs.result_mode = plan->result_mode;
      cs.group_key = plan->group_key;
      cs.unfinished_per_step.assign(cs.plan.num_steps() + 1, 0);

      auto cplan = std::make_shared<CompiledPlan>();
      cplan->plan = cs.plan;
      cplan->plan_bytes = cs.plan_bytes;
      cplan->mode = mode;
      cplan->coordinator = cfg_.id;
      cplan->type_key = catalog_->Intern("type");
      cplan->attribution = NeedsAttribution(cs.plan);
      plans_[child] = cplan;
      cs.attribution = cplan->attribution;

      StartTravelLocked(cs);
    }
    return;
  }

  // Pin the travel's read view locally and broadcast the pin to every other
  // server. The pin messages are queued before the seed/step frames below,
  // so on in-order transports every participant pins before it sees any
  // work for the travel; reordered deliveries fall back to the lazy
  // first-touch pin in the frontier handlers.
  PinTravelSnapLocked(travel);
  if (cfg_.snapshot_isolation) {
    for (ServerId s = 0; s < cfg_.num_servers; s++) {
      if (s == cfg_.id) continue;
      rpc::Message pin;
      pin.type = rpc::MsgType::kPinTravel;
      pin.src = cfg_.id;
      pin.dst = s;
      pin.payload = EncodeTravelId(travel);
      QueueSendLocked(std::move(pin));
    }
  }

  ts.plan = std::move(unrolled);  // executable (repeat-expanded) form
  ts.unfinished_per_step.assign(ts.plan.num_steps() + 1, 0);

  auto cplan = std::make_shared<CompiledPlan>();
  cplan->plan = ts.plan;
  cplan->plan_bytes = plan_bytes;
  cplan->mode = ts.mode;
  cplan->coordinator = cfg_.id;
  // Intern, not Lookup: replica catalogs only know names they have seen;
  // "type" is virtual (never carried by a mutation) so a local-only Lookup
  // misses forever and every type filter would degrade to an ordinary prop
  // filter that no vertex carries.
  cplan->type_key = catalog_->Intern("type");
  cplan->attribution = NeedsAttribution(ts.plan);
  plans_[travel] = cplan;
  ts.attribution = cplan->attribution;

  StartTravelLocked(ts);
}

void BackendServer::StartTravelLocked(TravelState& ts) {
  if (ts.mode == EngineMode::kSync) {
    // Seed step-0 frontier batches, then start step 0 on every server.
    ts.sync_fwd_matrices.assign(ts.plan.num_steps() + 1,
                                std::vector<std::vector<uint32_t>>());
    std::vector<std::vector<FrontierEntry>> seed(cfg_.num_servers);
    std::vector<graph::VertexId> ids = ts.plan.start_ids;
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (auto vid : ids) {
      seed[partitioner_->ServerFor(vid)].push_back(FrontierEntry{vid, {}});
    }
    const bool scan = ts.plan.start_ids.empty();
    for (ServerId s = 0; s < cfg_.num_servers; s++) {
      if (!seed[s].empty()) {
        SyncBatchPayload batch;
        batch.travel_id = ts.id;
        batch.step = 0;
        batch.phase = 0;
        batch.entries = std::move(seed[s]);
        rpc::Message bm;
        bm.type = rpc::MsgType::kSyncBatch;
        bm.src = cfg_.id;
        bm.dst = s;
        bm.payload = batch.Encode();
        QueueSendLocked(std::move(bm));
      }
    }
    ts.sync_step = 0;
    ts.sync_phase = 0;
    ts.sync_pending_done = cfg_.num_servers;
    for (ServerId s = 0; s < cfg_.num_servers; s++) {
      RecordStepEventLocked(ts, 0, /*created=*/true);
      SyncStepPayload start;
      start.travel_id = ts.id;
      start.step = 0;
      start.phase = 0;
      start.scan_start = scan ? 1 : 0;
      start.plan = ts.plan_bytes;
      start.batches_expected = seed[s].empty() ? 0 : 1;
      rpc::Message sm;
      sm.type = rpc::MsgType::kSyncStepStart;
      sm.src = cfg_.id;
      sm.dst = s;
      sm.payload = start.Encode();
      QueueSendLocked(std::move(sm));
    }
    return;
  }

  StartRootExecsLocked(ts);
}

void BackendServer::StartRootExecsLocked(TravelState& ts) {
  const auto& plan = ts.plan;
  std::vector<std::vector<FrontierEntry>> per_server(cfg_.num_servers);
  bool scan = false;

  if (!plan.start_ids.empty()) {
    std::vector<graph::VertexId> ids = plan.start_ids;
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (auto vid : ids) {
      per_server[partitioner_->ServerFor(vid)].push_back(FrontierEntry{vid, {}});
    }
  } else {
    scan = true;  // every server scans its local type index
  }

  std::vector<ExecId> created;
  for (ServerId s = 0; s < cfg_.num_servers; s++) {
    if (!scan && per_server[s].empty()) continue;
    const ExecId exec_id = MakeExecId(cfg_.id, next_exec_seq_++);
    created.push_back(exec_id);

    TraversePayload req;
    req.travel_id = ts.id;
    req.step = 0;
    req.exec_id = exec_id;
    req.parent_exec = 0;
    req.parent_server = cfg_.id;
    req.coordinator = cfg_.id;
    req.mode = static_cast<uint8_t>(ts.mode);
    req.scan_start = scan ? 1 : 0;
    req.plan = ts.plan_bytes;
    req.entries = std::move(per_server[s]);

    rpc::Message m;
    m.type = rpc::MsgType::kTraverse;
    m.src = cfg_.id;
    m.dst = s;
    m.payload = req.Encode();
    QueueSendLocked(std::move(m));
  }

  ts.root_outstanding = static_cast<uint32_t>(created.size());
  ts.roots_dispatched = true;
  // Register the root creation events locally (the coordinator is the
  // spawning party here).
  for (ExecId id : created) {
    auto& trace = ts.execs[id];
    trace.step = 0;
    trace.created = true;
    ts.total_created++;
    ts.incomplete_execs++;
    ts.unfinished_per_step[0]++;
    RecordStepEventLocked(ts, 0, /*created=*/true);
  }

  if (ts.root_outstanding == 0) {
    CompleteTravelLocked(ts, Status::OK());
  }
}

void BackendServer::CompleteTravelLocked(TravelState& ts, Status status) {
  if (ts.done) return;
  ts.done = true;

  // Release the admission slot the travel held since HandleSubmit (internal
  // branch children were never admitted).
  if (!ts.internal) {
    const uint8_t cls_byte = static_cast<uint8_t>(ts.cls);
    if (cls_byte < kNumTravelClasses && inflight_per_class_[cls_byte] > 0) {
      inflight_per_class_[cls_byte]--;
    }
  }

  // Render + stream results to the client by result mode, then the
  // completion marker. Internal children skip rendering entirely: their raw
  // structures fold into the parent below and the parent renders once.
  if (!ts.internal) {
    auto send_chunk = [&](ResultChunkPayload&& chunk) {
      chunk.travel_id = ts.id;
      rpc::Message m;
      m.type = rpc::MsgType::kResultChunk;
      m.src = cfg_.id;
      m.dst = ts.client;
      m.payload = chunk.Encode();
      QueueSendLocked(std::move(m));
    };
    uint64_t total = 0;
    switch (ts.result_mode) {
      case lang::ResultMode::kVertices: {
        std::vector<graph::VertexId> all(ts.results.begin(), ts.results.end());
        std::sort(all.begin(), all.end());
        for (size_t off = 0; off < all.size(); off += cfg_.result_chunk) {
          ResultChunkPayload chunk;
          chunk.vids.assign(all.begin() + off,
                            all.begin() + std::min(all.size(), off + cfg_.result_chunk));
          send_chunk(std::move(chunk));
        }
        total = all.size();
        break;
      }
      case lang::ResultMode::kCount:
        // count() folds entirely into total_results; no chunks.
        total = ts.results.size();
        break;
      case lang::ResultMode::kGroup: {
        // value -> count over the distinct result vertices, in value order.
        std::map<std::string, uint64_t> groups;
        for (const auto& [vid, value] : ts.result_values) {
          (void)vid;
          groups[value]++;
        }
        ResultChunkPayload chunk;
        for (const auto& [value, count] : groups) {
          chunk.groups.emplace_back(value, count);
          if (chunk.groups.size() >= cfg_.result_chunk) {
            send_chunk(std::move(chunk));
            chunk = ResultChunkPayload();
          }
        }
        if (!chunk.groups.empty()) send_chunk(std::move(chunk));
        total = ts.result_values.size();
        break;
      }
      case lang::ResultMode::kPaths: {
        ResultChunkPayload chunk;
        for (const auto& path : ts.result_paths) {
          chunk.paths.push_back(path);
          if (chunk.paths.size() >= cfg_.result_chunk) {
            send_chunk(std::move(chunk));
            chunk = ResultChunkPayload();
          }
        }
        if (!chunk.paths.empty()) send_chunk(std::move(chunk));
        total = ts.result_paths.size();
        break;
      }
    }

    CompletePayload done;
    done.travel_id = ts.id;
    done.ok = status.ok() ? 1 : 0;
    done.code = static_cast<uint8_t>(status.code());
    done.error = status.ok() ? "" : status.ToString();
    done.total_results = total;
    rpc::Message m;
    m.type = rpc::MsgType::kTraversalComplete;
    m.src = cfg_.id;
    m.dst = ts.client;
    m.payload = done.Encode();
    QueueSendLocked(std::move(m));
  }

  // Broadcast cleanup; every server (including this one) drops the travel's
  // plans, cache entries, queued tasks and any leftover execution state.
  for (ServerId s = 0; s < cfg_.num_servers; s++) {
    rpc::Message abort;
    abort.type = rpc::MsgType::kAbortTraversal;
    abort.src = cfg_.id;
    abort.dst = s;
    abort.payload = AbortPayload{ts.id, AbortPayload::kCleanup}.Encode();
    QueueSendLocked(std::move(abort));
  }
  // A completing branch parent cancels any children still running (their
  // local abort routes back through this function and finds the parent
  // done, so the fold below is skipped for them).
  for (TravelId child : ts.children) {
    for (ServerId s = 0; s < cfg_.num_servers; s++) {
      rpc::Message abort;
      abort.type = rpc::MsgType::kAbortTraversal;
      abort.src = cfg_.id;
      abort.dst = s;
      abort.payload = AbortPayload{child, AbortPayload::kCleanup}.Encode();
      QueueSendLocked(std::move(abort));
    }
  }

  if (ts.internal) {
    // Fold this child's raw result structures into the parent; the union of
    // the alternatives' results is the branch semantics. A failing child
    // fails the whole branch with its status.
    auto pit = travels_.find(ts.parent_travel);
    if (pit != travels_.end() && !pit->second.done) {
      TravelState& parent = pit->second;
      if (!status.ok()) {
        parent.results.clear();
        parent.result_values.clear();
        parent.result_paths.clear();
        CompleteTravelLocked(parent, status);
      } else {
        parent.results.insert(ts.results.begin(), ts.results.end());
        for (const auto& [vid, value] : ts.result_values) {
          parent.result_values.emplace(vid, value);
        }
        parent.result_paths.insert(ts.result_paths.begin(), ts.result_paths.end());
        parent.last_activity_us = NowMicros();
        if (parent.pending_children > 0) parent.pending_children--;
        if (parent.pending_children == 0) CompleteTravelLocked(parent, Status::OK());
      }
    }
    travels_.erase(ts.id);  // ts is dangling after this line
    return;
  }

  const uint64_t now_us = NowMicros();
  travel_duration_ms_[static_cast<int>(ts.mode)]->Observe(
      (now_us - ts.started_us) / 1000.0);
  (status.ok() ? travels_ok_ : travels_failed_)->Inc();
  ArchiveTravelLocked(ts, status.ok(), now_us);

  travels_.erase(ts.id);  // ts is dangling after this line
}

void BackendServer::RecordStepEventLocked(TravelState& ts, uint32_t step,
                                          bool created) {
  if (ts.step_spans.size() <= step) ts.step_spans.resize(step + 1);
  TravelTrace::StepSpan& span = ts.step_spans[step];
  const uint64_t now = NowMicros();
  if (span.first_event_us == 0) span.first_event_us = now;
  span.last_event_us = now;
  if (created) {
    span.created++;
  } else {
    span.terminated++;
  }
}

void BackendServer::ArchiveTravelLocked(const TravelState& ts, bool ok,
                                        uint64_t now_us) {
  constexpr size_t kMaxArchivedTraces = 32;
  TravelTrace trace;
  trace.travel = ts.id;
  trace.mode = ts.mode;
  trace.coordinator = cfg_.id;
  trace.ok = ok;
  trace.started_us = ts.started_us;
  trace.finished_us = now_us;
  trace.total_created = ts.total_created;
  trace.total_terminated = ts.total_terminated;
  trace.result_count = ts.results.size();
  trace.steps = ts.step_spans;
  recent_traces_.push_back(std::move(trace));
  while (recent_traces_.size() > kMaxArchivedTraces) recent_traces_.pop_front();
}

std::vector<TravelTrace> BackendServer::RecentTraces() const {
  MutexLock lk(&mu_);
  return std::vector<TravelTrace>(recent_traces_.begin(), recent_traces_.end());
}

bool BackendServer::ExportTraceJson(TravelId travel, std::string* json) const {
  MutexLock lk(&mu_);
  if (recent_traces_.empty()) return false;
  if (travel == 0) {
    *json = ToChromeTraceJson(recent_traces_.back());
    return true;
  }
  for (const TravelTrace& t : recent_traces_) {
    if (t.travel == travel) {
      *json = ToChromeTraceJson(t);
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Asynchronous traversal: frontier hand-off
// ---------------------------------------------------------------------------

void BackendServer::HandleTraverse(rpc::Message&& msg) {
  auto req = TraversePayload::Decode(msg.payload);
  if (!req.ok()) {
    GT_WARN << "server " << cfg_.id << ": bad traverse payload";
    return;
  }

  // Resolve the scan label before taking the lock (catalog is thread-safe).
  MutexLock lk(&mu_);
  if (aborted_travels_.count(req->travel_id) != 0) return;

  // Lazy first-touch pin: normally the kPinTravel broadcast got here first
  // and this returns the existing pin.
  auto travel_snap = PinTravelSnapLocked(req->travel_id);

  auto pit = plans_.find(req->travel_id);
  std::shared_ptr<CompiledPlan> cplan;
  if (pit != plans_.end()) {
    cplan = pit->second;
  } else {
    auto plan = lang::TraversalPlan::Decode(req->plan);
    if (!plan.ok()) {
      GT_WARN << "server " << cfg_.id << ": bad plan in traverse";
      return;
    }
    // The wire form is compact; execution uses the repeat-expanded chain so
    // step attribution and cohort numbering line up across servers.
    auto unrolled = plan->Unrolled();
    if (!unrolled.ok()) {
      GT_WARN << "server " << cfg_.id << ": bad plan in traverse: "
              << unrolled.status().ToString();
      return;
    }
    cplan = std::make_shared<CompiledPlan>();
    cplan->plan = std::move(*unrolled);
    cplan->plan_bytes.assign(req->plan);  // first sight: copy out of the frame
    cplan->mode = static_cast<EngineMode>(req->mode);
    cplan->coordinator = req->coordinator;
    cplan->type_key = catalog_->Intern("type");  // see HandleSubmit: replicas
    cplan->attribution = NeedsAttribution(cplan->plan);
    plans_[req->travel_id] = cplan;
  }

  // Duplicate-delivery absorption (exec ids are globally unique): only the
  // first copy of a hand-off frame executes.
  if (!cplan->seen_execs.insert(req->exec_id).second) {
    visit_stats_.duplicate_frames.fetch_add(1);
    return;
  }

  auto exec_owner = std::make_unique<ExecState>();
  ExecState& exec = *exec_owner;
  exec.travel = req->travel_id;
  exec.id = req->exec_id;
  exec.step = req->step;
  exec.parent_server = req->parent_server;
  exec.parent_exec = req->parent_exec;

  const bool graphtrek = cplan->mode == EngineMode::kGraphTrek;
  const bool attribution = cplan->attribution;

  // Build the entry set. The attribution path deduplicates and keeps the
  // per-vertex parents (needed for the answer flow); the direct path
  // iterates the wire entries as-is (senders already deduplicate).
  std::vector<graph::VertexId> scan_entries;
  if (req->scan_start != 0) {
    const graph::LabelId label = ScanLabelFor(cplan->plan, catalog_);
    if (label != graph::Catalog::kInvalidId) {
      const bool warm = !scanned_types_[req->travel_id].insert(label).second;
      auto collect = [&](graph::VertexId vid) {
        scan_entries.push_back(vid);
        return true;
      };
      if (cplan->plan.push_start_filters) {
        // Planner pushdown: apply every start filter inside the index scan
        // so non-matching vertices never become root tasks. The engine
        // re-applies the filters at processing time (idempotent), so this
        // is result-identical with the unpushed path.
        const auto& sf = cplan->plan.start_vertex_filters;
        store_->ScanVerticesByTypeFiltered(
            label,
            [&](const graph::VertexRecord& rec) {
              return lang::VertexMatchesAll(sf, rec, *catalog_, cplan->type_key);
            },
            collect, warm, travel_snap.get()).ok();
      } else {
        store_->ScanVerticesByType(label, collect, warm, travel_snap.get()).ok();
      }
    }
  }

  const ExecId exec_id = exec.id;
  execs_.emplace(exec_id, std::move(exec_owner));
  ExecState& ex = *execs_.at(exec_id);

  if (cplan->plan.result_mode == lang::ResultMode::kPaths) {
    // kPaths (always direct protocol: the validator forbids rtn): prefixes
    // ride FrontierEntry.parents, and the same vertex reached along
    // different chains expands once per distinct prefix. The travel cache
    // is bypassed — absorption would collapse distinct prefixes into one.
    auto add_entry = [&](graph::VertexId vid,
                         const std::vector<graph::VertexId>& prefix) {
      auto& prefixes = ex.path_prefixes[vid];
      if (std::find(prefixes.begin(), prefixes.end(), prefix) == prefixes.end()) {
        prefixes.push_back(prefix);
      }
    };
    for (const auto& e : req->entries) add_entry(e.vid, e.parents);
    for (auto vid : scan_entries) add_entry(vid, std::vector<graph::VertexId>{});
    visit_stats_.received.fetch_add(ex.path_prefixes.size());
    visit_stats_.AddStep(ex.step, ex.path_prefixes.size());
    for (const auto& [vid, prefixes] : ex.path_prefixes) {
      (void)prefixes;
      ex.owned_unprocessed++;
      queue_.Push(VertexTask{ex.travel, ex.step, vid, ex.id, /*is_owner=*/true,
                             /*sync=*/false},
                  graphtrek && cfg_.graphtrek_priority_sched,
                  graphtrek && cfg_.graphtrek_merging);
    }
    if (ex.owned_unprocessed == 0 && !ex.dispatched) {
      DispatchLocked(ex, *cplan);  // erases ex
    }
    return;
  }

  if (!attribution) {
    // Direct protocol: per entry, one memo probe decides owner vs redundant.
    visit_stats_.received.fetch_add(req->entries.size() + scan_entries.size());
    visit_stats_.AddStep(ex.step, req->entries.size() + scan_entries.size());
    auto classify = [&](graph::VertexId vid) {
      if (graphtrek) {
        auto lr = cache_.LookupOrInsertPending(ex.travel, ex.step, vid);
        if (lr.state != TravelCache::State::kMiss) {
          visit_stats_.redundant.fetch_add(1);
          return;
        }
        ex.owned_unprocessed++;
        queue_.Push(VertexTask{ex.travel, ex.step, vid, ex.id, /*is_owner=*/true,
                               /*sync=*/false},
                    cfg_.graphtrek_priority_sched, cfg_.graphtrek_merging);
      } else {
        ex.owned_unprocessed++;
        queue_.Push(VertexTask{ex.travel, ex.step, vid, ex.id, /*is_owner=*/false,
                               /*sync=*/false},
                    /*priority=*/false, /*mergeable=*/false);
      }
    };
    for (const auto& e : req->entries) classify(e.vid);
    for (auto vid : scan_entries) classify(vid);
    if (ex.owned_unprocessed == 0 && !ex.dispatched) {
      DispatchLocked(ex, *cplan);  // erases ex
    }
    return;
  }

  for (auto vid : scan_entries) {
    ex.entry_parents.emplace(vid, std::vector<graph::VertexId>{});
  }
  for (auto& e : req->entries) {
    auto [it, inserted] = ex.entry_parents.emplace(e.vid, e.parents);
    if (!inserted) {
      it->second.insert(it->second.end(), e.parents.begin(), e.parents.end());
    }
  }
  ex.unresolved = ex.entry_parents.size();
  visit_stats_.received.fetch_add(ex.entry_parents.size());
  visit_stats_.AddStep(ex.step, ex.entry_parents.size());

  std::vector<std::pair<graph::VertexId, TravelCache::LookupResult>> classified;
  classified.reserve(ex.entry_parents.size());
  for (const auto& [vid, parents] : ex.entry_parents) {
    if (graphtrek) {
      classified.emplace_back(vid,
                              cache_.LookupOrInsertPending(ex.travel, ex.step, vid));
    } else {
      // Async-GT: classification deferred to processing time; every entry
      // pays its own I/O.
      classified.emplace_back(vid, TravelCache::LookupResult{});
    }
  }

  for (auto& [vid, lr] : classified) {
    if (!graphtrek) {
      ex.owned_unprocessed++;
      queue_.Push(VertexTask{ex.travel, ex.step, vid, ex.id, /*is_owner=*/false,
                             /*sync=*/false},
                  /*priority=*/false, /*mergeable=*/false);
      continue;
    }
    switch (lr.state) {
      case TravelCache::State::kMiss:
        ex.owned.insert(vid);
        ex.owned_unprocessed++;
        queue_.Push(VertexTask{ex.travel, ex.step, vid, ex.id, /*is_owner=*/true,
                               /*sync=*/false},
                    cfg_.graphtrek_priority_sched, cfg_.graphtrek_merging);
        break;
      case TravelCache::State::kPending: {
        visit_stats_.redundant.fetch_add(1);
        const ExecId waiter_exec = ex.id;
        const graph::VertexId waiter_vid = vid;
        cache_.AddWaiter(ex.travel, ex.step, vid, [this, waiter_exec, waiter_vid](bool reach) {
          mu_.AssertHeld();  // waiters fire under the engine lock (Resolve sites)
          auto it = execs_.find(waiter_exec);
          if (it == execs_.end()) return;
          ResolveVertexLocked(*it->second, waiter_vid, reach, /*from_owner=*/false);
          TryAnswerLocked(*it->second);
        });
        break;
      }
      case TravelCache::State::kResolved:
        visit_stats_.redundant.fetch_add(1);
        ResolveVertexLocked(ex, vid, lr.reach, /*from_owner=*/false);
        break;
    }
  }

  if (ex.owned_unprocessed == 0 && !ex.dispatched) {
    DispatchLocked(ex, *cplan);
  }
  TryAnswerLocked(ex);
}

// ---------------------------------------------------------------------------
// Worker loop: vertex processing (async engines + sync-engine tasks)
// ---------------------------------------------------------------------------

void BackendServer::WorkerLoop() {
  std::vector<VertexTask> batch;
  while (queue_.PopBatch(&batch)) {
    if (batch.empty()) continue;
    if (batch.front().sync) {
      // Sync-engine tasks are never merged (batch size 1).
      ProcessSyncTask(batch.front());
    } else {
      ProcessBatch(batch);
    }
    DrainOutbox();  // flush sends staged under mu_ during processing
  }
}

void BackendServer::ProcessBatch(const std::vector<VertexTask>& batch) {
  const TravelId travel = batch.front().travel;
  const graph::VertexId vid = batch.front().vid;

  std::shared_ptr<CompiledPlan> cplan;
  std::shared_ptr<const graph::GraphStore::ReadSnapshot> travel_snap;
  bool warm = false;
  {
    MutexLock lk(&mu_);
    auto it = plans_.find(travel);
    if (it == plans_.end()) return;  // travel aborted while queued
    cplan = it->second;
    // The shared_ptr copy keeps the pinned view alive through the unlocked
    // I/O phase even if an abort erases the travel's pin concurrently.
    travel_snap = TravelSnapLocked(travel);
    // Re-reads within a travel hit the storage engine's block cache.
    warm = !accessed_[travel].insert(vid).second;
  }
  const lang::TraversalPlan& plan = cplan->plan;
  const uint32_t num_steps = static_cast<uint32_t>(plan.num_steps());
  const bool graphtrek = cplan->mode == EngineMode::kGraphTrek;
  const bool attribution = cplan->attribution;

  // --- I/O phase (no engine lock held) -------------------------------------
  // One record read, and one edge scan when any merged task still expands.
  // Straggler rules see the step of the first popped task.
  struct EdgeEntry {
    graph::LabelId label;
    graph::VertexId dst;
    graph::PropMap props;
  };
  std::vector<EdgeEntry> edges;
  tls_current_step = static_cast<int>(batch.front().step);
  auto vrec = store_->GetVertex(vid, warm, travel_snap.get());
  const bool need_edges =
      vrec.ok() && std::any_of(batch.begin(), batch.end(),
                               [&](const VertexTask& t) { return t.step < num_steps; });
  if (need_edges) {
    store_
        ->ScanAllEdges(vid,
                       [&](graph::LabelId label, graph::VertexId dst,
                           const graph::PropMap& props) {
                         edges.push_back({label, dst, props});
                         return true;
                       },
                       warm, travel_snap.get())
        .ok();
  }
  tls_current_step = -1;

  visit_stats_.real_io.fetch_add(1);
  visit_stats_.combined.fetch_add(batch.size() - 1);

  // Per-task outcome, computed lock-free: merged tasks may sit at different
  // steps, so each applies its own step's filters and hop.
  struct Outcome {
    bool passed = false;
    bool final_step = false;
    std::vector<std::pair<ServerId, graph::VertexId>> targets;  // (owner, dst)
    // kGroup: the vertex's rendered group value, captured here while the
    // record is in hand (the apply phase never re-reads the store).
    std::string group_value;
  };
  std::vector<Outcome> outcomes(batch.size());
  for (size_t i = 0; i < batch.size() && vrec.ok(); i++) {
    const VertexTask& t = batch[i];
    Outcome& out = outcomes[i];
    if (!lang::VertexMatchesAll(StepVertexFilters(plan, t.step), *vrec, *catalog_,
                                cplan->type_key)) {
      continue;
    }
    out.passed = true;
    // until(): a matching vertex at an iteration boundary is a terminal
    // result — no further expansion. In an until() plan, final-step
    // survivors that never matched are not results at all.
    const std::vector<lang::Filter>* until = UntilFiltersAtStep(plan, t.step);
    const bool until_hit =
        until != nullptr &&
        lang::VertexMatchesAll(*until, *vrec, *catalog_, cplan->type_key);
    if (until_hit) {
      out.final_step = true;
    } else if (t.step >= num_steps) {
      if (plan.has_until()) {
        out.passed = false;
        continue;
      }
      out.final_step = true;
    }
    if (out.final_step) {
      if (plan.result_mode == lang::ResultMode::kGroup) {
        out.group_value =
            lang::GroupValueForVertex(*vrec, plan.group_key, *catalog_, cplan->type_key);
      }
      continue;
    }
    const lang::Hop& hop = plan.hops[t.step];
    // Edges are in (label, dst) order: the hop's label is one contiguous run.
    auto lo = std::lower_bound(
        edges.begin(), edges.end(), hop.edge_label,
        [](const EdgeEntry& e, graph::LabelId l) { return e.label < l; });
    for (auto eit = lo; eit != edges.end() && eit->label == hop.edge_label; ++eit) {
      if (!lang::MatchesAll(hop.edge_filters, eit->props)) continue;
      out.targets.emplace_back(partitioner_->ServerFor(eit->dst), eit->dst);
    }
  }

  // --- apply phase (engine lock) --------------------------------------------
  MutexLock lk(&mu_);
  for (size_t i = 0; i < batch.size(); i++) {
    const VertexTask& t = batch[i];
    auto eit = execs_.find(t.exec);
    if (eit == execs_.end()) continue;  // exec gone (abort)
    ExecState& exec = *eit->second;
    Outcome& out = outcomes[i];

    if (cplan->plan.result_mode == lang::ResultMode::kPaths) {
      // kPaths bypasses the cache and classification entirely: every task
      // is an owner task, and each distinct prefix of the vertex extends
      // through every passing edge independently.
      const auto ppit = exec.path_prefixes.find(t.vid);
      if (ppit != exec.path_prefixes.end()) {
        if (out.passed && out.final_step) {
          for (const auto& prefix : ppit->second) {
            std::vector<graph::VertexId> path = prefix;
            path.push_back(t.vid);
            exec.result_paths.push_back(std::move(path));
          }
        } else if (out.passed) {
          for (auto& [server, dst] : out.targets) {
            for (const auto& prefix : ppit->second) {
              std::vector<graph::VertexId> chain = prefix;
              chain.push_back(t.vid);
              exec.out_path_entries[server].push_back(FrontierEntry{dst, std::move(chain)});
            }
          }
        }
      }
      exec.owned_unprocessed--;
      if (exec.owned_unprocessed == 0 && !exec.dispatched) {
        DispatchLocked(exec, *cplan);  // erases exec on this path
      }
      continue;
    }

    bool owner = t.is_owner;
    if (!graphtrek) {
      // Async-GT classifies now: the I/O is already paid either way.
      auto lr = cache_.LookupOrInsertPending(t.travel, t.step, t.vid);
      switch (lr.state) {
        case TravelCache::State::kMiss:
          owner = true;
          exec.owned.insert(t.vid);
          break;
        case TravelCache::State::kPending: {
          visit_stats_.redundant.fetch_add(1);
          if (attribution) {
            const ExecId waiter_exec = exec.id;
            const graph::VertexId waiter_vid = t.vid;
            cache_.AddWaiter(t.travel, t.step, t.vid,
                             [this, waiter_exec, waiter_vid](bool reach) {
                               mu_.AssertHeld();  // fired under the engine lock
                               auto it2 = execs_.find(waiter_exec);
                               if (it2 == execs_.end()) return;
                               ResolveVertexLocked(*it2->second, waiter_vid, reach,
                                                   /*from_owner=*/false);
                               TryAnswerLocked(*it2->second);
                             });
          }
          exec.owned_unprocessed--;
          if (exec.owned_unprocessed == 0 && !exec.dispatched) {
            DispatchLocked(exec, *cplan);  // erases exec on the direct path
            if (attribution) TryAnswerLocked(exec);
            continue;
          }
          if (attribution) TryAnswerLocked(exec);
          continue;
        }
        case TravelCache::State::kResolved:
          visit_stats_.redundant.fetch_add(1);
          if (attribution) ResolveVertexLocked(exec, t.vid, lr.reach, /*from_owner=*/false);
          exec.owned_unprocessed--;
          if (exec.owned_unprocessed == 0 && !exec.dispatched) {
            DispatchLocked(exec, *cplan);
            if (attribution) TryAnswerLocked(exec);
            continue;
          }
          if (attribution) TryAnswerLocked(exec);
          continue;
      }
    }

    // Owner path: apply the computed outcome.
    if (!attribution) {
      // Direct protocol: resolve the memo (for redundancy absorption) and
      // collect results/expansion; no per-vertex answer bookkeeping.
      if (owner) {
        auto waiters = cache_.Resolve(t.travel, t.step, t.vid, out.passed);
        for (auto& w : waiters) w(out.passed);  // none are registered
        if (out.passed && out.final_step) {
          exec.results.push_back(t.vid);
          if (cplan->plan.result_mode == lang::ResultMode::kGroup) {
            exec.result_values.push_back(std::move(out.group_value));
          }
        } else if (out.passed) {
          for (auto& [server, dst] : out.targets) {
            exec.out_targets[server][dst];  // parents not tracked
          }
        }
      }
      exec.owned_unprocessed--;
      if (exec.owned_unprocessed == 0 && !exec.dispatched) {
        DispatchLocked(exec, *cplan);  // erases exec on this path
      }
      continue;
    }

    if (!out.passed) {
      ResolveVertexLocked(exec, t.vid, false, /*from_owner=*/owner);
    } else if (out.final_step) {
      ResolveVertexLocked(exec, t.vid, true, /*from_owner=*/owner);
    } else if (out.targets.empty()) {
      ResolveVertexLocked(exec, t.vid, false, /*from_owner=*/owner);
    } else {
      exec.awaiting_children.insert(t.vid);
      for (auto& [server, dst] : out.targets) {
        exec.out_targets[server][dst].push_back(t.vid);
      }
    }
    exec.owned_unprocessed--;
    if (exec.owned_unprocessed == 0 && !exec.dispatched) DispatchLocked(exec, *cplan);
    TryAnswerLocked(exec);
  }
}

void BackendServer::ResolveVertexLocked(ExecState& exec, graph::VertexId vid, bool reach,
                                        bool from_owner) {
  if (exec.answered) return;
  if (!exec.resolved.insert(vid).second) return;  // already decided
  exec.unresolved--;
  exec.awaiting_children.erase(vid);
  if (reach) {
    exec.reached.insert(vid);
    // rtn()/final-result emission happens exactly once, at the owner.
    if (exec.owned.count(vid) != 0) {
      const auto pit = plans_.find(exec.travel);
      if (pit != plans_.end()) {
        const lang::TraversalPlan& plan = pit->second->plan;
        const bool is_final = exec.step >= plan.num_steps();
        if (RtnAtStep(plan, exec.step) || (is_final && !plan.has_rtn())) {
          exec.results.push_back(vid);
        }
      }
    }
  }
  if (from_owner && exec.owned.count(vid) != 0) {
    auto waiters = cache_.Resolve(exec.travel, exec.step, vid, reach);
    for (auto& w : waiters) w(reach);
  }
}

void BackendServer::DispatchLocked(ExecState& exec, const CompiledPlan& cplan) {
  exec.dispatched = true;

  std::vector<ExecId> created;
  auto send_child = [&](ServerId server, std::vector<FrontierEntry> entries) {
    const ExecId child_id = MakeExecId(cfg_.id, next_exec_seq_++);
    created.push_back(child_id);

    TraversePayload req;
    req.travel_id = exec.travel;
    req.step = exec.step + 1;
    req.exec_id = child_id;
    req.parent_exec = exec.id;
    req.parent_server = cfg_.id;
    req.coordinator = cplan.coordinator;
    req.mode = static_cast<uint8_t>(cplan.mode);
    req.plan = cplan.plan_bytes;
    req.entries = std::move(entries);

    rpc::Message m;
    m.type = rpc::MsgType::kTraverse;
    m.src = cfg_.id;
    m.dst = server;
    m.payload = req.Encode();
    QueueSendLocked(std::move(m));
  };
  for (auto& [server, targets] : exec.out_targets) {
    std::vector<FrontierEntry> entries;
    entries.reserve(targets.size());
    for (auto& [dst, parents] : targets) {
      entries.push_back(FrontierEntry{dst, std::move(parents)});
    }
    send_child(server, std::move(entries));
  }
  // kPaths expansion: one entry per (prefix, edge), prefixes in `parents`.
  for (auto& [server, entries] : exec.out_path_entries) {
    send_child(server, std::move(entries));
  }
  exec.children_outstanding = static_cast<uint32_t>(created.size());
  exec.out_targets.clear();
  exec.out_path_entries.clear();

  if (!cplan.attribution) {
    // Direct protocol (paper Fig. 3): results go straight to the
    // coordinator; the execution is finished once it has dispatched.
    if (!exec.results.empty() || !exec.result_paths.empty()) {
      AnswerPayload ans;
      ans.travel_id = exec.travel;
      ans.exec_id = exec.id;
      ans.parent_exec = 0;  // travel-level accumulation
      ans.result_vids = std::move(exec.results);
      ans.result_values = std::move(exec.result_values);
      ans.result_paths = std::move(exec.result_paths);
      rpc::Message m;
      m.type = rpc::MsgType::kReturnVertices;
      m.src = cfg_.id;
      m.dst = cplan.coordinator;
      m.payload = ans.Encode();
      QueueSendLocked(std::move(m));
    }
    const TravelId travel = exec.travel;
    const uint32_t step = exec.step;
    const ExecId id = exec.id;
    EraseExecLocked(id);  // exec is dangling after this line
    SendDispatchEventLocked(cplan.coordinator, travel, step + 1, std::move(created), id,
                            step);
    return;
  }

  // Status tracing (Section IV-C): register the downstream executions with
  // the coordinator and report this execution's own termination.
  SendDispatchEventLocked(cplan.coordinator, exec.travel, exec.step + 1,
                          std::move(created), exec.id, exec.step);
}

void BackendServer::TryAnswerLocked(ExecState& exec) {
  if (exec.answered || !exec.dispatched || exec.owned_unprocessed > 0 ||
      exec.children_outstanding > 0 || exec.unresolved > 0) {
    return;
  }
  exec.answered = true;

  AnswerPayload ans;
  ans.travel_id = exec.travel;
  ans.exec_id = exec.id;
  ans.parent_exec = exec.parent_exec;
  std::unordered_set<graph::VertexId> reached_parents;
  for (auto vid : exec.reached) {
    const auto it = exec.entry_parents.find(vid);
    if (it == exec.entry_parents.end()) continue;
    reached_parents.insert(it->second.begin(), it->second.end());
  }
  ans.reached_parents.assign(reached_parents.begin(), reached_parents.end());
  ans.result_vids = std::move(exec.results);

  rpc::Message m;
  m.type = rpc::MsgType::kReturnVertices;
  m.src = cfg_.id;
  m.dst = exec.parent_server;
  m.payload = ans.Encode();
  QueueSendLocked(std::move(m));

  EraseExecLocked(exec.id);  // exec is dangling after this line
}

void BackendServer::EraseExecLocked(ExecId id) { execs_.erase(id); }

void BackendServer::HandleAnswer(rpc::Message&& msg) {
  auto ans = AnswerPayload::Decode(msg.payload);
  if (!ans.ok()) return;

  MutexLock lk(&mu_);

  if (ans->parent_exec == 0) {
    // Travel-level accounting at the coordinator.
    auto it = travels_.find(ans->travel_id);
    if (it == travels_.end()) return;
    TravelState& ts = it->second;
    ts.results.insert(ans->result_vids.begin(), ans->result_vids.end());
    if (!ans->result_values.empty()) {
      // Decode validated the parallel-array invariant.
      for (size_t i = 0; i < ans->result_vids.size(); i++) {
        ts.result_values[ans->result_vids[i]] = std::move(ans->result_values[i]);
      }
    }
    for (auto& path : ans->result_paths) {
      ts.result_paths.insert(std::move(path));
    }
    ts.last_activity_us = NowMicros();
    if (ts.result_paths.size() > kMaxCoordinatorPaths) {
      ts.results.clear();
      ts.result_values.clear();
      ts.result_paths.clear();
      CompleteTravelLocked(ts, Status::Internal("path result limit exceeded"));
      return;
    }
    if (!ts.attribution) return;  // completion comes from status tracing
    if (ts.root_outstanding > 0) ts.root_outstanding--;
    if (ts.root_outstanding == 0) CompleteTravelLocked(ts, Status::OK());
    return;
  }

  auto eit = execs_.find(ans->parent_exec);
  if (eit == execs_.end()) return;
  ExecState& exec = *eit->second;
  if (exec.children_outstanding > 0) exec.children_outstanding--;

  for (auto vid : ans->reached_parents) {
    ResolveVertexLocked(exec, vid, true, /*from_owner=*/true);
  }
  exec.results.insert(exec.results.end(), ans->result_vids.begin(), ans->result_vids.end());

  if (exec.children_outstanding == 0) {
    // Everything still awaiting children has no live path.
    std::vector<graph::VertexId> dead(exec.awaiting_children.begin(),
                                      exec.awaiting_children.end());
    for (auto vid : dead) {
      ResolveVertexLocked(exec, vid, false, /*from_owner=*/true);
    }
  }
  TryAnswerLocked(exec);
}

// ---------------------------------------------------------------------------
// Live updates + point queries (client -> owning server, Section I reqs)
// ---------------------------------------------------------------------------

void BackendServer::HandleMutation(rpc::Message&& msg) {
  auto reply_ack = [&](const Status& st) {
    MutateAckPayload ack;
    ack.ok = st.ok() ? 1 : 0;
    ack.error = st.ok() ? "" : st.ToString();
    rpc::Message reply;
    reply.type = rpc::MsgType::kMutateAck;
    reply.src = cfg_.id;
    reply.dst = msg.src;
    reply.rpc_id = msg.rpc_id;
    reply.payload = ack.Encode();
    SendLossy(std::move(reply));
  };

  // Clients may address any server; requests for records owned elsewhere
  // are forwarded to the owner, which replies to the client directly (the
  // original src rides along on the forwarded message).
  auto forward_if_foreign = [&](graph::VertexId anchor) {
    const ServerId owner = partitioner_->ServerFor(anchor);
    if (owner == cfg_.id) return false;
    rpc::Message fwd = msg;
    fwd.dst = owner;
    SendLossy(std::move(fwd));
    return true;
  };

  switch (msg.type) {
    case rpc::MsgType::kPutVertex: {
      auto req = PutVertexPayload::Decode(msg.payload);
      if (!req.ok()) return reply_ack(req.status());
      if (forward_if_foreign(req->vid)) return;
      graph::VertexRecord rec;
      rec.id = req->vid;
      rec.label = catalog_->Intern(req->label);
      rec.props = InternProps(req->props, catalog_);
      reply_ack(store_->PutVertex(rec));
      return;
    }
    case rpc::MsgType::kPutEdge: {
      auto req = PutEdgePayload::Decode(msg.payload);
      if (!req.ok()) return reply_ack(req.status());
      if (forward_if_foreign(req->src)) return;  // edge-cut: edges live with src
      // Referential integrity: an edge whose endpoint vertex does not exist
      // is a dangling reference no traversal can ever resolve. `src` is
      // always local here (the forward above routed us to its owner), so it
      // is checked authoritatively; `dst` is checked when it is ours and
      // only counted when it lives on another shard (a synchronous
      // cross-shard existence RPC on the ingest hot path is not worth it).
      if (!store_->HasVertex(req->src)) {
        dangling_edges_rejected_->Inc();
        return reply_ack(Status::NotFound("dangling edge: src vertex " +
                                          std::to_string(req->src) + " does not exist"));
      }
      if (partitioner_->ServerFor(req->dst) == cfg_.id) {
        if (!store_->HasVertex(req->dst)) {
          dangling_edges_rejected_->Inc();
          return reply_ack(Status::NotFound("dangling edge: dst vertex " +
                                            std::to_string(req->dst) + " does not exist"));
        }
      } else {
        edge_dst_unverified_->Inc();
      }
      graph::EdgeRecord rec;
      rec.src = req->src;
      rec.label = catalog_->Intern(req->label);
      rec.dst = req->dst;
      rec.props = InternProps(req->props, catalog_);
      reply_ack(store_->PutEdge(rec));
      return;
    }
    case rpc::MsgType::kDeleteVertex: {
      auto req = GetVertexPayload::Decode(msg.payload);
      if (!req.ok()) return reply_ack(req.status());
      if (forward_if_foreign(req->vid)) return;
      reply_ack(store_->DeleteVertex(req->vid));
      return;
    }
    case rpc::MsgType::kGetVertex: {
      auto req = GetVertexPayload::Decode(msg.payload);
      if (!req.ok()) return;
      if (forward_if_foreign(req->vid)) return;
      VertexReplyPayload out;
      out.vid = req->vid;
      auto rec = store_->GetVertex(req->vid);
      if (rec.ok()) {
        out.found = 1;
        out.label = catalog_->Name(rec->label).value_or("?");
        for (const auto& [key, value] : rec->props) {
          out.props.emplace_back(catalog_->Name(key).value_or("?"), value);
        }
      }
      rpc::Message reply;
      reply.type = rpc::MsgType::kVertexReply;
      reply.src = cfg_.id;
      reply.dst = msg.src;
      reply.rpc_id = msg.rpc_id;
      reply.payload = out.Encode();
      SendLossy(std::move(reply));
      return;
    }
    default:
      return;
  }
}

// Distributed catalog authority (clients conventionally address server 0;
// in-process clusters share the catalog object so any server can answer).
void BackendServer::HandleCatalog(rpc::Message&& msg) {
  CatalogReplyPayload out;
  if (msg.type == rpc::MsgType::kCatalogIntern) {
    auto req = CatalogInternPayload::Decode(msg.payload);
    if (req.ok()) out.id = catalog_->Intern(req->name);
  } else {
    out.names = catalog_->Snapshot();
  }
  rpc::Message reply;
  reply.type = rpc::MsgType::kCatalogReply;
  reply.src = cfg_.id;
  reply.dst = msg.src;
  reply.rpc_id = msg.rpc_id;
  reply.payload = out.Encode();
  SendLossy(std::move(reply));
}

// ---------------------------------------------------------------------------
// Status tracing + progress + failure detection
// ---------------------------------------------------------------------------

void BackendServer::ApplyTraceItemLocked(TravelState& ts, const TraceItem& item) {
  if (item.step >= ts.unfinished_per_step.size()) {
    ts.unfinished_per_step.resize(item.step + 1, 0);
  }
  const bool existed = ts.execs.count(item.exec) != 0;
  auto& trace = ts.execs[item.exec];
  if (item.created != 0) {
    if (trace.created) return;
    trace.created = true;
    trace.step = item.step;
    RecordStepEventLocked(ts, item.step, /*created=*/true);
    ts.total_created++;
    if (!existed) {
      ts.incomplete_execs++;
    } else if (trace.terminated) {
      ts.incomplete_execs--;
    }
    if (!trace.terminated) ts.unfinished_per_step[item.step]++;
  } else {
    if (trace.terminated) return;
    trace.terminated = true;
    RecordStepEventLocked(ts, trace.created ? trace.step : item.step,
                          /*created=*/false);
    ts.total_terminated++;
    if (!existed) {
      ts.incomplete_execs++;
    } else if (trace.created) {
      ts.incomplete_execs--;
    }
    if (trace.created) {
      if (ts.unfinished_per_step[trace.step] > 0) ts.unfinished_per_step[trace.step]--;
    } else {
      trace.step = item.step;  // termination raced ahead of creation
    }
  }
}

void BackendServer::HandleExecEvent(rpc::Message&& msg, bool created) {
  MutexLock lk(&mu_);

  if (msg.type == rpc::MsgType::kExecDispatched) {
    auto batch = TraceBatchPayload::Decode(msg.payload);
    if (!batch.ok()) return;
    auto it = travels_.find(batch->travel_id);
    if (it == travels_.end()) return;
    TravelState& ts = it->second;
    ts.last_activity_us = NowMicros();
    for (const auto& item : batch->items) ApplyTraceItemLocked(ts, item);
    if (!ts.attribution && ts.mode != EngineMode::kSync && ts.roots_dispatched &&
        ts.total_created > 0 && ts.incomplete_execs == 0) {
      CompleteTravelLocked(ts, Status::OK());
    }
    return;
  }

  // Legacy single-kind events (kExecCreated / kExecTerminated).
  auto ev = ExecEventPayload::Decode(msg.payload);
  if (!ev.ok()) return;
  auto it = travels_.find(ev->travel_id);
  if (it == travels_.end()) return;
  TravelState& ts = it->second;
  ts.last_activity_us = NowMicros();
  for (ExecId id : ev->exec_ids) {
    ApplyTraceItemLocked(ts, TraceItem{id, ev->step, static_cast<uint8_t>(created ? 1 : 0)});
  }
  if (!ts.attribution && ts.mode != EngineMode::kSync && ts.roots_dispatched &&
      ts.total_created > 0 && ts.incomplete_execs == 0) {
    CompleteTravelLocked(ts, Status::OK());
  }
}

void BackendServer::HandleProgress(rpc::Message&& msg) {
  auto travel = DecodeTravelId(msg.payload);
  ProgressPayload progress;
  {
    MutexLock lk(&mu_);
    if (travel.ok()) {
      auto it = travels_.find(*travel);
      if (it != travels_.end()) {
        progress.travel_id = *travel;
        progress.unfinished_per_step = it->second.unfinished_per_step;
        progress.total_created = it->second.total_created;
        progress.total_terminated = it->second.total_terminated;
      }
    }
  }
  rpc::Message reply;
  reply.type = rpc::MsgType::kProgressReply;
  reply.src = cfg_.id;
  reply.dst = msg.src;
  reply.rpc_id = msg.rpc_id;
  reply.payload = progress.Encode();
  SendLossy(std::move(reply));
}

void BackendServer::HandleAbort(rpc::Message&& msg) {
  auto abort = AbortPayload::Decode(msg.payload);
  if (!abort.ok()) return;
  const TravelId travel = abort->travel_id;

  MutexLock lk(&mu_);

  // If this server coordinates the travel and it is still live, route the
  // abort through the normal completion path: that releases the admission
  // slot, notifies the client, and re-broadcasts the cleanup to every
  // server. The local-state erasure below still runs for this delivery.
  auto tit = travels_.find(travel);
  if (tit != travels_.end() && !tit->second.done) {
    if (abort->reason == AbortPayload::kCancel) travel_cancelled_->Inc();
    // Cancelled travels return no results. A cancelled branch child also
    // folds nothing: the parent either initiated the cancel (done already)
    // or fails over via the child's Aborted status.
    tit->second.results.clear();
    tit->second.result_values.clear();
    tit->second.result_paths.clear();
    CompleteTravelLocked(tit->second, Status::Aborted("travel cancelled"));
  }

  aborted_travels_.insert(travel);
  aborted_order_.push_back(travel);
  while (aborted_order_.size() > kMaxAbortTombstones) {
    aborted_travels_.erase(aborted_order_.front());
    aborted_order_.pop_front();
  }

  plans_.erase(travel);
  cache_.EraseTravel(travel);
  accessed_.erase(travel);
  scanned_types_.erase(travel);
  sync_locals_.erase(travel);
  if (auto sit = travel_snaps_.find(travel); sit != travel_snaps_.end()) {
    // Release the pinned view (unblocking compaction GC) — or park it for
    // the differential harness when test retention is on. Workers mid-batch
    // still hold their shared_ptr copy; the KV snapshot is handed back only
    // when the last holder drops it.
    if (cfg_.retain_snapshots_for_test) retained_snaps_[travel] = sit->second;
    travel_snaps_.erase(sit);
  }
  for (auto it = trace_buffer_.begin(); it != trace_buffer_.end();) {
    if (it->first.second == travel) {
      it = trace_buffer_.erase(it);
    } else {
      ++it;
    }
  }
  travels_.erase(travel);
  for (auto it = execs_.begin(); it != execs_.end();) {
    if (it->second->travel == travel) {
      it = execs_.erase(it);
    } else {
      ++it;
    }
  }
  // Drain the travel's queued-but-unprocessed tasks so workers never touch
  // them (they would hit the erased plan and bail, but each would still
  // burn a dequeue and possibly device I/O).
  queue_.EraseTravel(travel);
}

void BackendServer::SendLossy(rpc::Message msg) {
  const rpc::EndpointId dst = msg.dst;
  Status s = transport_->Send(std::move(msg));
  if (!s.ok()) {
    send_failures_.fetch_add(1);
    GT_WARN << "server " << cfg_.id << ": send to endpoint " << dst
            << " failed: " << s.ToString();
  }
}

void BackendServer::MaintenanceLoop() {
  const auto interval =
      std::chrono::milliseconds(std::max<uint32_t>(1, cfg_.maintenance_interval_ms));
  while (!stop_.load()) {
    {
      // Interruptible sleep: Stop() signals maint_cv_ so shutdown never
      // waits out a full interval (and long TSan/soak intervals stay cheap).
      MutexLock lk(&maint_mu_);
      if (maint_stop_) return;
      maint_cv_.WaitFor(interval);
      if (maint_stop_) return;
    }
    std::vector<TravelId> deadline_exceeded;
    std::vector<TravelId> failed;
    {
      MutexLock lk(&mu_);
      FlushAllTraceBuffersLocked();
      const uint64_t now = NowMicros();
      for (auto& [id, ts] : travels_) {
        if (ts.done) continue;
        // Branch parents do no engine work: their children inherit the
        // absolute deadline and carry their own activity timeouts, and any
        // child failure propagates up through the fold. Enforcing the
        // parent's own last_activity would race the children's progress.
        if (ts.pending_children > 0) continue;
        if (ts.deadline_us != 0 && now > ts.deadline_us) {
          deadline_exceeded.push_back(id);
        } else if (now - ts.last_activity_us >
                   static_cast<uint64_t>(ts.timeout_ms) * 1000) {
          failed.push_back(id);
        }
      }
      for (TravelId id : deadline_exceeded) {
        auto it = travels_.find(id);
        if (it == travels_.end()) continue;
        travel_deadline_exceeded_->Inc();
        // Deadline expiry is final: Timeout is not retryable client-side.
        it->second.results.clear();
        it->second.result_values.clear();
        it->second.result_paths.clear();
        CompleteTravelLocked(it->second, Status::Timeout("travel deadline exceeded"));
      }
      for (TravelId id : failed) {
        auto it = travels_.find(id);
        if (it == travels_.end()) continue;
        GT_WARN << "server " << cfg_.id << ": traversal " << id
                << " timed out (execution created but never terminated); failing";
        // The paper's recovery story: detect via the trace registry and
        // restart the whole traversal. Aborted is the client's retry signal.
        it->second.results.clear();
        it->second.result_values.clear();
        it->second.result_paths.clear();
        CompleteTravelLocked(it->second, Status::Aborted("execution lost"));
      }
    }
    DrainOutbox();  // trace flushes + completions staged under mu_
  }
}

// ---------------------------------------------------------------------------
// Synchronous engine (Sync-GT)
// ---------------------------------------------------------------------------

void BackendServer::HandleSyncStepStart(rpc::Message&& msg) {
  auto start = SyncStepPayload::Decode(msg.payload);
  if (!start.ok()) return;

  MutexLock lk(&mu_);
  if (aborted_travels_.count(start->travel_id) != 0) return;
  PinTravelSnapLocked(start->travel_id);  // lazy fallback; usually pinned already
  SyncLocal& sl = sync_locals_[start->travel_id];

  if (!sl.plan_ready && !start->plan.empty()) {
    auto plan = lang::TraversalPlan::Decode(start->plan);
    if (!plan.ok()) return;
    auto unrolled = plan->Unrolled();  // execute the repeat-expanded chain
    if (!unrolled.ok()) return;
    sl.cplan.plan = std::move(*unrolled);
    sl.cplan.plan_bytes = start->plan;
    sl.cplan.mode = EngineMode::kSync;
    sl.cplan.coordinator = msg.src;
    sl.cplan.type_key = catalog_->Intern("type");  // see HandleSubmit: replicas
    sl.coordinator = msg.src;
    sl.scan_start = start->scan_start;
    sl.plan_ready = true;
  }

  if (start->phase == 0) {
    sl.step = start->step;
    sl.batches_expected[start->step] = start->batches_expected;
    SyncMaybeProcessStepLocked(start->travel_id);
  } else {
    // Backward round k: send alive subsets for step k+1 back to the senders,
    // and note how many backward batches we expect ourselves.
    sl.batches_expected[kBackwardKeyBit | start->step] = start->batches_expected;
    SyncProcessBackwardLocked(start->travel_id, sl, start->step);
  }
}

void BackendServer::HandleSyncBatch(rpc::Message&& msg) {
  auto batch = SyncBatchPayload::Decode(msg.payload);
  if (!batch.ok()) return;

  MutexLock lk(&mu_);
  if (aborted_travels_.count(batch->travel_id) != 0) return;
  PinTravelSnapLocked(batch->travel_id);  // lazy fallback; usually pinned already
  SyncLocal& sl = sync_locals_[batch->travel_id];

  if (batch->phase == 0) {
    auto& slot = sl.inbox[batch->step][msg.src];
    for (auto& e : batch->entries) slot.push_back(std::move(e));
    sl.batches_received[batch->step]++;
    visit_stats_.received.fetch_add(batch->entries.size());
    visit_stats_.AddStep(batch->step, batch->entries.size());
    SyncMaybeProcessStepLocked(batch->travel_id);
    return;
  }

  // Backward: entries name alive step-`batch->step` targets that this server
  // sent to msg.src during the forward phase.
  const uint32_t k = batch->step - 1;  // round being resolved
  auto& exp = sl.expansion[k][msg.src];
  for (const auto& e : batch->entries) {
    auto it = exp.find(e.vid);
    if (it == exp.end()) continue;
    for (auto parent : it->second) sl.alive[k].insert(parent);
  }
  sl.back_batches_received[k]++;

  const auto expected_it = sl.batches_expected.find(kBackwardKeyBit | k);
  if (expected_it != sl.batches_expected.end() &&
      sl.back_batches_received[k] >= expected_it->second) {
    // Round complete locally: report results (if this step is rtn-marked).
    SyncStepPayload done;
    done.travel_id = batch->travel_id;
    done.step = k;
    done.phase = 1;
    if (sl.plan_ready && RtnAtStep(sl.cplan.plan, k)) {
      done.result_vids.assign(sl.alive[k].begin(), sl.alive[k].end());
    }
    rpc::Message m;
    m.type = rpc::MsgType::kSyncStepDone;
    m.src = cfg_.id;
    m.dst = sl.coordinator;
    m.payload = done.Encode();
    QueueSendLocked(std::move(m));
  }
}

void BackendServer::SyncMaybeProcessStepLocked(TravelId travel) {
  auto it = sync_locals_.find(travel);
  if (it == sync_locals_.end()) return;
  SyncLocal& sl = it->second;
  if (!sl.plan_ready || sl.processing) return;

  const uint32_t step = sl.step;
  if (sl.steps_processed.count(step) != 0) return;
  auto exp = sl.batches_expected.find(step);
  if (exp == sl.batches_expected.end()) return;
  if (sl.batches_received[step] < exp->second) return;

  sl.steps_processed.insert(step);
  sl.processing = true;

  // Merge the inbox into a deduplicated frontier. In kPaths mode the
  // entries' parents are distinct visited-chain prefixes; each is kept (and
  // deduplicated) per vertex rather than concatenated.
  const bool paths_mode = sl.cplan.plan.result_mode == lang::ResultMode::kPaths;
  sl.current_frontier.clear();
  sl.current_paths.clear();
  uint64_t raw_entries = 0;
  for (auto& [sender, entries] : sl.inbox[step]) {
    (void)sender;
    for (auto& e : entries) {
      raw_entries += 1;
      if (paths_mode) {
        auto& prefixes = sl.current_paths[e.vid];
        if (std::find(prefixes.begin(), prefixes.end(), e.parents) == prefixes.end()) {
          prefixes.push_back(e.parents);
        }
        sl.current_frontier.emplace(e.vid, std::vector<graph::VertexId>{});
        continue;
      }
      auto [fit, inserted] = sl.current_frontier.emplace(e.vid, e.parents);
      if (!inserted) {
        fit->second.insert(fit->second.end(), e.parents.begin(), e.parents.end());
      }
    }
  }
  if (step == 0 && sl.scan_start != 0) {
    const graph::LabelId label = ScanLabelFor(sl.cplan.plan, catalog_);
    if (label != graph::Catalog::kInvalidId) {
      const size_t before = sl.current_frontier.size();
      const bool warm = !scanned_types_[travel].insert(label).second;
      auto add = [&](graph::VertexId vid) {
        raw_entries += 1;
        if (paths_mode) {
          auto& prefixes = sl.current_paths[vid];
          if (prefixes.empty()) prefixes.push_back({});  // scan roots: empty prefix
        }
        sl.current_frontier.emplace(vid, std::vector<graph::VertexId>{});
        return true;
      };
      if (sl.cplan.plan.push_start_filters) {
        // Planner pushdown, mirroring the async scan start.
        const auto& sf = sl.cplan.plan.start_vertex_filters;
        const graph::Catalog::Id type_key = sl.cplan.type_key;
        store_->ScanVerticesByTypeFiltered(
            label,
            [&](const graph::VertexRecord& rec) {
              return lang::VertexMatchesAll(sf, rec, *catalog_, type_key);
            },
            add, warm, TravelSnapLocked(travel).get()).ok();
      } else {
        store_->ScanVerticesByType(label, add, warm, TravelSnapLocked(travel).get()).ok();
      }
      visit_stats_.received.fetch_add(sl.current_frontier.size() - before);
      visit_stats_.AddStep(step, sl.current_frontier.size() - before);
    }
  }
  if (raw_entries > sl.current_frontier.size()) {
    visit_stats_.redundant.fetch_add(raw_entries - sl.current_frontier.size());
  }
  // The forward inbox is only needed again by the backward phase.
  if (!sl.cplan.plan.has_rtn()) sl.inbox.erase(step);

  sl.pending_tasks = sl.current_frontier.size();
  if (sl.pending_tasks == 0) {
    SyncFinishForwardStepLocked(travel, sl);
    return;
  }
  for (const auto& [vid, parents] : sl.current_frontier) {
    (void)parents;
    queue_.Push(VertexTask{travel, step, vid, 0, /*is_owner=*/true, /*sync=*/true},
                /*priority=*/false, /*mergeable=*/false);
  }
}

void BackendServer::ProcessSyncTask(const VertexTask& task) {
  std::shared_ptr<CompiledPlan> cplan;
  std::shared_ptr<const graph::GraphStore::ReadSnapshot> travel_snap;
  std::vector<graph::VertexId> parents;
  bool warm = false;
  {
    MutexLock lk(&mu_);
    auto it = sync_locals_.find(task.travel);
    if (it == sync_locals_.end()) return;
    auto fit = it->second.current_frontier.find(task.vid);
    if (fit != it->second.current_frontier.end()) parents = fit->second;
    cplan = std::make_shared<CompiledPlan>(it->second.cplan);
    travel_snap = TravelSnapLocked(task.travel);
    warm = !accessed_[task.travel].insert(task.vid).second;
  }
  const lang::TraversalPlan& plan = cplan->plan;
  const uint32_t num_steps = static_cast<uint32_t>(plan.num_steps());
  const uint32_t step = task.step;

  tls_current_step = static_cast<int>(step);
  auto vrec = store_->GetVertex(task.vid, warm, travel_snap.get());
  bool passed = vrec.ok() && lang::VertexMatchesAll(StepVertexFilters(plan, step), *vrec,
                                                    *catalog_, cplan->type_key);
  // until(): a match at an iteration boundary is a terminal result — no
  // expansion. Group values are rendered here, while the record is in hand.
  const std::vector<lang::Filter>* until = UntilFiltersAtStep(plan, step);
  const bool until_hit = passed && until != nullptr &&
                         lang::VertexMatchesAll(*until, *vrec, *catalog_, cplan->type_key);
  std::string group_value;
  bool have_group_value = false;
  if (passed && plan.result_mode == lang::ResultMode::kGroup &&
      (until_hit || (step >= num_steps && !plan.has_until()))) {
    group_value = lang::GroupValueForVertex(*vrec, plan.group_key, *catalog_,
                                            cplan->type_key);
    have_group_value = true;
  }
  std::vector<std::pair<graph::VertexId, graph::PropMap>> edges;
  if (passed && !until_hit && step < num_steps) {
    const lang::Hop& hop = plan.hops[step];
    store_->ScanEdges(task.vid, hop.edge_label,
                      [&](graph::VertexId dst, const graph::PropMap& props) {
                        if (lang::MatchesAll(hop.edge_filters, props)) {
                          edges.emplace_back(dst, props);
                        }
                        return true;
                      },
                      warm, travel_snap.get())
        .ok();
  }
  tls_current_step = -1;
  visit_stats_.real_io.fetch_add(1);

  MutexLock lk(&mu_);
  auto it = sync_locals_.find(task.travel);
  if (it == sync_locals_.end()) return;
  SyncLocal& sl = it->second;
  if (passed) {
    sl.passed[step].insert(task.vid);
    if (until_hit) {
      // Terminal until() result: reported with this step's done message.
      sl.step_results.push_back(task.vid);
      if (have_group_value) sl.step_result_values.push_back(std::move(group_value));
    } else if (plan.result_mode == lang::ResultMode::kPaths) {
      // Each distinct prefix of this vertex extends through every edge.
      const auto ppit = sl.current_paths.find(task.vid);
      if (ppit != sl.current_paths.end()) {
        for (const auto& [dst, props] : edges) {
          (void)props;
          const ServerId server = partitioner_->ServerFor(dst);
          for (const auto& prefix : ppit->second) {
            std::vector<graph::VertexId> chain = prefix;
            chain.push_back(task.vid);
            sl.path_expansion[step][server].push_back(FrontierEntry{dst, std::move(chain)});
          }
        }
      }
    } else {
      for (const auto& [dst, props] : edges) {
        (void)props;
        sl.expansion[step][partitioner_->ServerFor(dst)][dst].push_back(task.vid);
      }
    }
    if (!until_hit && have_group_value) sl.value_by_vid[task.vid] = std::move(group_value);
  }
  if (sl.pending_tasks > 0) sl.pending_tasks--;
  if (sl.pending_tasks == 0) SyncFinishForwardStepLocked(task.travel, sl);
}

void BackendServer::SyncFinishForwardStepLocked(TravelId travel, SyncLocal& sl) {
  const uint32_t step = sl.step;
  const lang::TraversalPlan& plan = sl.cplan.plan;
  const uint32_t num_steps = static_cast<uint32_t>(plan.num_steps());

  SyncStepPayload done;
  done.travel_id = travel;
  done.step = step;
  done.phase = 0;
  done.batches_sent.assign(cfg_.num_servers, 0);

  const bool paths_mode = plan.result_mode == lang::ResultMode::kPaths;

  if (step < num_steps) {
    if (paths_mode) {
      // Path batches ship full prefixes in FrontierEntry::parents; duplicate
      // (vid, prefix) pairs were already deduped at expansion time.
      auto pexp_it = sl.path_expansion.find(step);
      if (pexp_it != sl.path_expansion.end()) {
        for (auto& [server, entries] : pexp_it->second) {
          SyncBatchPayload batch;
          batch.travel_id = travel;
          batch.step = step + 1;
          batch.phase = 0;
          batch.entries = std::move(entries);
          rpc::Message m;
          m.type = rpc::MsgType::kSyncBatch;
          m.src = cfg_.id;
          m.dst = server;
          m.payload = batch.Encode();
          QueueSendLocked(std::move(m));
          done.batches_sent[server] = 1;
        }
      }
    } else {
      auto exp_it = sl.expansion.find(step);
      if (exp_it != sl.expansion.end()) {
        for (auto& [server, targets] : exp_it->second) {
          SyncBatchPayload batch;
          batch.travel_id = travel;
          batch.step = step + 1;
          batch.phase = 0;
          batch.entries.reserve(targets.size());
          // Parents stay local (the backward phase uses this server's own
          // expansion map); ship bare vertex ids.
          for (auto& [dst, parents] : targets) {
            (void)parents;
            batch.entries.push_back(FrontierEntry{dst, {}});
          }
          rpc::Message m;
          m.type = rpc::MsgType::kSyncBatch;
          m.src = cfg_.id;
          m.dst = server;
          m.payload = batch.Encode();
          QueueSendLocked(std::move(m));
          done.batches_sent[server] = 1;
        }
      }
    }
  } else {
    // Final step: report surviving vertices when they are the results.
    if (paths_mode) {
      auto pit = sl.passed.find(step);
      if (pit != sl.passed.end()) {
        for (graph::VertexId vid : pit->second) {
          auto ppit = sl.current_paths.find(vid);
          if (ppit == sl.current_paths.end()) continue;
          for (const auto& prefix : ppit->second) {
            std::vector<graph::VertexId> chain = prefix;
            chain.push_back(vid);
            done.result_paths.push_back(std::move(chain));
          }
        }
      }
    } else if (FinalStepYieldsResults(plan)) {
      auto pit = sl.passed.find(step);
      if (pit != sl.passed.end()) {
        done.result_vids.assign(pit->second.begin(), pit->second.end());
        if (plan.result_mode == lang::ResultMode::kGroup) {
          done.result_values.reserve(done.result_vids.size());
          for (graph::VertexId vid : done.result_vids) {
            done.result_values.push_back(sl.value_by_vid[vid]);
          }
        }
      }
    }
  }

  // until() hits collected at this step are terminal results regardless of
  // the step index; attach them to this step's done message.
  if (!sl.step_results.empty()) {
    if (plan.result_mode == lang::ResultMode::kGroup && done.result_values.empty() &&
        !done.result_vids.empty()) {
      // Keep the parallel-array invariant if finals were attached above.
      done.result_values.resize(done.result_vids.size());
    }
    done.result_vids.insert(done.result_vids.end(), sl.step_results.begin(),
                            sl.step_results.end());
    if (plan.result_mode == lang::ResultMode::kGroup) {
      done.result_values.insert(done.result_values.end(),
                                sl.step_result_values.begin(),
                                sl.step_result_values.end());
    }
    sl.step_results.clear();
    sl.step_result_values.clear();
  }

  // Keep forward history only when a backward phase will need it.
  if (!plan.has_rtn()) {
    sl.expansion.erase(step);
    sl.passed.erase(step);
  }
  sl.path_expansion.erase(step);  // paths plans never have a backward phase
  sl.current_paths.clear();
  sl.value_by_vid.clear();
  sl.current_frontier.clear();
  sl.processing = false;

  rpc::Message m;
  m.type = rpc::MsgType::kSyncStepDone;
  m.src = cfg_.id;
  m.dst = sl.coordinator;
  m.payload = done.Encode();
  QueueSendLocked(std::move(m));
}

void BackendServer::SyncProcessBackwardLocked(TravelId travel, SyncLocal& sl,
                                              uint32_t step) {
  // Round `step`: send, to each forward sender of step+1 entries, the subset
  // of its entries that are alive.
  const lang::TraversalPlan& plan = sl.cplan.plan;
  const uint32_t num_steps = static_cast<uint32_t>(plan.num_steps());
  const std::unordered_set<graph::VertexId>& alive_next =
      (step + 1 >= num_steps) ? sl.passed[num_steps] : sl.alive[step + 1];

  auto ib = sl.inbox.find(step + 1);
  if (ib != sl.inbox.end()) {
    for (auto& [sender, entries] : ib->second) {
      SyncBatchPayload batch;
      batch.travel_id = travel;
      batch.step = step + 1;
      batch.phase = 1;
      std::unordered_set<graph::VertexId> seen;
      for (const auto& e : entries) {
        if (alive_next.count(e.vid) != 0 && seen.insert(e.vid).second) {
          batch.entries.push_back(FrontierEntry{e.vid, {}});
        }
      }
      rpc::Message m;
      m.type = rpc::MsgType::kSyncBatch;
      m.src = cfg_.id;
      m.dst = sender;
      m.payload = batch.Encode();
      QueueSendLocked(std::move(m));
    }
  }

  // A server that expects zero backward batches finishes the round at once.
  const auto expected_it = sl.batches_expected.find(kBackwardKeyBit | step);
  if (expected_it != sl.batches_expected.end() &&
      sl.back_batches_received[step] >= expected_it->second) {
    SyncStepPayload done;
    done.travel_id = travel;
    done.step = step;
    done.phase = 1;
    if (RtnAtStep(plan, step)) {
      done.result_vids.assign(sl.alive[step].begin(), sl.alive[step].end());
    }
    rpc::Message m;
    m.type = rpc::MsgType::kSyncStepDone;
    m.src = cfg_.id;
    m.dst = sl.coordinator;
    m.payload = done.Encode();
    QueueSendLocked(std::move(m));
  }
}

void BackendServer::HandleSyncStepDone(rpc::Message&& msg) {
  auto done = SyncStepPayload::Decode(msg.payload);
  if (!done.ok()) return;

  MutexLock lk(&mu_);
  auto it = travels_.find(done->travel_id);
  if (it == travels_.end()) return;
  TravelState& ts = it->second;
  ts.last_activity_us = NowMicros();
  SyncCoordinatorStepDoneLocked(ts, *done, msg.src);
}

void BackendServer::SyncCoordinatorStepDoneLocked(TravelState& ts,
                                                  const SyncStepPayload& done,
                                                  ServerId src) {
  if (done.step != ts.sync_step || done.phase != ts.sync_phase) return;  // stale

  // Forward-phase barrier arrivals close the per-server span for this step.
  if (done.phase == 0) RecordStepEventLocked(ts, done.step, /*created=*/false);
  ts.results.insert(done.result_vids.begin(), done.result_vids.end());
  if (!done.result_values.empty()) {
    for (size_t i = 0; i < done.result_vids.size() && i < done.result_values.size(); i++) {
      ts.result_values.emplace(done.result_vids[i], done.result_values[i]);
    }
  }
  if (!done.result_paths.empty()) {
    for (auto& p : done.result_paths) ts.result_paths.insert(std::move(p));
    if (ts.result_paths.size() > kMaxCoordinatorPaths) {
      ts.results.clear();
      ts.result_values.clear();
      ts.result_paths.clear();
      CompleteTravelLocked(ts, Status::Internal("path result limit exceeded"));
      return;
    }
  }
  if (done.phase == 0) {
    if (ts.sync_fwd_matrices[done.step].empty()) {
      ts.sync_fwd_matrices[done.step].assign(cfg_.num_servers,
                                             std::vector<uint32_t>(cfg_.num_servers, 0));
    }
    if (!done.batches_sent.empty() && src < cfg_.num_servers) {
      ts.sync_fwd_matrices[done.step][src] = done.batches_sent;
    }
  }
  if (ts.sync_pending_done > 0) ts.sync_pending_done--;
  if (ts.sync_pending_done > 0) return;

  const uint32_t num_steps = static_cast<uint32_t>(ts.plan.num_steps());

  if (ts.sync_phase == 0) {
    if (ts.sync_step < num_steps) {
      SyncStartStepLocked(ts, ts.sync_step + 1, /*phase=*/0);
      return;
    }
    // Forward pass complete.
    const bool needs_backward = ts.plan.has_rtn() && MinRtnStep(ts.plan) < num_steps &&
                                num_steps > 0;
    if (!needs_backward) {
      CompleteTravelLocked(ts, Status::OK());
      return;
    }
    SyncStartStepLocked(ts, num_steps - 1, /*phase=*/1);
    return;
  }

  // Backward phase.
  const uint32_t min_rtn = MinRtnStep(ts.plan);
  if (ts.sync_step > min_rtn) {
    SyncStartStepLocked(ts, ts.sync_step - 1, /*phase=*/1);
  } else {
    CompleteTravelLocked(ts, Status::OK());
  }
}

void BackendServer::SyncStartStepLocked(TravelState& ts, uint32_t step, uint8_t phase) {
  ts.sync_step = step;
  ts.sync_phase = phase;
  ts.sync_pending_done = cfg_.num_servers;

  for (ServerId s = 0; s < cfg_.num_servers; s++) {
    if (phase == 0) RecordStepEventLocked(ts, step, /*created=*/true);
    SyncStepPayload start;
    start.travel_id = ts.id;
    start.step = step;
    start.phase = phase;
    if (phase == 0) {
      // Expected forward batches = column sums of the previous step matrix.
      uint32_t expected = 0;
      const auto& matrix = ts.sync_fwd_matrices[step - 1];
      for (ServerId u = 0; u < cfg_.num_servers; u++) {
        if (!matrix.empty() && s < matrix[u].size()) expected += matrix[u][s];
      }
      start.batches_expected = expected;
    } else {
      // Expected backward batches for round `step` = number of servers this
      // server sent forward batches to at step -> step+1.
      uint32_t expected = 0;
      const auto& matrix = ts.sync_fwd_matrices[step];
      if (!matrix.empty()) {
        for (ServerId dst = 0; dst < cfg_.num_servers; dst++) {
          if (matrix[s][dst] > 0) expected++;
        }
      }
      start.batches_expected = expected;
    }
    rpc::Message m;
    m.type = rpc::MsgType::kSyncStepStart;
    m.src = cfg_.id;
    m.dst = s;
    m.payload = start.Encode();
    QueueSendLocked(std::move(m));
  }
}

const lang::PlanStats& BackendServer::PlanStatsLocked() {
  if (plan_stats_ready_) return plan_stats_;
  plan_stats_ready_ = true;
  // Statistics from this coordinator's local shard. Hash partitioning
  // spreads every type/label roughly evenly, so shard-local counts are a
  // representative sample for selectivity *ordering* — the only thing the
  // planner consumes. Maintenance-path scans: no device charges.
  store_->ScanAllVertices([&](const graph::VertexRecord& rec) {
    plan_stats_.total_vertices++;
    plan_stats_.vertices_per_type[rec.label]++;
    return true;
  }).ok();
  store_->ScanEverythingEdges([&](const graph::EdgeRecord& rec) {
    plan_stats_.total_edges++;
    plan_stats_.edges_per_label[rec.label]++;
    return true;
  }).ok();
  return plan_stats_;
}

}  // namespace gt::engine
