// BackendServer: one GraphTrek traversal-engine daemon. Each backend server
// owns a GraphStore (its shard of the property graph), a request queue
// drained by worker threads, a traversal-affiliate cache, and — for
// traversals it coordinates — the status-tracing registry and client-facing
// result stream.
//
// One class implements all three engines under evaluation; the mode travels
// with each traversal:
//   Sync-GT    - coordinator-driven level-synchronous steps (Section VI)
//   Async-GT   - plain asynchronous: every arrival pays its own I/O, FIFO
//                scheduling, no merging
//   GraphTrek  - asynchronous + traversal-affiliate cache absorption +
//                smallest-step-first scheduling + execution merging
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/sync.h"
#include "src/common/thread_annotations.h"
#include "src/common/thread_pool.h"
#include "src/engine/request_queue.h"
#include "src/engine/travel_cache.h"
#include "src/engine/travel_trace.h"
#include "src/engine/types.h"
#include "src/engine/visit_stats.h"
#include "src/graph/graph_store.h"
#include "src/graph/partitioner.h"
#include "src/lang/gtravel.h"
#include "src/lang/planner.h"
#include "src/rpc/transport.h"

namespace gt::engine {

struct ServerConfig {
  ServerId id = 0;
  uint32_t num_servers = 1;
  uint32_t workers = 2;               // worker threads (parallel I/O depth)
  size_t cache_capacity = 1 << 20;    // traversal-affiliate cache entries
  uint32_t exec_timeout_ms = 15000;   // coordinator failure-detection window
  uint32_t result_chunk = 4096;       // vids per kResultChunk message
  // Maintenance tick period: trace-buffer flush cadence and the resolution
  // of failure detection / deadline enforcement. The 5 ms default drives
  // small-travel completion latency; raise it for TSan/soak runs.
  uint32_t maintenance_interval_ms = 5;

  // Admission control (coordinator role). A submit is rejected with
  // Unavailable when the total in-flight table is full or the submitting
  // priority class is at its limit. 0 = unlimited.
  uint32_t max_inflight_travels = 4096;
  std::array<uint32_t, kNumTravelClasses> admission_limits{{64, 512, 2048}};

  // Ablation knobs for the GraphTrek mode (both on in the full system).
  bool graphtrek_merging = true;        // execution merging (Section V-B)
  bool graphtrek_priority_sched = true; // smallest-step-first scheduling

  // Per-travel snapshot isolation. When on, every travel pins a KV read
  // snapshot on each participating server at admission (coordinator) or on
  // first contact (kPinTravel broadcast / lazy first-touch, whichever lands
  // first), and every traversal read on that server is bounded to the
  // pinned view — travels racing live mutations see a consistent
  // point-in-time graph instead of a torn mix of old and new state. Off
  // reproduces the historical read-latest behaviour (torn-read control for
  // tests/benches).
  bool snapshot_isolation = true;
  // Test hook: keep each travel's released snapshot in a side map instead
  // of dropping it at cleanup, so the differential harness can dump the
  // exact pinned view a finished travel saw (Cluster::DumpAtTravelPin).
  // Callers must drain via DropRetainedSnapshotsForTest.
  bool retain_snapshots_for_test = false;

  // Statistics-driven planner (coordinator role): rewrite each submitted
  // plan (selectivity-ordered filter lists, start-filter pushdown) against
  // statistics collected once from the local shard. Every rewrite is
  // result-identical by construction; the differential harness asserts
  // planner-on == planner-off on randomized plans.
  bool planner = false;
};

class BackendServer {
 public:
  BackendServer(ServerConfig cfg, graph::GraphStore* store,
                const graph::Partitioner* partitioner, graph::Catalog* catalog,
                rpc::Transport* transport);
  ~BackendServer();

  BackendServer(const BackendServer&) = delete;
  BackendServer& operator=(const BackendServer&) = delete;

  // Registers the endpoint and starts worker + maintenance threads.
  Status Start();
  void Stop();

  ServerId id() const { return cfg_.id; }
  const VisitStats& visit_stats() const { return visit_stats_; }
  void ResetVisitStats() { visit_stats_.Reset(); }
  size_t queue_depth() const { return queue_.size(); }
  size_t cache_size() const;
  uint64_t cache_evictions() const;
  graph::GraphStore* store() { return store_; }
  // Transport sends that failed (peer unreachable after retries). The engine
  // tolerates loss — status tracing restarts lost work — but the count feeds
  // the ops stats line.
  uint64_t send_failures() const { return send_failures_.load(); }

  // Recently completed travels this server coordinated (oldest first,
  // bounded archive), with per-step execution spans.
  std::vector<TravelTrace> RecentTraces() const GT_EXCLUDES(mu_);
  // Renders the archived trace for `travel` (0 = most recent) as Chrome
  // trace-event JSON. False when the travel is not in the archive.
  bool ExportTraceJson(TravelId travel, std::string* json) const GT_EXCLUDES(mu_);

  // True while any per-travel engine state (plan, execs, coordinator entry,
  // sync-local, memo/access/type-scan maps, pinned snapshot) survives for
  // `travel`. The cancellation contract is that an abort reclaims
  // everything; tests poll this on every server after cancelling.
  bool HasTravelResidue(TravelId travel) const GT_EXCLUDES(mu_);

  // The snapshot `travel` is pinned to on this server: the live pin while
  // the travel runs, or the retained copy after cleanup when
  // cfg.retain_snapshots_for_test is set. Null when never pinned.
  std::shared_ptr<const graph::GraphStore::ReadSnapshot> TravelSnapshotForTest(
      TravelId travel) const GT_EXCLUDES(mu_);
  // Drains the test-retention side map (releases the underlying KV
  // snapshots once the last outside reference drops).
  void DropRetainedSnapshotsForTest() GT_EXCLUDES(mu_);

 private:
  // --- shared traversal bookkeeping ---------------------------------------

  struct CompiledPlan {
    // The executable plan: repeat hops expanded into linear cohorts
    // (TraversalPlan::Unrolled), never carrying a branch — the coordinator
    // flattens branches into per-alternative child travels before any
    // engine sees them. plan_bytes stays the compact wire form so hand-offs
    // forward what arrived.
    lang::TraversalPlan plan;
    std::string plan_bytes;  // serialized (compact) form forwarded on hand-offs
    EngineMode mode = EngineMode::kGraphTrek;
    ServerId coordinator = 0;
    graph::Catalog::Id type_key = graph::Catalog::kInvalidId;
    // True when an rtn() marks a non-final step: results must then be
    // attributed per vertex through the execution-tree answer flow (the
    // generalized Fig. 4 relay). Plans without intermediate rtn() take the
    // paper's direct protocol: final vertices return straight to the
    // coordinator and completion is detected purely by status tracing.
    bool attribution = false;
    // Exec ids already delivered for this travel (guarded by the server
    // mu_, like the plans_ map itself). Hand-off frames are absorbed
    // first-delivery-wins: a re-delivered frame replayed against live exec
    // state corrupts the unresolved/children accounting, and replayed
    // against an already-erased exec it re-answers the parent and lets the
    // travel complete without its siblings' results.
    std::unordered_set<ExecId> seen_execs;
  };

  // Asynchronous-engine execution state (one per kTraverse request).
  struct ExecState {
    TravelId travel = 0;
    ExecId id = 0;
    uint32_t step = 0;
    ServerId parent_server = 0;
    ExecId parent_exec = 0;

    // Per distinct vertex: previous-step parents (for the answer upward).
    std::unordered_map<graph::VertexId, std::vector<graph::VertexId>> entry_parents;
    // Vertices this execution owns (it performs their I/O + expansion).
    std::unordered_set<graph::VertexId> owned;
    // Vertices not yet resolved to reach/no-reach.
    size_t unresolved = 0;
    // Owner tasks not yet processed by a worker.
    size_t owned_unprocessed = 0;
    // Owner vertices whose reach awaits child answers.
    std::unordered_set<graph::VertexId> awaiting_children;
    // Vertices with a decided reach value / the subset decided true.
    std::unordered_set<graph::VertexId> resolved;
    std::unordered_set<graph::VertexId> reached;

    // Outbound expansion accumulated while owner tasks process:
    // target server -> dst -> parents.
    std::unordered_map<ServerId,
                       std::unordered_map<graph::VertexId, std::vector<graph::VertexId>>>
        out_targets;
    bool dispatched = false;
    uint32_t children_outstanding = 0;

    std::vector<graph::VertexId> results;  // rtn/final hits + child pass-through
    // kGroup: rendered group value per results entry (parallel vector),
    // captured at processing time while the vertex record is in hand.
    std::vector<std::string> result_values;
    // kPaths: completed visited chains discovered by this execution.
    std::vector<std::vector<graph::VertexId>> result_paths;
    // kPaths: distinct path prefixes per entry vertex (the same vertex can
    // be reached along several chains; each expands independently).
    std::unordered_map<graph::VertexId, std::vector<std::vector<graph::VertexId>>>
        path_prefixes;
    // kPaths outbound expansion: one frontier entry per (prefix, edge) —
    // out_targets' dst->parents merging would garble distinct prefixes.
    std::unordered_map<ServerId, std::vector<FrontierEntry>> out_path_entries;
    bool answered = false;
  };

  // Coordinator-side per-traversal state (status tracing, Section IV-C).
  struct TravelState {
    TravelId id = 0;
    EngineMode mode = EngineMode::kGraphTrek;
    rpc::EndpointId client = 0;
    std::string plan_bytes;
    lang::TraversalPlan plan;
    uint64_t started_us = 0;
    uint64_t last_activity_us = 0;
    uint32_t timeout_ms = 0;
    TravelClass cls = TravelClass::kNormal;
    uint64_t deadline_us = 0;  // absolute wall deadline; 0 = none
    bool done = false;

    // Execution registry: created/terminated tracing events.
    struct ExecTrace {
      uint32_t step = 0;
      bool created = false;
      bool terminated = false;
    };
    std::unordered_map<ExecId, ExecTrace> execs;
    uint64_t total_created = 0;
    uint64_t total_terminated = 0;
    std::vector<uint32_t> unfinished_per_step;

    // Async: outstanding root executions (attribution path only); results
    // accumulate here.
    uint32_t root_outstanding = 0;
    bool attribution = false;
    bool roots_dispatched = false;
    uint64_t incomplete_execs = 0;  // trace entries missing created/terminated
    std::unordered_set<graph::VertexId> results;

    // Result-mode accumulation (rendered to the client only at completion).
    lang::ResultMode result_mode = lang::ResultMode::kVertices;
    graph::Catalog::Id group_key = 0;
    std::unordered_map<graph::VertexId, std::string> result_values;  // kGroup
    std::set<std::vector<graph::VertexId>> result_paths;             // kPaths

    // Branch fan-out (coordinator-side): a branch plan becomes one parent
    // travel plus one internal child travel per flattened alternative, all
    // coordinated on this server so parent/child folding happens under one
    // mu_. Children skip admission and client streaming; their RAW result
    // structures merge into the parent at completion, and rendering happens
    // only when the parent completes.
    TravelId parent_travel = 0;      // nonzero = internal branch child
    bool internal = false;           // true for branch children
    uint32_t pending_children = 0;   // parent: children not yet folded
    std::vector<TravelId> children;  // parent: abort/deadline cascade list

    // Per-step span accumulation for the archived TravelTrace (async modes
    // feed this from trace items, the sync engine from its step barriers).
    std::vector<TravelTrace::StepSpan> step_spans;

    // Sync engine control state.
    uint32_t sync_step = 0;
    uint8_t sync_phase = 0;  // 0 fwd, 1 back
    uint32_t sync_pending_done = 0;
    std::vector<std::vector<uint32_t>> sync_batch_matrix;  // [src][dst] forward counts
    std::vector<std::vector<std::vector<uint32_t>>> sync_fwd_matrices;  // per step
  };

  // Per-server synchronous-engine state for one traversal.
  struct SyncLocal {
    CompiledPlan cplan;
    ServerId coordinator = 0;
    // inbox[step][sender] = entries received.
    std::unordered_map<uint32_t, std::unordered_map<ServerId, std::vector<FrontierEntry>>>
        inbox;
    std::unordered_map<uint32_t, uint32_t> batches_received;
    // Expected batch counts per step, set by kSyncStepStart (forward) and
    // by the backward-round kick-off; UINT32_MAX = not yet announced.
    std::unordered_map<uint32_t, uint32_t> batches_expected;
    bool plan_ready = false;
    uint8_t scan_start = 0;
    bool processing = false;  // a forward step is in flight
    std::unordered_set<uint32_t> steps_processed;  // forward steps already run
    // Forward history for the backward (rtn) phase.
    std::unordered_map<uint32_t, std::unordered_set<graph::VertexId>> passed;
    std::unordered_map<
        uint32_t,
        std::unordered_map<ServerId,
                           std::unordered_map<graph::VertexId, std::vector<graph::VertexId>>>>
        expansion;  // [step][target server][dst] = parents
    // Step being processed.
    uint32_t step = 0;
    size_t pending_tasks = 0;
    std::unordered_map<graph::VertexId, std::vector<graph::VertexId>> current_frontier;
    std::unordered_set<graph::VertexId> current_passed;
    // until() hits collected during this forward step (terminal results; they
    // ride the step-done report's result_vids). step_result_values is the
    // parallel kGroup value vector.
    std::vector<graph::VertexId> step_results;
    std::vector<std::string> step_result_values;
    // kGroup: rendered value per final-step passing vertex, captured while
    // the record is in hand during ProcessSyncTask.
    std::unordered_map<graph::VertexId, std::string> value_by_vid;
    // kPaths: distinct visited-chain prefixes per current-frontier vertex,
    // and the per-(prefix, edge) outbound expansion (dst->parents merging in
    // `expansion` would garble distinct prefixes).
    std::unordered_map<graph::VertexId, std::vector<std::vector<graph::VertexId>>>
        current_paths;
    std::unordered_map<uint32_t, std::unordered_map<ServerId, std::vector<FrontierEntry>>>
        path_expansion;
    // Backward phase.
    std::unordered_map<uint32_t, std::unordered_set<graph::VertexId>> alive;
    std::unordered_map<uint32_t, uint32_t> back_batches_received;
  };

  // --- message handling -----------------------------------------------------

  void OnMessage(rpc::Message&& msg);
  void HandleSubmit(rpc::Message&& msg);
  void HandleTraverse(rpc::Message&& msg);
  void HandleAnswer(rpc::Message&& msg);
  void HandleExecEvent(rpc::Message&& msg, bool created);
  void HandleProgress(rpc::Message&& msg);
  void HandleAbort(rpc::Message&& msg);
  void HandlePinTravel(rpc::Message&& msg);

  void HandleMutation(rpc::Message&& msg);
  void HandleCatalog(rpc::Message&& msg);

  void HandleSyncStepStart(rpc::Message&& msg);
  void HandleSyncBatch(rpc::Message&& msg);
  void HandleSyncStepDone(rpc::Message&& msg);

  // --- async engine ----------------------------------------------------------

  void WorkerLoop();
  // Runs one merge group: every task shares {travel, vertex}, so one vertex
  // read and at most one edge scan serve them all.
  void ProcessBatch(const std::vector<VertexTask>& batch);
  void ProcessSyncTask(const VertexTask& task);

  // All Locked methods require mu_.
  void ResolveVertexLocked(ExecState& exec, graph::VertexId vid, bool reach, bool from_owner)
      GT_REQUIRES(mu_);
  void DispatchLocked(ExecState& exec, const CompiledPlan& cplan) GT_REQUIRES(mu_);
  void TryAnswerLocked(ExecState& exec) GT_REQUIRES(mu_);
  void EraseExecLocked(ExecId id) GT_REQUIRES(mu_);
  void StartRootExecsLocked(TravelState& ts) GT_REQUIRES(mu_);
  // Launches an admitted travel: seeds the sync step matrix + step-start
  // broadcast (kSync) or the root executions (async modes). Factored out of
  // HandleSubmit so branch children launch through the same path.
  void StartTravelLocked(TravelState& ts) GT_REQUIRES(mu_);
  // Lazily collects planner statistics from the local shard (once per
  // server; guarded by plan_stats_ready_). Maintenance-path scans only — no
  // device charges.
  const lang::PlanStats& PlanStatsLocked() GT_REQUIRES(mu_);
  void CompleteTravelLocked(TravelState& ts, Status status) GT_REQUIRES(mu_);
  // Folds one execution lifecycle event into the travel's step spans.
  void RecordStepEventLocked(TravelState& ts, uint32_t step, bool created)
      GT_REQUIRES(mu_);
  // Archives the finished travel into recent_traces_ and observes its wall
  // time in the per-mode duration histogram.
  void ArchiveTravelLocked(const TravelState& ts, bool ok, uint64_t now_us)
      GT_REQUIRES(mu_);
  void SendTraceEventLocked(ServerId coordinator, TravelId travel, uint32_t step,
                            std::vector<ExecId> ids, bool created) GT_REQUIRES(mu_);
  void SendDispatchEventLocked(ServerId coordinator, TravelId travel, uint32_t child_step,
                               std::vector<ExecId> children, ExecId term_exec,
                               uint32_t term_step) GT_REQUIRES(mu_);
  void FlushTraceBufferLocked(ServerId coordinator, TravelId travel) GT_REQUIRES(mu_);
  void FlushAllTraceBuffersLocked() GT_REQUIRES(mu_);
  void ApplyTraceItemLocked(TravelState& ts, const TraceItem& item) GT_REQUIRES(mu_);

  // --- sync engine ------------------------------------------------------------

  void SyncMaybeProcessStepLocked(TravelId travel) GT_REQUIRES(mu_);
  void SyncFinishForwardStepLocked(TravelId travel, SyncLocal& sl) GT_REQUIRES(mu_);
  void SyncProcessBackwardLocked(TravelId travel, SyncLocal& sl, uint32_t step)
      GT_REQUIRES(mu_);
  void SyncCoordinatorStepDoneLocked(TravelState& ts, const SyncStepPayload& done,
                                     ServerId src) GT_REQUIRES(mu_);
  void SyncStartStepLocked(TravelState& ts, uint32_t step, uint8_t phase) GT_REQUIRES(mu_);

  // --- maintenance ------------------------------------------------------------

  void MaintenanceLoop();

  // Fire-and-forget send: delivery failures are logged and counted, never
  // propagated — the engine's status tracer owns end-to-end recovery.
  void SendLossy(rpc::Message msg);

  // Sends staged while mu_ is held: QueueSendLocked appends to outbox_, and
  // every path that may have queued (message handlers, worker batches, the
  // maintenance tick) calls DrainOutbox after releasing mu_. Keeps the
  // transport — whose delivery work is unbounded from our perspective —
  // out of the engine's critical section. Messages leave in staging order:
  // drain_mu_ is held across the swap and the sends, so a later drain on
  // another thread cannot overtake an earlier one (a direct-protocol
  // kReturnVertices staged before its termination trace item must reach
  // the coordinator first, or the travel completes without those results).
  void QueueSendLocked(rpc::Message msg) GT_REQUIRES(mu_);
  void DrainOutbox() GT_EXCLUDES(drain_mu_, mu_);

  // Pins this server's current store view for `travel` (no-op when
  // snapshot isolation is off or the travel is already pinned); returns the
  // pin. Handlers that materialize travel state call this so every later
  // store read the travel performs here is bounded to one view, even when
  // the kPinTravel broadcast was reordered behind the first kTraverse /
  // sync frame (fault-injected transports).
  std::shared_ptr<const graph::GraphStore::ReadSnapshot> PinTravelSnapLocked(
      TravelId travel) GT_REQUIRES(mu_);
  // The travel's pin on this server, or null (isolation off / never pinned).
  std::shared_ptr<const graph::GraphStore::ReadSnapshot> TravelSnapLocked(
      TravelId travel) const GT_REQUIRES(mu_);

  bool VertexPassesLocked(const CompiledPlan& cplan, const graph::VertexRecord& rec,
                          uint32_t step) const GT_REQUIRES(mu_);
  const std::vector<lang::Filter>& StepVertexFilters(const lang::TraversalPlan& plan,
                                                     uint32_t step) const;

  ServerConfig cfg_;
  graph::GraphStore* store_;
  const graph::Partitioner* partitioner_;
  graph::Catalog* catalog_;
  rpc::Transport* transport_;

  VisitStats visit_stats_;
  RequestQueue queue_;

  // Lock order: drain_mu_ before mu_ (DrainOutbox only).
  Mutex drain_mu_ GT_ACQUIRED_BEFORE(mu_);
  mutable Mutex mu_;
  std::unordered_map<TravelId, std::shared_ptr<CompiledPlan>> plans_ GT_GUARDED_BY(mu_);
  std::unordered_map<ExecId, std::unique_ptr<ExecState>> execs_ GT_GUARDED_BY(mu_);
  std::unordered_map<TravelId, TravelState> travels_ GT_GUARDED_BY(mu_);  // coordinated here
  std::unordered_map<TravelId, SyncLocal> sync_locals_ GT_GUARDED_BY(mu_);
  TravelCache cache_ GT_GUARDED_BY(mu_);
  // Vertices already accessed per travel on this server: later accesses hit
  // the storage engine's block cache and charge the warm device cost.
  std::unordered_map<TravelId, std::unordered_set<graph::VertexId>> accessed_ GT_GUARDED_BY(mu_);
  // Type-index labels already scanned per travel on this server: a travel
  // re-scanning the same index (scan-start re-delivery, sync backward
  // phase) charges the warm device cost, mirroring accessed_ above.
  std::unordered_map<TravelId, std::unordered_set<graph::LabelId>> scanned_types_
      GT_GUARDED_BY(mu_);
  // Outbound tracing events, batched per (coordinator, travel) and flushed
  // by size or by the maintenance tick.
  std::map<std::pair<ServerId, TravelId>, std::vector<TraceItem>> trace_buffer_
      GT_GUARDED_BY(mu_);
  // Per-travel pinned store snapshot (snapshot_isolation). Workers copy the
  // shared_ptr under mu_ and read through it lock-free; the custom deleter
  // hands the pin back to the GraphStore when the last holder drops it, so
  // an abort erasing the map entry mid-batch never yanks the view out from
  // under a worker. Erased in HandleAbort (every completion path broadcasts
  // an abort/cleanup), which also bounds the map to live travels.
  std::unordered_map<TravelId, std::shared_ptr<const graph::GraphStore::ReadSnapshot>>
      travel_snaps_ GT_GUARDED_BY(mu_);
  // Test-only retention (cfg_.retain_snapshots_for_test): snapshots moved
  // here at cleanup instead of released, drained by
  // DropRetainedSnapshotsForTest. Deliberately NOT counted as travel
  // residue — retention is an explicit harness choice, not a leak.
  std::unordered_map<TravelId, std::shared_ptr<const graph::GraphStore::ReadSnapshot>>
      retained_snaps_ GT_GUARDED_BY(mu_);
  std::unordered_set<TravelId> aborted_travels_ GT_GUARDED_BY(mu_);  // late-message tombstones
  std::deque<TravelId> aborted_order_ GT_GUARDED_BY(mu_);  // bounds the tombstone set
  uint64_t next_exec_seq_ GT_GUARDED_BY(mu_) = 1;
  uint64_t next_travel_seq_ GT_GUARDED_BY(mu_) = 1;
  // Planner statistics, built once from this shard on first planner-enabled
  // submit (under hash partitioning the local shard is a representative
  // sample of global selectivities; rewrites only need relative order).
  bool plan_stats_ready_ GT_GUARDED_BY(mu_) = false;
  lang::PlanStats plan_stats_ GT_GUARDED_BY(mu_);
  // Live coordinated travels per priority class (admission accounting;
  // incremented on admit, decremented in CompleteTravelLocked).
  std::array<uint32_t, kNumTravelClasses> inflight_per_class_ GT_GUARDED_BY(mu_) = {{0, 0, 0}};
  // Sends staged under mu_, flushed by DrainOutbox once the lock drops.
  std::vector<rpc::Message> outbox_ GT_GUARDED_BY(mu_);
  // Completed-travel archive for trace export (bounded; oldest dropped).
  std::deque<TravelTrace> recent_traces_ GT_GUARDED_BY(mu_);

  // Registry handles, fetched once at construction (hot paths only touch
  // the atomics inside). Indexed by EngineMode for the duration histogram.
  metrics::Histogram* travel_duration_ms_[3] = {nullptr, nullptr, nullptr};
  metrics::Counter* travels_ok_ = nullptr;
  metrics::Counter* travels_failed_ = nullptr;
  // Lifecycle counters (coordinator role), per priority class where the
  // class is known at the event.
  metrics::Counter* travel_admitted_[kNumTravelClasses] = {nullptr, nullptr, nullptr};
  metrics::Counter* travel_rejected_[kNumTravelClasses] = {nullptr, nullptr, nullptr};
  metrics::Counter* travel_cancelled_ = nullptr;
  metrics::Counter* travel_deadline_exceeded_ = nullptr;
  metrics::Counter* travel_snapshots_pinned_ = nullptr;
  // Referential-integrity accounting on the kPutEdge ingest path.
  metrics::Counter* dangling_edges_rejected_ = nullptr;
  metrics::Counter* edge_dst_unverified_ = nullptr;
  metrics::CollectorId metrics_collector_ = 0;  // live between Start and Stop

  // Workers plus the maintenance tick run on this pool (cfg_.workers + 1
  // threads) so the engine owns no raw std::thread lifecycles.
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<uint64_t> send_failures_{0};
  std::atomic<bool> stop_{false};
  bool started_ = false;  // Start/Stop are external-control-thread only

  // Maintenance tick interrupt: Stop signals maint_cv_ so the loop exits
  // immediately instead of finishing a full sleep interval.
  Mutex maint_mu_;
  CondVar maint_cv_;
  bool maint_stop_ GT_GUARDED_BY(maint_mu_) = false;
};

}  // namespace gt::engine
