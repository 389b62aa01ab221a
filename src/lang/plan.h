// TraversalPlan: the compiled form of a GTravel query that travels between
// servers. A plan has a start step (explicit vertex ids, or a typed vertex
// scan) followed by hops; each hop names the edge type to follow, filters on
// those edges, filters on the destination vertices, and whether the step's
// working set is marked rtn().
//
// Step numbering matches the paper: step 0 is the start working set; step i
// (i >= 1) is the working set after following hops[i-1].
//
// Language extensions beyond the paper's v/e/va/ea/rtn surface ride in a
// versioned tail appended after the legacy encoding (absent tail = legacy
// defaults, truncated tail = error; see DESIGN.md "GTravel language &
// planner"):
//   - repeat(n)/until(filter): a hop may carry a repeat count (unrolled
//     server-side into ordinary hop cohorts by Unrolled()) and an until
//     filter set checked at each iteration boundary; matches are terminal
//     results.
//   - result modes: kVertices (legacy), kCount, kGroup (group_key), kPaths.
//   - branch: the working set forks across alternative hop chains after the
//     `hops` prefix and merges (union) before `branch_tail`; executed as
//     one flattened linear sub-plan per alternative (FlattenBranches()).
//   - planner hint: push_start_filters (apply start filters inside the
//     type-index scan); it never changes results, only how the engines
//     execute.
#pragma once

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/graph/encoding.h"
#include "src/lang/filter.h"

namespace gt::lang {

// What the completion protocol delivers to the client.
enum class ResultMode : uint8_t {
  kVertices = 0,  // sorted distinct vertex ids (legacy)
  kCount = 1,     // just |result set|
  kGroup = 2,     // result vertices grouped by the group_key property value
  kPaths = 3,     // full visited vertex chains (start..result)
};

// Hard caps enforced at decode time and by the builder: the plan codec is an
// untrusted surface, and repeat unrolling multiplies work server-side.
inline constexpr uint32_t kMaxRepeat = 64;
inline constexpr uint32_t kMaxExpandedSteps = 128;
inline constexpr uint32_t kMaxPathSteps = 8;
inline constexpr uint32_t kMaxBranchAlts = 8;

struct Hop {
  graph::LabelId edge_label = 0;
  std::vector<Filter> edge_filters;    // ea() on the traversed edges
  std::vector<Filter> vertex_filters;  // va() on the destination vertices
  bool rtn = false;

  // Extension fields (versioned codec tail; defaults = legacy semantics).
  // repeat > 1 executes this hop that many times in sequence; until_filters
  // (AND-composed) are checked after each iteration's vertex filters, and a
  // matching vertex becomes a terminal result instead of expanding further.
  uint32_t repeat = 1;
  std::vector<Filter> until_filters;

  bool has_ext() const { return repeat != 1 || !until_filters.empty(); }

  bool operator==(const Hop& o) const {
    return edge_label == o.edge_label && edge_filters == o.edge_filters &&
           vertex_filters == o.vertex_filters && rtn == o.rtn && repeat == o.repeat &&
           until_filters == o.until_filters;
  }
};

struct TraversalPlan {
  // Start working set: explicit ids, or (when empty) every vertex passing
  // start_vertex_filters — the validator requires a type EQ filter in that
  // case so the scan can use the type index.
  std::vector<graph::VertexId> start_ids;
  std::vector<Filter> start_vertex_filters;
  bool start_rtn = false;

  std::vector<Hop> hops;

  // --- extensions (versioned codec tail; defaults = legacy semantics) ---
  ResultMode result_mode = ResultMode::kVertices;
  graph::Catalog::Id group_key = 0;  // property key for ResultMode::kGroup

  // Planner hint: the scan-start applies every start vertex filter inside
  // the type-index scan, so only matching vertices become root execs.
  // Result-identical by construction.
  bool push_start_filters = false;

  // Branch/union step: when branch_alts is non-empty (>= 2 alternatives),
  // the chain is `hops` (prefix), then a fork across the alternatives, then
  // a union-merge, then `branch_tail`. Executed via FlattenBranches().
  std::vector<std::vector<Hop>> branch_alts;
  std::vector<Hop> branch_tail;

  // Number of traversal steps in the paper's sense (edge hops) of the
  // prefix chain. For branch plans the per-alternative totals come from
  // FlattenBranches(); for repeat hops see expanded_num_steps().
  size_t num_steps() const { return hops.size(); }

  bool has_branch() const { return !branch_alts.empty(); }

  // Steps after repeat expansion (prefix chain only; no branch).
  static size_t ExpandedSteps(const std::vector<Hop>& hs) {
    size_t n = 0;
    for (const auto& h : hs) n += h.repeat == 0 ? 1 : h.repeat;
    return n;
  }
  size_t expanded_num_steps() const { return ExpandedSteps(hops); }

  bool has_until() const {
    for (const auto& h : hops) {
      if (!h.until_filters.empty()) return true;
    }
    return false;
  }

  // True if any step is marked rtn(); otherwise the engines return the
  // final working set.
  bool has_rtn() const {
    if (start_rtn) return true;
    for (const auto& h : hops) {
      if (h.rtn) return true;
    }
    for (const auto& h : branch_tail) {
      if (h.rtn) return true;
    }
    return false;
  }

  // Index of the last rtn-marked step, or -1 when none (prefix chain only).
  int last_rtn_step() const {
    int last = start_rtn ? 0 : -1;
    for (size_t i = 0; i < hops.size(); i++) {
      if (hops[i].rtn) last = static_cast<int>(i) + 1;
    }
    return last;
  }

  // True when any extension field differs from its legacy default; the
  // codec appends the versioned tail exactly in this case, keeping legacy
  // plans byte-identical to the pre-extension encoding.
  bool has_ext() const;

  bool operator==(const TraversalPlan& o) const {
    return start_ids == o.start_ids && start_vertex_filters == o.start_vertex_filters &&
           start_rtn == o.start_rtn && hops == o.hops && result_mode == o.result_mode &&
           group_key == o.group_key && push_start_filters == o.push_start_filters &&
           branch_alts == o.branch_alts && branch_tail == o.branch_tail;
  }

  std::string Encode() const;
  static Result<TraversalPlan> Decode(std::string_view data);

  // Semantic validation beyond what Decode's structural checks enforce;
  // called by GTravel::Build() and again by the coordinator on every
  // wire-delivered plan (the decode surface is untrusted).
  Status Validate() const;

  // Expands repeat hops into ordinary linear hop cohorts so step
  // attribution and snapshot pinning work unchanged. REQUIRES: no branch.
  // rtn transfers to the last copy; until_filters are stamped on every copy
  // (the check applies at each iteration boundary). Fails when the expanded
  // chain exceeds kMaxExpandedSteps.
  Result<TraversalPlan> Unrolled() const;

  // Branch execution: one linear sub-plan per alternative
  // (prefix + alternative + tail), each preserving start, filters, result
  // mode and planner hints. Returns {*this} for non-branch plans. The union
  // of the sub-plans' results is exactly the branch semantics because hops
  // and filters distribute over union.
  std::vector<TraversalPlan> FlattenBranches() const;

 private:
  static void EncodeFilters(std::string* out, const std::vector<Filter>& filters);
  static Status DecodeFilters(CheckedReader* dec, std::vector<Filter>* out);
  static void EncodeHopExt(std::string* out, const Hop& h);
  static Status DecodeHopExt(CheckedReader* dec, Hop* h);
  Status DecodeExtTail(CheckedReader* dec);
};

}  // namespace gt::lang
