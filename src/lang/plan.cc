#include "src/lang/plan.h"

#include <algorithm>

namespace gt::lang {

namespace {

constexpr uint8_t kPlanExtVersion = 1;
constexpr uint8_t kExtFlagPushdown = 1u << 0;
// Bits 1+ are reserved and must be zero (canonical encoding).
constexpr uint8_t kExtKnownFlags = kExtFlagPushdown;

bool HopsHaveExt(const std::vector<Hop>& hs) {
  for (const auto& h : hs) {
    if (h.has_ext()) return true;
  }
  return false;
}

}  // namespace

bool TraversalPlan::has_ext() const {
  return result_mode != ResultMode::kVertices || group_key != 0 || push_start_filters ||
         !branch_alts.empty() || !branch_tail.empty() || HopsHaveExt(hops);
}

void TraversalPlan::EncodeFilters(std::string* out, const std::vector<Filter>& filters) {
  PutVarint32(out, static_cast<uint32_t>(filters.size()));
  for (const auto& f : filters) f.EncodeTo(out);
}

Status TraversalPlan::DecodeFilters(CheckedReader* dec, std::vector<Filter>* out) {
  uint32_t n = 0;
  // 3 = minimum encoded filter (key varint + op byte + count varint).
  if (!dec->GetCount(&n, 3)) return Status::Corruption("plan: filter count");
  out->resize(n);
  for (uint32_t i = 0; i < n; i++) {
    GT_RETURN_IF_ERROR(Filter::DecodeFrom(dec, &(*out)[i]));
  }
  return Status::OK();
}

// Full hop encoding used inside the extension tail (branch alternatives and
// the post-merge tail): the legacy hop fields followed by the extension
// fields, so alternatives can themselves carry repeat counts.
void TraversalPlan::EncodeHopExt(std::string* out, const Hop& h) {
  PutVarint32(out, h.edge_label);
  EncodeFilters(out, h.edge_filters);
  EncodeFilters(out, h.vertex_filters);
  out->push_back(h.rtn ? 1 : 0);
  PutVarint32(out, h.repeat);
  EncodeFilters(out, h.until_filters);
}

Status TraversalPlan::DecodeHopExt(CheckedReader* dec, Hop* h) {
  uint8_t flag = 0;
  if (!dec->GetVarint32(&h->edge_label)) return Status::Corruption("plan: ext hop label");
  GT_RETURN_IF_ERROR(DecodeFilters(dec, &h->edge_filters));
  GT_RETURN_IF_ERROR(DecodeFilters(dec, &h->vertex_filters));
  if (!dec->GetByte(&flag)) return Status::Corruption("plan: ext hop rtn");
  h->rtn = flag != 0;
  if (!dec->GetVarint32(&h->repeat)) return Status::Corruption("plan: ext hop repeat");
  if (h->repeat == 0 || h->repeat > kMaxRepeat) {
    return Status::Corruption("plan: ext hop repeat out of range");
  }
  GT_RETURN_IF_ERROR(DecodeFilters(dec, &h->until_filters));
  return Status::OK();
}

std::string TraversalPlan::Encode() const {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(start_ids.size()));
  for (auto vid : start_ids) PutVarint64(&out, vid);
  EncodeFilters(&out, start_vertex_filters);
  out.push_back(start_rtn ? 1 : 0);
  PutVarint32(&out, static_cast<uint32_t>(hops.size()));
  for (const auto& h : hops) {
    PutVarint32(&out, h.edge_label);
    EncodeFilters(&out, h.edge_filters);
    EncodeFilters(&out, h.vertex_filters);
    out.push_back(h.rtn ? 1 : 0);
  }

  // Versioned extension tail, present exactly when some extension field is
  // non-default (keeps legacy plans byte-identical, and makes the encoding
  // canonical: Decode rejects an all-default tail).
  if (!has_ext()) return out;
  out.push_back(static_cast<char>(kPlanExtVersion));
  out.push_back(static_cast<char>(result_mode));
  PutVarint32(&out, group_key);
  out.push_back(static_cast<char>(push_start_filters ? kExtFlagPushdown : 0));
  // Per-hop extensions, one entry per legacy hop (count re-stated so a
  // truncated tail cannot silently drop entries).
  PutVarint32(&out, static_cast<uint32_t>(hops.size()));
  for (const auto& h : hops) {
    PutVarint32(&out, h.repeat);
    EncodeFilters(&out, h.until_filters);
  }
  PutVarint32(&out, static_cast<uint32_t>(branch_alts.size()));
  if (!branch_alts.empty()) {
    for (const auto& alt : branch_alts) {
      PutVarint32(&out, static_cast<uint32_t>(alt.size()));
      for (const auto& h : alt) EncodeHopExt(&out, h);
    }
    PutVarint32(&out, static_cast<uint32_t>(branch_tail.size()));
    for (const auto& h : branch_tail) EncodeHopExt(&out, h);
  }
  return out;
}

Status TraversalPlan::DecodeExtTail(CheckedReader* dec) {
  uint8_t version = 0;
  if (!dec->GetByte(&version)) return Status::Corruption("plan: ext version");
  if (version != kPlanExtVersion) return Status::Corruption("plan: unknown ext version");
  uint8_t mode = 0;
  if (!dec->GetByte(&mode)) return Status::Corruption("plan: ext result mode");
  if (mode > static_cast<uint8_t>(ResultMode::kPaths)) {
    return Status::Corruption("plan: bad result mode");
  }
  result_mode = static_cast<ResultMode>(mode);
  if (!dec->GetVarint32(&group_key)) return Status::Corruption("plan: ext group key");
  uint8_t flags = 0;
  if (!dec->GetByte(&flags)) return Status::Corruption("plan: ext flags");
  if ((flags & ~kExtKnownFlags) != 0) return Status::Corruption("plan: unknown ext flags");
  push_start_filters = (flags & kExtFlagPushdown) != 0;

  uint32_t n = 0;
  // 2 = minimum per-hop extension (repeat varint + empty until list).
  if (!dec->GetCount(&n, 2)) return Status::Corruption("plan: ext hop count");
  if (n != hops.size()) return Status::Corruption("plan: ext hop count mismatch");
  for (auto& h : hops) {
    if (!dec->GetVarint32(&h.repeat)) return Status::Corruption("plan: hop repeat");
    if (h.repeat == 0 || h.repeat > kMaxRepeat) {
      return Status::Corruption("plan: hop repeat out of range");
    }
    GT_RETURN_IF_ERROR(DecodeFilters(dec, &h.until_filters));
  }
  if (ExpandedSteps(hops) > kMaxExpandedSteps) {
    return Status::Corruption("plan: expanded step cap exceeded");
  }

  uint32_t n_alts = 0;
  // 7 = minimum encoded alternative (count + one minimal ext hop).
  if (!dec->GetCount(&n_alts, 7)) return Status::Corruption("plan: branch count");
  if (n_alts != 0) {
    if (n_alts < 2 || n_alts > kMaxBranchAlts) {
      return Status::Corruption("plan: branch alternative count out of range");
    }
    branch_alts.resize(n_alts);
    for (auto& alt : branch_alts) {
      uint32_t n_hops = 0;
      // 6 = minimum encoded ext hop (label + 3 empty filter lists + rtn + repeat).
      if (!dec->GetCount(&n_hops, 6)) return Status::Corruption("plan: alt hop count");
      if (n_hops == 0) return Status::Corruption("plan: empty branch alternative");
      alt.resize(n_hops);
      for (auto& h : alt) GT_RETURN_IF_ERROR(DecodeHopExt(dec, &h));
    }
    uint32_t n_tail = 0;
    if (!dec->GetCount(&n_tail, 6)) return Status::Corruption("plan: branch tail count");
    branch_tail.resize(n_tail);
    for (auto& h : branch_tail) GT_RETURN_IF_ERROR(DecodeHopExt(dec, &h));
    for (const auto& alt : branch_alts) {
      if (ExpandedSteps(hops) + ExpandedSteps(alt) + ExpandedSteps(branch_tail) >
          kMaxExpandedSteps) {
        return Status::Corruption("plan: branch expanded step cap exceeded");
      }
    }
  }
  return Status::OK();
}

Result<TraversalPlan> TraversalPlan::Decode(std::string_view data) {
  TraversalPlan plan;
  CheckedReader dec(data);
  uint32_t n = 0;
  if (!dec.GetCount(&n)) return Status::Corruption("plan: start ids");
  plan.start_ids.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    uint64_t vid;
    if (!dec.GetVarint64(&vid)) return Status::Corruption("plan: start id");
    plan.start_ids.push_back(vid);
  }
  GT_RETURN_IF_ERROR(DecodeFilters(&dec, &plan.start_vertex_filters));
  uint8_t flag = 0;
  if (!dec.GetByte(&flag)) return Status::Corruption("plan: start rtn");
  plan.start_rtn = flag != 0;

  uint32_t hops = 0;
  // 4 = minimum encoded hop: label varint + two empty filter lists + rtn.
  if (!dec.GetCount(&hops, 4)) return Status::Corruption("plan: hop count");
  plan.hops.resize(hops);
  for (uint32_t i = 0; i < hops; i++) {
    Hop& h = plan.hops[i];
    if (!dec.GetVarint32(&h.edge_label)) return Status::Corruption("plan: hop label");
    GT_RETURN_IF_ERROR(DecodeFilters(&dec, &h.edge_filters));
    GT_RETURN_IF_ERROR(DecodeFilters(&dec, &h.vertex_filters));
    if (!dec.GetByte(&flag)) return Status::Corruption("plan: hop rtn");
    h.rtn = flag != 0;
  }

  // Absent tail = legacy plan; present tail = full extension decode. A tail
  // whose fields are all defaults is rejected so the encoding stays
  // canonical (Encode omits the tail in that case).
  if (!dec.empty()) {
    GT_RETURN_IF_ERROR(plan.DecodeExtTail(&dec));
    if (!plan.has_ext()) return Status::Corruption("plan: redundant ext tail");
  }
  if (!dec.empty()) return Status::Corruption("plan: trailing bytes");
  return plan;
}

Status TraversalPlan::Validate() const {
  if (hops.empty() && start_ids.empty() && !has_branch()) {
    return Status::InvalidArgument("traversal needs at least one hop or explicit start ids");
  }
  // group_key 0 is a legitimate catalog id (the first interned name), so a
  // missing key cannot be detected here; GTravel::group() rejects empty key
  // names at build time instead. The inverse direction stays checkable: a
  // nonzero key on a non-group plan is always a composition error.
  if (result_mode != ResultMode::kGroup && group_key != 0) {
    return Status::InvalidArgument("group key without group result mode");
  }
  if (!branch_alts.empty() &&
      (branch_alts.size() < 2 || branch_alts.size() > kMaxBranchAlts)) {
    return Status::InvalidArgument("branch() needs 2..8 alternatives");
  }
  if (branch_alts.empty() && !branch_tail.empty()) {
    return Status::InvalidArgument("branch tail without branch alternatives");
  }

  // until: only on the final hop of the whole chain, and the plan must use
  // the direct result protocol (no rtn) so matches can complete as terminal
  // results. Branches fork the tail, so until cannot compose with branch.
  bool any_until = false;
  for (size_t i = 0; i < hops.size(); i++) {
    if (hops[i].until_filters.empty()) continue;
    any_until = true;
    if (has_branch() || i + 1 != hops.size()) {
      return Status::InvalidArgument("until() must terminate the chain");
    }
  }
  for (const auto& alt : branch_alts) {
    if (alt.empty()) return Status::InvalidArgument("empty branch alternative");
    for (const auto& h : alt) {
      if (h.rtn) return Status::InvalidArgument("rtn() inside a branch alternative");
      if (!h.until_filters.empty()) {
        return Status::InvalidArgument("until() inside a branch alternative");
      }
    }
  }
  for (const auto& h : branch_tail) {
    if (!h.until_filters.empty()) {
      return Status::InvalidArgument("until() after a branch merge");
    }
  }
  if (any_until && has_rtn()) {
    return Status::InvalidArgument("until() cannot compose with rtn()");
  }
  if (any_until && result_mode == ResultMode::kPaths) {
    return Status::InvalidArgument("path() cannot compose with until()");
  }

  if (result_mode == ResultMode::kPaths || result_mode == ResultMode::kGroup) {
    if (has_rtn()) {
      return Status::InvalidArgument("path()/group() cannot compose with rtn()");
    }
  }

  // Step caps (per flattened linear sub-plan).
  size_t max_alt = 0;
  for (const auto& alt : branch_alts) max_alt = std::max(max_alt, ExpandedSteps(alt));
  const size_t total = ExpandedSteps(hops) + max_alt + ExpandedSteps(branch_tail);
  if (total > kMaxExpandedSteps) {
    return Status::InvalidArgument("plan exceeds the expanded step cap");
  }
  if (result_mode == ResultMode::kPaths && total > kMaxPathSteps) {
    return Status::InvalidArgument("path() plans are capped at 8 steps");
  }
  for (const auto& h : hops) {
    if (h.repeat == 0 || h.repeat > kMaxRepeat) {
      return Status::InvalidArgument("repeat() out of range");
    }
  }
  for (const auto& alt : branch_alts) {
    for (const auto& h : alt) {
      if (h.repeat == 0 || h.repeat > kMaxRepeat) {
        return Status::InvalidArgument("repeat() out of range");
      }
    }
  }
  for (const auto& h : branch_tail) {
    if (h.repeat == 0 || h.repeat > kMaxRepeat) {
      return Status::InvalidArgument("repeat() out of range");
    }
  }
  return Status::OK();
}

Result<TraversalPlan> TraversalPlan::Unrolled() const {
  if (has_branch()) {
    return Status::InvalidArgument("cannot unroll a branch plan; flatten first");
  }
  if (expanded_num_steps() > kMaxExpandedSteps) {
    return Status::InvalidArgument("plan exceeds the expanded step cap");
  }
  TraversalPlan out = *this;
  out.hops.clear();
  out.hops.reserve(expanded_num_steps());
  for (const auto& h : hops) {
    const uint32_t r = h.repeat == 0 ? 1 : h.repeat;
    for (uint32_t i = 0; i < r; i++) {
      Hop copy = h;
      copy.repeat = 1;
      // rtn marks the working set after the whole repeat block.
      copy.rtn = h.rtn && i + 1 == r;
      out.hops.push_back(std::move(copy));
    }
  }
  return out;
}

std::vector<TraversalPlan> TraversalPlan::FlattenBranches() const {
  if (!has_branch()) return {*this};
  std::vector<TraversalPlan> out;
  out.reserve(branch_alts.size());
  for (const auto& alt : branch_alts) {
    TraversalPlan sub = *this;
    sub.branch_alts.clear();
    sub.branch_tail.clear();
    sub.hops = hops;
    sub.hops.insert(sub.hops.end(), alt.begin(), alt.end());
    sub.hops.insert(sub.hops.end(), branch_tail.begin(), branch_tail.end());
    out.push_back(std::move(sub));
  }
  return out;
}

}  // namespace gt::lang
