#include "src/lang/planner.h"

#include <algorithm>

namespace gt::lang {

namespace {

// Per-op selectivity priors, used when the statistics cannot say anything
// sharper (non-type keys have no per-value histograms yet). The absolute
// values matter less than the ordering: EQ < IN < RANGE, and a type-EQ
// filter gets its true per-type fraction.
constexpr double kEqPrior = 0.05;
constexpr double kRangePrior = 0.35;

}  // namespace

PlanStats CollectPlanStats(const graph::RefGraph& graph, const graph::Catalog& catalog) {
  PlanStats stats;
  for (const auto& [vid, rec] : graph.vertices()) {
    (void)vid;
    stats.total_vertices++;
    stats.vertices_per_type[rec.label]++;
  }
  stats.total_edges = graph.num_edges();
  const auto num_labels = static_cast<graph::LabelId>(catalog.size());
  for (const auto& [vid, rec] : graph.vertices()) {
    (void)rec;
    for (graph::LabelId label = 0; label < num_labels; label++) {
      const size_t n = graph.Edges(vid, label).size();
      if (n != 0) stats.edges_per_label[label] += n;
    }
  }
  return stats;
}

double EstimateSelectivity(const Filter& f, const PlanStats& stats,
                           const graph::Catalog& catalog, graph::Catalog::Id type_key) {
  if (f.key == type_key && f.op == FilterOp::kEq && !f.values.empty() &&
      stats.total_vertices > 0) {
    // True fraction from the per-type counts when the value names a known
    // label; a type nobody has eliminates everything.
    if (f.values[0].is_string()) {
      const graph::Catalog::Id label = catalog.Lookup(f.values[0].as_string());
      if (label == graph::Catalog::kInvalidId) return 0.0;
      auto it = stats.vertices_per_type.find(label);
      const uint64_t n = it == stats.vertices_per_type.end() ? 0 : it->second;
      return static_cast<double>(n) / static_cast<double>(stats.total_vertices);
    }
  }
  switch (f.op) {
    case FilterOp::kEq:
      return kEqPrior;
    case FilterOp::kIn:
      return std::min(1.0, kEqPrior * static_cast<double>(f.values.size()));
    case FilterOp::kRange:
      return kRangePrior;
  }
  return 1.0;
}

namespace {

// Stable-sorts one AND list by ascending selectivity (most selective filter
// evaluates first, so non-matching candidates are rejected cheapest).
bool ReorderList(std::vector<Filter>* filters, const PlanStats& stats,
                 const graph::Catalog& catalog, graph::Catalog::Id type_key) {
  if (filters->size() < 2) return false;
  std::vector<Filter> before = *filters;
  std::stable_sort(filters->begin(), filters->end(),
                   [&](const Filter& a, const Filter& b) {
                     return EstimateSelectivity(a, stats, catalog, type_key) <
                            EstimateSelectivity(b, stats, catalog, type_key);
                   });
  return !(*filters == before);
}

void ReorderHops(std::vector<Hop>* hops, const PlanStats& stats,
                 const graph::Catalog& catalog, graph::Catalog::Id type_key,
                 PlannerReport* report) {
  for (auto& h : *hops) {
    if (ReorderList(&h.edge_filters, stats, catalog, type_key)) {
      report->filter_lists_reordered++;
    }
    if (ReorderList(&h.vertex_filters, stats, catalog, type_key)) {
      report->filter_lists_reordered++;
    }
    if (ReorderList(&h.until_filters, stats, catalog, type_key)) {
      report->filter_lists_reordered++;
    }
  }
}

}  // namespace

TraversalPlan RewritePlan(const TraversalPlan& plan, const PlanStats& stats,
                          const graph::Catalog& catalog, graph::Catalog::Id type_key,
                          PlannerReport* report) {
  PlannerReport local;
  if (report == nullptr) report = &local;
  *report = PlannerReport();
  TraversalPlan out = plan;

  // 1. Selectivity-ordered AND lists, everywhere filters appear.
  if (ReorderList(&out.start_vertex_filters, stats, catalog, type_key)) {
    report->filter_lists_reordered++;
  }
  ReorderHops(&out.hops, stats, catalog, type_key, report);
  for (auto& alt : out.branch_alts) {
    ReorderHops(&alt, stats, catalog, type_key, report);
  }
  ReorderHops(&out.branch_tail, stats, catalog, type_key, report);

  // 2. Predicate pushdown into the type-index scan: only worth it when the
  // scan start carries filters beyond the type anchor (otherwise the scan
  // already yields exactly the start set).
  if (out.start_ids.empty() && out.start_vertex_filters.size() > 1) {
    out.push_start_filters = true;
    report->pushed_down = true;
  }
  return out;
}

}  // namespace gt::lang
