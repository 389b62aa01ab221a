// The benchmark's own evaluation of every answer it checks. It works on a
// plain adjacency list built from the generated input and shares no code
// with src/lang's reference evaluator, so a fault there cannot hide a wrong
// answer here.
//
// Semantics (the GTravel hop chain the benchmark issues): step 0 is the
// start set; step k+1 is the set of distinct vertices reached by the
// hop-k label from any vertex of step k, keeping only edges whose "ts"
// property lies in [lo, hi] when the hop carries a range filter. The
// answer of a chain ending in rtn() is the last step's set.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

using Vid = uint64_t;
using VidSet = std::vector<Vid>;  // sorted, distinct

struct Hop {
  std::string label;
  bool ts_filter = false;
  int64_t lo = 0;  // inclusive range, applied to the edge's "ts"
  int64_t hi = 0;
};

class Adjacency {
 public:
  // Upserts on (src, label, dst), like the store's edge key: a second add
  // of the same edge replaces its ts.
  void AddEdge(Vid src, const std::string& label, Vid dst, std::optional<int64_t> ts) {
    auto& out = edges_[src][label];
    for (auto& e : out) {
      if (e.dst == dst) {
        e.ts = ts;
        return;
      }
    }
    out.push_back(Edge{dst, ts});
  }

  // Frontier sets of steps 0..hops.size().
  std::vector<VidSet> Frontiers(VidSet start, const std::vector<Hop>& hops) const {
    Normalize(&start);
    std::vector<VidSet> steps{std::move(start)};
    for (const Hop& hop : hops) {
      VidSet next;
      for (Vid v : steps.back()) {
        auto it = edges_.find(v);
        if (it == edges_.end()) continue;
        auto jt = it->second.find(hop.label);
        if (jt == it->second.end()) continue;
        for (const Edge& e : jt->second) {
          if (hop.ts_filter && (!e.ts || *e.ts < hop.lo || *e.ts > hop.hi)) continue;
          next.push_back(e.dst);
        }
      }
      Normalize(&next);
      steps.push_back(std::move(next));
    }
    return steps;
  }

  static void Normalize(VidSet* s) {
    std::sort(s->begin(), s->end());
    s->erase(std::unique(s->begin(), s->end()), s->end());
  }

 private:
  struct Edge {
    Vid dst;
    std::optional<int64_t> ts;
  };
  std::unordered_map<Vid, std::unordered_map<std::string, std::vector<Edge>>> edges_;
};

// The Table III audit, run -> hasExecutions -> write -> readBy -> write,
// with the ts range on every timestamped hop.
inline std::vector<Hop> AuditHops(int64_t lo, int64_t hi) {
  return {Hop{"run", true, lo, hi}, Hop{"hasExecutions"}, Hop{"write", true, lo, hi},
          Hop{"readBy", true, lo, hi}, Hop{"write", true, lo, hi}};
}

// Empty when `got` equals `want`; otherwise says how they differ.
inline std::string CompareSets(const VidSet& want, const VidSet& got) {
  if (want == got) return "";
  VidSet missing, extra;
  std::set_difference(want.begin(), want.end(), got.begin(), got.end(),
                      std::back_inserter(missing));
  std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                      std::back_inserter(extra));
  return "want " + std::to_string(want.size()) + " vertices, got " +
         std::to_string(got.size()) + " (" + std::to_string(missing.size()) +
         " missing, " + std::to_string(extra.size()) + " extra)";
}

}  // namespace perfbench
