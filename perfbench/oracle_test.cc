// Tests of the benchmark's own answer evaluation (oracle.h) on tiny
// hand-built graphs with known answers, plus corrupted results that the
// checks must reject. Exits non-zero on the first failure.
#include <cstdio>
#include <string>

#include "perfbench/oracle.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    failures++;
  }
}

using perfbench::Adjacency;
using perfbench::Hop;
using perfbench::VidSet;

// 1 -> {2, 3}, 2 -> 4, 3 -> 4, 4 -> 5, 5 -> 1, plus an edge of another label.
Adjacency Ring() {
  Adjacency a;
  a.AddEdge(1, "link", 2, std::nullopt);
  a.AddEdge(1, "link", 3, std::nullopt);
  a.AddEdge(2, "link", 4, std::nullopt);
  a.AddEdge(3, "link", 4, std::nullopt);
  a.AddEdge(4, "link", 5, std::nullopt);
  a.AddEdge(5, "link", 1, std::nullopt);
  a.AddEdge(1, "other", 5, std::nullopt);
  return a;
}

void TestHopFrontiers() {
  const auto f = Ring().Frontiers({1}, std::vector<Hop>(4, Hop{"link"}));
  Expect(f.size() == 5, "five frontier sets for four hops");
  Expect(f[0] == VidSet{1}, "step 0 is the start");
  Expect(f[1] == (VidSet{2, 3}), "step 1");
  Expect(f[2] == VidSet{4}, "step 2 deduplicates the diamond");
  Expect(f[3] == VidSet{5}, "step 3");
  Expect(f[4] == VidSet{1}, "step 4 comes back round the ring");
  Expect(Ring().Frontiers({2, 2, 3}, {Hop{"link"}}).back() == VidSet{4},
         "duplicate starts collapse");
  Expect(Ring().Frontiers({4}, {Hop{"other"}}).back().empty(), "labels are not mixed");
}

// user 0 -run-> jobs 1 (ts 10), 2 (ts 50); job -hasExecutions-> exec;
// exec -write-> file; file -readBy-> exec; exec -write-> file. Every edge
// but hasExecutions carries a ts.
Adjacency Audit() {
  Adjacency a;
  a.AddEdge(0, "run", 1, 10);
  a.AddEdge(0, "run", 2, 50);
  a.AddEdge(1, "hasExecutions", 3, std::nullopt);
  a.AddEdge(2, "hasExecutions", 4, std::nullopt);
  a.AddEdge(3, "write", 5, 11);
  a.AddEdge(4, "write", 6, 51);
  a.AddEdge(5, "readBy", 7, 12);
  a.AddEdge(6, "readBy", 9, 52);
  a.AddEdge(7, "write", 8, 13);
  a.AddEdge(9, "write", 10, 53);
  a.AddEdge(9, "write", 8, 54);
  return a;
}

void TestAudit() {
  const Adjacency a = Audit();
  Expect(a.Frontiers({0}, perfbench::AuditHops(0, 20)).back() == VidSet{8}, "early window");
  Expect(a.Frontiers({0}, perfbench::AuditHops(0, 100)).back() == (VidSet{8, 10}),
         "whole window");
  Expect(a.Frontiers({0}, perfbench::AuditHops(40, 60)).back() == (VidSet{8, 10}),
         "late window reaches the shared file too");
  Expect(a.Frontiers({0}, perfbench::AuditHops(10, 13)).back() == VidSet{8},
         "range bounds are inclusive");
  Expect(a.Frontiers({0}, perfbench::AuditHops(10, 12)).back().empty(),
         "the last write hop is filtered too");
  Expect(a.Frontiers({0}, perfbench::AuditHops(11, 49)).back().empty(), "empty window");

  // A re-added edge replaces its ts (the store upserts on src,label,dst).
  Adjacency b = Audit();
  b.AddEdge(0, "run", 2, 5);
  Expect(b.Frontiers({0}, perfbench::AuditHops(40, 60)).back().empty(), "upsert moves the ts");
}

void TestChecksRejectCorruptResults() {
  const VidSet want = Audit().Frontiers({0}, perfbench::AuditHops(0, 100)).back();
  Expect(perfbench::CompareSets(want, want).empty(), "equal sets pass");
  Expect(!perfbench::CompareSets(want, VidSet{8}).empty(), "a dropped vertex fails");
  Expect(!perfbench::CompareSets(want, VidSet{8, 10, 11}).empty(), "an extra vertex fails");
  Expect(!perfbench::CompareSets(want, VidSet{}).empty(), "an empty answer fails");
}

}  // namespace

int main() {
  TestHopFrontiers();
  TestAudit();
  TestChecksRejectCorruptResults();
  if (failures != 0) {
    std::fprintf(stderr, "%d oracle check(s) failed\n", failures);
    return 1;
  }
  std::printf("oracle tests passed\n");
  return 0;
}
