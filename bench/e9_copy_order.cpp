//===- bench/e9_copy_order.cpp - E9: depth-first vs Cheney order (§10) ----===//
//
// The paper's §10 extension: "It might be possible to extend the current
// depth-first copying approach... but we are more interested in a
// Cheney-style breadth-first copy [2]." This ablation runs both orders at
// the native level over the same heaps and measures the classic trade-off
// the choice is about:
//
//  * auxiliary space: depth-first needs a stack (in the certified
//    collectors this is the continuation region, E3) proportional to the
//    heap *depth*; Cheney's queue is the to-space itself;
//  * locality: the average |child-offset − parent-offset| distance in the
//    resulting to-space (lists favor DFS = BFS; bushy trees differ).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gc/NativeCollector.h"
#include "gc/StateCheck.h"

using namespace scav;
using namespace scav::bench;
using namespace scav::gc;

namespace {

/// Mean |child - parent| offset distance across all to-space edges.
double meanEdgeDistance(Machine &M, Region To) {
  const RegionData *R = M.memory().region(To.sym());
  if (!R)
    return 0;
  M.memory().decodeRegion(*R);
  uint64_t Sum = 0, Edges = 0;
  for (uint32_t Off = 0; Off != R->Cells.size(); ++Off) {
    AddressSet Children;
    if (R->Cells[Off])
      collectAddresses(R->Cells[Off], Children);
    for (Address A : Children) {
      if (A.R != To)
        continue;
      Sum += A.Offset > Off ? A.Offset - Off : Off - A.Offset;
      ++Edges;
    }
  }
  return Edges ? double(Sum) / double(Edges) : 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv);
  JsonReport Report("e9_copy_order");
  std::printf("E9: depth-first vs Cheney breadth-first copy (section 10 "
              "extension, native level)\n");
  std::printf("claim shape: both orders copy the same live set; they lay "
              "it out differently (edge-distance locality), and Cheney "
              "needs no auxiliary stack\n\n");
  std::printf("%10s %8s %10s %10s %12s %12s\n", "heap", "cells", "dfs-live",
              "bfs-live", "dfs-dist", "bfs-dist");

  bool Ok = true;
  auto RunBoth = [&](const char *Name, auto Forge) {
    size_t LiveD = 0, LiveB = 0, Cells = 0;
    double DistD = 0, DistB = 0;
    for (CopyOrder Order : {CopyOrder::DepthFirst, CopyOrder::BreadthFirst}) {
      GcContext C;
      Machine M(C, LanguageLevel::Base);
      Region R = M.createRegion("from", 0);
      ForgedHeap H = Forge(M, R);
      Cells = H.Cells;
      NativeGcStats Stats;
      auto T0 = std::chrono::steady_clock::now();
      auto [Root, To] = nativeCollect(M, H.Root, R, /*PreserveSharing=*/true,
                                      Stats, Order);
      Report.sample(Order == CopyOrder::DepthFirst ? "dfs_collect_ns"
                                                   : "bfs_collect_ns",
                    secondsSince(T0) * 1e9);
      (void)Root;
      if (Order == CopyOrder::DepthFirst) {
        LiveD = M.memory().liveDataCells();
        DistD = meanEdgeDistance(M, To);
      } else {
        LiveB = M.memory().liveDataCells();
        DistB = meanEdgeDistance(M, To);
      }
    }
    std::printf("%10s %8zu %10zu %10zu %12.2f %12.2f\n", Name, Cells, LiveD,
                LiveB, DistD, DistB);
    Ok = Ok && LiveD == LiveB && LiveD == Cells;
    if (std::string_view(Name) == "dag") {
      Report.metric("dag_cells", uint64_t(Cells));
      Report.metric("dfs_dist", DistD);
      Report.metric("bfs_dist", DistB);
    }
  };

  for (size_t N : {32, 256}) {
    RunBoth("list", [N](gc::Machine &M, Region R) {
      return forgeList(M, R, R, N);
    });
  }
  for (unsigned D : {6, 10}) {
    RunBoth("tree", [D](gc::Machine &M, Region R) {
      return forgeTree(M, R, R, D, /*Share=*/false);
    });
  }
  RunBoth("dag", [](gc::Machine &M, Region R) {
    return forgeTree(M, R, R, 10, /*Share=*/true);
  });

  std::printf("\n");
  verdict(Ok, "both copy orders preserve the live set exactly (sharing "
              "included); only the to-space layout differs");
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
