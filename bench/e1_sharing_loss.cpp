//===- bench/e1_sharing_loss.cpp - E1: the basic collector loses sharing --===//
//
// Paper artifact: Fig 4/12 (basic stop-and-copy) vs §7's opening
// observation — "the copy function does not preserve sharing and thus
// turns any DAG into a tree".
//
// Workload: a maximally-shared binary DAG of depth D (D+1 physical cells
// describing 2^(D+1)-1 logical nodes). One certified collection at the
// Base level must unfold it to the full tree; the Forward collector keeps
// it at D+1 cells (measured here for contrast; E2 digs deeper).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace scav;
using namespace scav::bench;

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv);
  JsonReport Report("e1_sharing_loss");
  std::printf("E1: sharing loss of the basic collector (Fig 4/12, §7)\n");
  std::printf("claim: basic copy turns DAGs into trees; cells after a "
              "collection of a depth-D DAG grow from D+1 to 2^(D+1)-1\n\n");
  std::printf("%6s %12s %14s %16s %10s\n", "depth", "cells-before",
              "after-basic", "after-forwarding", "blowup");

  bool Ok = true;
  for (unsigned D = 2; D <= 10; ++D) {
    size_t Before = 0, AfterBasic = 0, AfterFwd = 0;
    {
      Setup S(LanguageLevel::Base);
      S.attachReport(Report); // pauses land in collect_pause_ns
      ForgedHeap H = forgeTree(*S.M, S.R, S.Old, D, /*Share=*/true);
      Before = H.Cells;
      if (!S.collectOnce(H))
        return 1;
      AfterBasic = S.M->memory().liveDataCells();
    }
    {
      Setup S(LanguageLevel::Forward);
      S.attachReport(Report);
      ForgedHeap H = forgeTree(*S.M, S.R, S.Old, D, /*Share=*/true);
      if (!S.collectOnce(H))
        return 1;
      AfterFwd = S.M->memory().liveDataCells();
    }
    double Blowup = double(AfterBasic) / double(Before);
    std::printf("%6u %12zu %14zu %16zu %9.1fx\n", D, Before, AfterBasic,
                AfterFwd, Blowup);
    Ok = Ok && AfterBasic == (size_t(1) << (D + 1)) - 1 &&
         AfterFwd == Before;
    if (D == 10) {
      Report.metric("depth", uint64_t(D));
      Report.metric("cells_before", uint64_t(Before));
      Report.metric("after_basic", uint64_t(AfterBasic));
      Report.metric("after_forwarding", uint64_t(AfterFwd));
      Report.metric("blowup", Blowup);
    }
  }
  std::printf("\n");
  verdict(Ok, "basic collector unfolds DAGs to full trees; forwarding "
              "collector preserves sharing exactly");
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
