//===- bench/e4_generational.cpp - E4: minor collections (§8, Fig 11) -----===//
//
// Paper claim (§8): the generational collector "does not copy to a new
// region but to an existing one and stops traversing the tree as soon as
// we encounter a reference to the old generation" — i.e. minor-collection
// work is proportional to the *young* live set, independent of how much
// old data the young objects point at.
//
// Workload: an old-generation list of length OLD, referenced by a young
// list of length YOUNG (the young head packs the old list as payload).
// Sweep OLD with YOUNG fixed: copied objects must stay constant.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace scav;
using namespace scav::bench;
using namespace scav::gc;

namespace {

/// Forges: old list in Old (length OldN), young chain of pair cells in R
/// (length YoungN) whose tail references the old list.
ForgedHeap forgeMixed(Machine &M, Region R, Region Old, size_t YoungN,
                      size_t OldN) {
  GcContext &C = M.context();
  // Old list (lives in the old region; its region packages use witness
  // Old, so tracing must stop at its head).
  ForgedHeap OldList = forgeList(M, Old, Old, OldN);
  // Hold on: forgeList at the Generational level packages with bound
  // {R, Old}; rebuilt here with both regions equal to Old so the bound is
  // {Old} — construct with R := Old.
  // Young chain of pairs: node_i = (old-or-prev, i).
  const Tag *L = OldList.Tag;
  ForgedHeap H;
  H.Cells = OldList.Cells;
  const Value *Prev = OldList.Root;
  const Tag *PrevTag = L;
  for (size_t I = 0; I != YoungN; ++I) {
    const Value *Addr = M.allocate(
        R, C.valPair(Prev, C.valInt(static_cast<int64_t>(I))));
    ++H.Cells;
    Symbol RV = C.fresh("r");
    const Type *Body =
        C.typeProd(C.typeM({Region::var(RV), Old}, PrevTag),
                   C.typeM({Region::var(RV), Old}, C.tagInt()));
    Prev = C.valPackRegion(RV, RegionSet{R, Old}, R, Addr, Body);
    PrevTag = C.tagProd(PrevTag, C.tagInt());
  }
  H.Root = Prev;
  H.Tag = PrevTag;
  return H;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv);
  JsonReport Report("e4_generational");
  std::printf("E4: generational minor collections (Fig 11)\n");
  std::printf("claim: minor-GC work tracks the young live set and is "
              "independent of the old generation's size\n\n");
  std::printf("%8s %8s %14s %12s %10s\n", "young", "old", "old-cells-after",
              "promoted", "steps");

  bool Ok = true;
  const size_t YoungN = 8;
  size_t PromotedAtSmallest = 0;
  uint64_t StepsAtSmallest = 0;

  for (size_t OldN : {4, 16, 64, 256}) {
    Setup S(LanguageLevel::Generational);
    S.attachReport(Report); // pauses land in collect_pause_ns
    // Old data is forged directly into the old region: its packages carry
    // witness Old, so the collector's ifreg takes the old branch.
    ForgedHeap H = forgeMixed(*S.M, S.R, S.Old, YoungN, OldN);
    size_t OldBefore = S.M->memory().region(S.Old.sym())->Cells.size();
    if (!S.collectOnce(H))
      return 1;
    size_t OldAfter = S.M->memory().region(S.Old.sym())->Cells.size();
    size_t Promoted = OldAfter - OldBefore;
    uint64_t Steps = S.M->stats().Steps;
    std::printf("%8zu %8zu %14zu %12zu %10llu\n", YoungN, OldN, OldAfter,
                Promoted, (unsigned long long)Steps);
    if (OldN == 4) {
      PromotedAtSmallest = Promoted;
      StepsAtSmallest = Steps;
    }
    // Promotion count must not depend on the old generation's size, and
    // total machine work must stay within noise of the smallest case.
    Ok = Ok && Promoted == PromotedAtSmallest &&
         Steps < StepsAtSmallest + 200;
    if (OldN == 256) {
      Report.metric("young", uint64_t(YoungN));
      Report.metric("old_max", uint64_t(OldN));
      Report.metric("promoted", uint64_t(Promoted));
      Report.metric("steps", Steps);
    }
  }

  std::printf("\n");
  verdict(Ok, "promoted objects and collector work are independent of "
              "old-generation size (tracing stops at old references)");
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
