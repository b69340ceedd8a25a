//===- bench/e10_typework.cpp - E10: interning & memoization payoff -------===//
//
// Not a paper claim but an implementation ablation: the certified
// collectors re-check Ψ-related typing facts constantly (every `put`
// infers a cell type; every state check normalizes and compares types),
// and collector-rebuilt types are structurally identical across cells.
// Hash-consing makes that sharing physical: normalization memoizes by
// node pointer, equality short-circuits on pointer identity, substitution
// skips ground subtrees, and `recordPut` caches inferred cell types by
// value pointer.
//
// Measured: combined normalize + equal + infer wall time (the
// GcContext::Stats depth-guarded typework timer) for one certified
// collection on the E2 (forwarding, shared DAG + list) and E4
// (generational, young-over-old) workloads, with the whole machinery ON
// vs OFF (GcContext(false), the SCAV_DISABLE_INTERN baseline). Claim
// shape: >= 2x reduction on both workloads.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace scav;
using namespace scav::bench;
using namespace scav::gc;

namespace {

/// E4's mixed heap: an old-generation list referenced by a young chain of
/// pair cells (see e4_generational.cpp).
ForgedHeap forgeMixed(Machine &M, Region R, Region Old, size_t YoungN,
                      size_t OldN) {
  GcContext &C = M.context();
  ForgedHeap OldList = forgeList(M, Old, Old, OldN);
  const Tag *L = OldList.Tag;
  ForgedHeap H;
  H.Cells = OldList.Cells;
  const Value *Prev = OldList.Root;
  const Tag *PrevTag = L;
  for (size_t I = 0; I != YoungN; ++I) {
    const Value *Addr =
        M.allocate(R, C.valPair(Prev, C.valInt(static_cast<int64_t>(I))));
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

struct RunResult {
  bool Ok = false;
  double TypeworkSec = 0;
  double WallSec = 0;
  GcContext::Stats Counters;
  uint64_t RecordPutHits = 0;
  std::vector<double> CyclePauseNs; ///< Per-cycle collection wall time.
};

/// Two certified collection cycles with Ψ tracking on — allocate, churn,
/// collect, repeat. Steady state matters: across cycles the collectors
/// rebuild structurally identical types (and the generational old region's
/// types persist verbatim), which is exactly what the caches exploit.
/// Returns the combined typework time.
RunResult runWorkload(LanguageLevel Level, bool Intern) {
  RunResult Out;
  Setup S(Level, MachineConfig{}, Intern);
  S.C->stats().TimingEnabled = true;
  auto T0 = std::chrono::steady_clock::now();
  Out.Ok = true;
  for (int Cycle = 0; Cycle != 4 && Out.Ok; ++Cycle) {
    Region From = Cycle == 0 ? S.R : S.M->createRegion("from", 0);
    Region Old = Level == LanguageLevel::Generational ? S.Old : From;
    ForgedHeap H = Level == LanguageLevel::Generational
                       ? forgeMixed(*S.M, From, Old, /*YoungN=*/24,
                                    /*OldN=*/Cycle == 0 ? 48 : 8)
                       : forgeList(*S.M, From, From, 48);
    // Mutator churn: the heap root stored repeatedly — the write-barrier /
    // remembered-set pattern (the same value recorded once per mutation).
    // Ψ tracking infers a cell type per put; the recordPut cache serves
    // the repeats by value pointer, where the baseline re-infers the
    // root's (large) type every time. The churn cells are unreachable, so
    // the collection itself is unaffected.
    for (int I = 0; I != 256; ++I)
      S.M->allocate(From, H.Root);
    Address Fin = installFinisher(*S.M, H.Tag);
    const Term *E = collectOnceTerm(*S.M, S.GcAddr, H, From, Old, Fin);
    S.M->start(E);
    auto C0 = std::chrono::steady_clock::now();
    S.M->run(50'000'000);
    Out.CyclePauseNs.push_back(secondsSince(C0) * 1e9);
    Out.Ok = S.M->status() == Machine::Status::Halted;
    if (!Out.Ok)
      std::fprintf(stderr, "collection failed: %s\n",
                   S.M->stuckReason().c_str());
  }
  Out.WallSec = secondsSince(T0);
  Out.TypeworkSec = S.C->stats().TypeworkSeconds;
  Out.Counters = S.C->stats();
  Out.RecordPutHits = S.M->stats().RecordPutCacheHits;
  return Out;
}

void printCounters(const char *Label, const RunResult &R) {
  const GcContext::Stats &S = R.Counters;
  std::printf("  %s counters: intern-hits tag=%llu type=%llu | "
              "normalize memo-hits tag=%llu type=%llu normal-bit=%llu | "
              "equal ptr-hits=%llu | subst ground-skips=%llu | "
              "recordPut cache-hits=%llu\n",
              Label, (unsigned long long)S.TagInternHits,
              (unsigned long long)S.TypeInternHits,
              (unsigned long long)S.NormalizeTagMemoHits,
              (unsigned long long)S.NormalizeTypeMemoHits,
              (unsigned long long)(S.NormalizeTagNormalBitHits +
                                   S.NormalizeTypeNormalBitHits),
              (unsigned long long)S.EqualPointerHits,
              (unsigned long long)S.SubstGroundSkips,
              (unsigned long long)R.RecordPutHits);
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv);
  if (JsonPath.empty())
    JsonPath = "BENCH_e10.json"; // e10 always leaves a record
  JsonReport Report("e10_typework");

  std::printf("E10: interning & memoization payoff on certified "
              "collections\n");
  std::printf("claim: hash-consing + normalize memo + recordPut cache cut "
              "combined normalize/equal/infer time >=2x on the E2 and E4 "
              "workloads\n\n");
  std::printf("%14s %12s %12s %8s\n", "workload", "typework-off",
              "typework-on", "speedup");

  bool Ok = true;
  struct Case {
    const char *Name;
    LanguageLevel Level;
    const char *JsonKey;
  } Cases[] = {
      {"e2-forwarding", LanguageLevel::Forward, "e2_speedup"},
      {"e4-generational", LanguageLevel::Generational, "e4_speedup"},
  };

  for (const Case &Cs : Cases) {
    RunResult Off = runWorkload(Cs.Level, /*Intern=*/false);
    RunResult On = runWorkload(Cs.Level, /*Intern=*/true);
    if (!Off.Ok || !On.Ok)
      return 1;
    for (double Ns : Off.CyclePauseNs)
      Report.sample("collect_pause_off_ns", Ns);
    for (double Ns : On.CyclePauseNs)
      Report.sample("collect_pause_on_ns", Ns);
    double Speedup = On.TypeworkSec > 0 ? Off.TypeworkSec / On.TypeworkSec
                                        : 0;
    std::printf("%14s %11.3fs %11.3fs %7.2fx\n", Cs.Name, Off.TypeworkSec,
                On.TypeworkSec, Speedup);
    printCounters("off", Off);
    printCounters("on ", On);
    // The optimized run must actually exercise the machinery...
    Ok = Ok && On.Counters.TagInternHits > 0 &&
         On.Counters.TypeInternHits > 0 &&
         On.Counters.NormalizeTagMemoHits + On.Counters.NormalizeTypeMemoHits >
             0 &&
         On.RecordPutHits > 0;
    // ...and the baseline must not (honest off switch).
    Ok = Ok && Off.Counters.TagInternHits == 0 && Off.RecordPutHits == 0;
    Ok = Ok && Speedup >= 2.0;
    Report.metric(Cs.JsonKey, Speedup);
    Report.metric(std::string(Cs.JsonKey, 2) + "_typework_off_sec",
                  Off.TypeworkSec);
    Report.metric(std::string(Cs.JsonKey, 2) + "_typework_on_sec",
                  On.TypeworkSec);
    if (Cs.Level == LanguageLevel::Forward) {
      Report.metric("e2_tag_intern_hits", On.Counters.TagInternHits);
      Report.metric("e2_type_intern_hits", On.Counters.TypeInternHits);
      Report.metric("e2_normalize_memo_hits",
                    On.Counters.NormalizeTagMemoHits +
                        On.Counters.NormalizeTypeMemoHits);
      Report.metric("e2_equal_pointer_hits", On.Counters.EqualPointerHits);
      Report.metric("e2_recordput_cache_hits", On.RecordPutHits);
    }
  }

  std::printf("\n");
  verdict(Ok, "interning + memoization give >=2x less typework on both "
              "workloads, with all three cache families hitting");
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
