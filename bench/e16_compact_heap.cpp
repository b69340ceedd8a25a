//===- bench/e16_compact_heap.cpp - E16: compact vs legacy heap layout ----===//
//
// PR 8's representation change measured head-to-head in one process: the
// compact tagged-word heap (flat uint64 region buffers, inline int/addr
// payloads, dense region-id table — DESIGN.md §3.12) vs the legacy
// pointer-cell representation, selected per machine via
// MachineConfig::Layout.
//
//  A. Native collect pauses (E8's native leg, plus E9's copy orders and
//     E15's parallel path): depth-first, serial Cheney, and 4-thread
//     Cheney over list and shared-tree heaps. The compact copy transforms
//     words (no Value allocation for unboxed cells) where the legacy copy
//     rebuilds a Value per live cell. Claim (gated): serial Cheney copy
//     pauses >= 1.5x faster compact vs legacy on the gated heaps. The
//     depth-first and parallel paths are reported alongside: dfs on the
//     deep list spends its pause in ~2 recursion frames per node (the
//     same either way), and the parallel path's pause is bounded by
//     claim-CAS contention, so neither isolates the representation.
//
//  B. VM step rate (E13's workloads, E11's shape): full certified
//     collections on the E2-forwarding and E4-generational list heaps
//     under the bytecode VM, TrackTypes off — the configuration where the
//     VM's word-direct put/set paths are live. Claim (gated): >= 1.3x
//     steps/sec compact vs legacy. The env machine is reported alongside
//     (same dense-region-table win, no word-direct store paths).
//
// Latency histograms: every collection pause lands in a per-layout
// histogram (collect_pause_legacy_ns / collect_pause_compact_ns), so the
// JSON record carries p50/p90/p99 alongside the means.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "gc/NativeCollector.h"

using namespace scav;
using namespace scav::bench;
using namespace scav::gc;

namespace {

const char *layoutName(HeapLayout L) {
  return L == HeapLayout::Compact ? "compact" : "legacy";
}

//===----------------------------------------------------------------------===//
// Part A: native collect pauses
//===----------------------------------------------------------------------===//

struct CopyHeap {
  const char *Name;
  ForgedHeap (*Forge)(Machine &M, Region R);
  bool Gated;
};

struct CopyPath {
  const char *Name;
  CopyOrder Order;
  unsigned Threads;
  bool Gated; ///< The serial Cheney path carries the >=1.5x claim.
};

double copyOnce(const CopyHeap &H, const CopyPath &P, HeapLayout L,
                JsonReport &Report) {
  GcContext C;
  MachineConfig Cfg;
  Cfg.TrackTypes = false; // raw copy throughput, as in E8/E15
  Cfg.Layout = L;
  Machine M(C, LanguageLevel::Base, Cfg);
  Region R = M.createRegion("from", 0);
  ForgedHeap Heap = H.Forge(M, R);
  NativeGcStats Stats;
  auto T0 = std::chrono::steady_clock::now();
  nativeCollect(M, Heap.Root, R, /*PreserveSharing=*/true, Stats, P.Order,
                P.Threads);
  double Sec = secondsSince(T0);
  Report.sample(std::string("collect_pause_") + layoutName(L) + "_ns",
                Sec * 1e9);
  return Sec;
}

/// Pairs the layouts per rep (legacy then compact, alternating) so machine
/// drift over the rep block hits both sides equally, and takes each side's
/// best pause.
std::pair<double, double> copyBestPair(const CopyHeap &H, const CopyPath &P,
                                       int Reps, JsonReport &Report) {
  double BestL = 0, BestC = 0;
  for (int I = 0; I != Reps; ++I) {
    double TL = copyOnce(H, P, HeapLayout::Legacy, Report);
    double TC = copyOnce(H, P, HeapLayout::Compact, Report);
    if (I == 0 || TL < BestL)
      BestL = TL;
    if (I == 0 || TC < BestC)
      BestC = TC;
  }
  return {BestL, BestC};
}

// The depth-first path recurses ~2 frames per list node, so the list heap
// stays well short of the legacy depth-first collector's ~20k-node stack
// ceiling; the tree heap carries the bulk (2^16-1 cells at depth 15,
// recursion depth only 15).
ForgedHeap forgeBigList(Machine &M, Region R) {
  return forgeList(M, R, R, 8'000);
}

ForgedHeap forgeWideTree(Machine &M, Region R) {
  return forgeTree(M, R, R, 15, /*Share=*/false);
}

//===----------------------------------------------------------------------===//
// Part B: VM step rate over full certified collections
//===----------------------------------------------------------------------===//

struct Workload {
  const char *Name;
  LanguageLevel Level;
  size_t Size;
};

struct RateResult {
  bool Ok = true;
  uint64_t Steps = 0;
  double Seconds = 0;

  double stepsPerSec() const { return Seconds > 0 ? Steps / Seconds : 0; }
};

RateResult runWorkload(const Workload &W, EvalMode Mode, HeapLayout L,
                       int Reps) {
  RateResult Out;
  MachineConfig Cfg;
  Cfg.Eval = Mode;
  Cfg.Layout = L;
  Cfg.TrackTypes = false; // Ψ upkeep costs the same either way (E13);
                          // also what arms the VM's word-direct stores
  Setup S(W.Level, Cfg);

  // Untimed warm-up collection (compiles the collector chunks in VM
  // mode, warms caches in both), as in E13.
  {
    Region WR = S.M->createRegion("warm-from", 0);
    Region WOld = W.Level == LanguageLevel::Generational
                      ? S.M->createRegion("warm-old", 0)
                      : WR;
    ForgedHeap WH = forgeList(*S.M, WR, WOld, 8);
    Address WFin = installFinisher(*S.M, WH.Tag);
    S.M->start(collectOnceTerm(*S.M, S.GcAddr, WH, WR, WOld, WFin));
    S.M->run(50'000'000);
    if (S.M->status() != Machine::Status::Halted) {
      std::fprintf(stderr, "%s (%s/%s): warm-up failed: %s\n", W.Name,
                   evalModeName(Mode), layoutName(L),
                   S.M->stuckReason().c_str());
      Out.Ok = false;
      return Out;
    }
  }

  // The timed reps share one machine: each rep forges a fresh from-space
  // (the collection's own `only` reclaims it) and only the run windows
  // count, so the measurement is the steady-state rate the evaluator
  // sustains once chunks, caches, and the allocator are warm. A one-shot
  // cold run under-reports the faster layout — fixed per-run costs weigh
  // more against a shorter run.
  for (int I = 0; I != Reps; ++I) {
    Region R = S.M->createRegion("from", 0);
    Region Old = W.Level == LanguageLevel::Generational
                     ? S.M->createRegion("old", 0)
                     : R;
    ForgedHeap H = forgeList(*S.M, R, Old, W.Size);
    Address Fin = installFinisher(*S.M, H.Tag);
    const Term *E = collectOnceTerm(*S.M, S.GcAddr, H, R, Old, Fin);
    uint64_t Pre = S.M->stats().Steps;
    S.M->start(E);
    auto T0 = std::chrono::steady_clock::now();
    S.M->run(50'000'000);
    Out.Seconds += secondsSince(T0);
    if (S.M->status() != Machine::Status::Halted) {
      std::fprintf(stderr, "%s (%s/%s): collection failed: %s\n", W.Name,
                   evalModeName(Mode), layoutName(L),
                   S.M->stuckReason().c_str());
      Out.Ok = false;
      return Out;
    }
    Out.Steps += S.M->stats().Steps - Pre;
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv);
  JsonReport Report("e16_compact_heap");
  Report.evalMode("both");
  std::printf("E16: compact tagged-word heap vs legacy pointer cells\n");
  std::printf("claim: flat word buffers + inline payloads + dense region "
              "ids give >=1.5x\nnative collect pauses and >=1.3x VM "
              "steps/sec on the E2/E4 workloads\n\n");

  bool Ok = true;

  // Part A --------------------------------------------------------------
  std::printf("%11s %10s %12s %12s %8s\n", "heap", "path", "legacy-ms",
              "compact-ms", "speedup");
  const CopyHeap Heaps[] = {
      {"list-8k", forgeBigList, true},
      {"tree-d15", forgeWideTree, true},
  };
  const CopyPath Paths[] = {
      {"dfs", CopyOrder::DepthFirst, 1, false},
      {"cheney", CopyOrder::BreadthFirst, 1, true},
      {"cheney-t4", CopyOrder::BreadthFirst, 4, false},
  };
  const int CopyReps = 15;
  for (const CopyHeap &H : Heaps) {
    for (const CopyPath &P : Paths) {
      auto [Legacy, Compact] = copyBestPair(H, P, CopyReps, Report);
      double Speedup = Compact > 0 ? Legacy / Compact : 0;
      std::printf("%11s %10s %12.3f %12.3f %7.2fx\n", H.Name, P.Name,
                  Legacy * 1e3, Compact * 1e3, Speedup);
      if (H.Gated && P.Gated)
        Ok = Ok && Speedup >= 1.5;
      std::string Key =
          std::string(H.Name) + "_" + P.Name + "_speedup";
      for (char &Ch : Key)
        if (Ch == '-')
          Ch = '_';
      Report.metric(Key, Speedup);
    }
  }

  // Part B --------------------------------------------------------------
  std::printf("\n%11s %5s %12s %12s %8s\n", "workload", "mode", "legacy",
              "compact", "speedup");
  const Workload Workloads[] = {
      {"e2-forward", LanguageLevel::Forward, 1500},
      {"e4-gen", LanguageLevel::Generational, 1500},
  };
  const int Reps = 16;
  // Alternating best-of passes: machine noise drifts over seconds, so one
  // summed window per layout can hand either side a spurious 20%. Pairing
  // the layouts per pass and taking each side's best keeps the comparison
  // inside one drift window.
  const int Passes = 5;
  for (const Workload &W : Workloads) {
    for (EvalMode Mode : {EvalMode::Vm, EvalMode::Env}) {
      RateResult Legacy, Compact;
      for (int P = 0; P != Passes; ++P) {
        RateResult PL = runWorkload(W, Mode, HeapLayout::Legacy, Reps);
        RateResult PC = runWorkload(W, Mode, HeapLayout::Compact, Reps);
        if (!PL.Ok || !PC.Ok)
          return 1;
        if (PL.Steps != PC.Steps) {
          std::fprintf(stderr,
                       "%s (%s): layouts disagree on step count "
                       "(%llu vs %llu)\n",
                       W.Name, evalModeName(Mode),
                       (unsigned long long)PL.Steps,
                       (unsigned long long)PC.Steps);
          return 1;
        }
        if (P == 0 || PL.stepsPerSec() > Legacy.stepsPerSec())
          Legacy = PL;
        if (P == 0 || PC.stepsPerSec() > Compact.stepsPerSec())
          Compact = PC;
      }
      double Speedup = Legacy.stepsPerSec() > 0
                           ? Compact.stepsPerSec() / Legacy.stepsPerSec()
                           : 0;
      std::printf("%11s %5s %12.3g %12.3g %7.2fx\n", W.Name,
                  evalModeName(Mode), Legacy.stepsPerSec(),
                  Compact.stepsPerSec(), Speedup);
      if (Mode == EvalMode::Vm)
        Ok = Ok && Speedup >= 1.3;

      std::string P = std::string(W.Name) + "_" + evalModeName(Mode);
      for (char &Ch : P)
        if (Ch == '-')
          Ch = '_';
      Report.metric(P + "_steps", Legacy.Steps);
      Report.metric(P + "_legacy_steps_per_sec", Legacy.stepsPerSec());
      Report.metric(P + "_compact_steps_per_sec", Compact.stepsPerSec());
      Report.metric(P + "_speedup", Speedup);
    }
  }

  std::printf("\n");
  verdict(Ok, "compact heap: >=1.5x serial native collect pauses and "
              ">=1.3x VM steps/sec over legacy on the E2/E4 workloads");
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
