//===- bench/e3_cont_region.cpp - E3: continuation-region bound (§6.1) ----===//
//
// Paper claim (§6.1): after CPS/closure conversion, the collector's
// implicit stack becomes continuation closures in a temporary region r3;
// "we can't allocate more than one continuation per copied object, so it
// is still algorithmically efficient, although this memory overhead is a
// considerable shortcoming".
//
// Measured: peak cells ever allocated in the continuation region during a
// certified basic collection, versus objects copied, for lists (deep
// recursion) and balanced trees (bushy recursion).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace scav;
using namespace scav::bench;

namespace {

/// Runs a collection while sampling the continuation region's allocation
/// counter (regions named "r3..." created by the collector).
struct ContSample {
  uint64_t PeakContAllocated = 0;
  size_t Copied = 0;
  bool Ok = false;
};

ContSample runSampled(Setup &S, const ForgedHeap &H) {
  ContSample Out;
  Address Fin = installFinisher(*S.M, H.Tag);
  const gc::Term *E = collectOnceTerm(*S.M, S.GcAddr, H, S.R, S.Old, Fin);
  S.M->start(E);
  while (S.M->status() == gc::Machine::Status::Running) {
    S.M->step();
    for (const auto &[Sym, R] : S.M->memory().Regions) {
      std::string_view Name = S.C->name(Sym);
      if (Name.substr(0, 2) == "r3")
        Out.PeakContAllocated =
            std::max(Out.PeakContAllocated, R.TotalAllocated);
    }
  }
  Out.Ok = S.M->status() == gc::Machine::Status::Halted;
  Out.Copied = S.M->memory().liveDataCells();
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv);
  JsonReport Report("e3_cont_region");
  std::printf("E3: continuation-region cost of the CPS'd collector (§6.1)\n");
  std::printf("claim: continuation allocation is linear in copied objects "
              "(the paper says \"one per copied object\"; Fig 12's actual "
              "structure needs two per pair — copypair1 and copypair2 — so "
              "the measured bound is 2*copied + 1)\n\n");
  std::printf("%10s %8s %8s %8s %12s\n", "heap", "cells", "copied", "conts",
              "conts/copied");

  bool Ok = true;
  double MaxRatio = 0;
  auto Row = [&](const char *Name, size_t Cells, const ContSample &Cs) {
    double Ratio = double(Cs.PeakContAllocated) / double(Cs.Copied);
    std::printf("%10s %8zu %8zu %8llu %11.2f\n", Name, Cells, Cs.Copied,
                (unsigned long long)Cs.PeakContAllocated, Ratio);
    MaxRatio = std::max(MaxRatio, Ratio);
    // Two continuations per pair, one per existential, one for gcend.
    Ok = Ok && Cs.Ok && Cs.PeakContAllocated <= 2 * Cs.Copied + 1;
  };

  for (size_t N : {8, 32, 128}) {
    Setup S(LanguageLevel::Base);
    ForgedHeap H = forgeList(*S.M, S.R, S.Old, N);
    auto T0 = std::chrono::steady_clock::now();
    ContSample Cs = runSampled(S, H);
    Report.sample("collect_pause_ns", secondsSince(T0) * 1e9);
    Row("list", H.Cells, Cs);
  }
  for (unsigned D : {3, 5, 7}) {
    Setup S(LanguageLevel::Base);
    ForgedHeap H = forgeTree(*S.M, S.R, S.Old, D, /*Share=*/false);
    auto T0 = std::chrono::steady_clock::now();
    ContSample Cs = runSampled(S, H);
    Report.sample("collect_pause_ns", secondsSince(T0) * 1e9);
    Row("tree", H.Cells, Cs);
  }

  std::printf("\n");
  verdict(Ok, "continuation region holds at most 2*copied + 1 closures — "
              "linear in the to-region size, as §6.1 argues (its 'one per "
              "object' is optimistic by <=2x for pairs)");
  Report.metric("max_conts_per_copied", MaxRatio);
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
