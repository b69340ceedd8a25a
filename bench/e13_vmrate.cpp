//===- bench/e13_vmrate.cpp - E13: bytecode VM vs env machine step rate ---===//
//
// E11 showed that resolving variables through a persistent environment beats
// the paper-verbatim whole-term substitution by an order of magnitude. E13
// measures the next lowering: compiling λGC to flat bytecode (src/vm/) where
// CPS continuations are jump targets, environment slots are frame indices
// resolved at compile time, and operands are classified once instead of
// being closed per step. The claim: the VM dispatch loop is ≥10× the env
// machine's steps/sec on the heavy certified-collection workloads of E2
// (forwarding) and E4 (generational).
//
// Both engines execute identical step sequences; this binary re-asserts the
// step-count equality (the differential test gc_machine_vm_diff_test checks
// full semantic agreement separately) and only measures rates. Lowering
// time is reported separately — it is a one-time cost per code value,
// amortized across every later call.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace scav;
using namespace scav::bench;

namespace {

struct Workload {
  const char *Name; ///< Label + JSON key prefix.
  LanguageLevel Level;
  size_t Size;      ///< List length.
  bool MustSpeedUp; ///< Part of the ≥10× acceptance claim.
};

struct ModeResult {
  bool Ok = true;
  uint64_t Steps = 0;
  double Seconds = 0;
  uint64_t LowerNs = 0;  ///< vm only: total compile time.
  uint64_t Chunks = 0;   ///< vm only: chunks compiled.

  double stepsPerSec() const { return Seconds > 0 ? Steps / Seconds : 0; }
};

ModeResult runWorkload(const Workload &W, EvalMode Mode, int Reps) {
  ModeResult Out;
  for (int I = 0; I != Reps; ++I) {
    MachineConfig Cfg;
    Cfg.Eval = Mode;
    // Raw step-rate measurement: Ψ maintenance costs the same in both modes
    // and would only dilute the dispatch-strategy difference.
    Cfg.TrackTypes = false;
    Setup S(W.Level, Cfg);

    // Untimed warm-up collection over a small heap in scratch regions. For
    // the VM this compiles every collector chunk (lowering is a one-time
    // cost per code value, reported in the lower-us column); for both modes
    // it pulls the hot paths into cache, so the timed window below measures
    // steady-state dispatch.
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
        std::fprintf(stderr, "%s (%s): warm-up collection failed: %s\n",
                     W.Name, evalModeName(Mode), S.M->stuckReason().c_str());
        Out.Ok = false;
        return Out;
      }
    }

    // Fresh regions: the warm-up's `only` reclaimed the Setup's defaults.
    Region R = S.M->createRegion("from", 0);
    Region Old = W.Level == LanguageLevel::Generational
                     ? S.M->createRegion("old", 0)
                     : R;
    ForgedHeap H = forgeList(*S.M, R, Old, W.Size);
    Address Fin = installFinisher(*S.M, H.Tag);
    const Term *E = collectOnceTerm(*S.M, S.GcAddr, H, R, Old, Fin);
    uint64_t Pre = S.M->stats().Steps; // start() does not reset stats
    S.M->start(E);
    auto T0 = std::chrono::steady_clock::now();
    S.M->run(50'000'000);
    Out.Seconds += secondsSince(T0);
    if (S.M->status() != Machine::Status::Halted) {
      std::fprintf(stderr, "%s (%s): collection failed: %s\n", W.Name,
                   evalModeName(Mode), S.M->stuckReason().c_str());
      Out.Ok = false;
      return Out;
    }
    Out.Steps += S.M->stats().Steps - Pre;
    if (S.Vm) {
      Out.LowerNs += S.Vm->lowerNs();
      Out.Chunks += S.Vm->chunksCompiled();
    }
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv);
  JsonReport Report("e13_vmrate");
  Report.evalMode("both");
  std::printf("E13: flat bytecode VM vs environment machine\n");
  std::printf("claim: lowering lambda-GC to bytecode (jump-target "
              "continuations, frame-index\nslots, precompiled operands) "
              "beats the env machine by >=10x steps/sec on the\nE2/E4 "
              "collector workloads\n\n");
  std::printf("%12s %10s %12s %12s %8s %10s %7s\n", "workload", "steps",
              "env st/s", "vm st/s", "speedup", "lower-us", "chunks");

  const Workload Workloads[] = {
      {"e2-forward", LanguageLevel::Forward, 192, true},
      {"e4-gen", LanguageLevel::Generational, 192, true},
  };
  // Enough repetitions for a stable rate; each rep is one full certified
  // collection over a fresh 192-cell list heap.
  const int Reps = 12;

  bool Ok = true;
  for (const Workload &W : Workloads) {
    ModeResult Env = runWorkload(W, EvalMode::Env, Reps);
    ModeResult Vm = runWorkload(W, EvalMode::Vm, Reps);
    if (!Env.Ok || !Vm.Ok)
      return 1;
    if (Env.Steps != Vm.Steps) {
      std::fprintf(stderr, "%s: modes disagree on step count (%llu vs %llu)\n",
                   W.Name, (unsigned long long)Env.Steps,
                   (unsigned long long)Vm.Steps);
      return 1;
    }
    double Speedup =
        Env.stepsPerSec() > 0 ? Vm.stepsPerSec() / Env.stepsPerSec() : 0;
    std::printf("%12s %10llu %12.3g %12.3g %7.1fx %10.1f %7llu\n", W.Name,
                (unsigned long long)Env.Steps, Env.stepsPerSec(),
                Vm.stepsPerSec(), Speedup, Vm.LowerNs / 1e3,
                (unsigned long long)Vm.Chunks);
    if (W.MustSpeedUp)
      Ok = Ok && Speedup >= 10.0;

    std::string P = W.Name;
    for (char &Ch : P)
      if (Ch == '-')
        Ch = '_';
    Report.metric(P + "_steps", Env.Steps);
    Report.metric(P + "_env_steps_per_sec", Env.stepsPerSec());
    Report.metric(P + "_vm_steps_per_sec", Vm.stepsPerSec());
    Report.metric(P + "_speedup", Speedup);
    Report.metric(P + "_vm_lower_ns", Vm.LowerNs);
    Report.metric(P + "_vm_chunks", Vm.Chunks);
  }

  std::printf("\n");
  verdict(Ok, "bytecode VM: >=10x steps/sec over the env machine on the "
              "E2/E4 collector workloads");
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
