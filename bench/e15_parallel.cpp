//===- bench/e15_parallel.cpp - E15: pipelined ⊢ (M, e) -------------------===//
//
// Pipelined certification: the incremental checker displaced onto a
// checker thread behind a bounded queue (gc/AsyncCheck.h). The mutator
// pays only for *capture* (journal slice + dirty offsets), not for the
// check itself. Sustained throughput is still checker-bound — the queue
// fills and backpressure returns the mutator to the checker's pace — so
// the honest measurement is a *bounded sprint* that fits in the queue:
// mutator-side steps/sec over a fixed window, sync per-step incremental
// check vs async capture, on the E12 workloads (E2 forwarding, E4
// generational). Claim: >= 3x. Verdict agreement on the accept side is
// checked here (session verdict + a final full checkState oracle); the
// reject side is the differential mutation test
// (tests/gc_async_check_test.cpp).
//
// The binary's name is historical (EXPERIMENTS.md, E15).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "gc/AsyncCheck.h"
#include "gc/StateCheck.h"

using namespace scav;
using namespace scav::bench;

namespace {

struct Workload {
  const char *Name;
  LanguageLevel Level;
  size_t Size;
};

void startWorkload(Setup &S, const Workload &W) {
  ForgedHeap H = forgeList(*S.M, S.R, S.Old, W.Size);
  Address Fin = installFinisher(*S.M, H.Tag);
  S.M->start(collectOnceTerm(*S.M, S.GcAddr, H, S.R, S.Old, Fin));
}

struct SprintResult {
  bool Ok = true;
  uint64_t Steps = 0;
  double Seconds = 0;

  double stepsPerSec() const { return Seconds > 0 ? Steps / Seconds : 0; }
};

/// Sync leg: step + incremental check, timed over the window. The attach
/// check (the O(heap) one) runs before the clock starts, matching the
/// untimed attach capture of the async leg.
SprintResult syncSprint(const Workload &W, uint64_t Window) {
  SprintResult Out;
  Setup S(W.Level);
  startWorkload(S, W);
  IncrementalCheckOptions IOpts;
  IOpts.RestrictToReachable = W.Level != LanguageLevel::Base;
  IncrementalStateCheck Inc(*S.M, IOpts);
  StateCheckResult R0 = Inc.check();
  if (!R0.Ok) {
    std::fprintf(stderr, "%s: initial state rejected: %s\n", W.Name,
                 R0.Error.c_str());
    Out.Ok = false;
    return Out;
  }
  auto T0 = std::chrono::steady_clock::now();
  for (uint64_t I = 0;
       I != Window && S.M->status() == Machine::Status::Running; ++I) {
    S.M->step();
    StateCheckResult R = Inc.check();
    if (!R.Ok) {
      std::fprintf(stderr, "%s: sync checker rejected step %llu: %s\n",
                   W.Name, (unsigned long long)I, R.Error.c_str());
      Out.Ok = false;
      return Out;
    }
    ++Out.Steps;
  }
  Out.Seconds = secondsSince(T0);
  return Out;
}

/// Async leg: step + capture, timed over the same window. The queue is
/// sized to hold the whole sprint so no capture ever blocks (sustained
/// running *would* block — that is the backpressure contract, and exactly
/// why this measures a sprint). finish() drains the checker off the clock;
/// its verdict and a final full checkState must both accept.
SprintResult asyncSprint(const Workload &W, uint64_t Window,
                         JsonReport *Export) {
  SprintResult Out;
  Setup S(W.Level);
  startWorkload(S, W);
  AsyncCheckSession::Options SOpts;
  SOpts.Check.RestrictToReachable = W.Level != LanguageLevel::Base;
  SOpts.QueueCapacity = Window + 8;
  AsyncCheckSession Session(*S.M, SOpts);
  Session.capture(); // attach, untimed (mirrors the sync leg's R0)
  auto T0 = std::chrono::steady_clock::now();
  for (uint64_t I = 0;
       I != Window && S.M->status() == Machine::Status::Running; ++I) {
    S.M->step();
    if (!Session.capture())
      break; // a failure verdict already exists; finish() reports it
    ++Out.Steps;
  }
  Out.Seconds = secondsSince(T0);
  AsyncVerdict V = Session.finish();
  if (!V.Ok) {
    std::fprintf(stderr, "%s: async checker rejected unit %llu: %s\n",
                 W.Name, (unsigned long long)V.UnitIndex, V.Error.c_str());
    Out.Ok = false;
    return Out;
  }
  StateCheckOptions Oracle;
  Oracle.CheckCodeRegion = false;
  Oracle.RestrictToReachable = SOpts.Check.RestrictToReachable;
  StateCheckResult RF = checkState(*S.M, Oracle);
  if (!RF.Ok) {
    std::fprintf(stderr,
                 "%s: VERDICT DISAGREEMENT: async accepted the sprint, full "
                 "checker says: %s\n",
                 W.Name, RF.Error.c_str());
    Out.Ok = false;
    return Out;
  }
  const AsyncCheckStats &St = Session.stats();
  if (St.LagResyncs != 0) {
    // The queue was sized for the sprint; a resync means the timing
    // included a synchronous fallback and the number is not a capture rate.
    std::fprintf(stderr, "%s: unexpected lag resync during sprint\n", W.Name);
    Out.Ok = false;
  }
  if (Export)
    St.exportTo(Export->registry());
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv);
  JsonReport Report("e15_parallel");
  std::printf("E15: pipelined certification\n");
  std::printf("claim: async capture makes per-step-certified mutator sprints "
              ">= 3x the sync\nincremental checker on the E2/E4 workloads, "
              "verdicts agreeing\n\n");

  bool Ok = true;
  std::printf("certified-mutator sprint, sync check vs async capture\n");
  std::printf("%12s %8s %12s %12s %8s\n", "workload", "steps", "sync st/s",
              "async st/s", "speedup");
  const Workload Workloads[] = {
      {"e2-forward", LanguageLevel::Forward, 192},
      {"e4-gen", LanguageLevel::Generational, 192},
  };
  const uint64_t Window = 1200;
  for (const Workload &W : Workloads) {
    SprintResult Sync = syncSprint(W, Window);
    bool ExportAsync = std::string_view(W.Name) == "e4-gen";
    SprintResult Async =
        asyncSprint(W, Window, ExportAsync ? &Report : nullptr);
    if (!Sync.Ok || !Async.Ok)
      return 1;
    double Speedup =
        Sync.stepsPerSec() > 0 ? Async.stepsPerSec() / Sync.stepsPerSec() : 0;
    std::printf("%12s %8llu %12.3g %12.3g %7.1fx\n", W.Name,
                (unsigned long long)Async.Steps, Sync.stepsPerSec(),
                Async.stepsPerSec(), Speedup);
    Ok = Ok && Speedup >= 3.0 && Async.Steps == Sync.Steps;
    std::string P = W.Name;
    for (char &Ch : P)
      if (Ch == '-')
        Ch = '_';
    Report.metric(P + "_steps", Async.Steps);
    Report.metric(P + "_sync_steps_per_sec", Sync.stepsPerSec());
    Report.metric(P + "_async_steps_per_sec", Async.stepsPerSec());
    Report.metric(P + "_sprint_speedup", Speedup);
  }

  std::printf("\n");
  verdict(Ok, "async capture sprints >= 3x the sync incremental checker, "
              "verdicts agreeing");
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
