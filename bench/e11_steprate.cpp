//===- bench/e11_steprate.cpp - E11: env vs subst machine step rate -------===//
//
// The λGC machine of Fig 5 is specified with whole-term substitution: every
// App/Let/open step rewrites the entire continuation. E11 measures what the
// environment machine (MachineConfig::EvalMode::Env, the default since this
// experiment landed) buys over that paper-verbatim strategy on the heavy
// certified-collection workloads of E2 (forwarding), E4 (generational), and
// E8 (basic level over random heaps):
//
//   * steps/second in both modes (the headline: Env must be ≥5× on the
//     forwarding and generational workloads);
//   * peak term-arena bytes — Subst mode materializes a fresh continuation
//     per step; Env mode allocates only at use sites and force boundaries.
//
// Both modes execute the same collections; the differential test
// (tests/gc_machine_env_diff_test) separately asserts they agree step for
// step, so this binary only measures.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/Trace.h"

using namespace scav;
using namespace scav::bench;

namespace {

struct Workload {
  const char *Name;      ///< Label + JSON key prefix.
  LanguageLevel Level;
  size_t Size;           ///< List length / node budget.
  bool Random;           ///< forgeRandom instead of forgeList.
  bool MustSpeedUp;      ///< Part of the ≥5× acceptance claim.
};

struct ModeResult {
  bool Ok = true;
  uint64_t Steps = 0;
  double Seconds = 0;
  size_t ArenaPeak = 0; ///< bytesReserved is monotone, so final == peak.
  std::vector<double> CollectNs; ///< Per-repetition collection wall time.

  double stepsPerSec() const { return Seconds > 0 ? Steps / Seconds : 0; }
};

ModeResult runWorkload(const Workload &W, EvalMode Mode, int Reps) {
  ModeResult Out;
  for (int I = 0; I != Reps; ++I) {
    MachineConfig Cfg;
    Cfg.Eval = Mode;
    // Raw step-rate measurement: Ψ maintenance costs the same in both modes
    // and would only dilute the strategy difference being measured.
    Cfg.TrackTypes = false;
    Setup S(W.Level, Cfg);
    ForgedHeap H;
    if (W.Random) {
      Rng Rand(0xE11 + I);
      H = forgeRandom(*S.M, S.R, S.Old, Rand, W.Size);
    } else {
      H = forgeList(*S.M, S.R, S.Old, W.Size);
    }
    Address Fin = installFinisher(*S.M, H.Tag);
    const Term *E = collectOnceTerm(*S.M, S.GcAddr, H, S.R, S.Old, Fin);
    S.M->start(E);
    auto T0 = std::chrono::steady_clock::now();
    S.M->run(50'000'000);
    double RepSec = secondsSince(T0);
    Out.Seconds += RepSec;
    Out.CollectNs.push_back(RepSec * 1e9);
    if (S.M->status() != Machine::Status::Halted) {
      std::fprintf(stderr, "%s (%s): collection failed: %s\n", W.Name,
                   evalModeName(Mode), S.M->stuckReason().c_str());
      Out.Ok = false;
      return Out;
    }
    Out.Steps += S.M->stats().Steps;
    size_t Bytes = S.C->arena().bytesReserved();
    if (Bytes > Out.ArenaPeak)
      Out.ArenaPeak = Bytes;
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv);
  JsonReport Report("e11_steprate");
  Report.evalMode("both");
  std::printf("E11: environment machine vs Fig 5 whole-term substitution\n");
  std::printf("claim: resolving variables through a persistent environment "
              "beats per-step\nsubstitution by >=5x steps/sec on the E2/E4 "
              "collector workloads, with a\nsmaller term arena\n\n");
  std::printf("%12s %10s %12s %12s %8s %10s %10s\n", "workload", "steps",
              "env st/s", "subst st/s", "speedup", "env-arena",
              "subst-arena");

  const Workload Workloads[] = {
      {"e2-forward", LanguageLevel::Forward, 192, false, true},
      {"e4-gen", LanguageLevel::Generational, 192, false, true},
      {"e8-base", LanguageLevel::Base, 160, true, false},
  };
  // Per-workload repetitions: enough wall time for a stable rate without
  // making the Subst baseline take minutes.
  const int Reps = 12;

  bool Ok = true;
  for (const Workload &W : Workloads) {
    ModeResult Env = runWorkload(W, EvalMode::Env, Reps);
    ModeResult Sub = runWorkload(W, EvalMode::Subst, Reps);
    if (!Env.Ok || !Sub.Ok)
      return 1;
    if (Env.Steps != Sub.Steps) {
      std::fprintf(stderr, "%s: modes disagree on step count (%llu vs %llu)\n",
                   W.Name, (unsigned long long)Env.Steps,
                   (unsigned long long)Sub.Steps);
      return 1;
    }
    double Speedup =
        Sub.stepsPerSec() > 0 ? Env.stepsPerSec() / Sub.stepsPerSec() : 0;
    std::printf("%12s %10llu %12.3g %12.3g %7.1fx %9zuK %9zuK\n", W.Name,
                (unsigned long long)Env.Steps, Env.stepsPerSec(),
                Sub.stepsPerSec(), Speedup, Env.ArenaPeak / 1024,
                Sub.ArenaPeak / 1024);
    if (W.MustSpeedUp)
      Ok = Ok && Speedup >= 5.0;
    Ok = Ok && Env.ArenaPeak <= Sub.ArenaPeak;
    for (double Ns : Env.CollectNs)
      Report.sample("env_collect_ns", Ns);
    for (double Ns : Sub.CollectNs)
      Report.sample("subst_collect_ns", Ns);

    std::string P = W.Name;
    for (char &Ch : P)
      if (Ch == '-')
        Ch = '_';
    Report.metric(P + "_steps", Env.Steps);
    Report.metric(P + "_env_steps_per_sec", Env.stepsPerSec());
    Report.metric(P + "_subst_steps_per_sec", Sub.stepsPerSec());
    Report.metric(P + "_speedup", Speedup);
    Report.metric(P + "_env_arena_peak_bytes", uint64_t(Env.ArenaPeak));
    Report.metric(P + "_subst_arena_peak_bytes", uint64_t(Sub.ArenaPeak));
  }

#if SCAV_TRACE_COMPILED_IN
  // Tracing overhead (informational): the same E2 workload with the ring
  // sink actively recording vs with tracing compiled in but disabled (the
  // default state every number above was measured in). The compiled-OUT
  // cost is a build-level property; CI compares this binary's steps/sec
  // against an SCAV_TRACE_OFF build (see .github/workflows/ci.yml).
  {
    const Workload &W = Workloads[0];
    ModeResult Base = runWorkload(W, EvalMode::Env, Reps / 2);
    support::TraceSink::get().enable();
    ModeResult Traced = runWorkload(W, EvalMode::Env, Reps / 2);
    support::TraceSink::get().disable();
    if (Base.Ok && Traced.Ok && Base.stepsPerSec() > 0) {
      double Relative = Traced.stepsPerSec() / Base.stepsPerSec();
      std::printf("\ntracing enabled (ring sink recording): %.3g st/s vs "
                  "%.3g disabled (%.0f%% of disabled rate)\n",
                  Traced.stepsPerSec(), Base.stepsPerSec(), Relative * 100);
      Report.metric("trace_disabled_steps_per_sec", Base.stepsPerSec());
      Report.metric("trace_enabled_steps_per_sec", Traced.stepsPerSec());
      Report.metric("trace_enabled_relative_rate", Relative);
    }
  }
#endif

  std::printf("\n");
  verdict(Ok, "env mode: >=5x steps/sec over substitution on the E2/E4 "
              "collector workloads, with no larger a term arena");
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
