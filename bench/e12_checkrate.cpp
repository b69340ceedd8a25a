//===- bench/e12_checkrate.cpp - E12: incremental vs full ⊢ (M, e) --------===//
//
// Per-step soundness checking is the paper's executable theorem, but the
// full checkState re-derives Ψ ⊢ M(a) : Ψ(a) for every heap cell at every
// step — O(heap) work for an O(1) step. E12 measures what the incremental
// checker (delta journal + cached cell judgments, gc/StateCheck.h) buys on
// the heavy certified-collection workloads of E2 (forwarding) and E4
// (generational):
//
//   * per-step-checked steps/second with the full checker (measured over a
//     bounded window — full checking an entire collection takes minutes)
//     vs with the incremental checker (measured over the entire run);
//   * the acceptance claim: incremental is >=10x on both workloads;
//   * verdict agreement: during the incremental run the full checker is
//     re-run as an oracle on a fixed cadence and must agree every time
//     (the differential and mutation tests cover the reject side).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "gc/StateCheck.h"

using namespace scav;
using namespace scav::bench;

namespace {

struct Workload {
  const char *Name; ///< Label + JSON key prefix.
  LanguageLevel Level;
  size_t Size; ///< List length.
};

/// Builds the workload's machine, forges the heap, and starts the
/// one-collection term.
void startWorkload(Setup &S, const Workload &W) {
  ForgedHeap H = forgeList(*S.M, S.R, S.Old, W.Size);
  Address Fin = installFinisher(*S.M, H.Tag);
  S.M->start(collectOnceTerm(*S.M, S.GcAddr, H, S.R, S.Old, Fin));
}

struct RateResult {
  bool Ok = true;
  uint64_t Steps = 0;
  double Seconds = 0;
  uint64_t AgreementChecks = 0;
  IncrementalCheckStats Inc;

  double stepsPerSec() const { return Seconds > 0 ? Steps / Seconds : 0; }
};

/// Step + full checkState over a bounded window (the full checker is the
/// O(heap) baseline being displaced; whole-run full checking is minutes).
RateResult runFull(const Workload &W, uint64_t WindowSteps,
                   JsonReport &Report) {
  RateResult Out;
  Setup S(W.Level);
  startWorkload(S, W);
  StateCheckOptions Chk;
  Chk.RestrictToReachable = W.Level != LanguageLevel::Base;
  StateCheckResult R0 = checkState(*S.M, Chk);
  if (!R0.Ok) {
    std::fprintf(stderr, "%s: initial state rejected: %s\n", W.Name,
                 R0.Error.c_str());
    Out.Ok = false;
    return Out;
  }
  Chk.CheckCodeRegion = false;
  auto T0 = std::chrono::steady_clock::now();
  for (uint64_t I = 0;
       I != WindowSteps && S.M->status() == Machine::Status::Running; ++I) {
    S.M->step();
    auto C0 = std::chrono::steady_clock::now();
    StateCheckResult R = checkState(*S.M, Chk);
    Report.sample("full_check_ns", secondsSince(C0) * 1e9);
    if (!R.Ok) {
      std::fprintf(stderr, "%s: full checker rejected step %llu: %s\n",
                   W.Name, (unsigned long long)I, R.Error.c_str());
      Out.Ok = false;
      return Out;
    }
    ++Out.Steps;
  }
  Out.Seconds = secondsSince(T0);
  return Out;
}

/// Step + incremental check to halt, with the full checker re-run as an
/// oracle every \p OracleEvery steps (0 = never).
RateResult runIncremental(const Workload &W, uint64_t OracleEvery,
                          JsonReport &Report) {
  RateResult Out;
  Setup S(W.Level);
  startWorkload(S, W);
  IncrementalCheckOptions IOpts;
  IOpts.RestrictToReachable = W.Level != LanguageLevel::Base;
  IncrementalStateCheck Inc(*S.M, IOpts);
  StateCheckOptions Oracle;
  Oracle.CheckCodeRegion = false;
  Oracle.RestrictToReachable = IOpts.RestrictToReachable;

  StateCheckResult R0 = Inc.check();
  if (!R0.Ok) {
    std::fprintf(stderr, "%s: initial state rejected: %s\n", W.Name,
                 R0.Error.c_str());
    Out.Ok = false;
    return Out;
  }
  double OracleSeconds = 0;
  auto T0 = std::chrono::steady_clock::now();
  for (uint64_t I = 0;
       I != 50'000'000 && S.M->status() == Machine::Status::Running; ++I) {
    S.M->step();
    StateCheckResult R = Inc.check();
    if (!R.Ok) {
      std::fprintf(stderr, "%s: incremental checker rejected step %llu: %s\n",
                   W.Name, (unsigned long long)I, R.Error.c_str());
      Out.Ok = false;
      return Out;
    }
    ++Out.Steps;
    if (OracleEvery != 0 && I % OracleEvery == 0) {
      auto O0 = std::chrono::steady_clock::now();
      StateCheckResult RF = checkState(*S.M, Oracle);
      double OSec = secondsSince(O0);
      OracleSeconds += OSec;
      Report.sample("oracle_check_ns", OSec * 1e9);
      ++Out.AgreementChecks;
      if (!RF.Ok) {
        std::fprintf(stderr,
                     "%s: VERDICT DISAGREEMENT at step %llu: incremental "
                     "accepted, full says: %s\n",
                     W.Name, (unsigned long long)I, RF.Error.c_str());
        Out.Ok = false;
        return Out;
      }
    }
  }
  // The oracle's own cost is not the incremental checker's.
  Out.Seconds = secondsSince(T0) - OracleSeconds;
  if (S.M->status() != Machine::Status::Halted) {
    std::fprintf(stderr, "%s: collection did not halt: %s\n", W.Name,
                 S.M->stuckReason().c_str());
    Out.Ok = false;
  }
  Out.Inc = Inc.stats();
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv);
  JsonReport Report("e12_checkrate");
  std::printf("E12: incremental vs full per-step state checking\n");
  std::printf("claim: journaling the step delta and caching per-cell "
              "judgments makes\nper-step-checked execution >=10x faster "
              "than re-running the full O(heap)\ncheckState, with verdict "
              "agreement on an oracle cadence\n\n");
  std::printf("%12s %10s %11s %11s %8s %10s %9s\n", "workload", "steps",
              "full st/s", "incr st/s", "speedup", "validated", "oracles");

  const Workload Workloads[] = {
      {"e2-forward", LanguageLevel::Forward, 192},
      {"e4-gen", LanguageLevel::Generational, 192},
  };
  // Full-checker window: enough steps for a stable per-step cost (which is
  // dominated by the O(heap) cell loop) without taking minutes.
  const uint64_t WindowSteps = 250;
  const uint64_t OracleEvery = 97;

  bool Ok = true;
  for (const Workload &W : Workloads) {
    RateResult Full = runFull(W, WindowSteps, Report);
    RateResult Incr = runIncremental(W, OracleEvery, Report);
    if (!Full.Ok || !Incr.Ok)
      return 1;
    double Speedup = Full.stepsPerSec() > 0
                         ? Incr.stepsPerSec() / Full.stepsPerSec()
                         : 0;
    std::printf("%12s %10llu %11.3g %11.3g %7.1fx %10llu %9llu\n", W.Name,
                (unsigned long long)Incr.Steps, Full.stepsPerSec(),
                Incr.stepsPerSec(), Speedup,
                (unsigned long long)Incr.Inc.CellsValidated,
                (unsigned long long)Incr.AgreementChecks);
    Ok = Ok && Speedup >= 10.0 && Incr.AgreementChecks > 0;

    std::string P = W.Name;
    for (char &Ch : P)
      if (Ch == '-')
        Ch = '_';
    Report.metric(P + "_steps", Incr.Steps);
    Report.metric(P + "_full_steps_per_sec", Full.stepsPerSec());
    Report.metric(P + "_incr_steps_per_sec", Incr.stepsPerSec());
    Report.metric(P + "_speedup", Speedup);
    Report.metric(P + "_agreement_checks", Incr.AgreementChecks);
    Report.metric(P + "_cells_validated", Incr.Inc.CellsValidated);
    Report.metric(P + "_judgment_cache_hits", Incr.Inc.CellJudgmentCacheHits);
    Report.metric(P + "_region_invalidations", Incr.Inc.RegionInvalidations);
    Report.metric(P + "_dependent_invalidations",
                  Incr.Inc.DependentInvalidations);
    Report.metric(P + "_reach_exact_recomputes",
                  Incr.Inc.ReachExactRecomputes);
  }

  std::printf("\n");
  verdict(Ok, "incremental checking: >=10x per-step-checked steps/sec over "
              "the full checker on the E2/E4 collector workloads, oracle "
              "verdicts agreeing throughout");
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
