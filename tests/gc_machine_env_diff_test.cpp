//===- tests/gc_machine_env_diff_test.cpp - Env vs Subst machine oracle ---===//
//
// Differential testing of the two evaluation modes: the environment machine
// (MachineConfig::EvalMode::Env, the default) must be observationally
// identical to the paper-verbatim substitution machine (EvalMode::Subst) on
// every program we can throw at it — same halt values, same step counts,
// same operational statistics, same stuck diagnostics, and the same
// checkState verdicts, at all three language levels.
//
// Two program sources:
//  * whole-pipeline programs from the random source generator (exercises
//    App/Let/ifgc/typecase/open under real certified collections);
//  * forged random heaps collected once by the level's certified collector
//    (exercises set/widen/only/ifreg-heavy collector code).
//
// Stats are compared field by field EXCEPT (a) the Env* counters, which are
// zero by definition in Subst mode, and (b) the RecordPutCacheHits/Misses
// split, which legitimately differs: the put memo's shape key holds the
// pointers of a stored value's pack annotations, and substitution rebuilds
// (and may alpha-rename) annotations the env machine shares, so Subst sees
// fewer memo hits. The hit+miss *sum* (= number of tracked puts) must
// still agree.
//
//===----------------------------------------------------------------------===//

#include "gc/StateCheck.h"
#include "harness/HeapForge.h"
#include "harness/Pipeline.h"
#include "harness/ProgramGen.h"

#include <gtest/gtest.h>

using namespace scav;
using namespace scav::gc;
using namespace scav::harness;

namespace {

/// Every stat that must agree across modes, as (name, value) for readable
/// failure output. Excludes Env* (zero in Subst mode by definition) and the
/// RecordPutCache hit/miss split (see the header comment); the sum of the
/// split is included instead.
std::vector<std::pair<std::string, uint64_t>>
comparableStats(const MachineStats &S) {
  return {
      {"Steps", S.Steps},
      {"Puts", S.Puts},
      {"Gets", S.Gets},
      {"Sets", S.Sets},
      {"Projections", S.Projections},
      {"Applications", S.Applications},
      {"TypecaseSteps", S.TypecaseSteps},
      {"Opens", S.Opens},
      {"RegionsCreated", S.RegionsCreated},
      {"RegionsReclaimed", S.RegionsReclaimed},
      {"OnlyOps", S.OnlyOps},
      {"OnlyRegionsScanned", S.OnlyRegionsScanned},
      {"Widens", S.Widens},
      {"IfGcTaken", S.IfGcTaken},
      {"IfGcSkipped", S.IfGcSkipped},
      {"RecordPuts", S.RecordPutCacheHits + S.RecordPutCacheMisses},
  };
}

void expectSameStats(const MachineStats &Env, const MachineStats &Sub,
                     const std::string &What) {
  auto A = comparableStats(Env), B = comparableStats(Sub);
  for (size_t I = 0; I != A.size(); ++I)
    EXPECT_EQ(A[I].second, B[I].second)
        << What << ": stat " << A[I].first << " diverges (env vs subst)";
}

MachineConfig configFor(EvalMode Mode) {
  MachineConfig Cfg;
  Cfg.Eval = Mode;
  Cfg.DefaultRegionCapacity = 12; // small: force collections
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Whole-pipeline programs
//===----------------------------------------------------------------------===//

struct PipelineOutcome {
  RunResult Run;
  MachineStats Stats;
  size_t LiveCells = 0;
  bool CheckOk = false;
  std::string StuckReason;
};

PipelineOutcome runPipeline(uint64_t Seed, LanguageLevel Level, EvalMode Mode,
                            bool Incremental) {
  PipelineOptions Opts;
  Opts.Level = Level;
  Opts.Machine = configFor(Mode);
  Opts.IncrementalCheck = Incremental;

  Pipeline Pipe(Opts);
  Rng R(Seed);
  GenOptions GOpts;
  GOpts.MaxDepth = 4;
  GOpts.MaxIterations = 8;
  const lambda::Expr *Prog = genProgram(Pipe.lambdaContext(), R, GOpts);

  DiagEngine Diags;
  PipelineOutcome Out;
  if (!Pipe.compileExpr(Prog, Diags)) {
    ADD_FAILURE() << "seed " << Seed << " does not compile:\n" << Diags.str();
    return Out;
  }
  // Deep-check every 13 steps: lands ⊢ (M, e) checks inside collections, in
  // both modes, so a checker-visible difference between the forced Env term
  // and the substituted term would fail here.
  Out.Run = Pipe.runMachine(3'000'000, /*CheckEveryN=*/13);
  Out.Stats = Pipe.machine().stats();
  Out.LiveCells = Pipe.machine().memory().liveDataCells();
  Out.CheckOk = checkState(Pipe.machine()).Ok;
  Out.StuckReason = Pipe.machine().status() == Machine::Status::Stuck
                        ? Pipe.machine().stuckReason()
                        : "";
  return Out;
}

class EnvDiffPipeline
    : public ::testing::TestWithParam<std::tuple<int, LanguageLevel>> {};

TEST_P(EnvDiffPipeline, ModesAgreeOnRandomPrograms) {
  auto [SeedIdx, Level] = GetParam();
  uint64_t Seed = 0xE17D1FF0 + static_cast<uint64_t>(SeedIdx) * 7919;

  // 4-way differential: evaluation mode (env vs subst) × per-step checker
  // (incremental vs full). All four runs must agree observationally, and
  // the checker dimension must be invisible to the machine.
  PipelineOutcome E = runPipeline(Seed, Level, EvalMode::Env, true);
  PipelineOutcome S = runPipeline(Seed, Level, EvalMode::Subst, true);
  PipelineOutcome EF = runPipeline(Seed, Level, EvalMode::Env, false);
  PipelineOutcome SF = runPipeline(Seed, Level, EvalMode::Subst, false);

  std::string What =
      "seed " + std::to_string(Seed) + " " + languageLevelName(Level);
  EXPECT_EQ(E.Run.Ok, S.Run.Ok) << What << ": " << E.Run.Error << " vs "
                                << S.Run.Error;
  EXPECT_EQ(E.Run.Value, S.Run.Value) << What;
  EXPECT_EQ(E.Run.Steps, S.Run.Steps) << What;
  EXPECT_EQ(E.StuckReason, S.StuckReason) << What;
  EXPECT_EQ(E.LiveCells, S.LiveCells) << What;
  EXPECT_EQ(E.CheckOk, S.CheckOk) << What;
  EXPECT_TRUE(E.CheckOk) << What << ": final Env state fails checkState";
  expectSameStats(E.Stats, S.Stats, What);

  auto expectCheckerInvisible = [&](const PipelineOutcome &Incr,
                                    const PipelineOutcome &Full,
                                    const char *Mode) {
    std::string W = What + " (" + Mode + ") incremental vs full checker";
    EXPECT_EQ(Incr.Run.Ok, Full.Run.Ok)
        << W << ": " << Incr.Run.Error << " vs " << Full.Run.Error;
    EXPECT_EQ(Incr.Run.Value, Full.Run.Value) << W;
    EXPECT_EQ(Incr.Run.Steps, Full.Run.Steps) << W;
    EXPECT_EQ(Incr.StuckReason, Full.StuckReason) << W;
    EXPECT_EQ(Incr.LiveCells, Full.LiveCells) << W;
    EXPECT_EQ(Incr.CheckOk, Full.CheckOk) << W;
    expectSameStats(Incr.Stats, Full.Stats, W);
  };
  expectCheckerInvisible(E, EF, "env");
  expectCheckerInvisible(S, SF, "subst");
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EnvDiffPipeline,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(LanguageLevel::Base,
                                         LanguageLevel::Forward,
                                         LanguageLevel::Generational)),
    [](const ::testing::TestParamInfo<std::tuple<int, LanguageLevel>> &Info) {
      std::string L = languageLevelName(std::get<1>(Info.param)) + 7;
      for (char &Ch : L)
        if (Ch == '-')
          Ch = '_';
      return "seed" + std::to_string(std::get<0>(Info.param)) + "_" + L;
    });

//===----------------------------------------------------------------------===//
// Forged heaps through one certified collection
//===----------------------------------------------------------------------===//

struct CollectOutcome {
  Machine::Status St = Machine::Status::Stuck;
  int64_t Halt = -1;
  MachineStats Stats;
  size_t LiveCells = 0;
  bool CheckOk = false;
  std::string StuckReason;
};

CollectOutcome runCollect(LanguageLevel Level, uint64_t Seed, size_t Budget,
                          EvalMode Mode) {
  GcContext C;
  MachineConfig Cfg;
  Cfg.Eval = Mode;
  Machine M(C, Level, Cfg);
  Address GcAddr{};
  switch (Level) {
  case LanguageLevel::Base:
    GcAddr = installBasicCollector(M).Gc;
    break;
  case LanguageLevel::Forward:
    GcAddr = installForwardCollector(M).Gc;
    break;
  case LanguageLevel::Generational:
    GcAddr = installGenCollector(M).Gc;
    break;
  }
  Region R = M.createRegion("from", 0);
  Region Old = Level == LanguageLevel::Generational
                   ? M.createRegion("old", 0)
                   : R;
  Rng Rand(Seed);
  ForgedHeap H = forgeRandom(M, R, Old, Rand, Budget);
  Address Fin = installFinisher(M, H.Tag);
  const Term *E = collectOnceTerm(M, GcAddr, H, R, Old, Fin);
  M.start(E);
  M.run(50'000'000);

  CollectOutcome Out;
  Out.St = M.status();
  if (M.status() == Machine::Status::Halted && M.haltValue() &&
      M.haltValue()->is(ValueKind::Int))
    Out.Halt = M.haltValue()->intValue();
  Out.Stats = M.stats();
  Out.LiveCells = M.memory().liveDataCells();
  StateCheckOptions ChkOpts;
  // After widen (λGC-forw), dead from-space objects may not match the
  // collector-view Ψ; Def 7.1's reachable restriction is the right check.
  ChkOpts.RestrictToReachable = Level != LanguageLevel::Base;
  Out.CheckOk = checkState(M, ChkOpts).Ok;
  Out.StuckReason =
      M.status() == Machine::Status::Stuck ? M.stuckReason() : "";
  return Out;
}

class EnvDiffCollect
    : public ::testing::TestWithParam<std::tuple<int, LanguageLevel>> {};

TEST_P(EnvDiffCollect, ModesAgreeOnCertifiedCollections) {
  auto [SeedIdx, Level] = GetParam();
  uint64_t Seed = 0xF0 + static_cast<uint64_t>(SeedIdx) * 6151;

  CollectOutcome E = runCollect(Level, Seed, 20, EvalMode::Env);
  CollectOutcome S = runCollect(Level, Seed, 20, EvalMode::Subst);

  std::string What =
      "seed " + std::to_string(Seed) + " " + languageLevelName(Level);
  EXPECT_EQ(E.St, S.St) << What << ": " << E.StuckReason << " vs "
                        << S.StuckReason;
  EXPECT_EQ(E.Halt, S.Halt) << What;
  EXPECT_EQ(E.StuckReason, S.StuckReason) << What;
  EXPECT_EQ(E.LiveCells, S.LiveCells) << What;
  EXPECT_EQ(E.CheckOk, S.CheckOk) << What;
  EXPECT_TRUE(E.CheckOk) << What
                         << ": post-collection Env state fails checkState";
  expectSameStats(E.Stats, S.Stats, What);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EnvDiffCollect,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(LanguageLevel::Base,
                                         LanguageLevel::Forward,
                                         LanguageLevel::Generational)),
    [](const ::testing::TestParamInfo<std::tuple<int, LanguageLevel>> &Info) {
      std::string L = languageLevelName(std::get<1>(Info.param)) + 7;
      for (char &Ch : L)
        if (Ch == '-')
          Ch = '_';
      return "seed" + std::to_string(std::get<0>(Info.param)) + "_" + L;
    });

//===----------------------------------------------------------------------===//
// Stuck diagnostics force the environment
//===----------------------------------------------------------------------===//

/// Builds `let x = val 5 in let y = π1 x in halt y`, whose π1 step is stuck
/// on a non-pair. In Env mode the scrutinee reaches the diagnostic as the
/// *variable* x and must be resolved through the environment before
/// printing; the message must match Subst mode byte for byte.
std::string stuckReasonFor(EvalMode Mode) {
  GcContext C;
  MachineConfig Cfg;
  Cfg.Eval = Mode;
  Machine M(C, LanguageLevel::Base, Cfg);
  Symbol X = C.intern("x"), Y = C.intern("y");
  const Term *E = C.termLet(
      X, C.opVal(C.valInt(5)),
      C.termLet(Y, C.opProj(1, C.valVar(X)), C.termHalt(C.valVar(Y))));
  M.start(E);
  M.run(100);
  EXPECT_EQ(M.status(), Machine::Status::Stuck);
  return M.stuckReason();
}

TEST(EnvDiff, StuckDiagnosticsResolveEnvironment) {
  std::string E = stuckReasonFor(EvalMode::Env);
  std::string S = stuckReasonFor(EvalMode::Subst);
  EXPECT_EQ(E, S);
  // The resolved value, not the variable, must appear in the message.
  EXPECT_NE(E.find("5"), std::string::npos) << E;
}

/// Env-mode bookkeeping sanity: the counters exist, move, and stay zero in
/// Subst mode.
TEST(EnvDiff, EnvCountersMoveOnlyInEnvMode) {
  for (EvalMode Mode : {EvalMode::Env, EvalMode::Subst}) {
    PipelineOptions Opts;
    Opts.Level = LanguageLevel::Base;
    Opts.Machine = configFor(Mode);
    Pipeline Pipe(Opts);
    DiagEngine Diags;
    ASSERT_TRUE(Pipe.compile("(+ (fst (pair 20 1)) 22)", Diags))
        << Diags.str();
    RunResult R = Pipe.runMachine();
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Value, 42);
    const MachineStats &S = Pipe.machine().stats();
    if (Mode == EvalMode::Env) {
      EXPECT_GT(S.EnvBindings, 0u);
      EXPECT_GT(S.EnvLookups, 0u);
      EXPECT_GT(S.EnvDepthPeak, 0u);
    } else {
      EXPECT_EQ(S.EnvBindings, 0u);
      EXPECT_EQ(S.EnvLookups, 0u);
      EXPECT_EQ(S.EnvForces, 0u);
      EXPECT_EQ(S.EnvDepthPeak, 0u);
    }
  }
}

} // namespace
