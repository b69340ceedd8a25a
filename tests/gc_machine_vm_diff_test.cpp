//===- tests/gc_machine_vm_diff_test.cpp - Env vs Subst vs Vm oracle ------===//
//
// Three-way differential testing of the evaluation backends: the bytecode
// VM (MachineConfig::EvalMode::Vm) must be observationally identical to the
// environment machine and the paper-verbatim substitution machine — same
// halt values, step counts, operational statistics, stuck diagnostics, and
// checkState verdicts, at all three language levels.
//
// Program sources mirror tests/gc_machine_env_diff_test.cpp: whole-pipeline
// random programs (certified collections embedded in real control flow) and
// forged random heaps pushed through one certified collection. The VM runs
// with the incremental per-step checker enabled in the pipeline leg, so the
// ⊢ (M, e) judgement is applied to the VM's reconstructed terms mid-
// collection, not just at the end. One more pair runs the VM against the
// environment machine with Ψ tracking off and no checks: the configuration
// that arms the VM's word-direct FastHeap paths (word frame slots,
// word-level put/set, aux-word opens), which a tracked run never takes.
//
// Stats comparison: everything except the Env* counters (the VM binds
// frames, not environments) and the RecordPutCache hit/miss split (the put
// memo's shape key holds annotation pointers, which each backend builds
// its own way; the sum, the number of tracked puts, must still agree).
//
//===----------------------------------------------------------------------===//

#include "gc/StateCheck.h"
#include "harness/HeapForge.h"
#include "harness/Pipeline.h"
#include "harness/ProgramGen.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

using namespace scav;
using namespace scav::gc;
using namespace scav::harness;

namespace {

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

void expectSameStats(const MachineStats &A, const MachineStats &B,
                     const std::string &What) {
  auto SA = comparableStats(A), SB = comparableStats(B);
  for (size_t I = 0; I != SA.size(); ++I)
    EXPECT_EQ(SA[I].second, SB[I].second)
        << What << ": stat " << SA[I].first << " diverges";
}

const char *modeName(EvalMode Mode) {
  switch (Mode) {
  case EvalMode::Env:
    return "env";
  case EvalMode::Subst:
    return "subst";
  case EvalMode::Vm:
    return "vm";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Whole-pipeline programs
//===----------------------------------------------------------------------===//

struct Outcome {
  RunResult Run;
  MachineStats Stats;
  size_t LiveCells = 0;
  bool CheckOk = false;
  std::string StuckReason;
};

/// \p TrackTypes off also turns every check off: without Ψ there is nothing
/// to check against.
Outcome runPipeline(uint64_t Seed, LanguageLevel Level, EvalMode Mode,
                    bool TrackTypes = true) {
  PipelineOptions Opts;
  Opts.Level = Level;
  Opts.Machine.Eval = Mode;
  Opts.Machine.TrackTypes = TrackTypes;
  Opts.Machine.DefaultRegionCapacity = 12; // small: force collections
  Opts.IncrementalCheck = true;

  Pipeline Pipe(Opts);
  Rng R(Seed);
  GenOptions GOpts;
  GOpts.MaxDepth = 4;
  GOpts.MaxIterations = 8;
  const lambda::Expr *Prog = genProgram(Pipe.lambdaContext(), R, GOpts);

  DiagEngine Diags;
  Outcome Out;
  if (!Pipe.compileExpr(Prog, Diags)) {
    ADD_FAILURE() << "seed " << Seed << " does not compile:\n" << Diags.str();
    return Out;
  }
  // Deep-check every 13 steps: lands ⊢ (M, e) checks inside collections, so
  // a checker-visible difference between the VM's reconstructed term and
  // the interpreters' terms fails here, mid-collection.
  Out.Run = Pipe.runMachine(3'000'000, /*CheckEveryN=*/TrackTypes ? 13 : 0);
  Out.Stats = Pipe.machine().stats();
  Out.LiveCells = Pipe.machine().memory().liveDataCells();
  Out.CheckOk = TrackTypes && checkState(Pipe.machine()).Ok;
  Out.StuckReason = Pipe.machine().status() == Machine::Status::Stuck
                        ? Pipe.machine().stuckReason()
                        : "";
  return Out;
}

class VmDiffPipeline
    : public ::testing::TestWithParam<std::tuple<int, LanguageLevel>> {};

TEST_P(VmDiffPipeline, BackendsAgreeOnRandomPrograms) {
  auto [SeedIdx, Level] = GetParam();
  uint64_t Seed = 0xB17EC0DE + static_cast<uint64_t>(SeedIdx) * 7919;

  Outcome E = runPipeline(Seed, Level, EvalMode::Env);
  Outcome V = runPipeline(Seed, Level, EvalMode::Vm);
  Outcome S = runPipeline(Seed, Level, EvalMode::Subst);
  Outcome EF = runPipeline(Seed, Level, EvalMode::Env, /*TrackTypes=*/false);
  Outcome VF = runPipeline(Seed, Level, EvalMode::Vm, /*TrackTypes=*/false);

  std::string What =
      "seed " + std::to_string(Seed) + " " + languageLevelName(Level);
  for (const auto &[Other, Name] :
       {std::pair<const Outcome *, const char *>{&V, "vm"},
        std::pair<const Outcome *, const char *>{&S, "subst"}}) {
    std::string W = What + " (env vs " + Name + ")";
    EXPECT_EQ(E.Run.Ok, Other->Run.Ok)
        << W << ": " << E.Run.Error << " vs " << Other->Run.Error;
    EXPECT_EQ(E.Run.Value, Other->Run.Value) << W;
    EXPECT_EQ(E.Run.Steps, Other->Run.Steps) << W;
    EXPECT_EQ(E.StuckReason, Other->StuckReason) << W;
    EXPECT_EQ(E.LiveCells, Other->LiveCells) << W;
    EXPECT_EQ(E.CheckOk, Other->CheckOk) << W;
    expectSameStats(E.Stats, Other->Stats, W);
  }
  EXPECT_TRUE(V.CheckOk) << What << ": final Vm state fails checkState";

  std::string W = What + " (env vs vm, Ψ off)";
  EXPECT_EQ(EF.Run.Ok, VF.Run.Ok)
      << W << ": " << EF.Run.Error << " vs " << VF.Run.Error;
  EXPECT_EQ(EF.Run.Value, VF.Run.Value) << W;
  EXPECT_EQ(EF.Run.Steps, VF.Run.Steps) << W;
  EXPECT_EQ(EF.StuckReason, VF.StuckReason) << W;
  EXPECT_EQ(EF.LiveCells, VF.LiveCells) << W;
  expectSameStats(EF.Stats, VF.Stats, W);
  // Ψ tracking changes no step the machine takes.
  EXPECT_EQ(E.Run.Value, EF.Run.Value) << W;
  EXPECT_EQ(E.Run.Steps, EF.Run.Steps) << W;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, VmDiffPipeline,
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
  std::unique_ptr<vm::VmExec> Vm;
  if (Mode == EvalMode::Vm)
    Vm = std::make_unique<vm::VmExec>(M);
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
  Region Old =
      Level == LanguageLevel::Generational ? M.createRegion("old", 0) : R;
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
  ChkOpts.RestrictToReachable = Level != LanguageLevel::Base;
  Out.CheckOk = checkState(M, ChkOpts).Ok;
  Out.StuckReason =
      M.status() == Machine::Status::Stuck ? M.stuckReason() : "";
  return Out;
}

class VmDiffCollect
    : public ::testing::TestWithParam<std::tuple<int, LanguageLevel>> {};

TEST_P(VmDiffCollect, BackendsAgreeOnCertifiedCollections) {
  auto [SeedIdx, Level] = GetParam();
  uint64_t Seed = 0xBC + static_cast<uint64_t>(SeedIdx) * 6151;

  CollectOutcome E = runCollect(Level, Seed, 20, EvalMode::Env);
  CollectOutcome V = runCollect(Level, Seed, 20, EvalMode::Vm);
  CollectOutcome S = runCollect(Level, Seed, 20, EvalMode::Subst);

  std::string What =
      "seed " + std::to_string(Seed) + " " + languageLevelName(Level);
  for (const auto &[Other, Name] :
       {std::pair<const CollectOutcome *, const char *>{&V, "vm"},
        std::pair<const CollectOutcome *, const char *>{&S, "subst"}}) {
    std::string W = What + " (env vs " + Name + ")";
    EXPECT_EQ(E.St, Other->St)
        << W << ": " << E.StuckReason << " vs " << Other->StuckReason;
    EXPECT_EQ(E.Halt, Other->Halt) << W;
    EXPECT_EQ(E.StuckReason, Other->StuckReason) << W;
    EXPECT_EQ(E.LiveCells, Other->LiveCells) << W;
    EXPECT_EQ(E.CheckOk, Other->CheckOk) << W;
    expectSameStats(E.Stats, Other->Stats, W);
  }
  EXPECT_TRUE(V.CheckOk) << What
                         << ": post-collection Vm state fails checkState";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, VmDiffCollect,
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
// Stuck diagnostics are byte-identical
//===----------------------------------------------------------------------===//

/// `let a = put[r] 5 in let x = get a in let y = π1 x in halt y` is stuck
/// on π1 of a non-pair. The VM's diagnostic must resolve the frame slot and
/// print the value, byte-identically to both interpreters — with Ψ tracking
/// off too, where the get leaves a raw heap word in the slot (FastHeap).
std::string stuckReasonFor(EvalMode Mode, bool TrackTypes = true) {
  GcContext C;
  MachineConfig Cfg;
  Cfg.Eval = Mode;
  Cfg.TrackTypes = TrackTypes;
  Machine M(C, LanguageLevel::Base, Cfg);
  std::unique_ptr<vm::VmExec> Vm;
  if (Mode == EvalMode::Vm)
    Vm = std::make_unique<vm::VmExec>(M);
  Region R = M.createRegion("r", 0);
  Symbol A = C.intern("a"), X = C.intern("x"), Y = C.intern("y");
  const Term *E = C.termLet(
      A, C.opPut(R, C.valInt(5)),
      C.termLet(X, C.opGet(C.valVar(A)),
                C.termLet(Y, C.opProj(1, C.valVar(X)),
                          C.termHalt(C.valVar(Y)))));
  M.start(E);
  M.run(100);
  EXPECT_EQ(M.status(), Machine::Status::Stuck) << modeName(Mode);
  return M.stuckReason();
}

TEST(VmDiff, StuckDiagnosticsMatchAllBackends) {
  std::string E = stuckReasonFor(EvalMode::Env);
  std::string V = stuckReasonFor(EvalMode::Vm);
  std::string S = stuckReasonFor(EvalMode::Subst);
  EXPECT_EQ(E, V);
  EXPECT_EQ(E, S);
  EXPECT_NE(V.find("5"), std::string::npos) << V;

  std::string EF = stuckReasonFor(EvalMode::Env, /*TrackTypes=*/false);
  std::string VF = stuckReasonFor(EvalMode::Vm, /*TrackTypes=*/false);
  EXPECT_EQ(EF, VF);
  EXPECT_EQ(E, VF);
}

} // namespace
