//===- tests/gc_incremental_check_test.cpp - Incremental ⊢ (M, e) ---------===//
//
// The IncrementalStateCheck engine: its verdict must match the full
// checkState on every state both can see (differential, all three levels),
// and its bookkeeping must actually be incremental — steady-state checks
// validate O(delta) cells, journal events are consumed and trimmed, region
// events invalidate, resyncs and external mutations rebuild.
//
//===----------------------------------------------------------------------===//

#include "gc/CollectorBasic.h"
#include "gc/CollectorForward.h"
#include "gc/CollectorGen.h"
#include "gc/StateCheck.h"
#include "harness/HeapForge.h"
#include "harness/Pipeline.h"

#include <gtest/gtest.h>

#include <memory>

using namespace scav;
using namespace scav::gc;
using namespace scav::harness;

namespace {

struct CollectRig {
  GcContext C;
  std::unique_ptr<Machine> M;

  CollectRig(LanguageLevel Level, size_t N) {
    M = std::make_unique<Machine>(C, Level);
    Address GcAddr{};
    switch (Level) {
    case LanguageLevel::Base:
      GcAddr = installBasicCollector(*M).Gc;
      break;
    case LanguageLevel::Forward:
      GcAddr = installForwardCollector(*M).Gc;
      break;
    case LanguageLevel::Generational:
      GcAddr = installGenCollector(*M).Gc;
      break;
    }
    Region From = M->createRegion("from", 0);
    Region Old = Level == LanguageLevel::Generational
                     ? M->createRegion("old", 0)
                     : From;
    ForgedHeap H = forgeList(*M, From, Old, N);
    Address Fin = installFinisher(*M, H.Tag);
    M->start(collectOnceTerm(*M, GcAddr, H, From, Old, Fin));
  }
};

/// Steps the rig to halt with a per-step incremental check, asserting the
/// full checker agrees at every step. Returns the step count.
int runDifferential(CollectRig &Rig, bool Restrict,
                    IncrementalStateCheck &Inc) {
  StateCheckOptions Full;
  Full.CheckCodeRegion = false;
  Full.RestrictToReachable = Restrict;
  EXPECT_TRUE(Inc.check().Ok);
  int Steps = 0;
  for (; Steps != 100'000 && Rig.M->status() == Machine::Status::Running;
       ++Steps) {
    Rig.M->step();
    StateCheckResult RI = Inc.check();
    StateCheckResult RF = checkState(*Rig.M, Full);
    EXPECT_EQ(RI.Ok, RF.Ok) << "verdicts diverge at step " << Steps << ":\n"
                            << RI.Error << "\nvs\n"
                            << RF.Error;
    EXPECT_TRUE(RI.Ok) << RI.Error;
    if (!RI.Ok || RI.Ok != RF.Ok)
      break;
  }
  EXPECT_EQ(Rig.M->status(), Machine::Status::Halted);
  return Steps;
}

TEST(IncrementalCheck, AgreesWithFullCheckerEveryStepAllLevels) {
  for (LanguageLevel Level : {LanguageLevel::Base, LanguageLevel::Forward,
                              LanguageLevel::Generational}) {
    SCOPED_TRACE(languageLevelName(Level));
    CollectRig Rig(Level, 24);
    IncrementalCheckOptions Opts;
    Opts.RestrictToReachable = Level != LanguageLevel::Base;
    IncrementalStateCheck Inc(*Rig.M, Opts);
    runDifferential(Rig, Opts.RestrictToReachable, Inc);
  }
}

TEST(IncrementalCheck, SteadyStateValidatesDeltaNotHeap) {
  CollectRig Rig(LanguageLevel::Forward, 64);
  IncrementalCheckOptions Opts;
  Opts.RestrictToReachable = true;
  IncrementalStateCheck Inc(*Rig.M, Opts);
  ASSERT_TRUE(Inc.check().Ok);
  size_t AfterAttach = Inc.stats().CellsValidated;
  EXPECT_GT(AfterAttach, 64u); // attach really did check the whole heap

  int Steps = 0;
  for (; Steps != 100'000 && Rig.M->status() == Machine::Status::Running;
       ++Steps) {
    Rig.M->step();
    ASSERT_TRUE(Inc.check().Ok);
  }
  ASSERT_EQ(Rig.M->status(), Machine::Status::Halted);

  const IncrementalCheckStats &S = Inc.stats();
  EXPECT_EQ(S.Checks, static_cast<uint64_t>(Steps) + 1);
  EXPECT_EQ(S.FullResyncs, 1u); // only the attach
  // The incremental point: total re-validations stay around one heap's
  // worth of work across the whole run (a collection rewrites every live
  // cell roughly once), nowhere near Checks × heap-size.
  uint64_t PerStepFullWork =
      S.Checks * static_cast<uint64_t>(Rig.M->memory().liveDataCells());
  EXPECT_LT(S.CellsValidated - AfterAttach, PerStepFullWork / 10)
      << "incremental checker is re-validating the whole heap per step";
  EXPECT_GT(S.JournalEventsConsumed, 0u); // created/widened/dropped regions
  EXPECT_GE(S.RegionInvalidations, 1u);   // the widen, at minimum
}

TEST(IncrementalCheck, PeriodicResyncSafetyNet) {
  CollectRig Rig(LanguageLevel::Base, 16);
  IncrementalCheckOptions Opts;
  Opts.ResyncEvery = 8;
  IncrementalStateCheck Inc(*Rig.M, Opts);
  ASSERT_TRUE(Inc.check().Ok);
  for (int I = 0; I != 40 && Rig.M->status() == Machine::Status::Running;
       ++I) {
    Rig.M->step();
    ASSERT_TRUE(Inc.check().Ok);
  }
  EXPECT_GT(Inc.stats().FullResyncs, 1u);
}

TEST(IncrementalCheck, ExternalMutationSignalForcesResync) {
  CollectRig Rig(LanguageLevel::Base, 16);
  IncrementalStateCheck Inc(*Rig.M);
  ASSERT_TRUE(Inc.check().Ok);
  for (int I = 0; I != 10 && Rig.M->status() == Machine::Status::Running;
       ++I) {
    Rig.M->step();
    ASSERT_TRUE(Inc.check().Ok);
  }
  uint64_t Resyncs = Inc.stats().FullResyncs;
  // The coarse "something out-of-band happened" signal (what the native
  // collector raises after rewriting the heap wholesale).
  Rig.M->invalidatePutTypeCache();
  ASSERT_TRUE(Inc.check().Ok);
  EXPECT_EQ(Inc.stats().FullResyncs, Resyncs + 1);
}

TEST(IncrementalCheck, InvalidateAllRebuilds) {
  CollectRig Rig(LanguageLevel::Base, 16);
  IncrementalStateCheck Inc(*Rig.M);
  ASSERT_TRUE(Inc.check().Ok);
  uint64_t Resyncs = Inc.stats().FullResyncs;
  Inc.invalidateAll();
  ASSERT_TRUE(Inc.check().Ok);
  EXPECT_EQ(Inc.stats().FullResyncs, Resyncs + 1);
}

TEST(IncrementalCheck, PipelineOracleCadenceAgrees) {
  // The harness-level wiring: incremental per-step checking with the full
  // checker run as an oracle every 5th check must complete a real program.
  PipelineOptions Opts;
  Opts.Level = LanguageLevel::Forward;
  Opts.Machine.DefaultRegionCapacity = 12; // force collections
  Opts.IncrementalCheck = true;
  Opts.FullCheckEvery = 5;
  Pipeline Pipe(Opts);
  DiagEngine Diags;
  ASSERT_TRUE(Pipe.compile(
      "(app (fix f (n Int) Int (if0 n 0 (+ n (app f (- n 1))))) 24)", Diags))
      << Diags.str();
  RunResult R = Pipe.runMachine(3'000'000, /*CheckEveryN=*/1);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value, 300);
}

TEST(IncrementalCheck, PipelineRefusesOptionsItWouldIgnore) {
  // Each option acts only at the per-N checks or through another option.
  // runMachine must name it before the first step instead of running to
  // halt without it.
  struct Case {
    const char *Option;
    uint32_t CheckEveryN;
    void (*Set)(PipelineOptions &);
  };
  const Case Cases[] = {
      {"AsyncCheck", 0, [](PipelineOptions &O) { O.AsyncCheck = true; }},
      {"CorruptAtStep", 0, [](PipelineOptions &O) { O.CorruptAtStep = 3; }},
      {"FullCheckEvery", 0, [](PipelineOptions &O) { O.FullCheckEvery = 2; }},
      {"FullCheckEvery", 1,
       [](PipelineOptions &O) {
         O.IncrementalCheck = false;
         O.FullCheckEvery = 2;
       }},
      {"StallAtStep", 1, [](PipelineOptions &O) { O.StallAtStep = 3; }},
  };
  for (const Case &K : Cases) {
    SCOPED_TRACE(K.Option);
    PipelineOptions Opts;
    Opts.Level = LanguageLevel::Forward;
    Opts.Machine.DefaultRegionCapacity = 12;
    K.Set(Opts);
    Pipeline Pipe(Opts);
    DiagEngine Diags;
    ASSERT_TRUE(Pipe.compile(
        "(app (fix f (n Int) Int (if0 n 0 (+ n (app f (- n 1))))) 24)", Diags))
        << Diags.str();
    RunResult R = Pipe.runMachine(3'000'000, K.CheckEveryN);
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find(K.Option), std::string::npos) << R.Error;
    EXPECT_EQ(R.Steps, 0u);
  }
}

TEST(IncrementalCheck, CheckEveryFromEnvParses) {
  unsetenv("SCAV_CHECK_EVERY");
  EXPECT_EQ(checkEveryFromEnv(7), 7u);
  setenv("SCAV_CHECK_EVERY", "13", 1);
  EXPECT_EQ(checkEveryFromEnv(7), 13u);
  setenv("SCAV_CHECK_EVERY", "0", 1);
  EXPECT_EQ(checkEveryFromEnv(7), 0u);
  setenv("SCAV_CHECK_EVERY", "junk", 1);
  EXPECT_EQ(checkEveryFromEnv(7), 7u);
  unsetenv("SCAV_CHECK_EVERY");
}

} // namespace
