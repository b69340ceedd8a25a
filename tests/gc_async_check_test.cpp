//===- tests/gc_async_check_test.cpp - Pipelined certification ------------===//
//
// The async checker (gc/AsyncCheck.h) must be *observationally identical*
// to the synchronous incremental checker: same verdicts, same diagnostics
// (byte-identical up to the spelling of checker-minted bound type
// variables — the normalization memo is per-context, so the mirror can
// alpha-rename an M-unfold binder), same step attribution — across all
// three language levels and against every fault-injection mutation kind
// from the fuzz taxonomy. Plus the lag safety net and the Vm-mode
// fallback.
//
//===----------------------------------------------------------------------===//

#include "gc/AsyncCheck.h"
#include "gc/CollectorBasic.h"
#include "gc/CollectorForward.h"
#include "gc/CollectorGen.h"
#include "harness/FuzzMutate.h"
#include "harness/HeapForge.h"
#include "harness/Pipeline.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>

using namespace scav;
using namespace scav::gc;
using namespace scav::harness;

namespace {

/// A machine mid-collection: the same rig the incremental-checker tests
/// use — forged list heap, certified collector, one collect-and-halt term.
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

constexpr LanguageLevel AllLevels[] = {LanguageLevel::Base,
                                       LanguageLevel::Forward,
                                       LanguageLevel::Generational};

bool restrictFor(LanguageLevel L) { return L != LanguageLevel::Base; }

//===----------------------------------------------------------------------===//
// Sync/async differential on clean runs
//===----------------------------------------------------------------------===//

RunResult runPipeline(LanguageLevel Level, bool Async, Pipeline *&Out,
                      std::unique_ptr<Pipeline> &Holder) {
  PipelineOptions Opts;
  Opts.Level = Level;
  Opts.Machine.DefaultRegionCapacity = 12; // force collections
  Opts.IncrementalCheck = true;
  Opts.AsyncCheck = Async;
  Holder = std::make_unique<Pipeline>(Opts);
  Out = Holder.get();
  DiagEngine Diags;
  EXPECT_TRUE(Out->compile(
      "(app (fix f (n Int) Int (if0 n 0 (+ n (app f (- n 1))))) 24)", Diags))
      << Diags.str();
  return Out->runMachine(3'000'000, /*CheckEveryN=*/1);
}

TEST(AsyncCheck, PipelineMatchesSyncAllLevels) {
  for (LanguageLevel Level : AllLevels) {
    SCOPED_TRACE(languageLevelName(Level));
    Pipeline *Sync = nullptr, *Async = nullptr;
    std::unique_ptr<Pipeline> SH, AH;
    RunResult RS = runPipeline(Level, false, Sync, SH);
    RunResult RA = runPipeline(Level, true, Async, AH);
    EXPECT_EQ(RS.Ok, RA.Ok);
    EXPECT_EQ(RS.Value, RA.Value);
    EXPECT_EQ(RS.Steps, RA.Steps);
    EXPECT_EQ(RS.Error, RA.Error);
    ASSERT_TRUE(RA.Ok) << RA.Error;
    EXPECT_EQ(RA.Value, 300);

    const AsyncCheckStats &S = Async->asyncCheckStats();
    EXPECT_GT(S.UnitsCaptured, 0u);
    // Every captured unit is either checked or dropped by a lag resync.
    EXPECT_EQ(S.UnitsChecked, S.UnitsCaptured - S.LagResyncs);
    EXPECT_EQ(Sync->asyncCheckStats().UnitsCaptured, 0u);
    // Same check cadence ⇒ same engine work (unless a lag resync dropped
    // a unit, which a loaded CI box can legitimately cause).
    if (S.LagResyncs == 0)
      EXPECT_EQ(Async->checkerStats().Checks, Sync->checkerStats().Checks);
  }
}

TEST(AsyncCheck, VmEvalModeFallsBackToSynchronous) {
  PipelineOptions Opts;
  Opts.Level = LanguageLevel::Forward;
  Opts.Machine.DefaultRegionCapacity = 12;
  Opts.Machine.Eval = EvalMode::Vm;
  Opts.AsyncCheck = true;
  Pipeline Pipe(Opts);
  DiagEngine Diags;
  ASSERT_TRUE(Pipe.compile(
      "(app (fix f (n Int) Int (if0 n 0 (+ n (app f (- n 1))))) 24)", Diags))
      << Diags.str();
  RunResult R = Pipe.runMachine(3'000'000, /*CheckEveryN=*/1);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value, 300);
  // The Vm backend keeps no raw term state to capture: no session ran.
  EXPECT_EQ(Pipe.asyncCheckStats().UnitsCaptured, 0u);
}

//===----------------------------------------------------------------------===//
// Fault injection through the checker thread
//===----------------------------------------------------------------------===//

struct MutationOutcome {
  bool Applied = false;
  std::string Desc;  ///< What was injected (must agree between legs).
  std::string Error; ///< The checker diagnostic (must agree alpha-blind).
  uint64_t Steps = 0;
};

/// Renames every minted-symbol token (`base$[tag]N`, possibly chained as in
/// `r3$181$362`) to its first-appearance index, keeping the base name. Two
/// alpha-equivalent diagnostics canonicalize to the same string, while any
/// structural difference — different base names, different sharing pattern
/// among minted variables — still shows.
std::string canonMinted(const std::string &S) {
  std::string Out;
  std::map<std::string, int> Ids;
  auto IsIdStart = [](char C) {
    return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
  };
  auto IsIdChar = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  size_t I = 0, N = S.size();
  while (I != N) {
    if (!IsIdStart(S[I])) {
      Out += S[I++];
      continue;
    }
    size_t Begin = I;
    while (I != N && IsIdChar(S[I]))
      ++I;
    size_t BaseEnd = I;
    while (I != N && S[I] == '$') { // consume a `$[a-z]*[0-9]+` suffix chain
      size_t J = I + 1;
      while (J != N && std::islower(static_cast<unsigned char>(S[J])))
        ++J;
      size_t D = J;
      while (D != N && std::isdigit(static_cast<unsigned char>(S[D])))
        ++D;
      if (D == J)
        break; // '$' not followed by digits: not a minted suffix
      I = D;
    }
    if (I == BaseEnd) {
      Out.append(S, Begin, BaseEnd - Begin);
      continue;
    }
    auto [It, Inserted] =
        Ids.emplace(S.substr(Begin, I - Begin), static_cast<int>(Ids.size()));
    (void)Inserted;
    Out.append(S, Begin, BaseEnd - Begin);
    Out += '$';
    Out += std::to_string(It->second);
  }
  return Out;
}

/// Sync leg: per-step incremental checks, then one mutation, then the
/// check that must reject it.
MutationOutcome syncLeg(LanguageLevel Level, StateMutationKind Kind,
                        uint64_t Seed) {
  MutationOutcome Out;
  CollectRig Rig(Level, 24);
  bool Restrict = restrictFor(Level);
  IncrementalCheckOptions IOpts;
  IOpts.RestrictToReachable = Restrict;
  IncrementalStateCheck Inc(*Rig.M, IOpts);
  EXPECT_TRUE(Inc.check().Ok);
  for (int I = 0; I != 5; ++I) {
    Rig.M->step();
    EXPECT_TRUE(Inc.check().Ok);
  }
  Rng Rand(Seed);
  std::optional<AppliedMutation> Mut =
      applyStateMutation(*Rig.M, Kind, Rand, Restrict);
  if (!Mut)
    return Out;
  Out.Applied = true;
  Out.Desc = Mut->Description;
  StateCheckResult R = Inc.check();
  EXPECT_FALSE(R.Ok) << "sync checker tolerated " << Mut->Description;
  Out.Error = R.Error;
  Out.Steps = Rig.M->stats().Steps;
  return Out;
}

/// Async leg: identical schedule, but every check is a capture consumed by
/// the checker thread; the verdict comes back through finish().
MutationOutcome asyncLeg(LanguageLevel Level, StateMutationKind Kind,
                         uint64_t Seed) {
  MutationOutcome Out;
  CollectRig Rig(Level, 24);
  bool Restrict = restrictFor(Level);
  AsyncCheckSession::Options SOpts;
  SOpts.Check.RestrictToReachable = Restrict;
  AsyncCheckSession Session(*Rig.M, SOpts);
  Session.capture();
  for (int I = 0; I != 5; ++I) {
    Rig.M->step();
    Session.capture();
  }
  Rng Rand(Seed);
  std::optional<AppliedMutation> Mut =
      applyStateMutation(*Rig.M, Kind, Rand, Restrict);
  if (!Mut) {
    AsyncVerdict V = Session.finish();
    EXPECT_TRUE(V.Ok) << V.Error;
    return Out;
  }
  Out.Applied = true;
  Out.Desc = Mut->Description;
  Session.capture();
  AsyncVerdict V = Session.finish();
  EXPECT_FALSE(V.Ok) << "async checker tolerated " << Mut->Description;
  Out.Error = V.Error;
  Out.Steps = V.Steps;
  return Out;
}

TEST(AsyncCheck, RejectsEveryMutationKindIdenticallyToSync) {
  // Every kind must fire on at least one level, and wherever it fires the
  // async verdict must match the synchronous one — same diagnostic (up to
  // minted-binder spelling), same step attribution.
  std::map<unsigned, bool> KindFired;
  for (LanguageLevel Level : AllLevels) {
    for (unsigned K = 0; K != NumStateMutationKinds; ++K) {
      StateMutationKind Kind = static_cast<StateMutationKind>(K);
      SCOPED_TRACE(std::string(languageLevelName(Level)) + " / " +
                   stateMutationName(Kind));
      // Victim eligibility depends only on the (deterministic) machine
      // state, so the first applicable seed is the same for both legs.
      for (uint64_t Seed = 1; Seed != 16; ++Seed) {
        MutationOutcome S = syncLeg(Level, Kind, Seed);
        if (!S.Applied)
          continue;
        MutationOutcome A = asyncLeg(Level, Kind, Seed);
        ASSERT_TRUE(A.Applied) << "legs disagree on victim eligibility";
        EXPECT_EQ(S.Desc, A.Desc) << "legs injected different corruptions";
        EXPECT_EQ(canonMinted(S.Error), canonMinted(A.Error))
            << "sync:  " << S.Error << "\nasync: " << A.Error;
        EXPECT_EQ(S.Steps, A.Steps);
        KindFired[K] = true;
        break;
      }
    }
  }
  for (unsigned K = 0; K != NumStateMutationKinds; ++K)
    EXPECT_TRUE(KindFired[K])
        << stateMutationName(static_cast<StateMutationKind>(K))
        << " never applied on any level";
}

//===----------------------------------------------------------------------===//
// Lag safety net
//===----------------------------------------------------------------------===//

TEST(AsyncCheck, LagNetFallsBackSynchronouslyAndResyncs) {
  // A one-slot queue with a ~zero push budget while the checker chews on a
  // large attach: captures must time out, certify synchronously on the
  // mutator (LagResyncs), and ship a resync snapshot on the next capture.
  CollectRig Rig(LanguageLevel::Forward, 2000);
  AsyncCheckSession::Options SOpts;
  SOpts.Check.RestrictToReachable = true;
  SOpts.QueueCapacity = 1;
  SOpts.PushTimeoutMs = 1;
  AsyncCheckSession Session(*Rig.M, SOpts);
  Session.capture();
  for (int I = 0; I != 200 && Rig.M->status() == Machine::Status::Running;
       ++I) {
    Rig.M->step();
    if (!Session.capture())
      break;
    if (Session.stats().LagResyncs >= 1 && Session.stats().Snapshots >= 1)
      break;
  }
  AsyncVerdict V = Session.finish();
  EXPECT_TRUE(V.Ok) << V.Error;
  const AsyncCheckStats &S = Session.stats();
  EXPECT_GE(S.LagResyncs, 1u) << "checker never lagged a 1-slot queue";
  EXPECT_GE(S.Snapshots, 1u) << "lag resync did not force a snapshot";
  EXPECT_EQ(S.UnitsChecked, S.UnitsCaptured - S.LagResyncs);
}

} // namespace
