//===- tests/gc_inspect_verdict_test.cpp - Offline verdict fidelity -------===//
//
// The post-mortem contract behind certgc_inspect --verdict (DESIGN.md
// §3.14): for every forged-corruption kind the fuzzer can inject, the live
// checker's rejection diagnostic must be reproduced BYTE FOR BYTE by
// re-running the same checker over the snapshot loaded back from the
// dump. This is the "verdict fidelity" guarantee the snapshot format's
// symbol-table and fresh-name plumbing exist for.
//
//===----------------------------------------------------------------------===//

#include "gc/CollectorBasic.h"
#include "gc/CollectorForward.h"
#include "gc/CollectorGen.h"
#include "gc/Snapshot.h"
#include "harness/FuzzMutate.h"
#include "harness/HeapForge.h"

#include <gtest/gtest.h>

#include <memory>

using namespace scav;
using namespace scav::gc;
using namespace scav::harness;

namespace {

struct CollectRig {
  GcContext C;
  std::unique_ptr<Machine> M;
  bool Restrict;

  CollectRig(LanguageLevel Level, size_t N)
      : Restrict(Level == LanguageLevel::Forward) {
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
    ForgedHeap H = forgeRandom(*M, From, Old, ForgeRng, 24);
    Address Fin = installFinisher(*M, H.Tag);
    M->start(collectOnceTerm(*M, GcAddr, H, From, Old, Fin));
  }

  Rng ForgeRng{7};
};

/// Injects \p Kind into a fresh rig (retrying a few seeds/prefixes until
/// the kind finds a victim) and demands the live full-checker verdict be
/// reproduced offline. Returns false when no attempt produced an
/// applied-and-rejected instance of the kind.
bool checkKind(StateMutationKind Kind, LanguageLevel Level, uint64_t Seed) {
  CollectRig Rig(Level, 24);
  for (uint64_t I = 0, Prefix = 4 + 7 * (Seed % 5);
       I != Prefix && Rig.M->status() == Machine::Status::Running; ++I)
    Rig.M->step();

  Rng R(Seed);
  std::optional<AppliedMutation> Applied =
      applyStateMutation(*Rig.M, Kind, R, Rig.Restrict);
  if (!Applied || Applied->Kind != Kind)
    return false;

  StateCheckOptions FOpts;
  FOpts.CheckCodeRegion = false;
  FOpts.RestrictToReachable = Rig.Restrict;
  StateCheckResult Live = checkState(*Rig.M, FOpts);
  // Some mutations are benign on some heaps (e.g. retyping an unreachable
  // cell under restrict-to-reachable); only rejections have a diagnostic
  // worth reproducing.
  if (Live.Ok)
    return false;

  SnapshotMeta Meta;
  Meta.Kind = "check-failure";
  Meta.Diagnostic = Live.Error;
  Meta.Checker = "full";
  Meta.RestrictToReachable = FOpts.RestrictToReachable;
  Meta.CheckCodeRegion = FOpts.CheckCodeRegion;

  std::string Bytes = serializeSnapshot(*Rig.M, Meta);
  std::string Error;
  std::unique_ptr<Snapshot> S = parseSnapshot(Bytes, Error);
  EXPECT_TRUE(S) << Error;
  if (!S)
    return true;

  StateCheckResult Offline = recheckSnapshot(*S);
  EXPECT_FALSE(Offline.Ok)
      << stateMutationName(Kind) << ": offline checker accepted";
  EXPECT_EQ(Offline.Error, Live.Error) << stateMutationName(Kind);

  // The incremental engine must agree on accept/reject offline, exactly as
  // the fuzzer demands of it live.
  StateCheckResult Inc = recheckSnapshotIncremental(*S);
  EXPECT_FALSE(Inc.Ok) << stateMutationName(Kind);
  return true;
}

TEST(InspectVerdict, AllMutationKindsReproduceOffline) {
  // Every corruption kind must be exercised by at least one level — a kind
  // no level can inject would silently drop coverage.
  unsigned Covered = 0;
  for (unsigned K = 0; K != NumStateMutationKinds; ++K) {
    bool Hit = false;
    for (LanguageLevel Level :
         {LanguageLevel::Base, LanguageLevel::Forward,
          LanguageLevel::Generational})
      for (uint64_t Seed = 1; Seed != 6 && !Hit; ++Seed)
        Hit = checkKind(static_cast<StateMutationKind>(K), Level, Seed);
    if (Hit)
      ++Covered;
    else
      ADD_FAILURE() << "mutation kind "
                    << stateMutationName(static_cast<StateMutationKind>(K))
                    << " never applied+rejected on any level";
  }
  EXPECT_EQ(Covered, NumStateMutationKinds);
}

/// The incremental checker's diagnostic is reproduced byte-for-byte too,
/// when it is the recorded checker.
TEST(InspectVerdict, IncrementalDiagnosticReproduces) {
  for (LanguageLevel Level :
       {LanguageLevel::Base, LanguageLevel::Generational}) {
    SCOPED_TRACE(languageLevelName(Level));
    CollectRig Rig(Level, 24);
    IncrementalCheckOptions IOpts;
    IOpts.RestrictToReachable = Rig.Restrict;
    IncrementalStateCheck Inc(*Rig.M, IOpts);
    ASSERT_TRUE(Inc.check().Ok);
    for (int I = 0; I != 12 && Rig.M->status() == Machine::Status::Running;
         ++I)
      Rig.M->step();
    ASSERT_TRUE(Inc.check().Ok);

    Rng R(42);
    std::optional<AppliedMutation> Applied;
    for (unsigned J = 0; J != NumStateMutationKinds && !Applied; ++J)
      Applied = applyStateMutation(
          *Rig.M, static_cast<StateMutationKind>(J % NumStateMutationKinds),
          R, Rig.Restrict);
    ASSERT_TRUE(Applied);
    StateCheckResult Live = Inc.check();
    ASSERT_FALSE(Live.Ok) << "corruption not caught live";

    SnapshotMeta Meta;
    Meta.Kind = "check-failure";
    Meta.Diagnostic = Live.Error;
    Meta.Checker = "incremental";
    Meta.RestrictToReachable = IOpts.RestrictToReachable;
    Meta.CheckCodeRegion = false;

    std::string Error;
    std::unique_ptr<Snapshot> S =
        parseSnapshot(serializeSnapshot(*Rig.M, Meta), Error);
    ASSERT_TRUE(S) << Error;
    StateCheckResult Offline = recheckSnapshotIncremental(*S);
    ASSERT_FALSE(Offline.Ok);
    EXPECT_EQ(Offline.Error, Live.Error);
  }
}

} // namespace
