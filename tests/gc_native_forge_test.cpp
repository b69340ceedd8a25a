//===- tests/gc_native_forge_test.cpp - Heap forge + native collector -----===//
//
// Validates the benchmark substrate: forged heaps are well-formed at every
// language level, the certified collectors collect them, and the native
// (meta-level) collector agrees with the certified ones on the shape of
// the surviving heap.
//
//===----------------------------------------------------------------------===//

#include "gc/CollectorBasic.h"
#include "gc/CollectorForward.h"
#include "gc/CollectorGen.h"
#include "gc/NativeCollector.h"
#include "gc/StateCheck.h"
#include "harness/HeapForge.h"

#include <gtest/gtest.h>

using namespace scav;
using namespace scav::gc;
using namespace scav::harness;

namespace {

struct LevelSetup {
  std::unique_ptr<GcContext> C;
  std::unique_ptr<Machine> M;
  Address GcAddr{};
  Region R, Old;

  explicit LevelSetup(LanguageLevel Level) {
    C = std::make_unique<GcContext>();
    M = std::make_unique<Machine>(*C, Level);
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
    R = M->createRegion("from", 0);
    if (Level == LanguageLevel::Generational)
      Old = M->createRegion("old", 0);
    else
      Old = R;
  }
};

int64_t runCollection(Machine &M, const Term *E, uint64_t MaxSteps = 5000000) {
  M.start(E);
  M.run(MaxSteps);
  EXPECT_EQ(M.status(), Machine::Status::Halted)
      << (M.status() == Machine::Status::Stuck ? M.stuckReason()
                                               : "did not halt");
  return M.status() == Machine::Status::Halted ? M.haltValue()->intValue()
                                               : -1;
}

class ForgeLevels : public ::testing::TestWithParam<LanguageLevel> {};

TEST_P(ForgeLevels, ForgedListIsWellFormed) {
  LevelSetup S(GetParam());
  ForgedHeap H = forgeList(*S.M, S.R, S.Old, 10);
  EXPECT_EQ(H.Cells, 20u);
  // The forged heap + a term using the root must pass the state checker.
  Address Fin = installFinisher(*S.M, H.Tag);
  const Term *E = collectOnceTerm(*S.M, S.GcAddr, H, S.R, S.Old, Fin);
  S.M->start(E);
  StateCheckResult R = checkState(*S.M);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST_P(ForgeLevels, CertifiedCollectionOfForgedList) {
  LevelSetup S(GetParam());
  ForgedHeap H = forgeList(*S.M, S.R, S.Old, 16);
  Address Fin = installFinisher(*S.M, H.Tag);
  const Term *E = collectOnceTerm(*S.M, S.GcAddr, H, S.R, S.Old, Fin);
  EXPECT_EQ(runCollection(*S.M, E), 0);
  // All 32 cells are live: the surviving space holds exactly the list.
  EXPECT_EQ(S.M->memory().liveDataCells(), 32u);
  EXPECT_GE(S.M->stats().RegionsReclaimed, 1u);
}

TEST_P(ForgeLevels, ForgedTreeNoSharing) {
  LevelSetup S(GetParam());
  ForgedHeap H = forgeTree(*S.M, S.R, S.Old, 3, /*Share=*/false);
  EXPECT_EQ(H.Cells, 15u);
  Address Fin = installFinisher(*S.M, H.Tag);
  const Term *E = collectOnceTerm(*S.M, S.GcAddr, H, S.R, S.Old, Fin);
  EXPECT_EQ(runCollection(*S.M, E), 0);
  EXPECT_EQ(S.M->memory().liveDataCells(), 15u);
}

INSTANTIATE_TEST_SUITE_P(AllLevels, ForgeLevels,
                         ::testing::Values(LanguageLevel::Base,
                                           LanguageLevel::Forward,
                                           LanguageLevel::Generational),
                         [](const auto &Info) {
                           std::string L = languageLevelName(Info.param) + 7;
                           for (char &Ch : L)
                             if (Ch == '-')
                               Ch = '_';
                           return L;
                         });

TEST(SharingBehavior, BasicLosesForwardKeeps) {
  // The E1/E2 headline on a maximally-shared DAG of depth 6:
  // 7 cells describe 127 logical nodes.
  for (LanguageLevel Level : {LanguageLevel::Base, LanguageLevel::Forward}) {
    LevelSetup S(Level);
    ForgedHeap H = forgeTree(*S.M, S.R, S.Old, 6, /*Share=*/true);
    ASSERT_EQ(H.Cells, 7u);
    Address Fin = installFinisher(*S.M, H.Tag);
    const Term *E = collectOnceTerm(*S.M, S.GcAddr, H, S.R, S.Old, Fin);
    ASSERT_EQ(runCollection(*S.M, E), 0) << languageLevelName(Level);
    if (Level == LanguageLevel::Base)
      EXPECT_EQ(S.M->memory().liveDataCells(), 127u) << "DAG should unfold";
    else
      EXPECT_EQ(S.M->memory().liveDataCells(), 7u) << "DAG should survive";
  }
}

TEST(NativeCollector, AgreesWithCertifiedOnList) {
  // Native (sharing-preserving) collection of the same forged list must
  // keep exactly the same number of cells as the certified collectors.
  GcContext C;
  Machine M(C, LanguageLevel::Base);
  Region R = M.createRegion("from", 0);
  ForgedHeap H = forgeList(M, R, R, 16);
  NativeGcStats Stats;
  auto [NewRoot, To] = nativeCollect(M, H.Root, R, /*PreserveSharing=*/true,
                                     Stats);
  (void)NewRoot;
  EXPECT_EQ(Stats.ObjectsCopied, 32u);
  EXPECT_EQ(Stats.ForwardingHits, 0u);
  EXPECT_EQ(M.memory().liveDataCells(), 32u);
  EXPECT_FALSE(M.memory().hasRegion(R.sym()));
}

TEST(NativeCollector, SharingModes) {
  for (bool Preserve : {false, true}) {
    GcContext C;
    Machine M(C, LanguageLevel::Base);
    Region R = M.createRegion("from", 0);
    ForgedHeap H = forgeTree(M, R, R, 6, /*Share=*/true);
    ASSERT_EQ(H.Cells, 7u);
    NativeGcStats Stats;
    nativeCollect(M, H.Root, R, Preserve, Stats);
    if (Preserve) {
      EXPECT_EQ(M.memory().liveDataCells(), 7u);
      EXPECT_GT(Stats.ForwardingHits, 0u);
    } else {
      EXPECT_EQ(M.memory().liveDataCells(), 127u);
    }
  }
}

TEST(NativeCollector, CheneyAgreesWithDepthFirst) {
  // §10's breadth-first extension against the depth-first copy, at every
  // level (so every word shape the shared rewrite handles — sum headers at
  // Forward, region packages over a separate old region at Generational):
  // the same live set, sharing preserved, and the result state still
  // checks after either order.
  for (LanguageLevel Level : {LanguageLevel::Base, LanguageLevel::Forward,
                              LanguageLevel::Generational}) {
    for (int Forge : {0, 1, 2}) {
      size_t Live[2] = {0, 0};
      for (CopyOrder Order : {CopyOrder::DepthFirst, CopyOrder::BreadthFirst}) {
        SCOPED_TRACE(std::string(languageLevelName(Level)) + " heap " +
                     std::to_string(Forge) +
                     (Order == CopyOrder::DepthFirst ? " depth-first"
                                                     : " breadth-first"));
        LevelSetup S(Level);
        Rng Rand(0xC0FFEE + Forge);
        ForgedHeap H = Forge == 0   ? forgeList(*S.M, S.R, S.Old, 12)
                       : Forge == 1 ? forgeTree(*S.M, S.R, S.Old, 5,
                                                /*Share=*/true)
                                    : forgeRandom(*S.M, S.R, S.Old, Rand, 30);
        NativeGcStats Stats;
        nativeCollect(*S.M, H.Root, S.R, /*PreserveSharing=*/true, Stats,
                      Order);
        size_t Kept = S.M->memory().liveDataCells();
        if (Forge != 2) { // a random heap may leave some of its cells garbage
          EXPECT_EQ(Kept, H.Cells);
        }
        Live[Order == CopyOrder::BreadthFirst] = Kept;
        S.M->start(S.C->termHalt(S.C->valInt(0)));
        StateCheckResult Res = checkState(*S.M);
        EXPECT_TRUE(Res.Ok) << Res.Error;
      }
      EXPECT_EQ(Live[0], Live[1])
          << languageLevelName(Level) << " heap " << Forge;
    }
  }
}

TEST(NativeCollector, CheneyLaysListsOutContiguously) {
  GcContext C;
  Machine M(C, LanguageLevel::Base);
  Region R = M.createRegion("from", 0);
  ForgedHeap H = forgeList(M, R, R, 10);
  NativeGcStats Stats;
  auto [Root, To] = nativeCollect(M, H.Root, R, true, Stats,
                                  CopyOrder::BreadthFirst);
  (void)Root;
  // The root's cell is slot 0; every parent precedes its children... at
  // minimum, the to-region is fully populated with no reserved holes.
  const RegionData *RD = M.memory().region(To.sym());
  ASSERT_NE(RD, nullptr);
  M.memory().decodeRegion(*RD);
  for (const Value *V : RD->Cells)
    EXPECT_NE(V, nullptr);

  // A pair root copies its first child first in both orders: (a, b) puts
  // a's cell at to-offset 0 and b's at 1.
  for (CopyOrder Order : {CopyOrder::DepthFirst, CopyOrder::BreadthFirst}) {
    Region From = M.createRegion("from", 0);
    const Value *A = M.allocate(From, C.valInt(1));
    const Value *B = M.allocate(From, C.valInt(2));
    auto [PairRoot, PairTo] =
        nativeCollect(M, C.valPair(A, B), From, true, Stats, Order);
    ASSERT_TRUE(PairRoot->is(ValueKind::Pair));
    Address First = PairRoot->first()->address();
    Address Second = PairRoot->second()->address();
    EXPECT_EQ(First.R, PairTo);
    EXPECT_EQ(First.Offset, 0u) << "order " << static_cast<int>(Order);
    EXPECT_EQ(Second.Offset, 1u) << "order " << static_cast<int>(Order);
    EXPECT_EQ(M.memory().get(First)->intValue(), 1);
    EXPECT_EQ(M.memory().get(Second)->intValue(), 2);
  }
}

TEST(NativeCollector, GarbageIsDropped) {
  GcContext C;
  Machine M(C, LanguageLevel::Base);
  Region R = M.createRegion("from", 0);
  ForgedHeap H = forgeList(M, R, R, 8);
  // Unreachable junk.
  for (int I = 0; I != 50; ++I)
    M.allocate(R, C.valPair(C.valInt(I), C.valInt(I)));
  NativeGcStats Stats;
  nativeCollect(M, H.Root, R, true, Stats);
  EXPECT_EQ(M.memory().liveDataCells(), 16u);
}

TEST(NativeCollector, ResultStateStaysWellFormed) {
  GcContext C;
  Machine M(C, LanguageLevel::Base);
  Region R = M.createRegion("from", 0);
  ForgedHeap H = forgeList(M, R, R, 6);
  NativeGcStats Stats;
  auto [NewRoot, To] = nativeCollect(M, H.Root, R, true, Stats);
  // The relocated heap + a term using the new root must still check.
  Address Fin = installFinisher(M, H.Tag);
  (void)Fin;
  M.start(C.termHalt(C.valInt(0)));
  StateCheckResult Res = checkState(M);
  EXPECT_TRUE(Res.Ok) << Res.Error;
  // And the new root must infer at the expected M view.
  DiagEngine Diags;
  TypeChecker Ck(C, LanguageLevel::Base, Diags);
  Ck.setSkipCodeBodies(true);
  CheckEnv Env;
  Env.Psi.M = &M.psi();
  Env.Psi.Cd = C.cd().sym();
  Env.Delta = M.psi().domain();
  EXPECT_TRUE(Ck.checkValue(NewRoot, C.typeM(To, H.Tag), Env))
      << Diags.str();
}

} // namespace
