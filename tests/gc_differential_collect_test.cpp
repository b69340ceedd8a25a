//===- tests/gc_differential_collect_test.cpp - Certified vs native oracle ===//
//
// Differential testing of the certified collectors against the native C++
// oracle: both collect structurally identical random heaps (same RNG
// seed); the surviving object graphs must be isomorphic — including the
// *sharing structure* for the forwarding collector, and including the
// sharing LOSS pattern for the basic collector (which must match the
// native collector's no-forwarding mode unfolding exactly).
//
//===----------------------------------------------------------------------===//

#include "gc/CollectorBasic.h"
#include "gc/CollectorForward.h"
#include "gc/NativeCollector.h"
#include "harness/HeapForge.h"

#include <gtest/gtest.h>

using namespace scav;
using namespace scav::gc;
using namespace scav::harness;

namespace {

/// Canonical signature of the object graph reachable from a value:
/// deterministic DFS numbering of heap cells; runtime data only (type
/// annotations, tags, and region identities are canonicalized away).
struct Canonicalizer {
  Machine &M;
  std::map<Address, int> Index;
  std::string Sig;

  std::string walk(const Value *V) {
    switch (V->kind()) {
    case ValueKind::Int:
      return "i" + std::to_string(V->intValue());
    case ValueKind::Addr: {
      Address A = V->address();
      if (A.R == M.context().cd())
        return "cd" + std::to_string(A.Offset);
      auto It = Index.find(A);
      if (It != Index.end())
        return "#" + std::to_string(It->second);
      int K = static_cast<int>(Index.size());
      Index[A] = K;
      const Value *Cell = M.memory().get(A);
      if (!Cell)
        return "#dangling";
      Sig += "cell" + std::to_string(K) + "=" + walk(Cell) + ";";
      return "#" + std::to_string(K);
    }
    case ValueKind::Pair:
      return "(" + walk(V->first()) + "," + walk(V->second()) + ")";
    case ValueKind::Inl:
      return "L" + walk(V->payload());
    case ValueKind::Inr:
      return "R" + walk(V->payload());
    case ValueKind::PackTag:
      return "E" + walk(V->payload());
    case ValueKind::PackTyVar:
    case ValueKind::PackRegion:
      return "P" + walk(V->payload());
    case ValueKind::TransApp:
      return "T" + walk(V->payload());
    case ValueKind::Var:
      return "?var";
    case ValueKind::Code:
      return "code";
    }
    return "?";
  }

  std::string canonical(const Value *Root) {
    std::string RootSig = walk(Root);
    return Sig + "root=" + RootSig;
  }
};

/// Runs one certified collection over a freshly forged random heap and
/// returns the canonical signature of the surviving graph, recovered via
/// the root-capturing finisher.
std::string certifiedSignature(LanguageLevel Level, uint64_t Seed,
                               size_t Budget, bool &Ok) {
  GcContext C;
  Machine M(C, Level);
  Address GcAddr = Level == LanguageLevel::Base
                       ? installBasicCollector(M).Gc
                       : installForwardCollector(M).Gc;
  Region R = M.createRegion("from", 0);
  Rng Rand(Seed);
  ForgedHeap H = forgeRandom(M, R, R, Rand, Budget);
  Address Fin = installRootCapturingFinisher(M, H.Tag);
  const Term *E = collectOnceTerm(M, GcAddr, H, R, R, Fin);
  M.start(E);
  M.run(50'000'000);
  if (M.status() != Machine::Status::Halted) {
    ADD_FAILURE() << "certified collection failed (seed " << Seed
                  << "): " << M.stuckReason();
    Ok = false;
    return "";
  }
  // The capture cell is the last cell of the surviving data region.
  M.memory().decodeAll();
  for (const auto &[S, RD] : M.memory().Regions) {
    if (S == C.cd().sym() || RD.Cells.empty())
      continue;
    const Value *Capture = RD.Cells.back();
    if (!Capture || !Capture->is(ValueKind::Pair))
      continue;
    Canonicalizer Canon{M, {}, {}};
    Ok = true;
    return Canon.canonical(Capture->first());
  }
  ADD_FAILURE() << "no capture cell found (seed " << Seed << ")";
  Ok = false;
  return "";
}

/// Same heap collected by the native oracle (at the same language level,
/// so the forged heap carries the same wrappers; Generational forges its
/// region packages over a separate old region).
std::string nativeSignature(LanguageLevel Level, uint64_t Seed,
                            size_t Budget, bool PreserveSharing,
                            CopyOrder Order, bool &Ok) {
  GcContext C;
  Machine M(C, Level);
  Region R = M.createRegion("from", 0);
  Region Old = Level == LanguageLevel::Generational
                   ? M.createRegion("old", 0)
                   : R;
  Rng Rand(Seed);
  ForgedHeap H = forgeRandom(M, R, Old, Rand, Budget);
  NativeGcStats Stats;
  auto [Root, To] =
      nativeCollect(M, H.Root, R, PreserveSharing, Stats, Order);
  (void)To;
  Canonicalizer Canon{M, {}, {}};
  Ok = true;
  return Canon.canonical(Root);
}

class DifferentialCollect : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialCollect, ForwardingMatchesNativeSharingPreserving) {
  uint64_t Seed = 0xD1FF + GetParam() * 6151;
  bool OkA = false, OkB = false;
  std::string A =
      certifiedSignature(LanguageLevel::Forward, Seed, 18, OkA);
  std::string B =
      nativeSignature(LanguageLevel::Forward, Seed, 18,
                      /*PreserveSharing=*/true, CopyOrder::DepthFirst, OkB);
  ASSERT_TRUE(OkA && OkB);
  // The forwarding collector's stripped mutator view re-tags with inl; the
  // native oracle keeps the forged inl wrappers. Signatures are directly
  // comparable because both keep the L markers.
  EXPECT_EQ(A, B) << "seed " << Seed;
}

TEST_P(DifferentialCollect, BasicMatchesNativeUnfolding) {
  uint64_t Seed = 0xD1FF + GetParam() * 6151;
  bool OkA = false, OkB = false;
  std::string A = certifiedSignature(LanguageLevel::Base, Seed, 14, OkA);
  std::string B =
      nativeSignature(LanguageLevel::Base, Seed, 14,
                      /*PreserveSharing=*/false, CopyOrder::DepthFirst, OkB);
  ASSERT_TRUE(OkA && OkB);
  EXPECT_EQ(A, B) << "seed " << Seed;
}

TEST_P(DifferentialCollect, CheneyIsomorphicToDepthFirst) {
  uint64_t Seed = 0xBF5 + GetParam() * 409;
  for (LanguageLevel Level : {LanguageLevel::Base, LanguageLevel::Forward,
                              LanguageLevel::Generational}) {
    bool OkA = false, OkB = false;
    std::string A = nativeSignature(Level, Seed, 20, true,
                                    CopyOrder::DepthFirst, OkA);
    std::string B = nativeSignature(Level, Seed, 20, true,
                                    CopyOrder::BreadthFirst, OkB);
    ASSERT_TRUE(OkA && OkB);
    // Canonicalization is order-independent (DFS renumbering), so the two
    // layouts must produce identical signatures.
    EXPECT_EQ(A, B) << languageLevelName(Level) << " seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialCollect,
                         ::testing::Range(0, 10));

TEST(DifferentialCollect, SignatureDistinguishesSharing) {
  // Sanity for the canonicalizer itself: a shared child and a duplicated
  // child must produce different signatures.
  GcContext C;
  Machine M(C, LanguageLevel::Base);
  Region R = M.createRegion("r", 0);
  const Value *Shared = M.allocate(R, C.valPair(C.valInt(1), C.valInt(2)));
  const Value *Dup1 = M.allocate(R, C.valPair(C.valInt(1), C.valInt(2)));
  const Value *Dup2 = M.allocate(R, C.valPair(C.valInt(1), C.valInt(2)));
  const Value *DagRoot = M.allocate(R, C.valPair(Shared, Shared));
  const Value *TreeRoot = M.allocate(R, C.valPair(Dup1, Dup2));
  Canonicalizer CanA{M, {}, {}};
  Canonicalizer CanB{M, {}, {}};
  EXPECT_NE(CanA.canonical(DagRoot), CanB.canonical(TreeRoot));
}

} // namespace
