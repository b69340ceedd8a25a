//===- tests/gc_intern_test.cpp - Hash-consing & memoization --------------===//
//
// The uniquing context's contract: structurally identical ground nodes are
// pointer-identical, normalization is memoized (and idempotent), open
// alpha-variants are NOT unified (interning is name-sensitive), cache
// entries unwind correctly with GcContext::Scope, the full certified
// pipeline (collection + state check with Ψ tracking) still passes with
// every cache family actually hitting, and the shape-keyed Ψ put memo
// (Machine::PutTypeCache) serves collector copies while agreeing with a
// fresh inference on every cell it types.
//
//===----------------------------------------------------------------------===//

#include "gc/CollectorBasic.h"
#include "gc/CollectorForward.h"
#include "gc/CollectorGen.h"
#include "gc/NativeCollector.h"
#include "gc/StateCheck.h"
#include "harness/HeapForge.h"
#include "harness/Pipeline.h"
#include "harness/ProgramGen.h"

#include <gtest/gtest.h>

using namespace scav;
using namespace scav::gc;
using namespace scav::harness;

namespace {

//===----------------------------------------------------------------------===//
// 1. Uniquing: structurally equal ground nodes are pointer-equal
//===----------------------------------------------------------------------===//

TEST(Intern, GroundTagsArePointerEqual) {
  GcContext C;
  const Tag *A = C.tagProd(C.tagInt(), C.tagProd(C.tagInt(), C.tagInt()));
  const Tag *B = C.tagProd(C.tagInt(), C.tagProd(C.tagInt(), C.tagInt()));
  EXPECT_EQ(A, B);
  EXPECT_TRUE(A->isGround());
  EXPECT_TRUE(A->isCanonical());
  EXPECT_GT(C.stats().TagInternHits, 0u);

  const Tag *Arrow = C.tagArrow({A, C.tagInt()});
  EXPECT_EQ(Arrow, C.tagArrow({B, C.tagInt()}));
}

TEST(Intern, GroundTypesArePointerEqual) {
  GcContext C;
  Region R = Region::name(C.fresh("rho"));
  const Type *A = C.typeM(R, C.tagProd(C.tagInt(), C.tagInt()));
  const Type *B = C.typeM(R, C.tagProd(C.tagInt(), C.tagInt()));
  EXPECT_EQ(A, B);
  EXPECT_GT(C.stats().TypeInternHits, 0u);
  EXPECT_EQ(C.typeProd(A, A), C.typeProd(B, B));
}

TEST(Intern, DistinctNodesStayDistinct) {
  GcContext C;
  EXPECT_NE(C.tagProd(C.tagInt(), C.tagInt()), C.tagInt());
  Region R1 = Region::name(C.fresh("r"));
  Region R2 = Region::name(C.fresh("r"));
  EXPECT_NE(C.typeM(R1, C.tagInt()), C.typeM(R2, C.tagInt()));
}

//===----------------------------------------------------------------------===//
// 2. Normalization: idempotent and memoized
//===----------------------------------------------------------------------===//

TEST(Intern, NormalizeTagMemoized) {
  GcContext C;
  Symbol T = C.fresh("t");
  // (λt.(t × Int)) Int — a redex, so the Normal bit cannot short-circuit.
  const Tag *Redex =
      C.tagApp(C.tagLam(T, C.tagProd(C.tagVar(T), C.tagInt())), C.tagInt());
  EXPECT_FALSE(Redex->isNormal());

  const Tag *N1 = normalizeTag(C, Redex);
  EXPECT_EQ(N1, C.tagProd(C.tagInt(), C.tagInt()));
  EXPECT_TRUE(N1->isNormal());
  // Idempotence, via the Normal bit (no recomputation).
  EXPECT_EQ(normalizeTag(C, N1), N1);

  uint64_t MemoBefore = C.stats().NormalizeTagMemoHits;
  const Tag *N2 = normalizeTag(C, Redex);
  EXPECT_EQ(N1, N2);
  EXPECT_EQ(C.stats().NormalizeTagMemoHits, MemoBefore + 1);
}

TEST(Intern, NormalizeTypeMemoizedPerLevel) {
  GcContext C;
  Region R = Region::name(C.fresh("rho"));
  const Type *MInt = C.typeM(R, C.tagProd(C.tagInt(), C.tagInt()));

  const Type *N1 = normalizeType(C, MInt, LanguageLevel::Base);
  EXPECT_EQ(normalizeType(C, N1, LanguageLevel::Base), N1);

  uint64_t MemoBefore = C.stats().NormalizeTypeMemoHits;
  EXPECT_EQ(normalizeType(C, MInt, LanguageLevel::Base), N1);
  EXPECT_EQ(C.stats().NormalizeTypeMemoHits, MemoBefore + 1);

  // A different language level is a different memo slot (M expands to a
  // different wrapper structure per level), not a stale reuse.
  const Type *NF = normalizeType(C, MInt, LanguageLevel::Forward);
  EXPECT_NE(NF, N1);
}

//===----------------------------------------------------------------------===//
// 3. Name-sensitivity: alpha-variants of open nodes are not unified
//===----------------------------------------------------------------------===//

TEST(Intern, AlphaVariantsNotUnified) {
  GcContext C;
  Symbol T = C.fresh("t"), S = C.fresh("s");
  const Tag *IdT = C.tagLam(T, C.tagVar(T));
  const Tag *IdS = C.tagLam(S, C.tagVar(S));
  EXPECT_NE(IdT, IdS); // interning is name-sensitive
  EXPECT_FALSE(IdT->isGround());
  EXPECT_TRUE(alphaEqualTag(IdT, IdS)); // ...but they stay alpha-equal
  EXPECT_TRUE(tagEqual(C, IdT, IdS));
  // Same binder name: the nodes really are identical, so they unify.
  EXPECT_EQ(IdT, C.tagLam(T, C.tagVar(T)));
}

//===----------------------------------------------------------------------===//
// 4. Scope rollback: released nodes leave no dangling cache entries
//===----------------------------------------------------------------------===//

TEST(Intern, ScopeUnwindsTablesAndMemos) {
  GcContext C;
  const Tag *Keep = C.tagProd(C.tagInt(), C.tagInt());
  // Pre-mark nodes and normal forms, rebuilt after the release below.
  Symbol Pre = C.fresh("pre");
  Region PreR = Region::name(C.fresh("rho"));
  auto BuildPre = [&](int I) {
    const Tag *Leaf = C.tagProd(C.tagVar(Pre), Keep);
    for (int J = 0; J != I; ++J)
      Leaf = C.tagProd(Leaf, C.tagInt());
    return std::pair(Leaf, C.typeAt(C.typeM(PreR, Leaf), PreR));
  };
  std::vector<std::pair<const Tag *, const Type *>> PreNodes;
  for (int I = 0; I != 8; ++I)
    PreNodes.push_back(BuildPre(I));
  const Tag *PreRedex = C.tagApp(C.tagLam(Pre, C.tagVar(Pre)), Keep);
  const Tag *PreTagNF = normalizeTag(C, PreRedex);
  const Type *PreM = C.typeM(PreR, Keep);
  const Type *PreTypeNF = normalizeType(C, PreM, LanguageLevel::Base);
  size_t Tags = C.internedTags(), Types = C.internedTypes();
  {
    GcContext::Scope Scope(C);
    Symbol T = C.fresh("t");
    const Tag *Redex = C.tagApp(C.tagLam(T, C.tagVar(T)), Keep);
    normalizeTag(C, Redex); // populates the memo inside the scope
    Region R = Region::name(C.fresh("rho"));
    normalizeType(C, C.typeM(R, Redex), LanguageLevel::Base);
    EXPECT_GT(C.internedTags(), Tags);
    // Far more entries than the tables and memos held at the mark, so
    // each of them grows (at least doubles) inside the scope.
    const size_t Many = 8 * (Tags + Types) + 64;
    const Tag *Chain = C.tagVar(T);
    for (size_t I = 0; I != Many; ++I) {
      Chain = C.tagProd(Chain, Keep);
      const Tag *Arg = C.tagApp(C.tagLam(T, C.tagVar(T)), Chain);
      normalizeTag(C, Arg);
      normalizeType(C, C.typeM(R, Arg), LanguageLevel::Base);
    }
    EXPECT_GE(C.internedTags(), Tags + Many);
    EXPECT_GE(C.internedTypes(), Types + Many);
  }
  EXPECT_EQ(C.internedTags(), Tags);
  EXPECT_EQ(C.internedTypes(), Types);
  // The surviving nodes are still canonical: re-building them hits the
  // table (a dangling or lost entry would crash or mint a new node here).
  EXPECT_EQ(C.tagProd(C.tagInt(), C.tagInt()), Keep);
  for (int I = 0; I != 8; ++I) {
    EXPECT_EQ(BuildPre(I).first, PreNodes[I].first);
    EXPECT_EQ(BuildPre(I).second, PreNodes[I].second);
  }
  EXPECT_EQ(C.tagApp(C.tagLam(Pre, C.tagVar(Pre)), Keep), PreRedex);
  EXPECT_EQ(C.typeM(PreR, Keep), PreM);
  EXPECT_EQ(C.internedTags(), Tags);
  EXPECT_EQ(C.internedTypes(), Types);
  // The pre-mark memo entries survive and are served from the memo.
  uint64_t TagHits = C.stats().NormalizeTagMemoHits;
  uint64_t TypeHits = C.stats().NormalizeTypeMemoHits;
  EXPECT_EQ(normalizeTag(C, PreRedex), PreTagNF);
  EXPECT_EQ(normalizeType(C, PreM, LanguageLevel::Base), PreTypeNF);
  EXPECT_EQ(C.stats().NormalizeTagMemoHits, TagHits + 1);
  EXPECT_EQ(C.stats().NormalizeTypeMemoHits, TypeHits + 1);
}

//===----------------------------------------------------------------------===//
// 5. End-to-end: certified collection + state check with Ψ tracking
//===----------------------------------------------------------------------===//

TEST(Intern, CollectionAndStateCheckWithTracking) {
  GcContext C;
  Machine M(C, LanguageLevel::Forward);
  Address GcAddr = installForwardCollector(M).Gc;
  Region R = M.createRegion("from", 0);
  ForgedHeap H = forgeList(M, R, R, 24);

  // Same value allocated twice: the second put must be served from the
  // recordPut memo.
  const Value *V = C.valPair(C.valInt(1), C.valInt(2));
  M.allocate(R, V);
  M.allocate(R, V);
  EXPECT_GT(M.stats().RecordPutCacheHits, 0u);

  Address Fin = installFinisher(M, H.Tag);
  const Term *E = collectOnceTerm(M, GcAddr, H, R, R, Fin);
  M.start(E);
  M.run(50'000'000);
  ASSERT_EQ(M.status(), Machine::Status::Halted) << M.stuckReason();

  StateCheckResult Res = checkState(M);
  EXPECT_TRUE(Res.Ok) << Res.Error;

  // The run must have exercised every cache family.
  EXPECT_GT(C.stats().TagInternHits, 0u);
  EXPECT_GT(C.stats().TypeInternHits, 0u);
  EXPECT_GT(C.stats().NormalizeTagMemoHits + C.stats().NormalizeTypeMemoHits,
            0u);
  EXPECT_GT(C.stats().EqualPointerHits, 0u);
  EXPECT_GT(C.stats().SubstGroundSkips, 0u);
}

//===----------------------------------------------------------------------===//
// 6. The shape-keyed Ψ put memo (Machine::PutTypeCache)
//===----------------------------------------------------------------------===//

const LanguageLevel AllLevels[] = {LanguageLevel::Base, LanguageLevel::Forward,
                                   LanguageLevel::Generational};

Address installLevelCollector(Machine &M) {
  switch (M.level()) {
  case LanguageLevel::Base:
    return installBasicCollector(M).Gc;
  case LanguageLevel::Forward:
    return installForwardCollector(M).Gc;
  case LanguageLevel::Generational:
    return installGenCollector(M).Gc;
  }
  return {};
}

uint64_t trackedPuts(const MachineStats &S) {
  return S.RecordPutCacheHits + S.RecordPutCacheMisses;
}

TEST(PutMemo, CollectorCopiesOfAListHitTheMemo) {
  // Each collector copy of a cell is a fresh value, so a value-pointer key
  // misses on every copy. The shape key abstracts each embedded address to
  // its Ψ cell type and region, so copies of same-shaped cells share one
  // inference. The list is collected twice: the forge gives every cell its
  // own pack binder (hence its own Ψ type), which the forwarding
  // collector's continuations capture, while the survivors of a collection
  // carry the collector's uniform cell types, as in any longer run.
  for (LanguageLevel Level : AllLevels) {
    GcContext C;
    Machine M(C, Level);
    Address GcAddr = installLevelCollector(M);
    Region R = M.createRegion("from", 0);
    Region Old = Level == LanguageLevel::Generational
                     ? M.createRegion("old", 0)
                     : R;
    ForgedHeap H = forgeList(M, R, Old, 64);
    MachineStats Before = M.stats();
    Address Capture = installRootCapturingFinisher(M, H.Tag);
    M.start(collectOnceTerm(M, GcAddr, H, R, Old, Capture));
    M.run(50'000'000);
    ASSERT_EQ(M.status(), Machine::Status::Halted) << M.stuckReason();

    // The finisher stored (root, root) as the last cell of the surviving
    // young (or only) region; collect that root again from there.
    M.memory().decodeAll();
    Region Young;
    for (const auto &[S, RD] : M.memory().Regions)
      if (S != C.cd().sym() && Region::name(S) != Old && !RD.Cells.empty()) {
        Young = Region::name(S);
        H.Root = RD.Cells.back()->first();
      }
    ASSERT_TRUE(Young.isValid());
    Address Fin = installFinisher(M, H.Tag);
    M.start(collectOnceTerm(M, GcAddr, H, Young, Old, Fin));
    M.run(50'000'000);
    ASSERT_EQ(M.status(), Machine::Status::Halted) << M.stuckReason();
    ASSERT_TRUE(M.typeTrackingOk()) << M.typeTrackingError();

    uint64_t Puts = M.stats().Puts - Before.Puts;
    uint64_t Hits = M.stats().RecordPutCacheHits - Before.RecordPutCacheHits;
    EXPECT_EQ(trackedPuts(M.stats()) - trackedPuts(Before), Puts);
    EXPECT_GE(2 * Hits, Puts) << languageLevelName(Level) << ": only " << Hits
                              << " of " << Puts << " puts hit the memo";
  }
}

struct PutCheckCounts {
  uint64_t Cells = 0; ///< Newly stored cells re-inferred.
  uint64_t Hits = 0;  ///< recordPut memo hits of the run.
};

/// Steps a ProgramGen program and, after every step, re-infers each newly
/// stored cell from scratch: the Ψ type recordPut gave it must be
/// alpha-equal to a fresh inference of its value under the current Ψ. The
/// fresh inference runs under a GcContext::Scope (its nodes are released)
/// and a FreshScope (its binders come from a private namespace), so it
/// cannot perturb the run it checks.
PutCheckCounts checkPutsAgainstInference(uint64_t Seed, LanguageLevel Level,
                                         EvalMode Mode) {
  PipelineOptions Opts;
  Opts.Level = Level;
  Opts.Machine.Eval = Mode;
  Opts.Machine.DefaultRegionCapacity = 12; // small: force collections
  Pipeline Pipe(Opts);
  Rng R(Seed);
  GenOptions GOpts;
  GOpts.MaxDepth = 4;
  GOpts.MaxIterations = 8;
  DiagEngine Diags;
  PutCheckCounts Out;
  if (!Pipe.compileExpr(genProgram(Pipe.lambdaContext(), R, GOpts), Diags)) {
    ADD_FAILURE() << "seed " << Seed << " does not compile:\n" << Diags.str();
    return Out;
  }
  Machine &M = Pipe.machine();
  GcContext &C = Pipe.gcContext();
  std::unordered_map<Symbol, size_t, SymbolHash> Seen;
  uint64_t FreshCtr = 0;
  auto CheckNewCells = [&] {
    for (const auto &[S, Cells] : M.psi().Regions) {
      size_t &From = Seen[S];
      if (S == C.cd().sym())
        From = Cells.Cells.size();
      for (size_t Off = From; Off < Cells.Cells.size(); ++Off) {
        const Type *Stored = Cells.Cells[Off];
        if (!Stored)
          continue;
        // Decode outside the scope: decoded cells are cached in memory.
        Address A{Region::name(S), static_cast<uint32_t>(Off)};
        const Value *V = M.memory().get(A);
        ASSERT_NE(V, nullptr);
        GcContext::Scope Scope(C);
        GcContext::FreshScope Names(C, "t", FreshCtr);
        DiagEngine D;
        TypeChecker TC(C, Level, D);
        TC.setSkipCodeBodies(true);
        TC.setTrustAddresses(true);
        CheckEnv E;
        E.Psi.M = &M.psi();
        E.Psi.Cd = C.cd().sym();
        E.Delta = M.psi().domain();
        const Type *Fresh = TC.inferValue(V, E);
        ASSERT_NE(Fresh, nullptr) << D.str();
        EXPECT_TRUE(alphaEqualType(Stored, Fresh))
            << "seed " << Seed << " step " << M.stats().Steps << ": Ψ has "
            << printType(C, Stored) << ", inference gives "
            << printType(C, Fresh);
        ++Out.Cells;
      }
      From = Cells.Cells.size();
    }
  };
  M.start(Pipe.mainTerm());
  CheckNewCells();
  for (uint64_t I = 0; I != 3'000'000 && M.status() == Machine::Status::Running;
       ++I) {
    M.step();
    CheckNewCells();
    if (::testing::Test::HasFatalFailure())
      return Out;
  }
  EXPECT_EQ(M.status(), Machine::Status::Halted) << M.stuckReason();
  EXPECT_TRUE(M.typeTrackingOk()) << M.typeTrackingError();
  EXPECT_EQ(trackedPuts(M.stats()), M.stats().Puts);
  Out.Hits = M.stats().RecordPutCacheHits;
  return Out;
}

class PutMemoPipeline
    : public ::testing::TestWithParam<std::tuple<LanguageLevel, EvalMode>> {};

TEST_P(PutMemoPipeline, EveryStoredCellMatchesFreshInference) {
  auto [Level, Mode] = GetParam();
  PutCheckCounts Total;
  for (uint64_t Seed : {0x5EED0001ULL, 0x5EED0002ULL}) {
    PutCheckCounts N = checkPutsAgainstInference(Seed, Level, Mode);
    Total.Cells += N.Cells;
    Total.Hits += N.Hits;
  }
  EXPECT_GT(Total.Cells, 0u);
  EXPECT_GT(Total.Hits, 0u) << "the memo never served a put";
}

INSTANTIATE_TEST_SUITE_P(
    AllLevelsAndEngines, PutMemoPipeline,
    ::testing::Combine(::testing::ValuesIn(AllLevels),
                       ::testing::Values(EvalMode::Subst, EvalMode::Env,
                                         EvalMode::Vm)),
    [](const auto &Info) {
      std::string L = languageLevelName(std::get<0>(Info.param)) + 7;
      for (char &Ch : L)
        if (Ch == '-')
          Ch = '_';
      return L + "_" + evalModeName(std::get<1>(Info.param));
    });

TEST(PutMemo, DroppedRegionAddressStillFailsInference) {
  GcContext C;
  Machine M(C, LanguageLevel::Base);
  Region Doomed = M.createRegion("doomed", 0);
  Region Kept = M.createRegion("kept", 0);
  const Value *A1 = M.allocate(Doomed, C.valInt(1));
  const Value *A2 = M.allocate(Doomed, C.valInt(2));
  // Two puts of one shape: the second is served from the memo.
  M.allocate(Kept, C.valPair(A1, C.valInt(0)));
  uint64_t HitsBefore = M.stats().RecordPutCacheHits;
  M.allocate(Kept, C.valPair(A2, C.valInt(0)));
  EXPECT_EQ(M.stats().RecordPutCacheHits, HitsBefore + 1);
  ASSERT_TRUE(M.typeTrackingOk()) << M.typeTrackingError();

  // `only` reclaims Doomed from M and Ψ.
  M.start(C.termOnly(RegionSet{Kept}, C.termHalt(C.valInt(0))));
  M.run(10);
  ASSERT_EQ(M.status(), Machine::Status::Halted) << M.stuckReason();
  ASSERT_FALSE(M.psi().hasRegion(Doomed.sym()));

  // Same shape as the memoized puts, but the address now dangles: the put
  // must still go through inference and fail it.
  M.allocate(Kept, C.valPair(A2, C.valInt(0)));
  EXPECT_FALSE(M.typeTrackingOk());
  EXPECT_NE(M.typeTrackingError().find("dangling address"), std::string::npos)
      << M.typeTrackingError();
  EXPECT_EQ(trackedPuts(M.stats()), M.stats().Puts);
}

} // namespace
