//===- tests/support_test.cpp - Support-library unit tests ----------------===//

#include "gc/Region.h"
#include "support/Arena.h"
#include "support/Diag.h"
#include "support/FlatTable.h"
#include "support/ParseInt.h"
#include "support/Printer.h"
#include "support/Rng.h"
#include "support/Symbol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

using namespace scav;

namespace {

//===----------------------------------------------------------------------===//
// ParseInt: environment-knob parsing (parser_robustness style)
//===----------------------------------------------------------------------===//

TEST(ParseEnv, UnsetAndEmptyFallBackSilently) {
  for (const char *Raw : {static_cast<const char *>(nullptr), ""}) {
    EnvUnsigned R = parseEnvUnsigned("K", Raw, 7, 1, 1024);
    EXPECT_EQ(R.Value, 7u);
    EXPECT_TRUE(R.Diag.empty());
  }
}

TEST(ParseEnv, ValidValuesParse) {
  EXPECT_EQ(parseEnvUnsigned("K", "1", 7, 1, 1024).Value, 1u);
  EXPECT_EQ(parseEnvUnsigned("K", "1024", 7, 1, 1024).Value, 1024u);
  EXPECT_EQ(parseEnvUnsigned("K", "0", 7, 0, 10).Value, 0u);
  EXPECT_TRUE(parseEnvUnsigned("K", "42", 7, 1, 1024).Diag.empty());
}

TEST(ParseEnv, MalformedValuesDiagnoseAndFallBack) {
  // The stoll-food bug class: every one of these used to silently become
  // the fallback with no hint the knob was ignored.
  struct Case {
    const char *Raw;
  } Cases[] = {
      {"4x"},     // trailing garbage
      {"x4"},     // not a number
      {"-1"},     // negative: not an unsigned integer
      {" 4"},     // leading whitespace is not accepted
      {"4 "},     // trailing whitespace either
      {"0x10"},   // base-10 only
      {"99999999999999999999"}, // does not fit uint64
  };
  for (const Case &C : Cases) {
    EnvUnsigned R = parseEnvUnsigned("SCAV_CHECK_EVERY", C.Raw, 13, 0, 1u << 30);
    EXPECT_EQ(R.Value, 13u) << C.Raw;
    ASSERT_FALSE(R.Diag.empty()) << C.Raw;
    // The diagnostic names the variable and quotes the offending text.
    EXPECT_NE(R.Diag.find("SCAV_CHECK_EVERY"), std::string::npos) << R.Diag;
    EXPECT_NE(R.Diag.find(C.Raw), std::string::npos) << R.Diag;
    EXPECT_NE(R.Diag.find("13"), std::string::npos) << R.Diag;
  }
}

TEST(ParseEnv, OutOfRangeDiagnosesAndFallsBack) {
  EnvUnsigned R = parseEnvUnsigned("K", "0", 1, 1, 1024);
  EXPECT_EQ(R.Value, 1u);
  EXPECT_NE(R.Diag.find("out of range"), std::string::npos) << R.Diag;
  R = parseEnvUnsigned("K", "4096", 1, 1, 1024);
  EXPECT_EQ(R.Value, 1u);
  EXPECT_FALSE(R.Diag.empty());
}

TEST(ParseFlag, BoundedUnsignedTakesWholeStringsInRange) {
  EXPECT_EQ(parseUint64Upto("0", 10), 0u);
  EXPECT_EQ(parseUint64Upto("4294967295", UINT32_MAX), UINT32_MAX);
  for (const char *Bad : {"", "pony", "12x", "-1", " 3", "4294967296"})
    EXPECT_FALSE(parseUint64Upto(Bad, UINT32_MAX)) << '"' << Bad << '"';
}

TEST(ParseFlag, SecondsAreFiniteAndNonNegative) {
  EXPECT_EQ(parseSeconds("0"), 0.0);
  EXPECT_EQ(parseSeconds("2.5"), 2.5);
  EXPECT_EQ(parseSeconds("1e1"), 10.0);
  for (const char *Bad : {"", "pony", "1x", "-1", "inf", "nan", "1 "})
    EXPECT_FALSE(parseSeconds(Bad)) << '"' << Bad << '"';
}

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(Arena, AllocatesAndAligns) {
  Arena A;
  char *P1 = static_cast<char *>(A.allocate(3, 1));
  double *P2 = static_cast<double *>(A.allocate(sizeof(double), 8));
  EXPECT_NE(P1, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P2) % 8, 0u);
  EXPECT_EQ(A.numAllocations(), 2u);
}

TEST(Arena, CreateRunsDestructors) {
  static int Destroyed = 0;
  struct Tracked {
    ~Tracked() { ++Destroyed; }
  };
  Destroyed = 0;
  {
    Arena A;
    A.create<Tracked>();
    A.create<Tracked>();
  }
  EXPECT_EQ(Destroyed, 2);
}

TEST(Arena, LargeAllocationsGetOwnSlab) {
  Arena A;
  void *P = A.allocate(1 << 20, 16);
  EXPECT_NE(P, nullptr);
  EXPECT_GE(A.bytesReserved(), size_t(1) << 20);
}

TEST(Arena, CheckpointReleasesMemoryAndRunsDestructors) {
  static int Destroyed = 0;
  struct Tracked {
    std::string Payload = "force non-trivial destructor";
    ~Tracked() { ++Destroyed; }
  };
  Destroyed = 0;
  Arena A;
  A.create<Tracked>(); // survives
  Arena::Checkpoint Cp = A.mark();
  size_t Before = A.numAllocations();
  for (int I = 0; I != 100; ++I)
    A.create<Tracked>();
  A.release(Cp);
  EXPECT_EQ(Destroyed, 100);
  EXPECT_EQ(A.numAllocations(), Before);
  // The arena is still usable after a release.
  A.create<Tracked>();
  EXPECT_EQ(A.numAllocations(), Before + 1);
}

TEST(Arena, NestedCheckpoints) {
  Arena A;
  A.allocate(64, 8);
  Arena::Checkpoint Outer = A.mark();
  A.allocate(64, 8);
  Arena::Checkpoint Inner = A.mark();
  A.allocate(64, 8);
  A.release(Inner);
  EXPECT_EQ(A.numAllocations(), 2u);
  A.release(Outer);
  EXPECT_EQ(A.numAllocations(), 1u);
}

//===----------------------------------------------------------------------===//
// FlatTable: the open-addressing table behind interning
//===----------------------------------------------------------------------===//

TEST(FlatTable, CollisionsWrapAroundAndMidClusterErase) {
  // Hashes whose probe starts at a given slot of a 16-slot table, by the
  // documented rule: the top four bits of hash × 0x9E3779B97F4A7C15.
  auto HashHomedAt = [](uint64_t Slot, uint64_t Skip = 0) {
    for (uint64_t H = 1;; ++H)
      if (((H * 0x9E3779B97F4A7C15ULL) >> 60) == Slot && Skip-- == 0)
        return H;
  };
  uint64_t Last = HashHomedAt(15), Last2 = HashHomedAt(15, 1);
  struct Entry {
    uint64_t H;
    int V;
  };
  // Probe order fills slots 15, 0, 1, ..., 6: the cluster wraps at the
  // array end, A/B/F share one hash (forced collisions), D/G/I are pushed
  // off their home slots, and H sits at its home between G and I.
  const Entry A{Last, 0}, B{Last, 1}, C{Last2, 2}, D{HashHomedAt(0), 3},
      F{Last, 4}, G{HashHomedAt(3), 5}, H{HashHomedAt(5), 6},
      I{HashHomedAt(4), 7};
  std::vector<Entry> Live = {A, B, C, D, F, G, H, I};
  FlatTable<int> T;
  for (const Entry &X : Live)
    T.insert(X.H, X.V);
  ASSERT_EQ(T.capacity(), 16u); // eight entries: load exactly one half
  auto Found = [&T](const Entry &X) {
    return T.find(X.H, [&X](int V) { return V == X.V; }) != nullptr;
  };
  for (const Entry &X : Live)
    EXPECT_TRUE(Found(X)) << X.V;

  // Erase from the middle of the cluster (the shift must move I past H,
  // which stays home), then its first member, then H: each time every
  // survivor is still found and the erased one is not.
  for (int Erase : {1, 0, 6}) {
    SCOPED_TRACE(Erase);
    auto It = std::find_if(Live.begin(), Live.end(),
                           [Erase](const Entry &X) { return X.V == Erase; });
    Entry Gone = *It;
    Live.erase(It);
    T.erase(Gone.H, [&Gone](int V) { return V == Gone.V; });
    EXPECT_FALSE(Found(Gone));
    EXPECT_EQ(T.size(), Live.size());
    for (const Entry &X : Live)
      EXPECT_TRUE(Found(X)) << X.V;
  }
  EXPECT_EQ(T.capacity(), 16u);
}

TEST(FlatTable, MatchesAReferenceSetThroughGrowthAndErase) {
  // 64 distinct hashes for hundreds of payloads: clusters of entries with
  // different home slots run into each other.
  FlatTable<int> T;
  std::set<int> Ref;
  std::vector<int> Order; // insertion order, for a newest-first unwind
  auto HashOf = [](int V) { return static_cast<uint64_t>(V % 64); };
  auto Has = [&T, &HashOf](int V) {
    return T.find(HashOf(V), [V](int X) { return X == V; }) != nullptr;
  };
  Rng R(7);
  for (int Round = 0; Round != 4000; ++Round) {
    int V = static_cast<int>(R.below(400));
    if (Ref.count(V)) {
      if (R.chance(1, 2)) {
        T.erase(HashOf(V), [V](int X) { return X == V; });
        Ref.erase(V);
      }
    } else {
      T.insert(HashOf(V), V);
      Ref.insert(V);
      Order.push_back(V);
    }
    ASSERT_EQ(T.size(), Ref.size());
  }
  EXPECT_GE(T.capacity(), 2 * T.size());
  for (int V = 0; V != 400; ++V)
    EXPECT_EQ(Has(V), Ref.count(V) == 1) << V;
  for (size_t I = Order.size(); I-- > 0;) {
    int V = Order[I];
    if (!Ref.erase(V))
      continue;
    T.erase(HashOf(V), [V](int X) { return X == V; });
    for (int W : Ref)
      ASSERT_TRUE(Has(W)) << W;
  }
  EXPECT_EQ(T.size(), 0u);
}

//===----------------------------------------------------------------------===//
// Symbols
//===----------------------------------------------------------------------===//

TEST(Symbols, InternIsIdempotent) {
  SymbolTable T;
  Symbol A = T.intern("foo");
  Symbol B = T.intern("foo");
  Symbol C = T.intern("bar");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(T.name(A), "foo");
  // Enough spellings to grow the map several times over: every earlier
  // spelling keeps its id and name.
  std::vector<Symbol> Ids;
  for (int I = 0; I != 2000; ++I)
    Ids.push_back(T.intern("s" + std::to_string(I)));
  EXPECT_EQ(T.size(), Ids.size() + 2);
  EXPECT_EQ(T.intern("foo"), A);
  EXPECT_EQ(T.intern("bar"), C);
  for (int I = 0; I != 2000; ++I) {
    EXPECT_EQ(T.intern("s" + std::to_string(I)), Ids[I]);
    EXPECT_EQ(T.name(Ids[I]), "s" + std::to_string(I));
  }
}

TEST(Symbols, FreshNeverCollides) {
  SymbolTable T;
  Symbol A = T.intern("x");
  Symbol F1 = T.fresh("x");
  Symbol F2 = T.fresh("x");
  EXPECT_NE(F1, A);
  EXPECT_NE(F1, F2);
  EXPECT_EQ(T.name(F1).substr(0, 1), "x");
}

TEST(Symbols, DefaultSymbolIsInvalid) {
  Symbol S;
  EXPECT_FALSE(S.isValid());
  SymbolTable T;
  EXPECT_TRUE(T.intern("a").isValid());
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(Rng, DeterministicAcrossInstances) {
  Rng A(12345), B(12345);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, RangeBounds) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    int64_t V = R.range(-3, 9);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 9);
  }
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.below(17), 17u);
}

//===----------------------------------------------------------------------===//
// Printer / Diag
//===----------------------------------------------------------------------===//

TEST(Printer, IndentationApplies) {
  Printer P;
  P << "a";
  P.newline();
  P.indent();
  P << "b";
  P.newline();
  P.dedent();
  P << "c";
  EXPECT_EQ(P.str(), "a\n  b\nc");
}

TEST(Diag, CountsErrorsOnly) {
  DiagEngine D;
  D.note("n");
  D.warning("w");
  EXPECT_FALSE(D.hasErrors());
  D.error("e");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.numErrors(), 1u);
  EXPECT_NE(D.str().find("error: e"), std::string::npos);
  D.clear();
  EXPECT_FALSE(D.hasErrors());
}

//===----------------------------------------------------------------------===//
// RegionSet
//===----------------------------------------------------------------------===//

TEST(RegionSet, SetSemantics) {
  SymbolTable T;
  gc::Region A = gc::Region::name(T.intern("a"));
  gc::Region B = gc::Region::var(T.intern("b"));
  gc::RegionSet S{A, B, A};
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(A));
  EXPECT_TRUE(S.contains(B));
  EXPECT_FALSE(S.contains(gc::Region::name(T.intern("b")))); // name ≠ var
}

TEST(RegionSet, SubsetAndSubstitution) {
  SymbolTable T;
  gc::Region A = gc::Region::name(T.intern("a"));
  gc::Region B = gc::Region::var(T.intern("b"));
  gc::Region C = gc::Region::name(T.intern("c"));
  gc::RegionSet Small{A};
  gc::RegionSet Big{A, B};
  EXPECT_TRUE(Small.subsetOf(Big));
  EXPECT_FALSE(Big.subsetOf(Small));
  gc::RegionSet Sub = Big.substituted(B, C);
  EXPECT_TRUE(Sub.contains(C));
  EXPECT_FALSE(Sub.contains(B));
}

} // namespace
