//===- tests/support_test.cpp - Support-library unit tests ----------------===//

#include "gc/Region.h"
#include "support/Arena.h"
#include "support/Diag.h"
#include "support/ParseInt.h"
#include "support/Printer.h"
#include "support/Rng.h"
#include "support/Symbol.h"

#include <gtest/gtest.h>

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
