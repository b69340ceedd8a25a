//===- tests/gc_snapshot_test.cpp - Snapshot format round-trips -----------===//
//
// The versioned snapshot format (gc/Snapshot.h, DESIGN.md §3.14): a
// serialized machine state must load back diff-empty against itself, at
// all three language levels, through both the in-memory bytes and the
// on-disk file path; a dump whose header still names the retired pointer
// layout loads identically; and loaded healthy states must still pass both
// checkers offline. Malformed or corrupted images must be rejected with a
// diagnostic or load into a state the checker can judge — never crash.
//
//===----------------------------------------------------------------------===//

#include "gc/CollectorBasic.h"
#include "gc/CollectorForward.h"
#include "gc/CollectorGen.h"
#include "gc/Snapshot.h"
#include "harness/HeapForge.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
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

constexpr LanguageLevel AllLevels[] = {LanguageLevel::Base,
                                       LanguageLevel::Forward,
                                       LanguageLevel::Generational};

/// Offset of the header's layout byte (after the 8-byte magic, the u32
/// version and the u8 level).
constexpr size_t LayoutByteOffset = 13;

std::unique_ptr<Snapshot> parseOk(const std::string &Bytes) {
  std::string Error;
  std::unique_ptr<Snapshot> S = parseSnapshot(Bytes, Error);
  EXPECT_TRUE(S) << Error;
  return S;
}

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

TEST(Snapshot, RoundTripAllLevels) {
  for (LanguageLevel Level : AllLevels) {
    SCOPED_TRACE(languageLevelName(Level));
    CollectRig Rig(Level, 8);
    // Part-way into the collection, so the snapshot carries live
    // mid-collection structure (forwarded cells, to-region contents).
    for (int I = 0; I != 40 && Rig.M->status() == Machine::Status::Running;
         ++I)
      Rig.M->step();

    std::string Bytes = serializeSnapshot(*Rig.M);
    EXPECT_EQ(Bytes[LayoutByteOffset], 0);
    std::unique_ptr<Snapshot> A = parseOk(Bytes);
    ASSERT_TRUE(A);
    EXPECT_EQ(A->Level, Level);
    EXPECT_EQ(A->Steps, Rig.M->stats().Steps);

    // Serialization is deterministic, and a loaded snapshot diffs empty
    // against an independently loaded copy of itself.
    EXPECT_EQ(Bytes, serializeSnapshot(*Rig.M));
    std::unique_ptr<Snapshot> B = parseOk(Bytes);
    ASSERT_TRUE(B);
    EXPECT_EQ(diffSnapshots(*A, *B), "");

    // Healthy state: both checkers accept offline.
    StateCheckResult Full = recheckSnapshot(*A);
    EXPECT_TRUE(Full.Ok) << Full.Error;
    StateCheckResult Inc = recheckSnapshotIncremental(*A);
    EXPECT_TRUE(Inc.Ok) << Inc.Error;
  }
}

TEST(Snapshot, CrossLayoutLoadDiffsEmpty) {
  // Dumps written while the pointer-cell layout existed carry 1 in the
  // header's layout byte. Cells are serialized decoded, so such a dump
  // loads into the same state as its layout-0 twin.
  for (LanguageLevel Level : AllLevels) {
    SCOPED_TRACE(languageLevelName(Level));
    CollectRig Rig(Level, 6);
    for (int I = 0; I != 25 && Rig.M->status() == Machine::Status::Running;
         ++I)
      Rig.M->step();
    std::string Bytes = serializeSnapshot(*Rig.M);
    std::string Legacy = Bytes;
    Legacy[LayoutByteOffset] = 1;

    std::unique_ptr<Snapshot> Current = parseOk(Bytes);
    std::unique_ptr<Snapshot> Old = parseOk(Legacy);
    ASSERT_TRUE(Current && Old);
    EXPECT_EQ(diffSnapshots(*Current, *Old), "");
    StateCheckResult R = recheckSnapshot(*Old);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}

TEST(Snapshot, DiffReportsDivergence) {
  CollectRig Rig(LanguageLevel::Base, 6);
  for (int I = 0; I != 10; ++I)
    Rig.M->step();
  std::unique_ptr<Snapshot> A = parseOk(serializeSnapshot(*Rig.M));
  for (int I = 0; I != 6 && Rig.M->status() == Machine::Status::Running; ++I)
    Rig.M->step();
  std::unique_ptr<Snapshot> B = parseOk(serializeSnapshot(*Rig.M));
  ASSERT_TRUE(A && B);
  std::string D = diffSnapshots(*A, *B);
  EXPECT_NE(D, "");
  EXPECT_NE(D.find("steps"), std::string::npos) << D;
}

TEST(Snapshot, FileRoundTrip) {
  CollectRig Rig(LanguageLevel::Forward, 5);
  for (int I = 0; I != 15; ++I)
    Rig.M->step();
  std::string Path =
      (std::filesystem::temp_directory_path() / "scav_snapshot_test.scavsnap")
          .string();
  SnapshotMeta Meta;
  Meta.Kind = "manual";
  Meta.RestrictToReachable = true;
  std::string Error;
  ASSERT_TRUE(saveSnapshot(*Rig.M, Meta, Path, Error)) << Error;
  std::unique_ptr<Snapshot> S = loadSnapshot(Path, Error);
  ASSERT_TRUE(S) << Error;
  EXPECT_EQ(S->Meta.Kind, "manual");
  EXPECT_TRUE(S->Meta.RestrictToReachable);
  std::unique_ptr<Snapshot> InMem = parseOk(serializeSnapshot(*Rig.M, Meta));
  ASSERT_TRUE(InMem);
  EXPECT_EQ(diffSnapshots(*S, *InMem), "");
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Malformed images
//===----------------------------------------------------------------------===//

TEST(Snapshot, RejectsMalformedImages) {
  CollectRig Rig(LanguageLevel::Base, 3);
  std::string Bytes = serializeSnapshot(*Rig.M);

  std::string Error;
  EXPECT_FALSE(parseSnapshot("", Error));
  EXPECT_FALSE(Error.empty());

  std::string BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_FALSE(parseSnapshot(BadMagic, Error));

  // Truncation at any point must be a clean parse failure, not a crash.
  for (size_t Cut : {size_t(4), size_t(16), Bytes.size() / 2,
                     Bytes.size() - 1})
    EXPECT_FALSE(parseSnapshot(std::string_view(Bytes).substr(0, Cut), Error))
        << "cut=" << Cut;

  // Trailing garbage is also malformed (the format is self-delimiting).
  EXPECT_FALSE(parseSnapshot(Bytes + "x", Error));

  // Layout bytes other than 0 and 1 were never written.
  std::string BadLayout = Bytes;
  BadLayout[LayoutByteOffset] = 2;
  EXPECT_FALSE(parseSnapshot(BadLayout, Error));
}

TEST(Snapshot, FlippedBytesParseOrRecheck) {
  // A mid-collection forward-level image with 1–4 random bytes flipped must
  // either fail to parse or load into a state the full checker completes
  // on (accepting or rejecting). Flips hit node references, counts and
  // kind bytes alike. A decoder that trusted child references and counts
  // crashes (SIGSEGV) on this seed well within the 2,000 flips.
  CollectRig Rig(LanguageLevel::Forward, 8);
  for (int I = 0; I != 40 && Rig.M->status() == Machine::Status::Running; ++I)
    Rig.M->step();
  const std::string Bytes = serializeSnapshot(*Rig.M);
  ASSERT_TRUE(parseOk(Bytes));

  Rng R(0x5CA7F11);
  unsigned Parsed = 0, Rejected = 0;
  for (int Iter = 0; Iter != 2000; ++Iter) {
    std::string Mut = Bytes;
    for (uint64_t N = 1 + R.below(4); N != 0; --N)
      Mut[R.below(Mut.size())] ^= static_cast<char>(1 + R.below(255));
    std::string Error;
    std::unique_ptr<Snapshot> S = parseSnapshot(Mut, Error);
    if (!S) {
      EXPECT_FALSE(Error.empty()) << "iteration " << Iter;
      ++Rejected;
      continue;
    }
    recheckSnapshot(*S);
    ++Parsed;
  }
  // Both outcomes occur: the loop exercises the checker, not just the
  // parser's early exits.
  EXPECT_GT(Parsed, 0u);
  EXPECT_GT(Rejected, 0u);
}

} // namespace
