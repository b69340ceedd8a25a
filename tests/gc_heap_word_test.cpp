//===- tests/gc_heap_word_test.cpp - Compact tagged-word heap format ------===//
//
// The compact heap's word format (gc/HeapWord.h) and the Memory-level
// encode/decode (DESIGN.md §3.12): every ValueKind round-trips through a
// tagged word, inline payloads saturate at the documented boundaries
// (60-bit ints, 28-bit region ids, 32-bit offsets), and anything past a
// boundary falls back to boxing with pointer-identical decode.
//
//===----------------------------------------------------------------------===//

#include "gc/GcContext.h"
#include "gc/Memory.h"
#include "gc/Ops.h"

#include <gtest/gtest.h>

using namespace scav;
using namespace scav::gc;
namespace hw = scav::gc::heapword;

namespace {

/// A compact Memory with one data region, plus the plumbing to push a
/// value through encodeValue → putWord → get (the lazy-decode read path).
struct CompactHeap {
  GcContext C;
  Symbol Cd, Data;
  Memory Mem;
  RegionData *RD;

  CompactHeap()
      : Cd(C.cd().sym()), Data(C.intern("data")),
        Mem(Cd, C) {
    Mem.addRegion(Data, 0);
    RD = Mem.region(Data);
  }

  /// Encode, store as a raw word (Cells stays null), read back via get.
  const Value *roundTrip(const Value *V) {
    uint64_t W = Mem.encodeValue(*RD, V);
    std::optional<Address> A = Mem.putWord(*RD, Data, W);
    EXPECT_TRUE(A.has_value());
    EXPECT_EQ(RD->Cells[A->Offset], nullptr) << "putWord must not decode";
    return Mem.get(*A);
  }

  /// Structural equality via the printer (values are not interned, so
  /// pointer comparison is wrong for unboxed shapes).
  void expectRoundTrip(const Value *V) {
    const Value *Back = roundTrip(V);
    ASSERT_NE(Back, nullptr);
    EXPECT_EQ(printValue(C, Back), printValue(C, V));
  }

  /// Boxed shapes must decode to the very same node, not a copy.
  void expectBoxedIdentity(const Value *V) {
    uint64_t W = Mem.encodeValue(*RD, V);
    EXPECT_EQ(hw::tagOf(W), hw::WordTag::Box);
    std::optional<Address> A = Mem.putWord(*RD, Data, W);
    ASSERT_TRUE(A.has_value());
    EXPECT_EQ(Mem.get(*A), V);
  }
};

TEST(HeapWord, IntBoundariesInline) {
  static_assert(hw::IntMin == -(int64_t(1) << 59));
  static_assert(hw::IntMax == (int64_t(1) << 59) - 1);
  for (int64_t N : {int64_t(0), int64_t(1), int64_t(-1), hw::IntMin,
                    hw::IntMax, hw::IntMin + 1, hw::IntMax - 1}) {
    ASSERT_TRUE(hw::fitsInt(N)) << N;
    uint64_t W = hw::makeInt(N);
    EXPECT_EQ(hw::tagOf(W), hw::WordTag::Int);
    EXPECT_EQ(hw::intOf(W), N) << "sign-extension must be exact";
  }
  EXPECT_FALSE(hw::fitsInt(hw::IntMax + 1));
  EXPECT_FALSE(hw::fitsInt(hw::IntMin - 1));
  EXPECT_FALSE(hw::fitsInt(std::numeric_limits<int64_t>::max()));
  EXPECT_FALSE(hw::fitsInt(std::numeric_limits<int64_t>::min()));
}

TEST(HeapWord, AddrPayloadSaturation) {
  // The address payload is 28-bit region id ‖ 32-bit offset; both extremes
  // must survive the pack/unpack untouched (PR 2's offset-space saturation
  // boundary, now at the word level).
  uint32_t MaxOff = std::numeric_limits<uint32_t>::max();
  for (auto [Id, Off] : {std::pair<uint32_t, uint32_t>{0, 0},
                         {hw::MaxRegionId, MaxOff},
                         {hw::MaxRegionId, 0},
                         {0, MaxOff},
                         {1234, 5678}}) {
    uint64_t W = hw::makeAddr(Id, Off);
    EXPECT_EQ(hw::tagOf(W), hw::WordTag::Addr);
    EXPECT_EQ(hw::addrRegionId(W), Id);
    EXPECT_EQ(hw::addrOffset(W), Off);
  }
  static_assert(hw::MaxRegionId == (uint32_t(1) << 28) - 1);
}

TEST(HeapWord, HoleIsZero) {
  // Word 0 ⟺ "no value": putWord of Hole reserves without establishing.
  EXPECT_EQ(hw::Hole, 0u);
  EXPECT_EQ(hw::tagOf(hw::Hole), hw::WordTag::Hole);
  // Int 0 is NOT the hole (tag bits distinguish them).
  EXPECT_NE(hw::makeInt(0), hw::Hole);
}

TEST(HeapWordMemory, IntRoundTrips) {
  CompactHeap H;
  for (int64_t N : {int64_t(0), int64_t(42), int64_t(-7), hw::IntMin,
                    hw::IntMax})
    H.expectRoundTrip(H.C.valInt(N));
}

TEST(HeapWordMemory, OversizeIntBoxes) {
  CompactHeap H;
  H.expectBoxedIdentity(H.C.valInt(hw::IntMax + 1));
  H.expectBoxedIdentity(H.C.valInt(hw::IntMin - 1));
  H.expectBoxedIdentity(H.C.valInt(std::numeric_limits<int64_t>::min()));
}

TEST(HeapWordMemory, AddrRoundTrips) {
  CompactHeap H;
  Address A{Region::name(H.Data), 7};
  H.expectRoundTrip(H.C.valAddr(A));
  // Offset saturation through the full encode path.
  Address Sat{Region::name(H.Data), std::numeric_limits<uint32_t>::max()};
  const Value *Back = H.roundTrip(H.C.valAddr(Sat));
  ASSERT_NE(Back, nullptr);
  ASSERT_TRUE(Back->is(ValueKind::Addr));
  EXPECT_EQ(Back->address().Offset, std::numeric_limits<uint32_t>::max());
  EXPECT_EQ(Back->address().R.sym(), H.Data);
}

TEST(HeapWordMemory, PairAndSumRoundTrip) {
  CompactHeap H;
  GcContext &C = H.C;
  Address A{Region::name(H.Data), 3};
  // Flat pair, nested pair, inl/inr over addr (inline payload) and over
  // aux-encoded children.
  H.expectRoundTrip(C.valPair(C.valInt(1), C.valInt(2)));
  H.expectRoundTrip(
      C.valPair(C.valPair(C.valInt(1), C.valAddr(A)), C.valInt(3)));
  H.expectRoundTrip(C.valInl(C.valAddr(A)));
  H.expectRoundTrip(C.valInr(C.valAddr(A)));
  H.expectRoundTrip(C.valInl(C.valInt(9)));
  H.expectRoundTrip(C.valInr(C.valPair(C.valInt(1), C.valInt(2))));
}

TEST(HeapWordMemory, PointerRichKindsBox) {
  CompactHeap H;
  GcContext &C = H.C;
  Symbol X = C.intern("x");

  H.expectBoxedIdentity(C.valVar(X));
  H.expectBoxedIdentity(C.valTransApp(
      C.valAddr(Address{Region::name(H.Data), 0}), {C.tagInt()}, {}));
  H.expectBoxedIdentity(C.valCode({}, {}, {}, {}, {},
                                  C.termHalt(C.valInt(0))));
}

TEST(HeapWordMemory, PackKindsUseAuxWords) {
  // Packs keep their payload in the word world and their type-level
  // attachments as raw Aux entries: the decode is a fresh node that prints
  // identically (attachment pointers shared, structure rebuilt).
  CompactHeap H;
  GcContext &C = H.C;
  Symbol X = C.intern("x");
  const Value *Payload = C.valInt(5);

  const Value *PT = C.valPackTag(X, C.tagInt(), Payload, C.typeInt());
  EXPECT_EQ(hw::tagOf(H.Mem.encodeValue(*H.RD, PT)),
            hw::WordTag::PackTagAux);
  H.expectRoundTrip(PT);

  const Value *PV =
      C.valPackTyVar(X, RegionSet{}, C.typeInt(), Payload, C.typeInt());
  EXPECT_EQ(hw::tagOf(H.Mem.encodeValue(*H.RD, PV)),
            hw::WordTag::PackTyVarAux);
  H.expectRoundTrip(PV);

  const Value *PR = C.valPackRegion(X, RegionSet{Region::name(H.Data)},
                                    Region::name(H.Data), Payload,
                                    C.typeInt());
  EXPECT_EQ(hw::tagOf(H.Mem.encodeValue(*H.RD, PR)),
            hw::WordTag::PackRegionAux);
  H.expectRoundTrip(PR);

  // The shared-attachment contract: a decoded pack reuses the original
  // witness/body pointers and delta set, only the node is rebuilt.
  const Value *Back = H.roundTrip(PT);
  ASSERT_TRUE(Back->is(ValueKind::PackTag));
  EXPECT_EQ(Back->tagWitness(), PT->tagWitness());
  EXPECT_EQ(Back->bodyType(), PT->bodyType());
  EXPECT_EQ(Back->var(), PT->var());

  // A pack payload that itself needs boxing still works (box nested under
  // an aux-encoded pack).
  H.expectRoundTrip(
      C.valPackTag(X, C.tagInt(), C.valVar(X), C.typeInt()));

  // An unresolved region witness (region variable) survives the kind bit.
  const Value *PRVar = C.valPackRegion(X, RegionSet{}, Region::var(X),
                                       Payload, C.typeInt());
  const Value *BackVar = H.roundTrip(PRVar);
  ASSERT_TRUE(BackVar->is(ValueKind::PackRegion));
  EXPECT_TRUE(BackVar->regionWitness().isVar());
  EXPECT_EQ(BackVar->regionWitness().sym(), X);
}

TEST(HeapWordMemory, CellsAndWordsStayInSync) {
  CompactHeap H;
  // Value-level put eagerly stores both sides; word-level put defers the
  // cell; decodeRegion reconciles and zeroes the Undecoded counter.
  (void)H.Mem.put(H.Data, H.C.valInt(1));
  EXPECT_EQ(H.RD->Undecoded, 0u);
  (void)H.Mem.putWord(*H.RD, H.Data, hw::makeInt(2));
  EXPECT_EQ(H.RD->Undecoded, 1u);
  ASSERT_EQ(H.RD->Cells.size(), H.RD->Words.size());
  H.Mem.decodeRegion(*H.RD);
  EXPECT_EQ(H.RD->Undecoded, 0u);
  for (uint32_t Off = 0; Off != H.RD->Cells.size(); ++Off)
    EXPECT_NE(H.RD->Cells[Off], nullptr) << Off;
}

} // namespace
