//===- gc/HeapWord.h - Tagged 64-bit cell words for the compact heap -*- C++ -*-===//
///
/// \file
/// The compact heap layout (DESIGN.md §3.12) stores each region cell as one
/// 64-bit tagged word instead of a `const Value *` into the arena:
///
///   bits 63..60  tag (WordTag)
///   bits 59..0   payload
///
/// The common shapes stay inside the flat buffer:
///
///   Int      60-bit signed integer, inline (wider ints fall back to Box)
///   Addr     28-bit dense region id | 32-bit offset
///   Pair     32-bit index into the region's Aux buffer; the two children
///            are the words Aux[i] and Aux[i+1]
///   InlAddr  an inl whose payload is an address, packed like Addr —
///   InrAddr  the forwarding-collector sum header, by far the hottest
///            inl/inr case, costs no indirection at all
///   InlAux   an inl/inr with any other payload: one child word in Aux
///   InrAux
///   Box      32-bit index into the region's Boxed side table of
///            `const Value *` — Var, Code, TransApp, out-of-range ints,
///            and addresses whose region id exceeds 28 bits. Boxed cells
///            keep the *original* pointer, so decoding a Box is
///            pointer-identity preserving.
///
/// The three pack forms — λGC's existential wrappers, which every heap
/// reference the collector programs copy is wrapped in — keep their value
/// payload in the word world and stash the type-level attachments as raw
/// 64-bit entries in Aux (interned/arena pointers, POD symbols and packed
/// regions):
///
///   PackTagAux     Aux[i]=payload word  [i+1]=binder Symbol
///                  [i+2]=witness Tag*   [i+3]=body Type*
///   PackTyVarAux   Aux[i]=payload word  [i+1]=binder Symbol
///                  [i+2]=∆ RegionSet*   [i+3]=witness Type*
///                  [i+4]=body Type*
///   PackRegionAux  Aux[i]=payload word  [i+1]=binder Symbol
///                  [i+2]=∆ RegionSet*   [i+3]=witness region (regionBits)
///                  [i+4]=body Type*
///
/// Attachment entries are not words: every reader takes them by position
/// within the pack's span, never by tag. Decoding a pack word rebuilds a
/// fresh Value node (attachment pointers are shared, the node itself is
/// not), so unlike Box it preserves structure, not pointer identity.
///
///   Hole     the all-zero word: a reserved-but-unfilled slot (Cheney
///            reserve, reserveCode). Int has tag 1 so that the integer 0 is
///            a non-zero word and `word == 0` means exactly "no value".
///
/// Region ids are dense per-Memory indices (Memory::ensureRegionId); the
/// id → symbol table is append-only and ids are reused when a region name
/// is re-added, so words that survive a region's death and resurrection
/// still decode to the same symbol.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_GC_HEAPWORD_H
#define SCAV_GC_HEAPWORD_H

#include "gc/Region.h"

#include <bit>
#include <cstdint>

namespace scav::gc::heapword {

enum class WordTag : uint8_t {
  Hole = 0,
  Int = 1,
  Addr = 2,
  Pair = 3,
  InlAddr = 4,
  InrAddr = 5,
  InlAux = 6,
  InrAux = 7,
  Box = 8,
  PackTagAux = 9,
  PackTyVarAux = 10,
  PackRegionAux = 11,
};

constexpr unsigned TagShift = 60;
constexpr uint64_t PayloadMask = (uint64_t(1) << TagShift) - 1;
constexpr uint64_t Hole = 0;

/// Largest dense region id representable in an Addr payload (28 bits).
constexpr uint32_t MaxRegionId = (uint32_t(1) << 28) - 1;

/// Inline-int range: 60-bit two's complement.
constexpr int64_t IntMin = -(int64_t(1) << 59);
constexpr int64_t IntMax = (int64_t(1) << 59) - 1;

inline constexpr WordTag tagOf(uint64_t W) {
  return static_cast<WordTag>(W >> TagShift);
}

inline constexpr uint64_t make(WordTag T, uint64_t Payload) {
  return (uint64_t(T) << TagShift) | (Payload & PayloadMask);
}

inline constexpr bool fitsInt(int64_t N) { return N >= IntMin && N <= IntMax; }

inline constexpr uint64_t makeInt(int64_t N) {
  return make(WordTag::Int, uint64_t(N));
}

/// Sign-extends the 60-bit payload back to int64_t.
inline constexpr int64_t intOf(uint64_t W) {
  return int64_t(W << (64 - TagShift)) >> (64 - TagShift);
}

inline constexpr uint64_t addrPayload(uint32_t RegionId, uint32_t Offset) {
  return (uint64_t(RegionId) << 32) | Offset;
}

inline constexpr uint64_t makeAddr(uint32_t RegionId, uint32_t Offset) {
  return make(WordTag::Addr, addrPayload(RegionId, Offset));
}

/// Region id of an Addr/InlAddr/InrAddr payload.
inline constexpr uint32_t addrRegionId(uint64_t W) {
  return uint32_t((W & PayloadMask) >> 32);
}

inline constexpr uint32_t addrOffset(uint64_t W) { return uint32_t(W); }

/// Aux/Boxed index of a Pair/InlAux/InrAux/Box/Pack* word (low 32 bits).
inline constexpr uint32_t indexOf(uint64_t W) { return uint32_t(W); }

/// Number of consecutive Aux entries an aux-indexed word owns (0 for
/// inline-payload and Box words).
inline constexpr uint32_t auxSpan(WordTag T) {
  switch (T) {
  case WordTag::Pair:
    return 2;
  case WordTag::InlAux:
  case WordTag::InrAux:
    return 1;
  case WordTag::PackTagAux:
    return 4;
  case WordTag::PackTyVarAux:
  case WordTag::PackRegionAux:
    return 5;
  default:
    return 0;
  }
}

/// True for words whose payload is an index into the owning region's Aux
/// table (everything the region-liveness reasoning has to care about).
inline constexpr bool isAuxTag(WordTag T) { return auxSpan(T) != 0; }

inline uint64_t ptrBits(const void *P) {
  return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(P));
}

template <typename T> inline const T *ptrOf(uint64_t W) {
  return reinterpret_cast<const T *>(static_cast<uintptr_t>(W));
}

/// Symbols are 32-bit interned ids; stored in an attachment entry verbatim.
inline uint64_t symBits(Symbol S) { return uint64_t(S.id()); }

inline Symbol symOf(uint64_t W) {
  // Symbol's id constructor is SymbolTable-private; the id round-trips
  // through the trivially-copyable representation instead.
  static_assert(sizeof(Symbol) == sizeof(uint32_t));
  return std::bit_cast<Symbol>(uint32_t(W));
}

/// A region (name or variable) packs as sym-id | kind bit; bit 32 set means
/// a concrete name. Invalid regions keep the invalid sym id.
inline uint64_t regionBits(Region R) {
  return symBits(R.sym()) | (uint64_t(R.isName()) << 32);
}

inline Region regionOf(uint64_t W) {
  Symbol S = symOf(W);
  return (W >> 32) & 1 ? Region::name(S) : Region::var(S);
}

} // namespace scav::gc::heapword

#endif // SCAV_GC_HEAPWORD_H
