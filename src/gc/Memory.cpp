//===- gc/Memory.cpp - Heap word encode/decode ----------------------------===//
///
/// \file
/// The heap's value ⇄ word conversions (see HeapWord.h for the format and
/// Memory.h for when each side is authoritative). Encoding is total:
/// anything that does not fit a tagged word is boxed, and a Box decode
/// returns the original pointer — so encode∘decode is structural identity
/// for flat shapes and pointer identity for boxed ones.
///
//===----------------------------------------------------------------------===//

#include "gc/Memory.h"

#include "gc/GcContext.h"

using namespace scav;
using namespace scav::gc;
using namespace scav::gc::heapword;

uint64_t Memory::boxValue(RegionData &R, const Value *V) {
  assert(R.Boxed.size() < std::numeric_limits<uint32_t>::max());
  R.Boxed.push_back(V);
  return make(WordTag::Box, R.Boxed.size() - 1);
}

uint64_t Memory::encodeValue(RegionData &R, const Value *V) {
  switch (V->kind()) {
  case ValueKind::Int: {
    int64_t N = V->intValue();
    return fitsInt(N) ? makeInt(N) : boxValue(R, V);
  }
  case ValueKind::Addr: {
    Address A = V->address();
    uint32_t Id = ensureRegionId(A.R.sym());
    return Id <= MaxRegionId ? makeAddr(Id, A.Offset) : boxValue(R, V);
  }
  case ValueKind::Pair: {
    if (R.Aux.size() + 2 > size_t(std::numeric_limits<uint32_t>::max()))
      return boxValue(R, V);
    // Reserve both slots up front: encoding the children grows Aux.
    uint32_t I = static_cast<uint32_t>(R.Aux.size());
    R.Aux.push_back(Hole);
    R.Aux.push_back(Hole);
    uint64_t First = encodeValue(R, V->first());
    uint64_t Second = encodeValue(R, V->second());
    R.Aux[I] = First;
    R.Aux[I + 1] = Second;
    return make(WordTag::Pair, I);
  }
  case ValueKind::Inl:
  case ValueKind::Inr: {
    bool IsInl = V->is(ValueKind::Inl);
    const Value *P = V->payload();
    if (P->is(ValueKind::Addr)) {
      Address A = P->address();
      uint32_t Id = ensureRegionId(A.R.sym());
      if (Id <= MaxRegionId)
        return make(IsInl ? WordTag::InlAddr : WordTag::InrAddr,
                    addrPayload(Id, A.Offset));
    }
    if (R.Aux.size() >= size_t(std::numeric_limits<uint32_t>::max()))
      return boxValue(R, V);
    uint32_t I = static_cast<uint32_t>(R.Aux.size());
    R.Aux.push_back(Hole);
    uint64_t Child = encodeValue(R, P);
    R.Aux[I] = Child;
    return make(IsInl ? WordTag::InlAux : WordTag::InrAux, I);
  }
  case ValueKind::PackTag: {
    if (R.Aux.size() + 4 > size_t(std::numeric_limits<uint32_t>::max()))
      return boxValue(R, V);
    uint32_t I = static_cast<uint32_t>(R.Aux.size());
    R.Aux.resize(I + 4, Hole);
    R.Aux[I] = encodeValue(R, V->payload());
    R.Aux[I + 1] = symBits(V->var());
    R.Aux[I + 2] = ptrBits(V->tagWitness());
    R.Aux[I + 3] = ptrBits(V->bodyType());
    return make(WordTag::PackTagAux, I);
  }
  case ValueKind::PackTyVar: {
    const RegionSet *Delta = &V->delta();
    if (R.Aux.size() + 5 > size_t(std::numeric_limits<uint32_t>::max()))
      return boxValue(R, V);
    uint32_t I = static_cast<uint32_t>(R.Aux.size());
    R.Aux.resize(I + 5, Hole);
    R.Aux[I] = encodeValue(R, V->payload());
    R.Aux[I + 1] = symBits(V->var());
    R.Aux[I + 2] = ptrBits(Delta);
    R.Aux[I + 3] = ptrBits(V->typeWitness());
    R.Aux[I + 4] = ptrBits(V->bodyType());
    return make(WordTag::PackTyVarAux, I);
  }
  case ValueKind::PackRegion: {
    const RegionSet *Delta = &V->delta();
    if (R.Aux.size() + 5 > size_t(std::numeric_limits<uint32_t>::max()))
      return boxValue(R, V);
    uint32_t I = static_cast<uint32_t>(R.Aux.size());
    R.Aux.resize(I + 5, Hole);
    R.Aux[I] = encodeValue(R, V->payload());
    R.Aux[I + 1] = symBits(V->var());
    R.Aux[I + 2] = ptrBits(Delta);
    R.Aux[I + 3] = regionBits(V->regionWitness());
    R.Aux[I + 4] = ptrBits(V->bodyType());
    return make(WordTag::PackRegionAux, I);
  }
  case ValueKind::Var:
  case ValueKind::TransApp:
  case ValueKind::Code:
    return boxValue(R, V);
  }
  return boxValue(R, V);
}

uint64_t Memory::transcodeWord(const RegionData &Src, uint64_t W,
                               RegionData &Dst) {
  switch (tagOf(W)) {
  case WordTag::Hole:
  case WordTag::Int:
  case WordTag::Addr:
  case WordTag::InlAddr:
  case WordTag::InrAddr:
    return W; // region-independent payload
  default:
    break;
  }
  if (&Src == &Dst)
    return W; // aux/box subtree sharing within one region is sound
  switch (tagOf(W)) {
  case WordTag::Pair: {
    if (Dst.Aux.size() + 2 > size_t(std::numeric_limits<uint32_t>::max()))
      return boxValue(Dst, decodeWord(Src, W));
    uint32_t I = static_cast<uint32_t>(Dst.Aux.size());
    Dst.Aux.push_back(Hole);
    Dst.Aux.push_back(Hole);
    uint64_t First = transcodeWord(Src, Src.Aux[indexOf(W)], Dst);
    uint64_t Second = transcodeWord(Src, Src.Aux[indexOf(W) + 1], Dst);
    Dst.Aux[I] = First;
    Dst.Aux[I + 1] = Second;
    return make(WordTag::Pair, I);
  }
  case WordTag::InlAux:
  case WordTag::InrAux: {
    if (Dst.Aux.size() >= size_t(std::numeric_limits<uint32_t>::max()))
      return boxValue(Dst, decodeWord(Src, W));
    uint64_t Child = transcodeWord(Src, Src.Aux[indexOf(W)], Dst);
    uint32_t I = static_cast<uint32_t>(Dst.Aux.size());
    Dst.Aux.push_back(Child);
    return make(tagOf(W), I);
  }
  case WordTag::PackTagAux:
  case WordTag::PackTyVarAux:
  case WordTag::PackRegionAux: {
    uint32_t Span = auxSpan(tagOf(W));
    if (Dst.Aux.size() + Span > size_t(std::numeric_limits<uint32_t>::max()))
      return boxValue(Dst, decodeWord(Src, W));
    uint32_t SI = indexOf(W);
    uint32_t I = static_cast<uint32_t>(Dst.Aux.size());
    Dst.Aux.resize(I + Span, Hole);
    uint64_t Payload = transcodeWord(Src, Src.Aux[SI], Dst);
    Dst.Aux[I] = Payload;
    // Attachments are region-independent (interned pointers / symbols).
    for (uint32_t K = 1; K != Span; ++K)
      Dst.Aux[I + K] = Src.Aux[SI + K];
    return make(tagOf(W), I);
  }
  case WordTag::Box:
    return boxValue(Dst, Src.Boxed[indexOf(W)]);
  default:
    return W; // unreachable: handled above
  }
}

const Value *Memory::decodeWord(const RegionData &R, uint64_t W) const {
  switch (tagOf(W)) {
  case WordTag::Hole:
    return nullptr;
  case WordTag::Int:
    return Ctx.valInt(intOf(W));
  case WordTag::Addr:
    return Ctx.valAddr(
        Address{Region::name(IdToSym[addrRegionId(W)]), addrOffset(W)});
  case WordTag::Pair: {
    uint32_t I = indexOf(W);
    return Ctx.valPair(decodeWord(R, R.Aux[I]),
                        decodeWord(R, R.Aux[I + 1]));
  }
  case WordTag::InlAddr:
  case WordTag::InrAddr: {
    const Value *P = Ctx.valAddr(
        Address{Region::name(IdToSym[addrRegionId(W)]), addrOffset(W)});
    return tagOf(W) == WordTag::InlAddr ? Ctx.valInl(P) : Ctx.valInr(P);
  }
  case WordTag::InlAux:
    return Ctx.valInl(decodeWord(R, R.Aux[indexOf(W)]));
  case WordTag::InrAux:
    return Ctx.valInr(decodeWord(R, R.Aux[indexOf(W)]));
  case WordTag::PackTagAux: {
    uint32_t I = indexOf(W);
    return Ctx.valPackTag(symOf(R.Aux[I + 1]), ptrOf<Tag>(R.Aux[I + 2]),
                           decodeWord(R, R.Aux[I]),
                           ptrOf<Type>(R.Aux[I + 3]));
  }
  case WordTag::PackTyVarAux: {
    uint32_t I = indexOf(W);
    return Ctx.valPackTyVar(symOf(R.Aux[I + 1]),
                             ptrOf<RegionSet>(R.Aux[I + 2]),
                             ptrOf<Type>(R.Aux[I + 3]), decodeWord(R, R.Aux[I]),
                             ptrOf<Type>(R.Aux[I + 4]));
  }
  case WordTag::PackRegionAux: {
    uint32_t I = indexOf(W);
    return Ctx.valPackRegion(symOf(R.Aux[I + 1]),
                              ptrOf<RegionSet>(R.Aux[I + 2]),
                              regionOf(R.Aux[I + 3]), decodeWord(R, R.Aux[I]),
                              ptrOf<Type>(R.Aux[I + 4]));
  }
  case WordTag::Box:
    return R.Boxed[indexOf(W)];
  }
  return nullptr;
}

const Value *Memory::decodeCell(const RegionData &R, uint32_t Off) const {
  // Caching through const: decode changes the representation of the cell,
  // not the memory state — no Version bump, no dirty log, mutator-thread
  // only (the async checker's capture decodes before handing a unit over).
  auto &MR = const_cast<RegionData &>(R);
  const Value *V = decodeWord(R, R.Words[Off]);
  MR.Cells[Off] = V;
  if (MR.Undecoded)
    --MR.Undecoded;
  return V;
}

void Memory::decodeRegion(const RegionData &R) const {
  if (R.Undecoded == 0)
    return;
  auto &MR = const_cast<RegionData &>(R);
  for (size_t Off = 0; Off != MR.Cells.size(); ++Off)
    if (!MR.Cells[Off] && MR.Words[Off] != Hole)
      MR.Cells[Off] = decodeWord(R, MR.Words[Off]);
  MR.Undecoded = 0;
}
