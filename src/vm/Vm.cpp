//===- vm/Vm.cpp - Bytecode dispatch loop ---------------------------------===//
///
/// \file
/// The dispatch loop. Every case mirrors the corresponding branch of
/// Machine::step() (Machine.cpp) exactly — same stat-increment order, same
/// stuck messages, same trace events — with environment work replaced by
/// frame-slot loads resolved at lowering time. One instruction is one
/// machine step. Diffs against both interpreters live in
/// tests/gc_machine_vm_diff_test.cpp; keep the two files in lockstep.
///
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "support/WrapArith.h"

#include <chrono>

using namespace scav;
using namespace scav::gc;
using namespace scav::vm;

VmExec::VmExec(Machine &M)
    : M(M), C(M.context()), Lower(M.context()),
      FastHeap(!M.config().TrackTypes) {
  M.attachBackend(this);
}

VmExec::~VmExec() {
  if (M.backend() == this)
    M.attachBackend(nullptr);
}

//===----------------------------------------------------------------------===//
// Chunk cache
//===----------------------------------------------------------------------===//

void VmExec::noteChunk(const Chunk &Ch) {
  ++NumChunks;
  NumInstrs += Ch.Code.size();
  if (SCAV_TRACE_ENABLED()) {
    support::TraceSink &Sink = support::TraceSink::get();
    Sink.instant("vm", "vm.lower");
    Sink.counter("vm_code_instrs", static_cast<double>(NumInstrs));
  }
}

const Chunk *VmExec::chunkForTerm(const Term *E) {
  auto It = Chunks.find(E);
  if (It != Chunks.end())
    return It->second.get();
  auto T0 = std::chrono::steady_clock::now();
  std::unique_ptr<Chunk> Ch = Lower.lowerMain(E, "main");
  LowerNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - T0)
                 .count();
  noteChunk(*Ch);
  return Chunks.emplace(E, std::move(Ch)).first->second.get();
}

const Chunk *VmExec::chunkForCode(const Value *Code, std::string_view Label) {
  auto It = Chunks.find(Code);
  if (It != Chunks.end())
    return It->second.get();
  auto T0 = std::chrono::steady_clock::now();
  std::unique_ptr<Chunk> Ch = Lower.lowerCode(Code, std::string(Label));
  LowerNs += std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - T0)
                 .count();
  noteChunk(*Ch);
  return Chunks.emplace(Code, std::move(Ch)).first->second.get();
}

//===----------------------------------------------------------------------===//
// Operand materialization
//===----------------------------------------------------------------------===//

const Value *VmExec::matFast(const Value *V, uint32_t BindsBegin,
                             uint32_t BindsEnd) {
  switch (V->kind()) {
  case ValueKind::Int:
  case ValueKind::Addr:
    return V;
  case ValueKind::Var: {
    Symbol S = V->var();
    for (uint32_t I = BindsBegin; I != BindsEnd; ++I) {
      const BindSpec &B = Cur->Binds[I];
      if (B.Sym == S)
        return slotValue(B.Slot);
    }
    return V; // unbound, as in the interpreters
  }
  case ValueKind::Pair: {
    const Value *A = matFast(V->first(), BindsBegin, BindsEnd);
    const Value *B = matFast(V->second(), BindsBegin, BindsEnd);
    // Preserve pointer identity when nothing fired (closeValue does too;
    // it keeps the put-type cache hot on repeated stores of one template).
    return (A == V->first() && B == V->second()) ? V : C.valPair(A, B);
  }
  case ValueKind::Inl: {
    const Value *P = matFast(V->payload(), BindsBegin, BindsEnd);
    return P == V->payload() ? V : C.valInl(P);
  }
  case ValueKind::Inr: {
    const Value *P = matFast(V->payload(), BindsBegin, BindsEnd);
    return P == V->payload() ? V : C.valInr(P);
  }
  default:
    assert(false && "non-template value in Fast operand");
    return V;
  }
}

const Value *VmExec::matSlow(const ValOperand &Op) {
  // Build the restricted environment (only symbols occurring in the
  // operand, innermost binding per sym/sort — emplace keeps the first,
  // which collectBinds stored innermost-first) and run the same closing
  // substitution the env machine uses. Binder masking, capture avoidance,
  // and pointer-identity preservation all come from closeValue itself.
  Subst S;
  for (uint32_t I = Op.BindsBegin; I != Op.BindsEnd; ++I) {
    const BindSpec &B = Cur->Binds[I];
    switch (B.S) {
    case Sort::Val:
      S.Vals.emplace(B.Sym, slotValue(B.Slot));
      break;
    case Sort::Tag:
      S.Tags.emplace(B.Sym, static_cast<const Tag *>(Frame[B.Slot].Ptr));
      break;
    case Sort::Type:
      S.Types.emplace(B.Sym, static_cast<const Type *>(Frame[B.Slot].Ptr));
      break;
    case Sort::Region:
      S.Regions.emplace(B.Sym, Frame[B.Slot].Reg);
      break;
    }
  }
  return closeValue(C, Op.V, S);
}

const TplCacheEntry &VmExec::refreshTpl(const TplInfo &TI) {
  // Key check: the attachments depend only on these tag/type/region slots
  // (λGC types never contain values), so matching contents mean every
  // cached attachment is still what closeTag/closeType would produce.
  // MRU scan: collector loops alternate between the scanned heap's few tag
  // shapes, so the match is almost always in the first entry or two.
  const uint32_t KeyLen = TI.KeyEnd - TI.KeyBegin;
  for (size_t E = 0; E != TI.Cache.size(); ++E) {
    const TplCacheEntry &Ent = TI.Cache[E];
    bool Hit = true;
    for (uint32_t I = 0; I != KeyLen; ++I) {
      // Compare only the field the slot's sort populates: frame writers
      // fill .Ptr or .Reg, never both, and the other field keeps whatever
      // the recycled frame buffer last held.
      const BindSpec &B = Cur->Binds[TI.KeyBegin + I];
      const FrameCell &Cell = Frame[B.Slot];
      if (B.S == Sort::Region ? Cell.Reg != Ent.Key[I].Reg
                              : Cell.Ptr != Ent.Key[I].Ptr) {
        Hit = false;
        break;
      }
    }
    if (Hit) {
      ++TplHits;
      if (E != 0)
        std::swap(TI.Cache[0], TI.Cache[E]); // move to front
      return TI.Cache[0];
    }
  }
  ++TplMisses;
  if (TI.Cache.size() == TplInfo::MaxCacheEntries)
    TI.Cache.pop_back(); // evict least-recently-used
  TI.Cache.emplace(TI.Cache.begin());
  TplCacheEntry &New = TI.Cache.front();
  New.Key.resize(KeyLen);
  for (uint32_t I = 0; I != KeyLen; ++I)
    New.Key[I] = Frame[Cur->Binds[TI.KeyBegin + I].Slot];
  New.Atts.resize(TI.NumAtts);
  New.Deltas.resize(TI.NumDeltas);
  for (uint32_t AI = TI.AttsBegin; AI != TI.AttsEnd; ++AI) {
    const TplAtt &A = Cur->TplAtts[AI];
    switch (A.Kind) {
    case TplAtt::K::Tag: {
      const Tag *T = static_cast<const Tag *>(A.Node);
      if (A.BindsBegin != A.BindsEnd) {
        Subst S;
        for (uint32_t I = A.BindsBegin; I != A.BindsEnd; ++I) {
          const BindSpec &B = Cur->Binds[I];
          switch (B.S) {
          case Sort::Tag:
            S.Tags.emplace(B.Sym, static_cast<const Tag *>(Frame[B.Slot].Ptr));
            break;
          case Sort::Type:
            S.Types.emplace(B.Sym,
                            static_cast<const Type *>(Frame[B.Slot].Ptr));
            break;
          case Sort::Region:
            S.Regions.emplace(B.Sym, Frame[B.Slot].Reg);
            break;
          case Sort::Val:
            break; // typedBinds never stores Val binds
          }
        }
        T = closeTag(C, T, S); // no normalize — matches closeValue exactly
      }
      New.Atts[A.Ord] = T;
      break;
    }
    case TplAtt::K::Type: {
      const Type *T = static_cast<const Type *>(A.Node);
      if (A.BindsBegin != A.BindsEnd) {
        Subst S;
        for (uint32_t I = A.BindsBegin; I != A.BindsEnd; ++I) {
          const BindSpec &B = Cur->Binds[I];
          switch (B.S) {
          case Sort::Tag:
            S.Tags.emplace(B.Sym, static_cast<const Tag *>(Frame[B.Slot].Ptr));
            break;
          case Sort::Type:
            S.Types.emplace(B.Sym,
                            static_cast<const Type *>(Frame[B.Slot].Ptr));
            break;
          case Sort::Region:
            S.Regions.emplace(B.Sym, Frame[B.Slot].Reg);
            break;
          case Sort::Val:
            break;
          }
        }
        T = closeType(C, T, S);
      }
      New.Atts[A.Ord] = T;
      break;
    }
    case TplAtt::K::Delta: {
      if (A.AllConst) {
        New.Deltas[A.Ord] = A.Set; // the template's own (arena) set
      } else {
        RegionSet RS;
        for (uint32_t I = A.ArgsBegin; I != A.ArgsEnd; ++I)
          RS.insert(materializeReg(Cur->RegOps[Cur->TplArgs[I]]));
        New.Deltas[A.Ord] = C.allocRegionSet(std::move(RS));
      }
      break;
    }
    case TplAtt::K::Trans: {
      std::vector<const Tag *> Tags;
      Tags.reserve(A.NumTags);
      uint32_t I = A.ArgsBegin;
      for (uint32_t E = A.ArgsBegin + A.NumTags; I != E; ++I)
        Tags.push_back(static_cast<const Tag *>(New.Atts[Cur->TplArgs[I]]));
      std::vector<Region> Regs;
      Regs.reserve(A.ArgsEnd - I);
      for (; I != A.ArgsEnd; ++I)
        Regs.push_back(materializeReg(Cur->RegOps[Cur->TplArgs[I]]));
      New.Atts[A.Ord] = C.allocTransData(std::move(Tags), std::move(Regs));
      break;
    }
    }
  }
  return New;
}

const Value *VmExec::buildTpl(const TplInfo &TI, const TplCacheEntry &E,
                              uint32_t Id) {
  const TplNode &N = Cur->Tpls[Id];
  switch (N.Kind) {
  case TplNode::K::Const:
    return N.V;
  case TplNode::K::Slot:
    return slotValue(N.Slot);
  case TplNode::K::Pair:
    return C.valPair(buildTpl(TI, E, N.A), buildTpl(TI, E, N.B));
  case TplNode::K::Inl:
    return C.valInl(buildTpl(TI, E, N.A));
  case TplNode::K::Inr:
    return C.valInr(buildTpl(TI, E, N.A));
  case TplNode::K::PackTag:
    return C.valPackTag(N.V->var(), static_cast<const Tag *>(E.Atts[N.Att1]),
                        buildTpl(TI, E, N.A),
                        static_cast<const Type *>(E.Atts[N.Att2]));
  case TplNode::K::PackTyVar:
    return C.valPackTyVar(N.V->var(), E.Deltas[N.Att3],
                          static_cast<const Type *>(E.Atts[N.Att1]),
                          buildTpl(TI, E, N.A),
                          static_cast<const Type *>(E.Atts[N.Att2]));
  case TplNode::K::PackRegion:
    return C.valPackRegion(N.V->var(), E.Deltas[N.Att3],
                           materializeReg(Cur->RegOps[N.Reg]),
                           buildTpl(TI, E, N.A),
                           static_cast<const Type *>(E.Atts[N.Att2]));
  case TplNode::K::TransApp:
    return C.valTransApp(buildTpl(TI, E, N.A),
                         static_cast<const TransData *>(E.Atts[N.Att1]));
  }
  return N.V;
}

const Value *VmExec::matTpl(const ValOperand &Op) {
  const TplInfo &TI = Cur->TplInfos[Op.Slot];
  const TplCacheEntry &E = refreshTpl(TI);
  return buildTpl(TI, E, TI.Root);
}

const Value *VmExec::materialize(const ValOperand &Op) {
  switch (Op.Kind) {
  case ValOperand::K::Const:
    return Op.V;
  case ValOperand::K::Slot:
    return slotValue(Op.Slot);
  case ValOperand::K::Fast:
    return matFast(Op.V, Op.BindsBegin, Op.BindsEnd);
  case ValOperand::K::Tpl:
    return matTpl(Op);
  case ValOperand::K::Slow:
    return matSlow(Op);
  }
  return Op.V;
}

const Tag *VmExec::materializeTag(const TagOperand &Op) {
  switch (Op.Kind) {
  case TagOperand::K::Const:
    return Op.T; // pre-normalized at lowering time
  case TagOperand::K::Slot: {
    // Frame tags are already normal (they entered through App/open/typecase
    // binds, all of which normalize), so the inline normal-bit check skips
    // the call; normalizeTag handles any remaining non-normal form.
    const Tag *T = static_cast<const Tag *>(Frame[Op.Slot].Ptr);
    return T->isNormal() ? T : normalizeTag(C, T);
  }
  case TagOperand::K::Slow: {
    Subst S;
    for (uint32_t I = Op.BindsBegin; I != Op.BindsEnd; ++I) {
      const BindSpec &B = Cur->Binds[I];
      if (B.S == Sort::Tag)
        S.Tags.emplace(B.Sym, static_cast<const Tag *>(Frame[B.Slot].Ptr));
    }
    return normalizeTag(C, closeTag(C, Op.T, S));
  }
  }
  return Op.T;
}

//===----------------------------------------------------------------------===//
// Word frame slots (compact heap)
//===----------------------------------------------------------------------===//

void VmExec::storeWord(FrameCell &FC, uint64_t W, const RegionData &RD) {
  using namespace gc::heapword;
  if (tagOf(W) == WordTag::Box) {
    // Boxed cells keep the original pointer; decoding here is free and
    // keeps the no-Box-in-slots invariant that the other word paths rely
    // on (their region-liveness reasoning only covers aux payloads).
    FC.Ptr = RD.Boxed[indexOf(W)];
    return;
  }
  FC.Ptr = wordPtr(W);
  FC.WordRegion = RD.Id;
}

const Value *VmExec::decodeSlotWord(const FrameCell &FC) const {
  using namespace gc::heapword;
  uint64_t W = wordOf(FC);
  switch (tagOf(W)) {
  case WordTag::Int:
    return C.valInt(intOf(W));
  case WordTag::Addr:
    return C.valAddr(Address{
        Region::name(M.Mem.regionIdSymbol(addrRegionId(W))), addrOffset(W)});
  case WordTag::InlAddr:
  case WordTag::InrAddr: {
    const Value *P = C.valAddr(Address{
        Region::name(M.Mem.regionIdSymbol(addrRegionId(W))), addrOffset(W)});
    return tagOf(W) == WordTag::InlAddr ? C.valInl(P) : C.valInr(P);
  }
  default: {
    // Aux-dependent payload: the owning region is alive (decodeFrameWords
    // runs before every `only`, so no live slot outlives its region).
    const RegionData *RD = M.Mem.regionById(FC.WordRegion);
    assert(RD && "word slot outlived its region");
    return M.Mem.decodeWord(*RD, W);
  }
  }
}

const Value *VmExec::slotValue(uint32_t Slot) {
  FrameCell &FC = Frame[Slot];
  if (!isWordCell(FC))
    return static_cast<const Value *>(FC.Ptr);
  const Value *V = decodeSlotWord(FC);
  FC.Ptr = V; // cache: the slot is read again far more often than not
  return V;
}

uint64_t VmExec::transcodeSlot(const FrameCell &FC, RegionData &RD) {
  using namespace gc::heapword;
  uint64_t W = wordOf(FC);
  switch (tagOf(W)) {
  case WordTag::Int:
  case WordTag::Addr:
  case WordTag::InlAddr:
  case WordTag::InrAddr:
    return W; // region-independent: valid in any region, even a dead source
  default: {
    const RegionData *Src = M.Mem.regionById(FC.WordRegion);
    assert(Src && "word slot outlived its region");
    return M.Mem.transcodeWord(*Src, W, RD);
  }
  }
}

void VmExec::decodeFrameWords() {
  using namespace gc::heapword;
  for (uint32_t S = 0; S != Cur->NumSlots; ++S) {
    FrameCell &FC = Frame[S];
    if (!isWordCell(FC))
      continue;
    uint64_t W = wordOf(FC);
    WordTag T = tagOf(W);
    if (!isAuxTag(T))
      continue; // inline payloads survive any reclaim
    const RegionData *RD = M.Mem.regionById(FC.WordRegion);
    if (!RD)
      continue; // stale bits in a recycled cell, never read as a Val slot
    // Bounds guard against stale bits whose region id was reused: a live
    // slot's aux indices are always in range (Aux only grows).
    size_t Need = size_t(indexOf(W)) + auxSpan(T);
    if (Need > RD->Aux.size())
      continue;
    FC.Ptr = M.Mem.decodeWord(*RD, W);
  }
}

//===----------------------------------------------------------------------===//
// Compact-heap word-direct store paths
//===----------------------------------------------------------------------===//

/// matFast ∘ encodeValue fused at the word level: templates whose leaves are
/// ints/addresses/bound slots encode straight into \p RD's word tables with
/// no intermediate Value allocation. Aux slot order may differ from
/// Memory::encodeValue (indices are explicit, decode does not care).
uint64_t VmExec::encodeFastWord(const Value *V, uint32_t BindsBegin,
                                uint32_t BindsEnd, RegionData &RD) {
  using namespace gc::heapword;
  switch (V->kind()) {
  case ValueKind::Int: {
    int64_t N = V->intValue();
    if (fitsInt(N))
      return makeInt(N);
    return M.Mem.encodeValue(RD, V);
  }
  case ValueKind::Addr:
    return M.Mem.encodeValue(RD, V);
  case ValueKind::Var: {
    Symbol S = V->var();
    for (uint32_t I = BindsBegin; I != BindsEnd; ++I) {
      const BindSpec &B = Cur->Binds[I];
      if (B.Sym == S) {
        const FrameCell &FC = Frame[B.Slot];
        if (isWordCell(FC))
          return transcodeSlot(FC, RD); // word-to-word, no Value round-trip
        return M.Mem.encodeValue(RD, static_cast<const Value *>(FC.Ptr));
      }
    }
    return M.Mem.encodeValue(RD, V); // unbound: boxed, as put would box
                                     // the bare Var
  }
  case ValueKind::Pair: {
    if (RD.Aux.size() + 2 > size_t(std::numeric_limits<uint32_t>::max()))
      return M.Mem.encodeValue(RD,
                               matFast(V, BindsBegin, BindsEnd)); // boxes
    uint32_t I = static_cast<uint32_t>(RD.Aux.size());
    RD.Aux.push_back(Hole);
    RD.Aux.push_back(Hole);
    uint64_t First = encodeFastWord(V->first(), BindsBegin, BindsEnd, RD);
    uint64_t Second = encodeFastWord(V->second(), BindsBegin, BindsEnd, RD);
    RD.Aux[I] = First;
    RD.Aux[I + 1] = Second;
    return make(WordTag::Pair, I);
  }
  case ValueKind::Inl:
  case ValueKind::Inr: {
    bool IsInl = V->is(ValueKind::Inl);
    uint64_t Child = encodeFastWord(V->payload(), BindsBegin, BindsEnd, RD);
    if (tagOf(Child) == WordTag::Addr)
      return make(IsInl ? WordTag::InlAddr : WordTag::InrAddr,
                  Child & PayloadMask);
    if (RD.Aux.size() >= size_t(std::numeric_limits<uint32_t>::max()))
      return M.Mem.encodeValue(RD, matFast(V, BindsBegin, BindsEnd));
    uint32_t I = static_cast<uint32_t>(RD.Aux.size());
    RD.Aux.push_back(Child);
    return make(IsInl ? WordTag::InlAux : WordTag::InrAux, I);
  }
  default:
    assert(false && "non-template value in Fast operand");
    return M.Mem.encodeValue(RD, V);
  }
}

/// buildTpl ∘ encodeValue fused at the word level: pack template nodes write
/// their attachment pointers (already resolved in the cache entry) straight
/// into \p RD's Aux table, so a collector-copy put allocates no Value at
/// all. Nodes the word format cannot express (TransApp, or an Aux table
/// past 32-bit indices) fall back to buildTpl + encodeValue for that
/// subtree.
uint64_t VmExec::encodeTplWord(const TplInfo &TI, const TplCacheEntry &E,
                               uint32_t Id, RegionData &RD) {
  using namespace gc::heapword;
  const TplNode &N = Cur->Tpls[Id];
  switch (N.Kind) {
  case TplNode::K::Const:
    return M.Mem.encodeValue(RD, N.V);
  case TplNode::K::Slot: {
    const FrameCell &FC = Frame[N.Slot];
    if (isWordCell(FC))
      return transcodeSlot(FC, RD);
    return M.Mem.encodeValue(RD, static_cast<const Value *>(FC.Ptr));
  }
  case TplNode::K::Pair: {
    if (RD.Aux.size() + 2 > size_t(std::numeric_limits<uint32_t>::max()))
      return M.Mem.encodeValue(RD, buildTpl(TI, E, Id));
    uint32_t I = static_cast<uint32_t>(RD.Aux.size());
    RD.Aux.push_back(Hole);
    RD.Aux.push_back(Hole);
    uint64_t First = encodeTplWord(TI, E, N.A, RD);
    uint64_t Second = encodeTplWord(TI, E, N.B, RD);
    RD.Aux[I] = First;
    RD.Aux[I + 1] = Second;
    return make(WordTag::Pair, I);
  }
  case TplNode::K::Inl:
  case TplNode::K::Inr: {
    bool IsInl = N.Kind == TplNode::K::Inl;
    uint64_t Child = encodeTplWord(TI, E, N.A, RD);
    if (tagOf(Child) == WordTag::Addr)
      return make(IsInl ? WordTag::InlAddr : WordTag::InrAddr,
                  Child & PayloadMask);
    if (RD.Aux.size() >= size_t(std::numeric_limits<uint32_t>::max()))
      return M.Mem.encodeValue(RD, buildTpl(TI, E, Id));
    uint32_t I = static_cast<uint32_t>(RD.Aux.size());
    RD.Aux.push_back(Child);
    return make(IsInl ? WordTag::InlAux : WordTag::InrAux, I);
  }
  case TplNode::K::PackTag: {
    const void *Witness = E.Atts[N.Att1];
    const void *Body = E.Atts[N.Att2];
    if (RD.Aux.size() + 4 > size_t(std::numeric_limits<uint32_t>::max()))
      return M.Mem.encodeValue(RD, buildTpl(TI, E, Id));
    uint32_t I = static_cast<uint32_t>(RD.Aux.size());
    RD.Aux.resize(I + 4, Hole);
    RD.Aux[I] = encodeTplWord(TI, E, N.A, RD);
    RD.Aux[I + 1] = symBits(N.V->var());
    RD.Aux[I + 2] = ptrBits(Witness);
    RD.Aux[I + 3] = ptrBits(Body);
    return make(WordTag::PackTagAux, I);
  }
  case TplNode::K::PackTyVar: {
    const RegionSet *Delta = E.Deltas[N.Att3];
    const void *Witness = E.Atts[N.Att1];
    const void *Body = E.Atts[N.Att2];
    if (RD.Aux.size() + 5 > size_t(std::numeric_limits<uint32_t>::max()))
      return M.Mem.encodeValue(RD, buildTpl(TI, E, Id));
    uint32_t I = static_cast<uint32_t>(RD.Aux.size());
    RD.Aux.resize(I + 5, Hole);
    RD.Aux[I] = encodeTplWord(TI, E, N.A, RD);
    RD.Aux[I + 1] = symBits(N.V->var());
    RD.Aux[I + 2] = ptrBits(Delta);
    RD.Aux[I + 3] = ptrBits(Witness);
    RD.Aux[I + 4] = ptrBits(Body);
    return make(WordTag::PackTyVarAux, I);
  }
  case TplNode::K::PackRegion: {
    const RegionSet *Delta = E.Deltas[N.Att3];
    const void *Body = E.Atts[N.Att2];
    if (RD.Aux.size() + 5 > size_t(std::numeric_limits<uint32_t>::max()))
      return M.Mem.encodeValue(RD, buildTpl(TI, E, Id));
    uint32_t I = static_cast<uint32_t>(RD.Aux.size());
    RD.Aux.resize(I + 5, Hole);
    RD.Aux[I] = encodeTplWord(TI, E, N.A, RD);
    RD.Aux[I + 1] = symBits(N.V->var());
    RD.Aux[I + 2] = ptrBits(Delta);
    RD.Aux[I + 3] = regionBits(materializeReg(Cur->RegOps[N.Reg]));
    RD.Aux[I + 4] = ptrBits(Body);
    return make(WordTag::PackRegionAux, I);
  }
  case TplNode::K::TransApp:
    return M.Mem.encodeValue(RD, buildTpl(TI, E, Id));
  }
  return M.Mem.encodeValue(RD, buildTpl(TI, E, Id));
}

bool VmExec::tryEncodeOperand(const ValOperand &Op, RegionData &RD,
                              uint64_t &W) {
  switch (Op.Kind) {
  case ValOperand::K::Const:
    W = M.Mem.encodeValue(RD, Op.V);
    return true;
  case ValOperand::K::Slot: {
    const FrameCell &FC = Frame[Op.Slot];
    if (isWordCell(FC)) {
      W = transcodeSlot(FC, RD);
      return true;
    }
    W = M.Mem.encodeValue(RD, static_cast<const Value *>(FC.Ptr));
    return true;
  }
  case ValOperand::K::Fast:
    W = encodeFastWord(Op.V, Op.BindsBegin, Op.BindsEnd, RD);
    return true;
  case ValOperand::K::Tpl: {
    const TplInfo &TI = Cur->TplInfos[Op.Slot];
    const TplCacheEntry &E = refreshTpl(TI);
    W = encodeTplWord(TI, E, TI.Root, RD);
    return true;
  }
  case ValOperand::K::Slow:
    return false; // substitution machinery wants real values
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Backend interface
//===----------------------------------------------------------------------===//

void VmExec::onStart(const Term *E) {
  Cur = chunkForTerm(E);
  PC = 0;
  Frame.assign(Cur->NumSlots, FrameCell{});
  if (Cur->NumSlots > FrameSlotsPeak)
    FrameSlotsPeak = Cur->NumSlots;
}

const Term *VmExec::currentTerm() const {
  if (!Cur)
    return nullptr;
  const Instr &I = Cur->Code[PC];
  if (I.Scope < 0)
    return I.Src;
  // Rebuild the env machine's environment from the scope chain (innermost
  // first; emplace keeps the innermost binding per sym/sort) and force it
  // into the source term — the same substituted (M, e) view Env mode
  // produces, including after halt/stuck, because PC parks on the final
  // instruction.
  Subst S;
  for (int32_t N = I.Scope; N >= 0; N = Cur->Scopes[N].Parent) {
    const ScopeNode &SN = Cur->Scopes[N];
    switch (SN.S) {
    case Sort::Val: {
      const FrameCell &FC = Frame[SN.Slot];
      S.Vals.emplace(SN.Sym, isWordCell(FC)
                                 ? decodeSlotWord(FC)
                                 : static_cast<const Value *>(FC.Ptr));
      break;
    }
    case Sort::Tag:
      S.Tags.emplace(SN.Sym, static_cast<const Tag *>(Frame[SN.Slot].Ptr));
      break;
    case Sort::Type:
      S.Types.emplace(SN.Sym, static_cast<const Type *>(Frame[SN.Slot].Ptr));
      break;
    case Sort::Region:
      S.Regions.emplace(SN.Sym, Frame[SN.Slot].Reg);
      break;
    }
  }
  return closeTerm(C, I.Src, S);
}

Machine::Status VmExec::step() {
  if (M.St != Machine::Status::Running)
    return M.St;
  return execOne();
}

Machine::Status VmExec::run(uint64_t MaxSteps) {
  for (uint64_t I = 0; I != MaxSteps && M.St == Machine::Status::Running; ++I)
    execOne();
  return M.St;
}

void VmExec::exportMetrics(support::MetricsRegistry &Reg) const {
  Reg.setCounter("vm.steps", VmSteps);
  Reg.setCounter("vm.lower_ns", LowerNs);
  Reg.setCounter("vm.chunks", NumChunks);
  Reg.setCounter("vm.instrs", NumInstrs);
  Reg.setCounter("vm.typecase_static_steps", StaticTypecaseSteps);
  Reg.setCounter("vm.tpl_hits", TplHits);
  Reg.setCounter("vm.tpl_misses", TplMisses);
  Reg.setGauge("vm.frame_slots_peak", static_cast<double>(FrameSlotsPeak));
}

//===----------------------------------------------------------------------===//
// The dispatch loop
//===----------------------------------------------------------------------===//

Machine::Status VmExec::execOne() {
  if (!Cur)
    return M.stuck("vm backend attached after start (no compiled program)");
  const Instr &I = Cur->Code[PC];
  ++M.Stats.Steps;
  ++VmSteps;
  if (SCAV_TRACE_ENABLED()) {
    M.traceStep(I.Src);
    if (M.Stats.Steps % 64 == 0)
      support::TraceSink::get().counter(
          "vm_frame_slots", static_cast<double>(Cur->NumSlots));
  }

  switch (I.Op) {
  case Opcode::LetVal: {
    const ValOperand &Op = Cur->ValOps[I.A];
    if (Op.Kind == ValOperand::K::Slot)
      Frame[I.B] = Frame[Op.Slot]; // wholesale: words stay words
    else
      Frame[I.B].Ptr = materialize(Op);
    ++PC;
    return M.St;
  }

  case Opcode::LetProj1:
  case Opcode::LetProj2: {
    ++M.Stats.Projections;
    const ValOperand &Op = Cur->ValOps[I.A];
    if (FastHeap && Op.Kind == ValOperand::K::Slot &&
        isWordCell(Frame[Op.Slot])) {
      const FrameCell &FC = Frame[Op.Slot];
      uint64_t W = wordOf(FC);
      if (gc::heapword::tagOf(W) != gc::heapword::WordTag::Pair)
        return M.stuck("projection from non-pair: " +
                       printValue(C, slotValue(Op.Slot)));
      const RegionData *RD = M.Mem.regionById(FC.WordRegion);
      uint32_t Idx = gc::heapword::indexOf(W) +
                     (I.Op == Opcode::LetProj2 ? 1 : 0);
      storeWord(Frame[I.B], RD->Aux[Idx], *RD);
      ++PC;
      return M.St;
    }
    const Value *V = materialize(Op);
    if (!V->is(ValueKind::Pair))
      return M.stuck("projection from non-pair: " + printValue(C, V));
    Frame[I.B].Ptr = I.Op == Opcode::LetProj1 ? V->first() : V->second();
    ++PC;
    return M.St;
  }

  case Opcode::LetPut: {
    ++M.Stats.Puts;
    Region R = materializeReg(Cur->RegOps[I.B]);
    if (!R.isName())
      return M.stuck("put into unresolved region variable " +
                     printRegion(C, R));
    if (FastHeap) {
      RegionData *RD = M.Mem.region(R.sym());
      if (!RD)
        return M.stuck("put into reclaimed region " + printRegion(C, R));
      uint64_t W;
      if (tryEncodeOperand(Cur->ValOps[I.A], *RD, W)) {
        std::optional<Address> A = M.Mem.putWord(*RD, R.sym(), W);
        if (!A)
          return M.stuck("put overflows the region offset space of " +
                         printRegion(C, R));
        if (RD->Id <= gc::heapword::MaxRegionId) {
          Frame[I.C].Ptr =
              wordPtr(gc::heapword::makeAddr(RD->Id, A->Offset));
          Frame[I.C].WordRegion = RD->Id;
        } else {
          Frame[I.C].Ptr = C.valAddr(*A);
        }
        ++PC;
        return M.St;
      }
    }
    const Value *SV = materialize(Cur->ValOps[I.A]);
    std::optional<Address> A = M.Mem.put(R.sym(), SV);
    if (!A)
      return M.stuck(M.Mem.hasRegion(R.sym())
                         ? "put overflows the region offset space of " +
                               printRegion(C, R)
                         : "put into reclaimed region " + printRegion(C, R));
    M.recordPut(*A, SV);
    Frame[I.C].Ptr = C.valAddr(*A);
    ++PC;
    return M.St;
  }

  case Opcode::LetGet: {
    ++M.Stats.Gets;
    if (FastHeap) {
      // Resolve the address straight to (region, offset): an Addr word in
      // a slot carries both inline, and the word image of the cell is read
      // without decoding it into a Value.
      const ValOperand &Op = Cur->ValOps[I.A];
      const RegionData *RD;
      uint32_t Off;
      const Value *AV = nullptr; // materialized address, for diagnostics
      if (Op.Kind == ValOperand::K::Slot && isWordCell(Frame[Op.Slot])) {
        uint64_t W = wordOf(Frame[Op.Slot]);
        if (gc::heapword::tagOf(W) != gc::heapword::WordTag::Addr)
          return M.stuck("get of non-address: " +
                         printValue(C, slotValue(Op.Slot)));
        RD = M.Mem.regionById(gc::heapword::addrRegionId(W));
        Off = gc::heapword::addrOffset(W);
      } else {
        const Value *V = materialize(Op);
        if (!V->is(ValueKind::Addr))
          return M.stuck("get of non-address: " + printValue(C, V));
        RD = M.Mem.region(V->address().R.sym());
        Off = V->address().Offset;
        AV = V;
      }
      if (RD && Off < RD->Words.size() &&
          RD->Words[Off] != gc::heapword::Hole) {
        storeWord(Frame[I.B], RD->Words[Off], *RD);
        ++PC;
        return M.St;
      }
      if (!AV)
        AV = slotValue(Op.Slot); // decode the Addr word for the message
      return M.stuck("get of dangling address: " + printValue(C, AV));
    }
    const Value *V = materialize(Cur->ValOps[I.A]);
    if (!V->is(ValueKind::Addr))
      return M.stuck("get of non-address: " + printValue(C, V));
    const Value *Cell = M.Mem.get(V->address());
    if (!Cell)
      return M.stuck("get of dangling address: " + printValue(C, V));
    Frame[I.B].Ptr = Cell;
    ++PC;
    return M.St;
  }

  case Opcode::LetStrip: {
    const ValOperand &Op = Cur->ValOps[I.A];
    if (FastHeap && Op.Kind == ValOperand::K::Slot &&
        isWordCell(Frame[Op.Slot])) {
      using namespace gc::heapword;
      const FrameCell &FC = Frame[Op.Slot];
      uint64_t W = wordOf(FC);
      switch (tagOf(W)) {
      case WordTag::InlAddr:
      case WordTag::InrAddr:
        Frame[I.B].Ptr = wordPtr(make(WordTag::Addr, W & PayloadMask));
        Frame[I.B].WordRegion = FC.WordRegion;
        ++PC;
        return M.St;
      case WordTag::InlAux:
      case WordTag::InrAux: {
        const RegionData *RD = M.Mem.regionById(FC.WordRegion);
        storeWord(Frame[I.B], RD->Aux[indexOf(W)], *RD);
        ++PC;
        return M.St;
      }
      default:
        return M.stuck("strip of untagged value: " +
                       printValue(C, slotValue(Op.Slot)));
      }
    }
    const Value *V = materialize(Op);
    if (!V->is(ValueKind::Inl) && !V->is(ValueKind::Inr))
      return M.stuck("strip of untagged value: " + printValue(C, V));
    Frame[I.B].Ptr = V->payload();
    ++PC;
    return M.St;
  }

  case Opcode::LetPrim: {
    if (FastHeap) {
      // Int words feed the ALU without a Value round-trip; mixed word/
      // pointer operand pairs are fine (each side resolves independently).
      auto IntArg = [&](const ValOperand &Op, int64_t &Out) {
        if (Op.Kind == ValOperand::K::Slot && isWordCell(Frame[Op.Slot])) {
          uint64_t W = wordOf(Frame[Op.Slot]);
          if (gc::heapword::tagOf(W) != gc::heapword::WordTag::Int)
            return false;
          Out = gc::heapword::intOf(W);
          return true;
        }
        const Value *V = materialize(Op);
        if (!V->is(ValueKind::Int))
          return false;
        Out = V->intValue();
        return true;
      };
      int64_t A, B;
      if (!IntArg(Cur->ValOps[I.A], A) || !IntArg(Cur->ValOps[I.B], B))
        return M.stuck("primitive on non-integers");
      int64_t Res = support::evalIntPrim(static_cast<PrimOp>(I.Small), A, B);
      if (gc::heapword::fitsInt(Res)) {
        Frame[I.C].Ptr = wordPtr(gc::heapword::makeInt(Res));
        Frame[I.C].WordRegion = 0; // Int payload is region-independent
      } else {
        Frame[I.C].Ptr = C.valInt(Res);
      }
      ++PC;
      return M.St;
    }
    const Value *L = materialize(Cur->ValOps[I.A]);
    const Value *R = materialize(Cur->ValOps[I.B]);
    if (!L->is(ValueKind::Int) || !R->is(ValueKind::Int))
      return M.stuck("primitive on non-integers");
    Frame[I.C].Ptr = C.valInt(support::evalIntPrim(
        static_cast<PrimOp>(I.Small), L->intValue(), R->intValue()));
    ++PC;
    return M.St;
  }

  case Opcode::Call: {
    ++M.Stats.Applications;
    const ValOperand &FOp = Cur->ValOps[I.A];
    const Value *Code;
    const Value *FAddr = nullptr; // materialized address, for diagnostics
    uint32_t CodeOff;
    if (FastHeap && FOp.Kind == ValOperand::K::Slot &&
        isWordCell(Frame[FOp.Slot])) {
      // Addr word → code cell without materializing the address. TransApp
      // values are always boxed, so a word slot is never one.
      using namespace gc::heapword;
      uint64_t W = wordOf(Frame[FOp.Slot]);
      if (tagOf(W) != WordTag::Addr)
        return M.stuck("application of non-address value: " +
                       printValue(C, slotValue(FOp.Slot)));
      uint32_t Id = addrRegionId(W), Off = addrOffset(W);
      if (SCAV_TRACE_ENABLED() || M.PauseHist)
        M.traceAppPhase(
            Address{Region::name(M.Mem.regionIdSymbol(Id)), Off});
      const RegionData *RD = M.Mem.regionById(Id);
      uint64_t CW =
          RD && Off < RD->Words.size() ? RD->Words[Off] : heapword::Hole;
      if (CW == heapword::Hole)
        return M.stuck("application of dangling code address: " +
                       printValue(C, slotValue(FOp.Slot)));
      Code = tagOf(CW) == WordTag::Box ? RD->Boxed[indexOf(CW)]
                                       : M.Mem.decodeWord(*RD, CW);
      if (!Code->is(ValueKind::Code))
        return M.stuck("application of non-code cell: " +
                       printValue(C, slotValue(FOp.Slot)));
      CodeOff = Off;
    } else {
      const Value *F = materialize(FOp);
      if (F->is(ValueKind::TransApp))
        F = F->payload(); // (vJ~τK)[~τ][~ρ](~v) ⇒ v[~τ][~ρ](~v)
      if (!F->is(ValueKind::Addr))
        return M.stuck("application of non-address value: " +
                       printValue(C, F));
      if (SCAV_TRACE_ENABLED() || M.PauseHist)
        M.traceAppPhase(F->address());
      Code = M.Mem.get(F->address());
      if (!Code)
        return M.stuck("application of dangling code address: " +
                       printValue(C, F));
      if (!Code->is(ValueKind::Code))
        return M.stuck("application of non-code cell: " + printValue(C, F));
      FAddr = F;
      CodeOff = F->address().Offset;
    }
    const CallSite &CS = Cur->Calls[I.B];
    if (Code->tagParams().size() != CS.Tags.size() ||
        Code->regionParams().size() != CS.Regions.size() ||
        Code->valParams().size() != CS.Args.size())
      return M.stuck("application arity mismatch at " +
                     printValue(C, FAddr ? FAddr : slotValue(FOp.Slot)));

    // Monomorphic inline cache: cd cells are immutable once defined, so a
    // code value pointer keys its compiled chunk for good.
    const Chunk *Callee;
    if (CS.CachedCode == Code) {
      Callee = static_cast<const Chunk *>(CS.CachedChunk);
    } else {
      Callee = chunkForCode(Code, M.codeLabel(CodeOff));
      CS.CachedCode = Code;
      CS.CachedChunk = Callee;
    }

    // Materialize the callee frame into the staging buffer (reads come
    // from the live frame), then swap: wholesale environment replacement.
    if (Scratch.size() < Callee->NumSlots)
      Scratch.resize(Callee->NumSlots);
    uint32_t S = 0;
    for (uint32_t TIdx : CS.Tags)
      Scratch[S++].Ptr = materializeTag(Cur->TagOps[TIdx]);
    for (uint32_t RIdx : CS.Regions) {
      Region R = materializeReg(Cur->RegOps[RIdx]);
      if (!R.isName())
        return M.stuck("application with unresolved region variable " +
                       printRegion(C, R));
      Scratch[S++].Reg = R;
    }
    for (uint32_t VIdx : CS.Args) {
      const ValOperand &Op = Cur->ValOps[VIdx];
      if (Op.Kind == ValOperand::K::Slot)
        Scratch[S++] = Frame[Op.Slot]; // wholesale: words stay words
      else
        Scratch[S++].Ptr = materialize(Op);
    }
    std::swap(Frame, Scratch);
    if (Frame.size() < Callee->NumSlots)
      Frame.resize(Callee->NumSlots);
    Cur = Callee;
    PC = 0;
    if (Callee->NumSlots > FrameSlotsPeak)
      FrameSlotsPeak = Callee->NumSlots;
    return M.St;
  }

  case Opcode::Halt: {
    const Value *V = materialize(Cur->ValOps[I.A]);
    M.St = Machine::Status::Halted;
    M.HaltVal = V;
    return M.St; // PC parks here; currentTerm still sees the halt term
  }

  case Opcode::IfGc: {
    Region R = materializeReg(Cur->RegOps[I.A]);
    if (!R.isName())
      return M.stuck("ifgc on unresolved region variable");
    if (M.Mem.isFull(R.sym())) {
      ++M.Stats.IfGcTaken;
      TRACE_INSTANT("collector", "ifgc.taken");
      PC = I.B;
    } else {
      ++M.Stats.IfGcSkipped;
      PC = I.C;
    }
    return M.St;
  }

  case Opcode::OpenTag: {
    ++M.Stats.Opens;
    const ValOperand &Op = Cur->ValOps[I.A];
    if (FastHeap && Op.Kind == ValOperand::K::Slot &&
        isWordCell(Frame[Op.Slot])) {
      using namespace gc::heapword;
      const FrameCell &FC = Frame[Op.Slot];
      uint64_t W = wordOf(FC);
      if (tagOf(W) != WordTag::PackTagAux)
        return M.stuck("open-as-tag of non-package: " +
                       printValue(C, slotValue(Op.Slot)));
      const RegionData *RD = M.Mem.regionById(FC.WordRegion);
      uint32_t Idx = indexOf(W);
      const Tag *T = ptrOf<Tag>(RD->Aux[Idx + 2]);
      Frame[I.B].Ptr = T->isNormal() ? T : normalizeTag(C, T);
      storeWord(Frame[I.C], RD->Aux[Idx], *RD);
      ++PC;
      return M.St;
    }
    const Value *V = materialize(Op);
    if (!V->is(ValueKind::PackTag))
      return M.stuck("open-as-tag of non-package: " + printValue(C, V));
    Frame[I.B].Ptr = V->tagWitness()->isNormal()
                         ? V->tagWitness()
                         : normalizeTag(C, V->tagWitness());
    Frame[I.C].Ptr = V->payload();
    ++PC;
    return M.St;
  }

  case Opcode::OpenTyVar: {
    ++M.Stats.Opens;
    const ValOperand &Op = Cur->ValOps[I.A];
    if (FastHeap && Op.Kind == ValOperand::K::Slot &&
        isWordCell(Frame[Op.Slot])) {
      using namespace gc::heapword;
      const FrameCell &FC = Frame[Op.Slot];
      uint64_t W = wordOf(FC);
      if (tagOf(W) != WordTag::PackTyVarAux)
        return M.stuck("open-as-type of non-package: " +
                       printValue(C, slotValue(Op.Slot)));
      const RegionData *RD = M.Mem.regionById(FC.WordRegion);
      uint32_t Idx = indexOf(W);
      Frame[I.B].Ptr = ptrOf<Type>(RD->Aux[Idx + 3]);
      storeWord(Frame[I.C], RD->Aux[Idx], *RD);
      ++PC;
      return M.St;
    }
    const Value *V = materialize(Op);
    if (!V->is(ValueKind::PackTyVar))
      return M.stuck("open-as-type of non-package: " + printValue(C, V));
    Frame[I.B].Ptr = V->typeWitness();
    Frame[I.C].Ptr = V->payload();
    ++PC;
    return M.St;
  }

  case Opcode::OpenRegion: {
    ++M.Stats.Opens;
    const ValOperand &Op = Cur->ValOps[I.A];
    if (FastHeap && Op.Kind == ValOperand::K::Slot &&
        isWordCell(Frame[Op.Slot])) {
      using namespace gc::heapword;
      const FrameCell &FC = Frame[Op.Slot];
      uint64_t W = wordOf(FC);
      if (tagOf(W) != WordTag::PackRegionAux)
        return M.stuck("open-as-region of non-package: " +
                       printValue(C, slotValue(Op.Slot)));
      const RegionData *RD = M.Mem.regionById(FC.WordRegion);
      uint32_t Idx = indexOf(W);
      Region Witness = regionOf(RD->Aux[Idx + 3]);
      if (!Witness.isName())
        return M.stuck("region package with unresolved witness");
      Frame[I.B].Reg = Witness;
      storeWord(Frame[I.C], RD->Aux[Idx], *RD);
      ++PC;
      return M.St;
    }
    const Value *V = materialize(Op);
    if (!V->is(ValueKind::PackRegion))
      return M.stuck("open-as-region of non-package: " + printValue(C, V));
    if (!V->regionWitness().isName())
      return M.stuck("region package with unresolved witness");
    Frame[I.B].Reg = V->regionWitness();
    Frame[I.C].Ptr = V->payload();
    ++PC;
    return M.St;
  }

  case Opcode::LetRegion: {
    Region R = M.createRegion(C.name(I.Sym), 0);
    Frame[I.A].Reg = R;
    ++PC;
    return M.St;
  }

  case Opcode::Only: {
    ++M.Stats.OnlyOps;
    M.Stats.OnlyRegionsScanned += M.Mem.numRegions();
    const RegSetOp &RS = Cur->RegSets[I.A];
    RegionSet Resolved;
    const RegionSet *Keep = &RS.Set;
    if (!RS.AllConst) {
      for (uint32_t Idx : RS.Elems)
        Resolved.insert(materializeReg(Cur->RegOps[Idx]));
      Keep = &Resolved;
    }
    for (Region R : *Keep)
      if (!R.isName())
        return M.stuck("only with unresolved region variable");
    if (FastHeap)
      decodeFrameWords(); // aux payloads must not outlive their region
    M.applyOnly(*Keep);
    ++PC;
    return M.St;
  }

  case Opcode::Typecase: {
    ++M.Stats.TypecaseSteps;
    const Tag *T = materializeTag(Cur->TagOps[I.A]);
    const TypecaseInfo &TI = Cur->Typecases[I.B];
    switch (T->kind()) {
    case TagKind::Int:
      PC = TI.IntT;
      return M.St;
    case TagKind::Arrow:
      PC = TI.ArrowT;
      return M.St;
    case TagKind::Prod:
      Frame[TI.ProdSlot1].Ptr = T->left();
      Frame[TI.ProdSlot2].Ptr = T->right();
      PC = TI.ProdT;
      return M.St;
    case TagKind::Exists:
      Frame[TI.ExistsSlot].Ptr = C.tagLam(T->var(), C.omega(), T->body());
      PC = TI.ExistsT;
      return M.St;
    default:
      return M.stuck("typecase on non-constructor tag: " + printTag(C, T));
    }
  }

  case Opcode::TypecaseStatic: {
    // The scrutinee was a compile-time constant; branch and binder tags
    // were resolved at lowering time. Still one machine step.
    ++M.Stats.TypecaseSteps;
    ++StaticTypecaseSteps;
    const TypecaseInfo &TI = Cur->Typecases[I.B];
    switch (TI.StaticKind) {
    case TagKind::Int:
      PC = TI.IntT;
      return M.St;
    case TagKind::Arrow:
      PC = TI.ArrowT;
      return M.St;
    case TagKind::Prod:
      Frame[TI.ProdSlot1].Ptr = TI.StaticA;
      Frame[TI.ProdSlot2].Ptr = TI.StaticB;
      PC = TI.ProdT;
      return M.St;
    case TagKind::Exists:
      Frame[TI.ExistsSlot].Ptr = TI.StaticA;
      PC = TI.ExistsT;
      return M.St;
    default:
      assert(false && "non-constructor kind in static typecase");
      return M.St;
    }
  }

  case Opcode::IfLeft: {
    const ValOperand &Op = Cur->ValOps[I.A];
    if (FastHeap && Op.Kind == ValOperand::K::Slot &&
        isWordCell(Frame[Op.Slot])) {
      using namespace gc::heapword;
      switch (tagOf(wordOf(Frame[Op.Slot]))) {
      case WordTag::InlAddr:
      case WordTag::InlAux:
        Frame[I.B] = Frame[Op.Slot];
        PC = I.C;
        return M.St;
      case WordTag::InrAddr:
      case WordTag::InrAux:
        Frame[I.B] = Frame[Op.Slot];
        PC = I.D;
        return M.St;
      default:
        return M.stuck("ifleft of untagged value: " +
                       printValue(C, slotValue(Op.Slot)));
      }
    }
    const Value *V = materialize(Op);
    if (V->is(ValueKind::Inl)) {
      Frame[I.B].Ptr = V;
      PC = I.C;
    } else if (V->is(ValueKind::Inr)) {
      Frame[I.B].Ptr = V;
      PC = I.D;
    } else {
      return M.stuck("ifleft of untagged value: " + printValue(C, V));
    }
    return M.St;
  }

  case Opcode::Set: {
    ++M.Stats.Sets;
    const ValOperand &DOp = Cur->ValOps[I.A];
    if (FastHeap) {
      // Destination address from a word slot carries (region id, offset)
      // inline; materialize it only for diagnostics.
      RegionData *RD;
      Address DA;
      const Value *DV = nullptr;
      if (DOp.Kind == ValOperand::K::Slot && isWordCell(Frame[DOp.Slot])) {
        uint64_t W = wordOf(Frame[DOp.Slot]);
        if (gc::heapword::tagOf(W) != gc::heapword::WordTag::Addr)
          return M.stuck("set of non-address: " +
                         printValue(C, slotValue(DOp.Slot)));
        uint32_t Id = gc::heapword::addrRegionId(W);
        RD = M.Mem.regionById(Id);
        DA = Address{Region::name(M.Mem.regionIdSymbol(Id)),
                     gc::heapword::addrOffset(W)};
      } else {
        const Value *Dst = materialize(DOp);
        if (!Dst->is(ValueKind::Addr))
          return M.stuck("set of non-address: " + printValue(C, Dst));
        RD = M.Mem.region(Dst->address().R.sym());
        DA = Dst->address();
        DV = Dst;
      }
      if (!RD)
        return M.stuck("set of dangling address: " +
                       printValue(C, DV ? DV : slotValue(DOp.Slot)));
      uint64_t W;
      if (tryEncodeOperand(Cur->ValOps[I.B], *RD, W)) {
        if (!M.Mem.updateWord(*RD, DA, W))
          return M.stuck("set of dangling address: " +
                         printValue(C, DV ? DV : slotValue(DOp.Slot)));
        TRACE_INSTANT("mem", "set.forward");
        ++PC;
        return M.St;
      }
      if (!M.Mem.update(DA, materialize(Cur->ValOps[I.B])))
        return M.stuck("set of dangling address: " +
                       printValue(C, DV ? DV : slotValue(DOp.Slot)));
      TRACE_INSTANT("mem", "set.forward");
      ++PC;
      return M.St;
    }
    const Value *Dst = materialize(DOp);
    if (!Dst->is(ValueKind::Addr))
      return M.stuck("set of non-address: " + printValue(C, Dst));
    if (!M.Mem.update(Dst->address(), materialize(Cur->ValOps[I.B])))
      return M.stuck("set of dangling address: " + printValue(C, Dst));
    TRACE_INSTANT("mem", "set.forward");
    ++PC;
    return M.St;
  }

  case Opcode::LetWiden: {
    ++M.Stats.Widens;
    const Value *V = materialize(Cur->ValOps[I.A]);
    if (!V->is(ValueKind::Addr))
      return M.stuck("widen of non-address value: " + printValue(C, V));
    Region To = materializeReg(Cur->RegOps[I.B]);
    if (!To.isName())
      return M.stuck("widen with unresolved to-region");
    M.applyWiden(V->address().R.sym(), To.sym());
    Frame[I.C].Ptr = V; // widen is a no-op on data (§7.1)
    ++PC;
    return M.St;
  }

  case Opcode::IfReg: {
    Region A = materializeReg(Cur->RegOps[I.A]);
    Region B = materializeReg(Cur->RegOps[I.B]);
    if (!A.isName() || !B.isName())
      return M.stuck("ifreg on unresolved region variable");
    PC = A == B ? I.C : I.D;
    return M.St;
  }

  case Opcode::If0: {
    const ValOperand &Op = Cur->ValOps[I.A];
    if (FastHeap && Op.Kind == ValOperand::K::Slot &&
        isWordCell(Frame[Op.Slot])) {
      uint64_t W = wordOf(Frame[Op.Slot]);
      if (gc::heapword::tagOf(W) != gc::heapword::WordTag::Int)
        return M.stuck("if0 of non-integer: " +
                       printValue(C, slotValue(Op.Slot)));
      PC = gc::heapword::intOf(W) == 0 ? I.B : I.C;
      return M.St;
    }
    const Value *V = materialize(Op);
    if (!V->is(ValueKind::Int))
      return M.stuck("if0 of non-integer: " + printValue(C, V));
    PC = V->intValue() == 0 ? I.B : I.C;
    return M.St;
  }
  }
  return M.stuck("unknown vm opcode");
}
