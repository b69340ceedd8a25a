//===- gc/NativeCollector.cpp - Meta-level C++ collector -------------------===//

#include "gc/NativeCollector.h"

#include <deque>
#include <unordered_map>

using namespace scav;
using namespace scav::gc;

namespace {

// Cells are 64-bit tagged words (Memory.h), so the copy moves words between
// flat buffers and fixes up region-id/offset payloads instead of rebuilding
// Value trees — only Box cells (the rare pointer-rich shapes) and the root
// go through the value-level rewrite, which routes from-addresses back
// through the same hook as the words, so Box and word cells share one
// forwarding table and one to-space order.
//
// Forwarding is a dense from-offset-indexed vector rather than a map: the
// from-region is bump-allocated, so offsets are dense by construction.

using heapword::WordTag;

/// The rewrite both copy orders share: it handles each word tag and each
/// value kind once. The order lives in the one hook, `Order::forward`,
/// which maps a from-offset to its to-offset: depth-first copies the cell
/// at once, recursively; Cheney reserves a slot and queues the cell.
template <typename Order> struct CopyRewrite {
  static constexpr uint32_t NoFwd = 0xFFFFFFFFu;

  Machine &M;
  GcContext &C;
  Memory &Mem;
  RegionData &From;
  RegionData &To;
  Symbol FromSym, ToSym;
  uint32_t FromId, ToId;
  NativeGcStats &Stats;
  std::vector<uint32_t> Fwd; // from-offset → to-offset
  /// renameRegionName interns, so identical inputs give identical pointers;
  /// the memo only skips re-walking the (few, shared) annotation types.
  std::unordered_map<const Type *, const Type *> RenameCache;
  std::unordered_map<const RegionSet *, const RegionSet *> DeltaCache;

  CopyRewrite(Machine &M, Symbol FromSym, Symbol ToSym, NativeGcStats &Stats)
      : M(M), C(M.context()), Mem(M.memory()), From(*Mem.region(FromSym)),
        To(*Mem.region(ToSym)), FromSym(FromSym), ToSym(ToSym),
        FromId(From.Id), ToId(To.Id), Stats(Stats),
        Fwd(From.Words.size(), NoFwd) {}

  uint32_t forward(uint32_t FromOff) {
    return static_cast<Order &>(*this).forward(FromOff);
  }

  Region retargetRegion(Region R) const {
    return R.isName() && R.sym() == FromSym ? Region::name(ToSym) : R;
  }

  const Type *retarget(const Type *T) {
    if (!T)
      return nullptr;
    auto It = RenameCache.find(T);
    if (It != RenameCache.end())
      return It->second;
    const Type *R = M.renameRegionName(T, FromSym, ToSym);
    RenameCache.emplace(T, R);
    return R;
  }

  /// Pointer-level ∆ rewrite: cells written through one Tpl cache entry all
  /// share a delta pointer, so the memo collapses the per-cell rewrite to a
  /// hash probe (and keeps the copies sharing one to-space set).
  const RegionSet *retargetDelta(const RegionSet *RS) {
    auto It = DeltaCache.find(RS);
    if (It != DeltaCache.end())
      return It->second;
    const RegionSet *Out = RS;
    if (RS->contains(Region::name(FromSym))) {
      RegionSet Renamed;
      for (Region R : *RS)
        Renamed.insert(retargetRegion(R));
      Out = C.allocRegionSet(std::move(Renamed));
    }
    DeltaCache.emplace(RS, Out);
    return Out;
  }

  /// Value-level rewrite for Box cells and the root.
  const Value *relocateValue(const Value *V) {
    switch (V->kind()) {
    case ValueKind::Int:
    case ValueKind::Var:
    case ValueKind::Code:
      return V;
    case ValueKind::Addr: {
      Address A = V->address();
      if (A.R.sym() != FromSym)
        return V;
      return C.valAddr(Address{Region::name(ToSym), forward(A.Offset)});
    }
    case ValueKind::Pair: {
      // The first child before the second, as in relocateWord.
      const Value *A = relocateValue(V->first());
      const Value *B = relocateValue(V->second());
      return C.valPair(A, B);
    }
    case ValueKind::Inl:
      return C.valInl(relocateValue(V->payload()));
    case ValueKind::Inr:
      return C.valInr(relocateValue(V->payload()));
    case ValueKind::PackTag:
      return C.valPackTag(V->var(), V->tagWitness(),
                          relocateValue(V->payload()),
                          retarget(V->bodyType()));
    case ValueKind::PackTyVar:
      return C.valPackTyVar(V->var(), retargetDelta(&V->delta()),
                            retarget(V->typeWitness()),
                            relocateValue(V->payload()),
                            retarget(V->bodyType()));
    case ValueKind::PackRegion:
      return C.valPackRegion(V->var(), retargetDelta(&V->delta()),
                             retargetRegion(V->regionWitness()),
                             relocateValue(V->payload()),
                             retarget(V->bodyType()));
    case ValueKind::TransApp: {
      std::vector<Region> Rs;
      for (Region R : V->transRegions())
        Rs.push_back(retargetRegion(R));
      return C.valTransApp(relocateValue(V->payload()), V->transTags(),
                           std::move(Rs));
    }
    }
    return V;
  }

  uint64_t relocateWord(uint64_t W) {
    switch (heapword::tagOf(W)) {
    case WordTag::Hole:
    case WordTag::Int:
      return W;
    case WordTag::Addr:
      if (heapword::addrRegionId(W) != FromId)
        return W; // cd or another surviving region
      return heapword::makeAddr(ToId, forward(heapword::addrOffset(W)));
    case WordTag::InlAddr:
    case WordTag::InrAddr:
      if (heapword::addrRegionId(W) != FromId)
        return W;
      return heapword::make(
          heapword::tagOf(W),
          heapword::addrPayload(ToId, forward(heapword::addrOffset(W))));
    case WordTag::Pair: {
      uint32_t I = heapword::indexOf(W);
      uint32_t NI = static_cast<uint32_t>(To.Aux.size());
      To.Aux.push_back(heapword::Hole);
      To.Aux.push_back(heapword::Hole);
      // The first child before the second: in depth-first order that is
      // the first child's whole subtree.
      uint64_t A = relocateWord(From.Aux[I]);
      uint64_t B = relocateWord(From.Aux[I + 1]);
      To.Aux[NI] = A;
      To.Aux[NI + 1] = B;
      return heapword::make(WordTag::Pair, NI);
    }
    case WordTag::InlAux:
    case WordTag::InrAux: {
      uint32_t NI = static_cast<uint32_t>(To.Aux.size());
      To.Aux.push_back(heapword::Hole);
      uint64_t Child = relocateWord(From.Aux[heapword::indexOf(W)]);
      To.Aux[NI] = Child;
      return heapword::make(heapword::tagOf(W), NI);
    }
    case WordTag::PackTagAux:
    case WordTag::PackTyVarAux:
    case WordTag::PackRegionAux: {
      WordTag T = heapword::tagOf(W);
      uint32_t Span = heapword::auxSpan(T);
      uint32_t I = heapword::indexOf(W);
      uint32_t NI = static_cast<uint32_t>(To.Aux.size());
      To.Aux.resize(NI + Span, heapword::Hole);
      uint64_t Payload = relocateWord(From.Aux[I]);
      To.Aux[NI] = Payload;
      To.Aux[NI + 1] = From.Aux[I + 1]; // binder symbol
      if (T == WordTag::PackTagAux) {
        To.Aux[NI + 2] = From.Aux[I + 2]; // witness tag is region-free
        To.Aux[NI + 3] = heapword::ptrBits(
            retarget(heapword::ptrOf<Type>(From.Aux[I + 3])));
      } else {
        To.Aux[NI + 2] = heapword::ptrBits(
            retargetDelta(heapword::ptrOf<RegionSet>(From.Aux[I + 2])));
        To.Aux[NI + 3] =
            T == WordTag::PackTyVarAux
                ? heapword::ptrBits(
                      retarget(heapword::ptrOf<Type>(From.Aux[I + 3])))
                : heapword::regionBits(
                      retargetRegion(heapword::regionOf(From.Aux[I + 3])));
        To.Aux[NI + 4] = heapword::ptrBits(
            retarget(heapword::ptrOf<Type>(From.Aux[I + 4])));
      }
      return heapword::make(T, NI);
    }
    case WordTag::Box: {
      const Value *NV = relocateValue(From.Boxed[heapword::indexOf(W)]);
      To.Boxed.push_back(NV);
      return heapword::make(WordTag::Box, To.Boxed.size() - 1);
    }
    }
    return W;
  }

  /// Counts a cell the copy has written and carries its Ψ entry over.
  void copied(uint32_t FromOff, Address ToA) {
    ++Stats.ObjectsCopied;
    if (!M.config().TrackTypes)
      return;
    if (const Type *T = M.psi().lookup(Address{Region::name(FromSym), FromOff}))
      M.psi().set(ToA, retarget(T));
  }
};

/// Depth-first copy, the certified collectors' order (PreserveSharing as
/// documented on nativeCollect).
struct DepthFirstCopy : CopyRewrite<DepthFirstCopy> {
  bool PreserveSharing;

  DepthFirstCopy(Machine &M, Symbol FromSym, Symbol ToSym,
                 bool PreserveSharing, NativeGcStats &Stats)
      : CopyRewrite(M, FromSym, ToSym, Stats),
        PreserveSharing(PreserveSharing) {}

  uint32_t forward(uint32_t FromOff) {
    assert(FromOff < From.Words.size() &&
           "native collector hit a dangling address");
    if (PreserveSharing && Fwd[FromOff] != NoFwd) {
      ++Stats.ForwardingHits;
      return Fwd[FromOff];
    }
    uint64_t W = From.Words[FromOff];
    assert(W != heapword::Hole && "native collector hit a dangling address");
    uint64_t NW = relocateWord(W);
    std::optional<Address> NewA = Mem.putWord(To, ToSym, NW);
    assert(NewA && "to-region vanished during native collection");
    if (PreserveSharing)
      Fwd[FromOff] = NewA->Offset;
    copied(FromOff, *NewA);
    return NewA->Offset;
  }
};

/// Cheney-style breadth-first copy: slots are reserved in arrival order
/// (the reservation doubles as the forwarding pointer), and a queue of
/// pending from-cells plays the role of the scan pointer. Sharing is
/// inherently preserved.
struct CheneyCopy : CopyRewrite<CheneyCopy> {
  std::deque<uint32_t> Queue; // from-offsets with a reserved to-slot

  using CopyRewrite::CopyRewrite;

  uint32_t forward(uint32_t FromOff) {
    assert(FromOff < From.Words.size() && "Cheney reserve past from extent");
    if (Fwd[FromOff] != NoFwd) {
      ++Stats.ForwardingHits;
      return Fwd[FromOff];
    }
    std::optional<Address> Slot = Mem.putWord(To, ToSym, heapword::Hole);
    assert(Slot && "to-region vanished");
    Fwd[FromOff] = Slot->Offset;
    Queue.push_back(FromOff);
    return Slot->Offset;
  }

  void drain() {
    while (!Queue.empty()) {
      uint32_t FromOff = Queue.front();
      Queue.pop_front();
      uint64_t W = From.Words[FromOff];
      assert(W != heapword::Hole && "Cheney scan hit a dangling cell");
      Address ToA{Region::name(ToSym), Fwd[FromOff]};
      Mem.fillWord(To, ToA, relocateWord(W));
      copied(FromOff, ToA);
    }
  }
};

} // namespace

std::pair<const Value *, Region>
scav::gc::nativeCollect(Machine &M, const Value *Root, Region From,
                        bool PreserveSharing, NativeGcStats &Stats,
                        CopyOrder Order) {
  TRACE_SCOPE("collector", "native.collect");
  GcContext &C = M.context();
  Region To = M.createRegion("to", 0);
  const Value *NewRoot = nullptr;
  if (Order == CopyOrder::BreadthFirst) {
    CheneyCopy Gc(M, From.sym(), To.sym(), Stats);
    NewRoot = Gc.relocateValue(Root);
    Gc.drain();
  } else {
    DepthFirstCopy Gc(M, From.sym(), To.sym(), PreserveSharing, Stats);
    NewRoot = Gc.relocateValue(Root);
  }
  if (SCAV_TRACE_ENABLED()) {
    auto &Sink = support::TraceSink::get();
    Sink.counter("native.copied", static_cast<double>(Stats.ObjectsCopied));
    Sink.counter("native.forwarding_hits",
                 static_cast<double>(Stats.ForwardingHits));
  }
  // Reclaim the from-region (the machine-level analogue of `only`).
  RegionSet Keep;
  for (const auto &[S, _] : M.memory().Regions)
    if (S != From.sym() && S != C.cd().sym())
      Keep.insert(Region::name(S));
  M.memory().restrictTo(Keep);
  M.psi().removeRegion(From.sym());
  // This function rewrote Ψ behind the machine's back; its recordPut cache
  // must not serve types inferred under the old Ψ.
  M.invalidatePutTypeCache();
  return {NewRoot, To};
}
