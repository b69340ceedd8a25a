//===- gc/NativeCollector.cpp - Meta-level C++ collector -------------------===//

#include "gc/NativeCollector.h"

#include "support/ParseInt.h"
#include "support/WorkSteal.h"

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

using namespace scav;
using namespace scav::gc;

namespace {

// Cells are 64-bit tagged words (Memory.h), so the copy loops move words
// between flat buffers and fix up region-id/offset payloads instead of
// rebuilding Value trees — only Box cells (the rare pointer-rich shapes)
// fall back to a value-level rewrite, which routes from-addresses back
// through the word-level copy, so Box and word cells share one forwarding
// table and one to-space order.
//
// Forwarding is a dense from-offset-indexed vector rather than a map: the
// from-region is bump-allocated, so offsets are dense by construction.

using heapword::WordTag;

/// \p RS with the region name \p From replaced by \p To.
RegionSet retargetSet(const RegionSet &RS, Symbol From, Symbol To) {
  RegionSet Out;
  for (Region R : RS)
    Out.insert(R.isName() && R.sym() == From ? Region::name(To) : R);
  return Out;
}

/// What the two serial copies share: the from/to regions, the dense
/// forwarding table, and memoized retargeting of the type annotations that
/// copied cells carry.
struct SerialCopy {
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

  SerialCopy(Machine &M, Symbol FromSym, Symbol ToSym, NativeGcStats &Stats)
      : M(M), C(M.context()), Mem(M.memory()), From(*Mem.region(FromSym)),
        To(*Mem.region(ToSym)), FromSym(FromSym), ToSym(ToSym),
        FromId(From.Id), ToId(To.Id), Stats(Stats),
        Fwd(From.Words.size(), NoFwd) {}

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
    const RegionSet *Out =
        RS->contains(Region::name(FromSym))
            ? C.allocRegionSet(retargetSet(*RS, FromSym, ToSym))
            : RS;
    DeltaCache.emplace(RS, Out);
    return Out;
  }
};

/// Depth-first copy, the certified collectors' order (PreserveSharing as
/// documented on nativeCollect).
struct NativeGc : SerialCopy {
  bool PreserveSharing;

  NativeGc(Machine &M, Symbol FromSym, Symbol ToSym, bool PreserveSharing,
           NativeGcStats &Stats)
      : SerialCopy(M, FromSym, ToSym, Stats),
        PreserveSharing(PreserveSharing) {}

  /// Value-level relocate for Box cells and the root, with from-addresses
  /// routed through the word-level copyCell.
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
      return C.valAddr(Address{Region::name(ToSym), copyCell(A.Offset)});
    }
    case ValueKind::Pair:
      return C.valPair(relocateValue(V->first()), relocateValue(V->second()));
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
    case ValueKind::PackRegion: {
      Region W = V->regionWitness();
      if (W.isName() && W.sym() == FromSym)
        W = Region::name(ToSym);
      return C.valPackRegion(V->var(), retargetDelta(&V->delta()), W,
                             relocateValue(V->payload()),
                             retarget(V->bodyType()));
    }
    case ValueKind::TransApp: {
      std::vector<Region> Rs;
      for (Region R : V->transRegions())
        Rs.push_back(R.isName() && R.sym() == FromSym ? Region::name(ToSym)
                                                      : R);
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
      return heapword::makeAddr(ToId, copyCell(heapword::addrOffset(W)));
    case WordTag::InlAddr:
    case WordTag::InrAddr:
      if (heapword::addrRegionId(W) != FromId)
        return W;
      return heapword::make(
          heapword::tagOf(W),
          heapword::addrPayload(ToId, copyCell(heapword::addrOffset(W))));
    case WordTag::Pair: {
      uint32_t I = heapword::indexOf(W);
      uint32_t NI = static_cast<uint32_t>(To.Aux.size());
      To.Aux.push_back(heapword::Hole);
      To.Aux.push_back(heapword::Hole);
      // First child fully (descendants and all) before the second — the
      // depth-first order.
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
        if (T == WordTag::PackTyVarAux) {
          To.Aux[NI + 3] = heapword::ptrBits(
              retarget(heapword::ptrOf<Type>(From.Aux[I + 3])));
        } else {
          Region RW = heapword::regionOf(From.Aux[I + 3]);
          if (RW.isName() && RW.sym() == FromSym)
            RW = Region::name(ToSym);
          To.Aux[NI + 3] = heapword::regionBits(RW);
        }
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

  uint32_t copyCell(uint32_t FromOff) {
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
    ++Stats.ObjectsCopied;
    if (PreserveSharing)
      Fwd[FromOff] = NewA->Offset;
    if (M.config().TrackTypes) {
      const Type *T = M.psi().lookup(Address{Region::name(FromSym), FromOff});
      if (T)
        M.psi().set(*NewA, retarget(T));
    }
    return NewA->Offset;
  }
};

/// Cheney-style breadth-first copy: slots are reserved in arrival order
/// (the reservation doubles as the forwarding pointer), and a queue of
/// pending from-cells plays the role of the scan pointer. Sharing is
/// inherently preserved.
struct CheneyGc : SerialCopy {
  std::deque<uint32_t> Queue; // from-offsets with a reserved to-slot

  CheneyGc(Machine &M, Symbol FromSym, Symbol ToSym, NativeGcStats &Stats)
      : SerialCopy(M, FromSym, ToSym, Stats) {}

  uint32_t reserve(uint32_t FromOff) {
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

  /// Value-level shallow scan for Box cells and the root, with
  /// reservations through the word-level table.
  const Value *scanValue(const Value *V) {
    switch (V->kind()) {
    case ValueKind::Int:
    case ValueKind::Var:
    case ValueKind::Code:
      return V;
    case ValueKind::Addr: {
      Address A = V->address();
      if (A.R.sym() != FromSym)
        return V;
      return C.valAddr(Address{Region::name(ToSym), reserve(A.Offset)});
    }
    case ValueKind::Pair:
      return C.valPair(scanValue(V->first()), scanValue(V->second()));
    case ValueKind::Inl:
      return C.valInl(scanValue(V->payload()));
    case ValueKind::Inr:
      return C.valInr(scanValue(V->payload()));
    case ValueKind::PackTag:
      return C.valPackTag(V->var(), V->tagWitness(), scanValue(V->payload()),
                          retarget(V->bodyType()));
    case ValueKind::PackTyVar:
      return C.valPackTyVar(V->var(), retargetDelta(&V->delta()),
                            retarget(V->typeWitness()),
                            scanValue(V->payload()),
                            retarget(V->bodyType()));
    case ValueKind::PackRegion: {
      Region W = V->regionWitness();
      if (W.isName() && W.sym() == FromSym)
        W = Region::name(ToSym);
      return C.valPackRegion(V->var(), retargetDelta(&V->delta()), W,
                             scanValue(V->payload()), retarget(V->bodyType()));
    }
    case ValueKind::TransApp: {
      std::vector<Region> Rs;
      for (Region R : V->transRegions())
        Rs.push_back(R.isName() && R.sym() == FromSym ? Region::name(ToSym)
                                                      : R);
      return C.valTransApp(scanValue(V->payload()), V->transTags(),
                           std::move(Rs));
    }
    }
    return V;
  }

  uint64_t scanWord(uint64_t W) {
    switch (heapword::tagOf(W)) {
    case WordTag::Hole:
    case WordTag::Int:
      return W;
    case WordTag::Addr:
      if (heapword::addrRegionId(W) != FromId)
        return W;
      return heapword::makeAddr(ToId, reserve(heapword::addrOffset(W)));
    case WordTag::InlAddr:
    case WordTag::InrAddr:
      if (heapword::addrRegionId(W) != FromId)
        return W;
      return heapword::make(
          heapword::tagOf(W),
          heapword::addrPayload(ToId, reserve(heapword::addrOffset(W))));
    case WordTag::Pair: {
      uint32_t I = heapword::indexOf(W);
      uint32_t NI = static_cast<uint32_t>(To.Aux.size());
      To.Aux.push_back(heapword::Hole);
      To.Aux.push_back(heapword::Hole);
      uint64_t A = scanWord(From.Aux[I]);
      uint64_t B = scanWord(From.Aux[I + 1]);
      To.Aux[NI] = A;
      To.Aux[NI + 1] = B;
      return heapword::make(WordTag::Pair, NI);
    }
    case WordTag::InlAux:
    case WordTag::InrAux: {
      uint32_t NI = static_cast<uint32_t>(To.Aux.size());
      To.Aux.push_back(heapword::Hole);
      uint64_t Child = scanWord(From.Aux[heapword::indexOf(W)]);
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
      uint64_t Payload = scanWord(From.Aux[I]);
      To.Aux[NI] = Payload;
      To.Aux[NI + 1] = From.Aux[I + 1]; // binder symbol
      if (T == WordTag::PackTagAux) {
        To.Aux[NI + 2] = From.Aux[I + 2]; // witness tag is region-free
        To.Aux[NI + 3] = heapword::ptrBits(
            retarget(heapword::ptrOf<Type>(From.Aux[I + 3])));
      } else {
        To.Aux[NI + 2] = heapword::ptrBits(
            retargetDelta(heapword::ptrOf<RegionSet>(From.Aux[I + 2])));
        if (T == WordTag::PackTyVarAux) {
          To.Aux[NI + 3] = heapword::ptrBits(
              retarget(heapword::ptrOf<Type>(From.Aux[I + 3])));
        } else {
          Region RW = heapword::regionOf(From.Aux[I + 3]);
          if (RW.isName() && RW.sym() == FromSym)
            RW = Region::name(ToSym);
          To.Aux[NI + 3] = heapword::regionBits(RW);
        }
        To.Aux[NI + 4] = heapword::ptrBits(
            retarget(heapword::ptrOf<Type>(From.Aux[I + 4])));
      }
      return heapword::make(T, NI);
    }
    case WordTag::Box: {
      const Value *NV = scanValue(From.Boxed[heapword::indexOf(W)]);
      To.Boxed.push_back(NV);
      return heapword::make(WordTag::Box, To.Boxed.size() - 1);
    }
    }
    return W;
  }

  void drain() {
    while (!Queue.empty()) {
      uint32_t FromOff = Queue.front();
      Queue.pop_front();
      uint64_t W = From.Words[FromOff];
      assert(W != heapword::Hole && "Cheney scan hit a dangling cell");
      Address ToA{Region::name(ToSym), Fwd[FromOff]};
      Mem.fillWord(To, ToA, scanWord(W));
      ++Stats.ObjectsCopied;
      if (M.config().TrackTypes) {
        if (const Type *T =
                M.psi().lookup(Address{Region::name(FromSym), FromOff}))
          M.psi().set(ToA, retarget(T));
      }
    }
  }
};

/// Parallel Cheney copy. The from-space is frozen (the mutator is parked),
/// so the only shared mutable state during the copy is the forwarding
/// array: one atomic per from-cell, UNCLAIMED → PENDING (CAS winner is the
/// copier) → the to-offset, drawn from one atomic bump counter. Workers move
/// words into private buffers; their Aux/Boxed buffers hold worker-relative
/// indices, which a serial epilogue rebases while concatenating into the
/// to-region's tables, then rewrites Ψ and adopts the workers' arenas into
/// the machine's context (Box cells build their copied Values there through
/// ValueBuilder). Work is distributed in chunks through per-worker
/// ChunkDeques (owner pops newest, thieves steal oldest); termination is a
/// count of claimed-but-unscanned cells hitting zero — claims only happen
/// inside a scan (or the serial root scan before workers start), so the
/// count cannot re-rise from zero.
struct ParallelCheney {
  static constexpr uint32_t Unclaimed = 0xFFFFFFFFu;
  static constexpr uint32_t Pending = 0xFFFFFFFEu;
  static constexpr size_t ChunkSize = 64;
  static constexpr size_t MinSplit = 4;

  struct Worker {
    unsigned Id = 0;
    std::unique_ptr<Arena> Mem;
    std::unique_ptr<ValueBuilder> B;
    std::vector<uint32_t> Local;
    ChunkDeque<uint32_t> Deque;
    std::vector<std::pair<uint32_t, uint64_t>> Results; // to-offset → word
    std::vector<uint64_t> AuxBuf;        ///< Worker-relative child words.
    std::vector<const Value *> BoxBuf;   ///< Worker-relative boxed cells.
    std::unordered_map<const Type *, const Type *> RenameCache;
    std::unordered_map<const RegionSet *, const RegionSet *> DeltaCache;
    uint64_t Objects = 0, Hits = 0, Steals = 0, Chunks = 0, CopyNs = 0;
  };

  Machine &M;
  Memory &Mem;
  Symbol FromSym, ToSym;
  RegionData &From;
  RegionData &To;
  uint32_t FromId, ToId;
  std::unique_ptr<std::atomic<uint32_t>[]> Fwd;
  std::atomic<uint32_t> NextTo{0};
  std::atomic<int64_t> Unscanned{0};
  std::mutex RenameMu;
  std::vector<Worker> Workers;

  ParallelCheney(Machine &M, Symbol FromSym, Symbol ToSym,
                        unsigned NThreads)
      : M(M), Mem(M.memory()), FromSym(FromSym), ToSym(ToSym),
        From(*Mem.region(FromSym)), To(*Mem.region(ToSym)), FromId(From.Id),
        ToId(To.Id), Fwd(new std::atomic<uint32_t>[From.Words.size()]),
        Workers(NThreads) {
    for (size_t I = 0; I < From.Words.size(); ++I)
      Fwd[I].store(Unclaimed, std::memory_order_relaxed);
    for (unsigned I = 0; I < NThreads; ++I) {
      Workers[I].Id = I;
      Workers[I].Mem = std::make_unique<Arena>();
      Workers[I].B = std::make_unique<ValueBuilder>(*Workers[I].Mem);
    }
  }

  uint32_t claim(uint32_t Off, std::vector<uint32_t> &NewWork,
                 uint64_t &Hits) {
    std::atomic<uint32_t> &Slot = Fwd[Off];
    uint32_t Cur = Slot.load(std::memory_order_acquire);
    for (;;) {
      if (Cur == Unclaimed) {
        if (Slot.compare_exchange_weak(Cur, Pending,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
          uint32_t ToOff = NextTo.fetch_add(1, std::memory_order_relaxed);
          Unscanned.fetch_add(1, std::memory_order_relaxed);
          Slot.store(ToOff, std::memory_order_release);
          NewWork.push_back(Off);
          return ToOff;
        }
        continue; // Cur was refreshed by the failed CAS.
      }
      if (Cur != Pending) {
        ++Hits;
        return Cur;
      }
      Cur = Slot.load(std::memory_order_acquire);
    }
  }

  const Type *renameType(const Type *T, Worker &W) {
    if (!T)
      return nullptr;
    auto It = W.RenameCache.find(T);
    if (It != W.RenameCache.end())
      return It->second;
    const Type *R;
    {
      std::lock_guard<std::mutex> L(RenameMu);
      R = M.renameRegionName(T, FromSym, ToSym);
    }
    W.RenameCache.emplace(T, R);
    return R;
  }

  /// Per-worker twin of SerialCopy::retargetDelta; rewritten sets go
  /// into the worker's arena (adopted by the context after the join).
  const RegionSet *retargetDelta(const RegionSet *RS, Worker &W) {
    auto It = W.DeltaCache.find(RS);
    if (It != W.DeltaCache.end())
      return It->second;
    const RegionSet *Out = RS->contains(Region::name(FromSym))
                               ? W.B->allocRegionSet(
                                     retargetSet(*RS, FromSym, ToSym))
                               : RS;
    W.DeltaCache.emplace(RS, Out);
    return Out;
  }

  /// Value-level shallow rewrite for Box cells and the root, into \p W's
  /// arena.
  const Value *scanValue(const Value *V, Worker &W) {
    ValueBuilder &B = *W.B;
    switch (V->kind()) {
    case ValueKind::Int:
    case ValueKind::Var:
    case ValueKind::Code:
      return V;
    case ValueKind::Addr: {
      Address A = V->address();
      if (A.R.sym() != FromSym)
        return V;
      uint32_t ToOff = claim(A.Offset, W.Local, W.Hits);
      maybePublish(W);
      return B.valAddr(Address{Region::name(ToSym), ToOff});
    }
    case ValueKind::Pair:
      return B.valPair(scanValue(V->first(), W), scanValue(V->second(), W));
    case ValueKind::Inl:
      return B.valInl(scanValue(V->payload(), W));
    case ValueKind::Inr:
      return B.valInr(scanValue(V->payload(), W));
    case ValueKind::PackTag:
      return B.valPackTag(V->var(), V->tagWitness(),
                          scanValue(V->payload(), W),
                          renameType(V->bodyType(), W));
    case ValueKind::PackTyVar:
      return B.valPackTyVar(V->var(), retargetDelta(&V->delta(), W),
                            renameType(V->typeWitness(), W),
                            scanValue(V->payload(), W),
                            renameType(V->bodyType(), W));
    case ValueKind::PackRegion: {
      Region Witness = V->regionWitness();
      if (Witness.isName() && Witness.sym() == FromSym)
        Witness = Region::name(ToSym);
      return B.valPackRegion(V->var(), retargetDelta(&V->delta(), W), Witness,
                             scanValue(V->payload(), W),
                             renameType(V->bodyType(), W));
    }
    case ValueKind::TransApp: {
      std::vector<Region> Rs;
      for (Region R : V->transRegions())
        Rs.push_back(R.isName() && R.sym() == FromSym ? Region::name(ToSym)
                                                      : R);
      return B.valTransApp(scanValue(V->payload(), W), V->transTags(),
                           std::move(Rs));
    }
    }
    return V;
  }

  uint64_t scanWord(uint64_t Wd, Worker &W) {
    switch (heapword::tagOf(Wd)) {
    case WordTag::Hole:
    case WordTag::Int:
      return Wd;
    case WordTag::Addr: {
      if (heapword::addrRegionId(Wd) != FromId)
        return Wd;
      uint32_t ToOff = claim(heapword::addrOffset(Wd), W.Local, W.Hits);
      maybePublish(W);
      return heapword::makeAddr(ToId, ToOff);
    }
    case WordTag::InlAddr:
    case WordTag::InrAddr: {
      if (heapword::addrRegionId(Wd) != FromId)
        return Wd;
      uint32_t ToOff = claim(heapword::addrOffset(Wd), W.Local, W.Hits);
      maybePublish(W);
      return heapword::make(heapword::tagOf(Wd),
                            heapword::addrPayload(ToId, ToOff));
    }
    case WordTag::Pair: {
      uint32_t I = heapword::indexOf(Wd);
      uint32_t NI = static_cast<uint32_t>(W.AuxBuf.size());
      W.AuxBuf.push_back(heapword::Hole);
      W.AuxBuf.push_back(heapword::Hole);
      uint64_t A = scanWord(From.Aux[I], W);
      uint64_t B = scanWord(From.Aux[I + 1], W);
      W.AuxBuf[NI] = A;
      W.AuxBuf[NI + 1] = B;
      return heapword::make(WordTag::Pair, NI);
    }
    case WordTag::InlAux:
    case WordTag::InrAux: {
      uint32_t NI = static_cast<uint32_t>(W.AuxBuf.size());
      W.AuxBuf.push_back(heapword::Hole);
      uint64_t Child = scanWord(From.Aux[heapword::indexOf(Wd)], W);
      W.AuxBuf[NI] = Child;
      return heapword::make(heapword::tagOf(Wd), NI);
    }
    case WordTag::PackTagAux:
    case WordTag::PackTyVarAux:
    case WordTag::PackRegionAux: {
      WordTag T = heapword::tagOf(Wd);
      uint32_t Span = heapword::auxSpan(T);
      uint32_t I = heapword::indexOf(Wd);
      uint32_t NI = static_cast<uint32_t>(W.AuxBuf.size());
      W.AuxBuf.resize(NI + Span, heapword::Hole);
      uint64_t Payload = scanWord(From.Aux[I], W);
      W.AuxBuf[NI] = Payload;
      W.AuxBuf[NI + 1] = From.Aux[I + 1]; // binder symbol
      if (T == WordTag::PackTagAux) {
        W.AuxBuf[NI + 2] = From.Aux[I + 2]; // witness tag is region-free
        W.AuxBuf[NI + 3] = heapword::ptrBits(
            renameType(heapword::ptrOf<Type>(From.Aux[I + 3]), W));
      } else {
        W.AuxBuf[NI + 2] = heapword::ptrBits(
            retargetDelta(heapword::ptrOf<RegionSet>(From.Aux[I + 2]), W));
        if (T == WordTag::PackTyVarAux) {
          W.AuxBuf[NI + 3] = heapword::ptrBits(
              renameType(heapword::ptrOf<Type>(From.Aux[I + 3]), W));
        } else {
          Region RW = heapword::regionOf(From.Aux[I + 3]);
          if (RW.isName() && RW.sym() == FromSym)
            RW = Region::name(ToSym);
          W.AuxBuf[NI + 3] = heapword::regionBits(RW);
        }
        W.AuxBuf[NI + 4] = heapword::ptrBits(
            renameType(heapword::ptrOf<Type>(From.Aux[I + 4]), W));
      }
      return heapword::make(T, NI);
    }
    case WordTag::Box: {
      const Value *NV = scanValue(From.Boxed[heapword::indexOf(Wd)], W);
      W.BoxBuf.push_back(NV);
      return heapword::make(WordTag::Box, W.BoxBuf.size() - 1);
    }
    }
    return Wd;
  }

  void maybePublish(Worker &W) {
    size_t Share = 0;
    if (W.Local.size() >= 2 * ChunkSize)
      Share = ChunkSize;
    else if (W.Local.size() >= MinSplit && W.Deque.empty())
      Share = W.Local.size() / 2;
    if (Share == 0)
      return;
    std::vector<uint32_t> Chunk(W.Local.begin(), W.Local.begin() + Share);
    W.Local.erase(W.Local.begin(), W.Local.begin() + Share);
    W.Deque.push(std::move(Chunk));
    ++W.Chunks;
  }

  void scanCell(uint32_t FromOff, Worker &W) {
    uint64_t Wd = From.Words[FromOff];
    assert(Wd != heapword::Hole && "parallel Cheney scan hit a dangling cell");
    uint64_t Copied = scanWord(Wd, W);
    uint32_t ToOff = Fwd[FromOff].load(std::memory_order_acquire);
    assert(ToOff != Unclaimed && ToOff != Pending && "scanning unclaimed cell");
    W.Results.emplace_back(ToOff, Copied);
    ++W.Objects;
    Unscanned.fetch_sub(1, std::memory_order_release);
  }

  void workerLoop(Worker &W) {
    auto Start = std::chrono::steady_clock::now();
    std::vector<uint32_t> Buf;
    for (;;) {
      if (!W.Local.empty()) {
        uint32_t Off = W.Local.back();
        W.Local.pop_back();
        scanCell(Off, W);
        continue;
      }
      if (W.Deque.pop(Buf)) {
        W.Local = std::move(Buf);
        Buf.clear();
        continue;
      }
      bool Stole = false;
      for (size_t I = 1; I < Workers.size() && !Stole; ++I) {
        Worker &Victim = Workers[(W.Id + I) % Workers.size()];
        if (Victim.Deque.steal(Buf)) {
          W.Local = std::move(Buf);
          Buf.clear();
          ++W.Steals;
          Stole = true;
        }
      }
      if (Stole)
        continue;
      if (Unscanned.load(std::memory_order_acquire) == 0)
        break;
      std::this_thread::yield();
    }
    W.CopyNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  }

  /// Rewrites a word's worker-relative Aux/Boxed index into the to-region's
  /// concatenated tables.
  static uint64_t rebase(uint64_t Wd, uint64_t AuxBase, uint64_t BoxBase) {
    switch (heapword::tagOf(Wd)) {
    case WordTag::Pair:
    case WordTag::InlAux:
    case WordTag::InrAux:
    case WordTag::PackTagAux:
    case WordTag::PackTyVarAux:
    case WordTag::PackRegionAux:
      return heapword::make(heapword::tagOf(Wd),
                            heapword::indexOf(Wd) + AuxBase);
    case WordTag::Box:
      return heapword::make(WordTag::Box, heapword::indexOf(Wd) + BoxBase);
    default:
      return Wd;
    }
  }

  const Value *collect(const Value *Root, NativeGcStats &Stats) {
    Worker &RootW = Workers[0];
    const Value *NewRoot = scanValue(Root, RootW);
    {
      std::vector<uint32_t> Seeds = std::move(RootW.Local);
      RootW.Local.clear();
      std::vector<std::vector<uint32_t>> Split(Workers.size());
      for (size_t I = 0; I < Seeds.size(); ++I)
        Split[I % Workers.size()].push_back(Seeds[I]);
      for (size_t I = 0; I < Workers.size(); ++I)
        if (!Split[I].empty())
          Workers[I].Local = std::move(Split[I]);
    }
    std::vector<std::thread> Threads;
    Threads.reserve(Workers.size());
    for (Worker &W : Workers)
      Threads.emplace_back([this, &W] {
        TRACE_SCOPE("collector", "native.worker");
        workerLoop(W);
      });
    for (std::thread &T : Threads)
      T.join();
    assert(Unscanned.load() == 0 && "workers exited with pending cells");

    // Serial epilogue: rebase worker-relative indices while concatenating
    // the Aux/Boxed buffers, assemble the words in to-offset order, and
    // install them with one bulk append.
    std::vector<uint64_t> ToWords(NextTo.load(), heapword::Hole);
    uint64_t AuxBase = To.Aux.size();
    uint64_t BoxBase = To.Boxed.size();
    for (Worker &W : Workers) {
      for (auto &[ToOff, Wd] : W.Results) {
        assert(ToWords[ToOff] == heapword::Hole &&
               "two workers copied one cell");
        ToWords[ToOff] = rebase(Wd, AuxBase, BoxBase);
      }
      for (uint64_t A : W.AuxBuf)
        To.Aux.push_back(rebase(A, AuxBase, BoxBase));
      To.Boxed.insert(To.Boxed.end(), W.BoxBuf.begin(), W.BoxBuf.end());
      AuxBase += W.AuxBuf.size();
      BoxBase += W.BoxBuf.size();
    }
    bool Ok = Mem.appendWords(To, ToSym, ToWords);
    assert(Ok && "to-region vanished during parallel collection");
    (void)Ok;
    if (M.config().TrackTypes) {
      for (uint32_t Off = 0; Off < From.Words.size(); ++Off) {
        uint32_t ToOff = Fwd[Off].load(std::memory_order_relaxed);
        if (ToOff == Unclaimed)
          continue;
        if (const Type *T =
                M.psi().lookup(Address{Region::name(FromSym), Off}))
          M.psi().set(Address{Region::name(ToSym), ToOff},
                      M.renameRegionName(T, FromSym, ToSym));
      }
    }
    Stats.Workers = static_cast<unsigned>(Workers.size());
    for (Worker &W : Workers) {
      Stats.ObjectsCopied += W.Objects;
      Stats.ForwardingHits += W.Hits;
      Stats.Steals += W.Steals;
      Stats.ChunksPublished += W.Chunks;
      Stats.WorkerCopyNs.push_back(W.CopyNs);
      Stats.WorkerObjects.push_back(W.Objects);
      M.context().adoptArena(std::move(W.Mem));
    }
    return NewRoot;
  }
};

/// Threads == 0 ("use the default") resolves here: a thread-local scoped
/// override wins, else the process default (setter wins over SCAV_THREADS,
/// else 1). The env var is read once — a mid-run change should not flip
/// collection determinism under a test — and malformed values are
/// diagnosed instead of silently running single-threaded
/// (support/ParseInt.h). Atomic because concurrent serve sessions read it
/// while a late setter call is legal.
std::atomic<unsigned> &nativeGcThreadsSlot() {
  static std::atomic<unsigned> N(static_cast<unsigned>(
      envUnsignedOr("SCAV_THREADS", 1, 1, 1024)));
  return N;
}

/// Per-thread override installed by ScopedNativeGcThreads; 0 = none.
thread_local unsigned NativeGcThreadsTls = 0;

} // namespace

unsigned scav::gc::nativeGcThreads() {
  if (NativeGcThreadsTls != 0)
    return NativeGcThreadsTls;
  return nativeGcThreadsSlot().load(std::memory_order_relaxed);
}

void scav::gc::setNativeGcThreads(unsigned N) {
  nativeGcThreadsSlot().store(N == 0 ? 1 : N, std::memory_order_relaxed);
}

ScopedNativeGcThreads::ScopedNativeGcThreads(unsigned N)
    : Prev(NativeGcThreadsTls) {
  if (N != 0)
    NativeGcThreadsTls = N;
}

ScopedNativeGcThreads::~ScopedNativeGcThreads() { NativeGcThreadsTls = Prev; }

std::pair<const Value *, Region>
scav::gc::nativeCollect(Machine &M, const Value *Root, Region From,
                        bool PreserveSharing, NativeGcStats &Stats,
                        CopyOrder Order, unsigned Threads) {
  TRACE_SCOPE("collector", "native.collect");
  if (Threads == 0)
    Threads = nativeGcThreads();
  GcContext &C = M.context();
  Region To = M.createRegion("to", 0);
  const Value *NewRoot = nullptr;
  if (Order == CopyOrder::BreadthFirst && Threads > 1) {
    ParallelCheney Gc(M, From.sym(), To.sym(), Threads);
    NewRoot = Gc.collect(Root, Stats);
  } else if (Order == CopyOrder::BreadthFirst) {
    CheneyGc Gc(M, From.sym(), To.sym(), Stats);
    NewRoot = Gc.scanValue(Root);
    Gc.drain();
  } else {
    NativeGc Gc(M, From.sym(), To.sym(), PreserveSharing, Stats);
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
