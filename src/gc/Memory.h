//===- gc/Memory.h - Regions, memories, and memory types -------*- C++ -*-===//
///
/// \file
/// The allocation-semantics state (§6, Fig 2 bottom):
///
///   R ::= {ℓ1 ↦ v1, ..., ℓn ↦ vn}                 regions
///   M ::= {cd ↦ Rcd, ν1 ↦ R1, ..., νn ↦ Rn}       memories
///   Υ ::= {ℓ1 : σ1, ..., ℓn : σn}                  region types
///   Ψ ::= {cd : Υcd, ν1 : Υ1, ..., νn : Υn}        memory types
///
/// Ψ is the typing witness for M; the machine maintains it incrementally
/// (see Machine.cpp) so the dynamic soundness harness can re-establish
/// ⊢ (M, e) after every step. Regions carry a soft capacity that drives
/// `ifgc ρ e1 e2` ("if ρ is full"): allocation beyond capacity is allowed
/// (the collector itself must be able to allocate), but `ifgc` reports full.
///
/// Cells use the compact tagged-word layout (DESIGN.md §3.12): every cell is
/// also encoded as a 64-bit tagged word (HeapWord.h) in a flat per-region
/// buffer, with region names resolved through a dense region-id table
/// instead of hashing the symbol. Collectors and the VM write words
/// directly; `Cells` entries are then decoded lazily (and cached) the first
/// time a consumer needs the `const Value *` view. The invariant is
/// Cells.size() == Words.size(), with `Cells[i]` authoritative when non-null
/// and `Words[i]` authoritative when Cells[i] is null (word 0 = no value).
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_GC_MEMORY_H
#define SCAV_GC_MEMORY_H

#include "gc/HeapWord.h"
#include "gc/Term.h"

#include <cassert>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

namespace scav::gc {

class GcContext;

/// The mutation stamp and in-place overwrite log that a region and its
/// region type share. Version is bumped by every write, so a consumer that
/// remembers it can skip an untouched region in O(1). DirtyLog lists the
/// offsets overwritten in place, in order; the incremental checker's
/// capture step drains it (clearDirty). It is bounded by DirtyLogCap: on
/// overflow the log is dropped and DirtyOverflow set, which consumers must
/// treat as "every established offset may be dirty" (full-region resync).
struct DirtyTracked {
  uint64_t Version = 0;
  std::vector<uint32_t> DirtyLog;
  bool DirtyOverflow = false;

  /// Cap on DirtyLog entries before falling back to the overflow flag.
  /// Collectors `fill` every copied cell, so checked collection windows can
  /// legitimately log thousands of offsets; 64Ki keeps those exact while
  /// bounding unchecked runs to 256KiB of log per region.
  static constexpr size_t DirtyLogCap = 1u << 16;

  void logDirty(uint32_t Off) {
    if (DirtyOverflow)
      return;
    if (DirtyLog.size() >= DirtyLogCap) {
      DirtyLog.clear();
      DirtyLog.shrink_to_fit();
      DirtyOverflow = true;
      return;
    }
    DirtyLog.push_back(Off);
  }

  /// Consumer-side drain: forget everything logged so far.
  void clearDirty() {
    DirtyLog.clear();
    DirtyOverflow = false;
  }
};

/// A region R: a dense bump-allocated cell array (offset = index). Regions
/// are only ever freed wholesale (`only`), never cell by cell, so a vector
/// models the paper's region arenas faithfully — including O(1) bulk free.
/// Every put/fill/update bumps Version; fill/update log their offset.
/// Fresh cells are not logged — consumers detect them from Cells.size()
/// growth.
struct RegionData : DirtyTracked {
  std::vector<const Value *> Cells;
  /// The tagged-word image of each cell, parallel to Cells (Words.size() ==
  /// Cells.size() always).
  std::vector<uint64_t> Words;
  /// Child words of Pair/InlAux/InrAux cells.
  std::vector<uint64_t> Aux;
  /// Side table for pointer-rich cells (Box words).
  std::vector<const Value *> Boxed;
  /// This region's dense id (index into Memory::ById).
  uint32_t Id = 0;
  /// Conservative (never under-counting) number of cells whose Words entry
  /// is set but whose Cells entry has not been decoded yet. Zero means
  /// every cell is visible through Cells, so decodeRegion is O(1) —
  /// consumers that need the pointer view (checkers, fuzzers) call it
  /// unconditionally.
  uint32_t Undecoded = 0;
  /// Soft capacity in cells; 0 means unlimited (never "full").
  uint32_t Capacity = 0;
  /// Total cells ever allocated here.
  uint64_t TotalAllocated = 0;
  /// The machine's only-epoch at creation time; the heap-growth policy
  /// resizes only regions born in the current collection cycle (the
  /// to-spaces), so long-lived regions keep their trigger capacity.
  uint64_t Epoch = 0;
};

/// A region type Υ (dense, parallel to RegionData). In normal operation Ψ
/// cells are only ever *extended* (recordPut at fresh offsets) or
/// rewritten wholesale (widen/only, which the machine journals as region
/// events), so the log stays nearly empty: the only machine-originated
/// entries are out-of-order defineCode filling a reserved null pad in cd.
/// Every other entry is external Ψ surgery — which is precisely what the
/// incremental checker needs to hear about, and `set` logs *every* write
/// at an established offset (null pad or not) so no Version bump below
/// Cells.size() can bypass the log.
struct RegionType : DirtyTracked {
  std::vector<const Type *> Cells;
};

/// A memory type Ψ.
class MemoryType {
public:
  /// Single-lookup access to Υ = Ψ(ν), or nullptr if ν ∉ Dom(Ψ). Callers
  /// that used to pair hasRegion() with find() go through this instead.
  RegionType *region(Symbol S) {
    auto It = Regions.find(S);
    return It == Regions.end() ? nullptr : &It->second;
  }
  const RegionType *region(Symbol S) const {
    auto It = Regions.find(S);
    return It == Regions.end() ? nullptr : &It->second;
  }

  /// \returns the cell type Ψ(ν.ℓ), or nullptr if absent.
  const Type *lookup(Address A) const {
    const RegionType *R = region(A.R.sym());
    if (!R)
      return nullptr;
    const auto &Cs = R->Cells;
    return A.Offset < Cs.size() ? Cs[A.Offset] : nullptr;
  }

  void set(Address A, const Type *T) {
    RegionType &R = Regions[A.R.sym()];
    auto &Cs = R.Cells;
    if (A.Offset >= Cs.size())
      // size_t arithmetic: Offset + 1 must not wrap when Offset is the
      // largest representable uint32_t.
      Cs.resize(size_t(A.Offset) + 1, nullptr);
    else
      // In-place write at an existing offset — log it even when the slot
      // was a null pad, so every Version bump below Cells.size() is
      // visible in DirtyLog (fresh entries are found from Cells.size()
      // growth instead).
      R.logDirty(A.Offset);
    Cs[A.Offset] = T;
    ++R.Version;
  }

  bool hasRegion(Symbol S) const { return Regions.find(S) != Regions.end(); }
  void addRegion(Symbol S) { Regions.try_emplace(S); }
  void removeRegion(Symbol S) { Regions.erase(S); }

  /// Dom(Ψ) as a RegionSet of region names.
  RegionSet domain() const {
    RegionSet Out;
    for (const auto &[S, _] : Regions)
      Out.insert(Region::name(S));
    return Out;
  }

  /// Keyed by region-name symbol. An unordered map: Ψ's region set is
  /// iterated only to build sorted RegionSets (domain()) or for
  /// order-insensitive bulk updates (widen, only, state checking), never in
  /// a way whose *order* is semantically relevant — O(1) lookup matters on
  /// the per-put hot path.
  std::unordered_map<Symbol, RegionType, SymbolHash> Regions;
};

/// A memory M. Always contains cd.
class Memory {
public:
  /// \p Ctx decodes words back into Values (allocating in its arena).
  Memory(Symbol CdSym, GcContext &Ctx) : Ctx(Ctx), CdSym(CdSym) {
    addRegion(CdSym, 0);
  }

  // Decoded-cell caches hold interior pointers (ById, and the collectors
  // keep RegionData references across a whole copy) — a Memory never moves
  // or duplicates.
  Memory(const Memory &) = delete;
  Memory &operator=(const Memory &) = delete;

  /// Allocates a fresh region named \p S with the given soft capacity.
  void addRegion(Symbol S, uint32_t Capacity) {
    RegionData &R = Regions[S];
    R.Capacity = Capacity;
    R.Id = ensureRegionId(S);
    ById[R.Id] = &R;
  }

  bool hasRegion(Symbol S) const { return regionImpl(S) != nullptr; }

  RegionData *region(Symbol S) {
    return const_cast<RegionData *>(regionImpl(S));
  }
  const RegionData *region(Symbol S) const { return regionImpl(S); }

  /// Stores \p V at a fresh offset in region \p S; returns the address.
  /// Fails (nullopt) if the region does not exist or its offset space is
  /// exhausted: offsets are uint32_t, and silently wrapping past 2³² cells
  /// would alias live cells. The machine turns the failure into a stuck
  /// state rather than corrupting memory. A null \p V reserves the slot
  /// but still counts it as allocated (the Cheney copier's reserve step).
  std::optional<Address> put(Symbol S, const Value *V) {
    RegionData *R = region(S);
    if (!R)
      return std::nullopt;
    if (R->Cells.size() >= std::numeric_limits<uint32_t>::max())
      return std::nullopt;
    uint32_t Off = static_cast<uint32_t>(R->Cells.size());
    // Encode before push_back: encodeValue may grow Aux/Boxed but never
    // Words. Eager store keeps machine-written cells always decoded.
    R->Words.push_back(V ? encodeValue(*R, V) : heapword::Hole);
    R->Cells.push_back(V);
    ++R->TotalAllocated;
    ++R->Version;
    if (S != CdSym)
      ++LiveData;
    return Address{Region::name(S), Off};
  }

  /// Word fast path: appends an already-encoded word to \p R (which must be
  /// \p S's RegionData). The Cells entry stays null until decoded.
  std::optional<Address> putWord(RegionData &R, Symbol S, uint64_t W) {
    if (R.Cells.size() >= std::numeric_limits<uint32_t>::max())
      return std::nullopt;
    uint32_t Off = static_cast<uint32_t>(R.Cells.size());
    R.Words.push_back(W);
    R.Cells.push_back(nullptr);
    if (W != heapword::Hole)
      ++R.Undecoded;
    ++R.TotalAllocated;
    ++R.Version;
    if (S != CdSym)
      ++LiveData;
    return Address{Region::name(S), Off};
  }

  /// Reserves an uncounted slot (reserveCode's two-phase cd init): extends
  /// the region by one null cell and stamps Version, without touching
  /// TotalAllocated/liveDataCells. \returns the new offset.
  uint32_t reserveSlot(Symbol S) {
    RegionData *R = region(S);
    assert(R && "reserveSlot into a missing region");
    assert(R->Cells.size() < std::numeric_limits<uint32_t>::max());
    uint32_t Off = static_cast<uint32_t>(R->Cells.size());
    R->Words.push_back(heapword::Hole);
    R->Cells.push_back(nullptr);
    ++R->Version;
    return Off;
  }

  /// Replaces every cell of region \p S with \p Vs (the async checker
  /// mirror's snapshot deltas). Version is bumped, never reset, so a
  /// consumer's remembered stamp cannot match the new contents by
  /// accident. The dirty log is cleared; \p AllDirty instead marks it
  /// overflowed ("every established offset may be dirty").
  bool replaceCells(Symbol S, const std::vector<const Value *> &Vs,
                    bool AllDirty) {
    RegionData *R = region(S);
    if (!R || Vs.size() >= std::numeric_limits<uint32_t>::max())
      return false;
    if (S != CdSym)
      LiveData = LiveData - R->Cells.size() + Vs.size();
    R->Words.clear();
    R->Aux.clear();
    R->Boxed.clear();
    R->Words.reserve(Vs.size());
    for (const Value *V : Vs)
      R->Words.push_back(V ? encodeValue(*R, V) : heapword::Hole);
    R->Cells = Vs;
    R->Undecoded = 0;
    ++R->Version;
    R->clearDirty();
    R->DirtyOverflow = AllDirty;
    return true;
  }

  /// \returns the value stored at \p A, or nullptr. Cells written as raw
  /// words are decoded (and the decode cached) on first read.
  const Value *get(Address A) const {
    const RegionData *R = regionImpl(A.R.sym());
    if (!R || A.Offset >= R->Cells.size())
      return nullptr;
    if (const Value *V = R->Cells[A.Offset])
      return V;
    return R->Words[A.Offset] == heapword::Hole ? nullptr
                                                : decodeCell(*R, A.Offset);
  }

  /// Fills a reserved (nullptr) slot; used by the Cheney copier and
  /// defineCode-style two-phase initialization.
  bool fill(Address A, const Value *V) {
    RegionData *R = region(A.R.sym());
    if (!R || A.Offset >= R->Cells.size())
      return false;
    R->Words[A.Offset] = V ? encodeValue(*R, V) : heapword::Hole;
    R->Cells[A.Offset] = V;
    ++R->Version;
    R->logDirty(A.Offset);
    return true;
  }

  /// Cheney fast path: fill with an already-encoded word. Same stamps as
  /// fill (Version + dirty log); the decode is left lazy.
  bool fillWord(RegionData &R, Address A, uint64_t W) {
    if (A.Offset >= R.Words.size())
      return false;
    R.Words[A.Offset] = W;
    if (R.Cells[A.Offset])
      R.Cells[A.Offset] = nullptr;
    if (W != heapword::Hole)
      ++R.Undecoded;
    ++R.Version;
    R.logDirty(A.Offset);
    return true;
  }

  /// Overwrites the cell at \p A (used by `set`); returns false if absent.
  bool update(Address A, const Value *V) {
    RegionData *R = region(A.R.sym());
    if (!R || A.Offset >= R->Cells.size())
      return false;
    if (!R->Cells[A.Offset] && R->Words[A.Offset] == heapword::Hole)
      return false;
    R->Words[A.Offset] = encodeValue(*R, V);
    R->Cells[A.Offset] = V;
    ++R->Version;
    R->logDirty(A.Offset);
    return true;
  }

  /// `set` fast path: overwrite an established cell with an already-encoded
  /// word (the VM skips materializing the source value).
  bool updateWord(RegionData &R, Address A, uint64_t W) {
    if (A.Offset >= R.Words.size())
      return false;
    if (!R.Cells[A.Offset] && R.Words[A.Offset] == heapword::Hole)
      return false;
    R.Words[A.Offset] = W;
    R.Cells[A.Offset] = nullptr;
    ++R.Undecoded;
    ++R.Version;
    R.logDirty(A.Offset);
    return true;
  }

  /// `only ∆`: drops every region not in \p Keep (cd always survives).
  /// \returns the number of regions reclaimed.
  size_t restrictTo(const RegionSet &Keep) {
    size_t Reclaimed = 0;
    for (auto It = Regions.begin(); It != Regions.end();) {
      if (It->first == CdSym || Keep.contains(Region::name(It->first))) {
        ++It;
        continue;
      }
      It = dropRegion(It);
      ++Reclaimed;
    }
    return Reclaimed;
  }

  /// Drops the single region \p S (never cd). \returns false if absent.
  bool removeRegion(Symbol S) {
    auto It = Regions.find(S);
    if (S == CdSym || It == Regions.end())
      return false;
    dropRegion(It);
    return true;
  }

  /// "ρ is full" for ifgc: at least Capacity cells live (0 = never full).
  bool isFull(Symbol S) const {
    const RegionData *R = regionImpl(S);
    if (!R || R->Capacity == 0)
      return false;
    return R->Cells.size() >= R->Capacity;
  }

  /// Encodes \p V as a tagged word targeting region \p R (children land in
  /// R's Aux/Boxed tables). Total: shapes that don't fit inline are boxed.
  uint64_t encodeValue(RegionData &R, const Value *V);

  /// Decodes one word of \p R back into a Value (allocating in Ctx).
  const Value *decodeWord(const RegionData &R, uint64_t W) const;

  /// Decodes and caches Cells[Off]; \p Off must hold a non-Hole word.
  /// Const but caching (mutator-thread only): decode never stamps Version
  /// or the dirty log — it changes the representation, not the state.
  const Value *decodeCell(const RegionData &R, uint32_t Off) const;

  /// Makes every cell of \p R visible through Cells. O(1) when nothing is
  /// undecoded (eager machine writes keep it so outside collections).
  void decodeRegion(const RegionData &R) const;

  /// decodeRegion over every region — consumers that walk Cells directly
  /// (checkers, fuzz victim enumeration) call this first. Must run before
  /// any GcContext::Scope those consumers open: decoded values are cached
  /// in Cells and must not be allocated under a scope that rolls back.
  void decodeAll() const {
    for (const auto &[S, R] : Regions)
      decodeRegion(R);
  }

  /// Live RegionData for a dense region id, or nullptr if the id is
  /// unassigned or its region was reclaimed. The VM's word frame slots and
  /// Addr words resolve their region this way — one vector index instead
  /// of a symbol hash.
  RegionData *regionById(uint32_t Id) {
    return Id < ById.size() ? ById[Id] : nullptr;
  }
  const RegionData *regionById(uint32_t Id) const {
    return Id < ById.size() ? ById[Id] : nullptr;
  }

  /// Re-targets an encoded word from \p Src into \p Dst without decoding:
  /// region-independent payloads (Int, Addr, InlAddr, InrAddr) copy
  /// verbatim, Pair/InlAux/InrAux subtrees are copied into Dst's Aux table,
  /// Box payloads are re-boxed. Within one region the word is returned
  /// unchanged — aux entries are immutable once written, so two cells
  /// sharing a subtree is sound.
  uint64_t transcodeWord(const RegionData &Src, uint64_t W, RegionData &Dst);

  /// Dense region-id for \p S, assigning one if needed. Ids persist across
  /// the region's death (IdToSym is append-only), so stale words still
  /// name the right symbol; re-adding a name reuses its id.
  uint32_t ensureRegionId(Symbol S) {
    uint32_t Sid = S.id();
    if (Sid >= SymToId.size())
      SymToId.resize(size_t(Sid) + 1, InvalidId);
    uint32_t Id = SymToId[Sid];
    if (Id == InvalidId) {
      Id = static_cast<uint32_t>(IdToSym.size());
      IdToSym.push_back(S);
      ById.push_back(nullptr);
      SymToId[Sid] = Id;
    }
    return Id;
  }

  /// Symbol for a dense region id (total for ids handed out here).
  Symbol regionIdSymbol(uint32_t Id) const { return IdToSym[Id]; }

  Symbol cdSym() const { return CdSym; }

  size_t numRegions() const { return Regions.size(); }

  /// Live cells across all regions except cd. O(1): a running counter
  /// maintained by put/replaceCells and the region drops (the
  /// only paths that grow or drop data-region cells) — it is read from the
  /// per-step trace counter track, where an O(regions) sum was measurable.
  size_t liveDataCells() const { return LiveData; }

  /// Keyed by region-name symbol. Unordered on purpose (see MemoryType):
  /// iteration sites (restrictTo, liveDataCells, heap growth, the native
  /// collector's keep-set, state checking) are all order-insensitive, and
  /// `only`'s scan plus the per-put region lookup are hot (E5). The map is
  /// the owner — its node-stable addresses are what ById points at; lookups
  /// just bypass the hashing. Entries are added and dropped only through
  /// the members above, which keep ById in step.
  std::unordered_map<Symbol, RegionData, SymbolHash> Regions;

private:
  static constexpr uint32_t InvalidId =
      std::numeric_limits<uint32_t>::max();

  using RegionIt = std::unordered_map<Symbol, RegionData, SymbolHash>::iterator;

  /// Dense-table lookup. ById entries are nulled when a region is dropped,
  /// so a hit is live.
  const RegionData *regionImpl(Symbol S) const {
    uint32_t Sid = S.id();
    if (Sid >= SymToId.size())
      return nullptr;
    uint32_t Id = SymToId[Sid];
    return Id == InvalidId ? nullptr : ById[Id];
  }

  RegionIt dropRegion(RegionIt It) {
    LiveData -= It->second.Cells.size();
    ById[It->second.Id] = nullptr;
    return Regions.erase(It);
  }

  uint64_t boxValue(RegionData &R, const Value *V);

  GcContext &Ctx;
  Symbol CdSym;
  /// Running liveDataCells() counter (cells in non-cd regions).
  size_t LiveData = 0;
  /// Symbol::id() → dense region id (InvalidId = none yet).
  std::vector<uint32_t> SymToId;
  /// Dense region id → symbol. Append-only.
  std::vector<Symbol> IdToSym;
  /// Dense region id → live RegionData (null once dropped).
  std::vector<RegionData *> ById;
};

} // namespace scav::gc

#endif // SCAV_GC_MEMORY_H
