//===- support/FlatTable.h - Open-addressing hash table --------*- C++ -*-===//
///
/// \file
/// FlatTable<V>: a linear-probing hash table whose slots hold a 64-bit hash,
/// computed by the caller, next to the payload V inline. It is the one table
/// behind hash-consing: GcContext's uniquing tables and normalization memos,
/// and SymbolTable's spelling map.
///
///  * Lookups take the hash and an equality predicate over payloads. A probe
///    compares the stored hash first, so a payload that points at a node is
///    dereferenced only on a full 64-bit hash match.
///  * A probe starts at the top bits of hash × 2^64/φ (Fibonacci hashing)
///    and steps linearly, wrapping at the end of the slot array.
///  * The table allocates nothing until the first insert and doubles when an
///    insert would take the load above one half. It never shrinks.
///  * erase() shifts the rest of the probe cluster back (Knuth's Algorithm
///    R), so there are no tombstones: after erasing entries, in any order,
///    every lookup answers as if they had never been inserted, even if the
///    table grew in between. GcContext::release relies on this to unwind a
///    Scope newest-first.
///  * find() is a pure read: threads may probe a table concurrently as long
///    as none mutates it (a frozen shared GcContext base).
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_SUPPORT_FLATTABLE_H
#define SCAV_SUPPORT_FLATTABLE_H

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace scav {

template <typename V> class FlatTable {
public:
  size_t size() const { return Size; }
  /// Number of slots (0 before the first insert, else a power of two).
  size_t capacity() const { return Mask ? Mask + 1 : 0; }

  /// The payload stored under \p H for which \p Eq holds, or null.
  template <typename EqFn> const V *find(uint64_t H, EqFn &&Eq) const {
    size_t I = indexOf(H, Eq);
    return I == NotFound ? nullptr : &Slots[I].Val;
  }
  template <typename EqFn> V *find(uint64_t H, EqFn &&Eq) {
    size_t I = indexOf(H, Eq);
    return I == NotFound ? nullptr : &Slots[I].Val;
  }

  /// Stores \p Val under \p H. The caller guarantees that no equal payload
  /// is present. The returned reference is valid until the next insert.
  V &insert(uint64_t H, V Val) {
    if (2 * (Size + 1) > capacity())
      grow();
    H = slotHash(H);
    size_t I = home(H);
    while (Slots[I].Hash != Empty)
      I = (I + 1) & Mask;
    Slots[I].Hash = H;
    Slots[I].Val = std::move(Val);
    ++Size;
    return Slots[I].Val;
  }

  /// Removes the payload stored under \p H for which \p Eq holds; it must
  /// be present.
  template <typename EqFn> void erase(uint64_t H, EqFn &&Eq) {
    size_t Hole = indexOf(H, Eq);
    assert(Hole != NotFound && "erasing an entry that is not in the table");
    if (Hole == NotFound)
      return;
    // Pull back every later cluster member whose home is not cyclically in
    // (Hole, J]: its probe from home passes Hole before reaching J.
    for (size_t J = (Hole + 1) & Mask; Slots[J].Hash != Empty;
         J = (J + 1) & Mask) {
      if (((J - home(Slots[J].Hash)) & Mask) >= ((J - Hole) & Mask)) {
        Slots[Hole] = std::move(Slots[J]);
        Hole = J;
      }
    }
    Slots[Hole] = Slot{};
    --Size;
  }

private:
  struct Slot {
    uint64_t Hash = Empty;
    V Val{};
  };

  static constexpr uint64_t Empty = 0;
  static constexpr size_t MinCapacity = 16;
  static constexpr size_t NotFound = ~size_t(0);

  /// Hash 0 marks an empty slot, so a payload hashing to 0 is stored as 1.
  static uint64_t slotHash(uint64_t H) { return H == Empty ? 1 : H; }
  size_t home(uint64_t H) const {
    return static_cast<size_t>((H * 0x9E3779B97F4A7C15ULL) >> Shift);
  }

  template <typename EqFn> size_t indexOf(uint64_t H, EqFn &Eq) const {
    if (Size == 0)
      return NotFound;
    H = slotHash(H);
    for (size_t I = home(H);; I = (I + 1) & Mask) {
      if (Slots[I].Hash == H && Eq(Slots[I].Val))
        return I;
      if (Slots[I].Hash == Empty)
        return NotFound;
    }
  }

  void grow() {
    size_t OldCap = capacity();
    size_t NewCap = OldCap ? 2 * OldCap : MinCapacity;
    std::unique_ptr<Slot[]> Old = std::move(Slots);
    Slots = std::make_unique<Slot[]>(NewCap);
    Mask = NewCap - 1;
    Shift = 64 - std::countr_zero(NewCap);
    for (size_t I = 0; I != OldCap; ++I) {
      if (Old[I].Hash == Empty)
        continue;
      size_t J = home(Old[I].Hash);
      while (Slots[J].Hash != Empty)
        J = (J + 1) & Mask;
      Slots[J] = std::move(Old[I]);
    }
  }

  std::unique_ptr<Slot[]> Slots;
  size_t Size = 0;
  size_t Mask = 0;
  unsigned Shift = 64;
};

} // namespace scav

#endif // SCAV_SUPPORT_FLATTABLE_H
