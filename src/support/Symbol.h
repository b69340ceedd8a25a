//===- support/Symbol.h - Interned identifiers ----------------*- C++ -*-===//
///
/// \file
/// Interned symbols. A Symbol is a small value type (an index into a
/// SymbolTable) used for every variable sort in the calculi: term variables
/// x, tag variables t, type variables α, region variables r, region names ν,
/// and code labels ℓ. The table also provides a fresh-name supply used by
/// capture-avoiding substitution and the various program transformations.
///
/// The table is internally synchronized: a mutator thread and the async
/// state-checker thread (gc/AsyncCheck.h) intern into one shared table
/// concurrently. Spelling storage is a deque so `name()` views stay stable
/// across later interns (and across threads). Fresh-name *counters* live
/// with the callers (see GcContext::fresh and its namespace tags), not
/// here, so one observer context minting names cannot perturb another
/// context's numbering; the legacy single-counter `fresh()` is kept for
/// the single-threaded frontend contexts (lambda/cps).
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_SUPPORT_SYMBOL_H
#define SCAV_SUPPORT_SYMBOL_H

#include "support/FlatTable.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

namespace scav {

class SymbolTable;

/// An interned identifier; equality is O(1).
class Symbol {
public:
  Symbol() : Id(~0u) {}

  bool isValid() const { return Id != ~0u; }
  uint32_t id() const { return Id; }

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }

private:
  friend class SymbolTable;
  explicit Symbol(uint32_t Id) : Id(Id) {}
  uint32_t Id;
};

/// Owns symbol spellings and hands out fresh names. Thread-safe.
class SymbolTable {
public:
  /// Interns \p Name and returns its Symbol.
  Symbol intern(std::string_view Name) {
    std::lock_guard<std::mutex> L(Mu);
    return internLocked(Name).first;
  }

  /// Interns \p Name; the bool is true iff the spelling was not in the
  /// table yet. One atomic lookup-or-insert, for fresh-name loops that must
  /// not race with another thread interning the same spelling.
  std::pair<Symbol, bool> internNew(std::string_view Name) {
    std::lock_guard<std::mutex> L(Mu);
    return internLocked(Name);
  }

  /// Creates a fresh symbol whose spelling starts with \p Base. The result
  /// is guaranteed distinct from every symbol interned so far. Uses the
  /// table-global counter; GcContext-based code should go through
  /// GcContext::fresh instead, which namespaces its counter per context.
  Symbol fresh(std::string_view Base) {
    std::lock_guard<std::mutex> L(Mu);
    for (;;) {
      std::string Candidate =
          std::string(Base) + "$" + std::to_string(FreshCounter++);
      auto [S, New] = internLocked(Candidate);
      if (New)
        return S;
    }
  }

  /// \returns the spelling of \p S. The view is stable for the table's
  /// lifetime (spellings live in a deque and are never moved).
  std::string_view name(Symbol S) const {
    std::lock_guard<std::mutex> L(Mu);
    assert(S.isValid() && S.id() < Names.size() && "invalid symbol");
    return Names[S.id()];
  }

  /// Spelling for a raw id. Snapshot serialization (gc/Snapshot.cpp) walks
  /// the whole table by id — ids are dense, so [0, size()) enumerates it.
  std::string_view name(uint32_t Id) const {
    std::lock_guard<std::mutex> L(Mu);
    assert(Id < Names.size() && "invalid symbol id");
    return Names[Id];
  }

  size_t size() const {
    std::lock_guard<std::mutex> L(Mu);
    return Names.size();
  }

private:
  std::pair<Symbol, bool> internLocked(std::string_view Name) {
    uint64_t H = std::hash<std::string_view>{}(Name);
    if (const uint32_t *Known =
            Map.find(H, [&](uint32_t K) { return Names[K] == Name; }))
      return {Symbol(*Known), false};
    uint32_t Id = static_cast<uint32_t>(Names.size());
    Names.emplace_back(Name);
    Map.insert(H, Id);
    return {Symbol(Id), true};
  }

  mutable std::mutex Mu;
  std::deque<std::string> Names; ///< Stable spelling storage.
  /// Spelling hash → id; the spelling itself is compared through Names.
  FlatTable<uint32_t> Map;
  uint64_t FreshCounter = 0;
};

/// Hash support so Symbols can key unordered containers.
struct SymbolHash {
  size_t operator()(Symbol S) const { return S.id(); }
};

} // namespace scav

#endif // SCAV_SUPPORT_SYMBOL_H
