//===- harness/FuzzMutate.cpp - State and S-expression mutations ----------===//

#include "harness/FuzzMutate.h"

#include "gc/StateCheck.h"
#include "harness/SExprTree.h"

#include <algorithm>
#include <iterator>

using namespace scav;
using namespace scav::gc;
using namespace scav::harness;

const char *scav::harness::stateMutationName(StateMutationKind K) {
  switch (K) {
  case StateMutationKind::CellDanglingRegion:
    return "cell-dangling-region";
  case StateMutationKind::CellOffsetOverrun:
    return "cell-offset-overrun";
  case StateMutationKind::CellShapeSwap:
    return "cell-shape-swap";
  case StateMutationKind::PsiRetype:
    return "psi-retype";
  case StateMutationKind::PsiPhantomCell:
    return "psi-phantom-cell";
  case StateMutationKind::ForwardBitFlip:
    return "forward-bit-flip";
  case StateMutationKind::StaleRegionRef:
    return "stale-region-ref";
  case StateMutationKind::PackPayloadClobber:
    return "pack-payload-clobber";
  case StateMutationKind::CdCodeClobber:
    return "cd-code-clobber";
  }
  return "?";
}

namespace {

/// Deterministic victim ordering: unordered_map iteration order must never
/// leak into seed replay, so candidate lists are sorted by (region, offset).
void sortAddresses(std::vector<Address> &As) {
  std::sort(As.begin(), As.end(), [](Address A, Address B) {
    if (A.R.sym().id() != B.R.sym().id())
      return A.R.sym().id() < B.R.sym().id();
    return A.Offset < B.Offset;
  });
}

/// All live data (non-cd) cells, restricted to term-reachable ones when
/// \p Restrict — a victim Def 7.1 does not allow either checker to skip.
std::vector<Address> dataCells(Machine &M, bool Restrict) {
  // Victim enumeration walks Cells directly, so any word-written cells
  // (collector fast paths) must be decoded first.
  M.memory().decodeAll();
  AddressSet Reach;
  if (Restrict)
    Reach = reachableCells(M);
  Symbol Cd = M.context().cd().sym();
  std::vector<Address> Out;
  for (const auto &[S, RD] : M.memory().Regions) {
    if (S == Cd)
      continue;
    for (uint32_t Off = 0; Off != RD.Cells.size(); ++Off) {
      if (!RD.Cells[Off])
        continue;
      Address A{Region::name(S), Off};
      if (Restrict && !Reach.count(A))
        continue;
      Out.push_back(A);
    }
  }
  sortAddresses(Out);
  return Out;
}

/// Live data region names, sorted.
std::vector<Symbol> dataRegions(Machine &M) {
  Symbol Cd = M.context().cd().sym();
  std::vector<Symbol> Out;
  for (const auto &[S, _] : M.memory().Regions)
    if (S != Cd)
      Out.push_back(S);
  std::sort(Out.begin(), Out.end(),
            [](Symbol A, Symbol B) { return A.id() < B.id(); });
  return Out;
}

/// An address into a region that never existed: ill-typed against every Ψ.
const Value *poison(GcContext &C) {
  return C.valAddr(Address{Region::name(C.fresh("fuzzghost")), 0});
}

std::string describe(Machine &M, const char *What, Address A) {
  return std::string(What) + " at " +
         std::string(M.context().name(A.R.sym())) + "." +
         std::to_string(A.Offset);
}

/// Rebuilds \p V with its existential payload replaced by \p NewPayload,
/// preserving witnesses, ∆ bounds, body types, and any inl/inr wrapper.
/// \returns nullptr when \p V contains no pack to clobber.
const Value *clobberPackPayload(GcContext &C, const Value *V,
                                const Value *NewPayload) {
  switch (V->kind()) {
  case ValueKind::PackTag:
    return C.valPackTag(V->var(), V->tagWitness(), NewPayload, V->bodyType());
  case ValueKind::PackTyVar: {
    RegionSet D = V->delta();
    return C.valPackTyVar(V->var(), std::move(D), V->typeWitness(),
                          NewPayload, V->bodyType());
  }
  case ValueKind::PackRegion: {
    RegionSet D = V->delta();
    return C.valPackRegion(V->var(), std::move(D), V->regionWitness(),
                           NewPayload, V->bodyType());
  }
  case ValueKind::Inl: {
    const Value *Inner = clobberPackPayload(C, V->payload(), NewPayload);
    return Inner ? C.valInl(Inner) : nullptr;
  }
  case ValueKind::Inr: {
    const Value *Inner = clobberPackPayload(C, V->payload(), NewPayload);
    return Inner ? C.valInr(Inner) : nullptr;
  }
  default:
    return nullptr;
  }
}

} // namespace

std::optional<AppliedMutation>
scav::harness::applyStateMutation(Machine &M, StateMutationKind K, Rng &Rand,
                                  bool Restrict) {
  GcContext &C = M.context();
  std::vector<Address> Victims = dataCells(M, Restrict);

  auto Pick = [&]() -> std::optional<Address> {
    if (Victims.empty())
      return std::nullopt;
    return Victims[Rand.below(Victims.size())];
  };
  auto Done = [&](Address A, const char *What) {
    return AppliedMutation{K, A, describe(M, What, A)};
  };

  switch (K) {
  case StateMutationKind::CellDanglingRegion: {
    std::optional<Address> A = Pick();
    if (!A || !M.memory().update(*A, poison(C)))
      return std::nullopt;
    return Done(*A, "dangling-region address planted");
  }

  case StateMutationKind::CellOffsetOverrun: {
    std::optional<Address> A = Pick();
    if (!A)
      return std::nullopt;
    std::vector<Symbol> Rs = dataRegions(M);
    Symbol S = Rs[Rand.below(Rs.size())];
    const RegionData *RD = M.memory().region(S);
    uint64_t Extent = RD->Cells.size();
    if (Extent + 4 >= std::numeric_limits<uint32_t>::max())
      return std::nullopt;
    Address Overrun{Region::name(S),
                    static_cast<uint32_t>(Extent + Rand.below(4))};
    if (!M.memory().update(*A, C.valAddr(Overrun)))
      return std::nullopt;
    return Done(*A, "past-extent address planted");
  }

  case StateMutationKind::CellShapeSwap: {
    // Int cell ↦ pair keeps Ψ(a)=int against a pair; anything else ↦ int
    // only when Ψ(a) is not int (recordPut gives int cells type int, so a
    // non-int value never sits at type int in a well-formed pre-state).
    if (Victims.empty())
      return std::nullopt;
    size_t Start = Rand.below(Victims.size());
    for (size_t I = 0; I != Victims.size(); ++I) {
      Address A = Victims[(Start + I) % Victims.size()];
      const Value *V = M.memory().get(A);
      const Value *Repl = nullptr;
      if (V->is(ValueKind::Int))
        Repl = C.valPair(C.valInt(1), C.valInt(2));
      else if (M.psi().lookup(A) != C.typeInt())
        Repl = C.valInt(0);
      if (Repl && M.memory().update(A, Repl))
        return Done(A, "cell shape swapped");
    }
    return std::nullopt;
  }

  case StateMutationKind::PsiRetype: {
    std::optional<Address> A = Pick();
    if (!A)
      return std::nullopt;
    const Value *V = M.memory().get(*A);
    const Type *IntT = C.typeInt();
    M.psi().set(*A, V->is(ValueKind::Int) ? C.typeProd(IntT, IntT) : IntT);
    return Done(*A, "Psi cell type swapped");
  }

  case StateMutationKind::PsiPhantomCell: {
    std::vector<Symbol> Rs = dataRegions(M);
    if (Rs.empty())
      return std::nullopt;
    Symbol S = Rs[Rand.below(Rs.size())];
    uint64_t Extent = M.memory().region(S)->Cells.size();
    if (Extent + 4 >= std::numeric_limits<uint32_t>::max())
      return std::nullopt;
    Address Phantom{Region::name(S),
                    static_cast<uint32_t>(Extent + Rand.below(3))};
    M.psi().set(Phantom, C.typeInt());
    return Done(Phantom, "phantom Psi entry planted");
  }

  case StateMutationKind::ForwardBitFlip: {
    // A tagged (inl) or forwarding (inr) cell becomes a forwarding pointer
    // to nowhere — the sum header says "moved", the payload dangles.
    if (Victims.empty())
      return std::nullopt;
    size_t Start = Rand.below(Victims.size());
    for (size_t I = 0; I != Victims.size(); ++I) {
      Address A = Victims[(Start + I) % Victims.size()];
      const Value *V = M.memory().get(A);
      if (!V->is(ValueKind::Inl) && !V->is(ValueKind::Inr))
        continue;
      if (M.memory().update(A, C.valInr(poison(C))))
        return Done(A, "forwarding bit corrupted");
    }
    return std::nullopt;
  }

  case StateMutationKind::StaleRegionRef: {
    std::optional<Address> A = Pick();
    if (!A)
      return std::nullopt;
    // Create a region through the machine (journaled), point the victim at
    // a cell in it, then drop the region behind the machine's back —
    // exactly what a buggy `only` would leave. invalidatePutTypeCache
    // journals the external surgery, as the incremental contract demands.
    Region Tmp = M.createRegion("fuzzstale", 0);
    const Value *Cell = M.allocate(Tmp, C.valInt(7));
    if (!Cell || !M.memory().update(*A, C.valAddr(Cell->address())))
      return std::nullopt;
    RegionSet Keep;
    for (const auto &[S, _] : M.memory().Regions)
      if (S != Tmp.sym())
        Keep.insert(Region::name(S));
    M.memory().restrictTo(Keep);
    M.psi().removeRegion(Tmp.sym());
    M.invalidatePutTypeCache();
    return Done(*A, "stale dropped-region reference planted");
  }

  case StateMutationKind::PackPayloadClobber: {
    if (Victims.empty())
      return std::nullopt;
    size_t Start = Rand.below(Victims.size());
    for (size_t I = 0; I != Victims.size(); ++I) {
      Address A = Victims[(Start + I) % Victims.size()];
      const Value *Repl =
          clobberPackPayload(C, M.memory().get(A), poison(C));
      if (Repl && M.memory().update(A, Repl))
        return Done(A, "pack payload clobbered");
    }
    return std::nullopt;
  }

  case StateMutationKind::CdCodeClobber: {
    Symbol Cd = C.cd().sym();
    const RegionData *RD = M.memory().region(Cd);
    if (!RD)
      return std::nullopt;
    std::vector<Address> Code;
    for (uint32_t Off = 0; Off != RD->Cells.size(); ++Off)
      if (RD->Cells[Off])
        Code.push_back(Address{C.cd(), Off});
    if (Code.empty())
      return std::nullopt;
    Address A = Code[Rand.below(Code.size())];
    if (!M.memory().update(A, C.valInt(5)))
      return std::nullopt;
    return Done(A, "code cell overwritten with int");
  }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// S-expression text mutation
//===----------------------------------------------------------------------===//

namespace {

constexpr char Alphabet[] = "()()((-0123456789abcdefxyz *+<=.\t\n;";
constexpr size_t AlphabetLen = sizeof(Alphabet) - 1;

/// Hostile replacement atoms: the literals and near-literals that have
/// historically crashed parsers, plus structure-confusing keywords.
const char *const HostileAtoms[] = {
    "-x",
    "-",
    "0",
    "-0",
    "99999999999999999999",
    "-99999999999999999999",
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "12abc",
    "lam",
    "let",
    "put",
    "halt",
    "Int",
    "fn",
};

} // namespace

std::string scav::harness::mutateBytes(std::string Text, Rng &Rand,
                                       unsigned Rounds) {
  for (unsigned I = 0; I != Rounds; ++I) {
    if (Text.empty()) {
      Text.push_back(Alphabet[Rand.below(AlphabetLen)]);
      continue;
    }
    switch (Rand.below(6)) {
    case 0: // overwrite
      Text[Rand.below(Text.size())] = Alphabet[Rand.below(AlphabetLen)];
      break;
    case 1: // insert
      Text.insert(Text.begin() +
                      static_cast<ptrdiff_t>(Rand.below(Text.size() + 1)),
                  Alphabet[Rand.below(AlphabetLen)]);
      break;
    case 2: // delete
      Text.erase(Text.begin() +
                 static_cast<ptrdiff_t>(Rand.below(Text.size())));
      break;
    case 3: // truncate
      Text.resize(Rand.below(Text.size() + 1));
      break;
    case 4: { // duplicate a chunk in place
      size_t P = Rand.below(Text.size());
      size_t L = 1 + Rand.below(std::min<size_t>(16, Text.size() - P));
      Text.insert(P, Text.substr(P, L));
      break;
    }
    case 5: { // swap two bytes
      size_t A = Rand.below(Text.size()), B = Rand.below(Text.size());
      std::swap(Text[A], Text[B]);
      break;
    }
    }
  }
  return Text;
}

std::string scav::harness::mutateNodes(const std::string &Text, Rng &Rand,
                                       unsigned Rounds) {
  size_t Pos = 0;
  std::optional<SNode> Root = readSNode(Text, Pos);
  if (!Root)
    return mutateBytes(Text, Rand, Rounds);

  for (unsigned I = 0; I != Rounds; ++I) {
    // Node pointers go stale across structural edits: re-collect per round.
    std::vector<SNode *> Lists;
    collectSLists(*Root, Lists);
    std::vector<SNode *> All;
    collectSNodes(*Root, All);

    switch (Rand.below(6)) {
    case 0: { // drop a child
      if (Lists.empty())
        break;
      SNode *L = Lists[Rand.below(Lists.size())];
      L->Kids.erase(L->Kids.begin() +
                    static_cast<ptrdiff_t>(Rand.below(L->Kids.size())));
      break;
    }
    case 1: { // duplicate a child
      if (Lists.empty())
        break;
      SNode *L = Lists[Rand.below(Lists.size())];
      size_t At = Rand.below(L->Kids.size());
      SNode Copy = L->Kids[At];
      L->Kids.insert(L->Kids.begin() + static_cast<ptrdiff_t>(At),
                     std::move(Copy));
      break;
    }
    case 2: { // swap two children
      if (Lists.empty())
        break;
      SNode *L = Lists[Rand.below(Lists.size())];
      size_t A = Rand.below(L->Kids.size()), B = Rand.below(L->Kids.size());
      std::swap(L->Kids[A], L->Kids[B]);
      break;
    }
    case 3: { // replace an atom with a hostile one
      std::vector<SNode *> Atoms;
      for (SNode *N : All)
        if (N->IsAtom)
          Atoms.push_back(N);
      if (Atoms.empty())
        break;
      Atoms[Rand.below(Atoms.size())]->Atom =
          HostileAtoms[Rand.below(std::size(HostileAtoms))];
      break;
    }
    case 4: { // wrap a node in a fresh list
      SNode *N = All[Rand.below(All.size())];
      SNode Wrapped = std::move(*N);
      N->IsAtom = false;
      N->Atom.clear();
      N->Kids.clear();
      SNode Head;
      Head.IsAtom = true;
      Head.Atom = HostileAtoms[Rand.below(std::size(HostileAtoms))];
      N->Kids.push_back(std::move(Head));
      N->Kids.push_back(std::move(Wrapped));
      break;
    }
    case 5: { // hoist: replace a list by one of its children
      if (Lists.empty())
        break;
      SNode *L = Lists[Rand.below(Lists.size())];
      SNode Kid = std::move(L->Kids[Rand.below(L->Kids.size())]);
      *L = std::move(Kid);
      break;
    }
    }
  }

  std::string Out;
  printSNode(*Root, Out);
  return Out;
}
