//===- gc/StateCheck.cpp - Machine-state well-formedness ------------------===//

#include "gc/StateCheck.h"

#include <algorithm>
#include <vector>

using namespace scav;
using namespace scav::gc;

//===----------------------------------------------------------------------===//
// Address collection / reachability
//===----------------------------------------------------------------------===//

namespace {

/// Address collector with a visited-pointer set: the interning machinery and
/// the sharing-preserving collectors alias subvalues heavily, so a naive
/// recursive walk re-traverses the same DAG node once per parent. One
/// collector instance may be reused across many roots (reachableCells does),
/// in which case the visited set persists and shared structure is walked
/// exactly once for the whole traversal.
class AddressCollector {
public:
  /// \p NewlySeen, when set, receives every address whose insertion into
  /// \p Out was fresh — the worklist hook for reachableCells.
  explicit AddressCollector(AddressSet &Out,
                           std::vector<Address> *NewlySeen = nullptr)
      : Out(Out), NewlySeen(NewlySeen) {}

  void visit(const Value *V) {
    if (seen(V))
      return;
    switch (V->kind()) {
    case ValueKind::Int:
    case ValueKind::Var:
      return;
    case ValueKind::Addr:
      address(V->address());
      return;
    case ValueKind::Pair:
      visit(V->first());
      visit(V->second());
      return;
    case ValueKind::Inl:
    case ValueKind::Inr:
    case ValueKind::TransApp:
    case ValueKind::PackTag:
    case ValueKind::PackTyVar:
    case ValueKind::PackRegion:
      visit(V->payload());
      return;
    case ValueKind::Code:
      visit(V->codeBody());
      return;
    }
  }

  void visit(const Term *E) {
    if (seen(E))
      return;
    switch (E->kind()) {
    case TermKind::App:
      visit(E->appFun());
      for (const Value *V : E->appArgs())
        visit(V);
      return;
    case TermKind::Let: {
      const Op *O = E->letOp();
      if (O->is(OpKind::Prim)) {
        visit(O->lhs());
        visit(O->rhs());
      } else {
        visit(O->value());
      }
      visit(E->sub1());
      return;
    }
    case TermKind::Halt:
      visit(E->scrutinee());
      return;
    case TermKind::IfGc:
    case TermKind::IfReg:
      visit(E->sub1());
      visit(E->sub2());
      return;
    case TermKind::OpenTag:
    case TermKind::OpenTyVar:
    case TermKind::OpenRegion:
    case TermKind::LetWiden:
      visit(E->scrutinee());
      visit(E->sub1());
      return;
    case TermKind::LetRegion:
    case TermKind::Only:
      visit(E->sub1());
      return;
    case TermKind::Typecase:
      visit(E->caseInt());
      visit(E->caseArrow());
      visit(E->caseProd());
      visit(E->caseExists());
      return;
    case TermKind::IfLeft:
    case TermKind::If0:
      visit(E->scrutinee());
      visit(E->sub1());
      visit(E->sub2());
      return;
    case TermKind::Set:
      visit(E->scrutinee());
      visit(E->setSource());
      visit(E->sub1());
      return;
    }
  }

private:
  bool seen(const void *P) { return !Visited.insert(P).second; }

  void address(Address A) {
    if (Out.insert(A).second && NewlySeen)
      NewlySeen->push_back(A);
  }

  AddressSet &Out;
  std::vector<Address> *NewlySeen;
  std::unordered_set<const void *> Visited;
};

/// Deterministic iteration order for error selection: by (region symbol id,
/// offset). Machine-minted symbol ids are a pure function of the program
/// (checker mints live in their own fresh namespace and never name
/// regions), so this order — and therefore which of several violations is
/// reported — is identical across sync and async runs of the same program.
bool addrLess(Address A, Address B) {
  if (A.R.sym() != B.R.sym())
    return A.R.sym().id() < B.R.sym().id();
  return A.Offset < B.Offset;
}

template <typename MapT>
std::vector<Symbol> sortedRegionSyms(const MapT &Regions) {
  std::vector<Symbol> Syms;
  Syms.reserve(Regions.size());
  for (const auto &KV : Regions)
    Syms.push_back(KV.first);
  std::sort(Syms.begin(), Syms.end(),
            [](Symbol A, Symbol B) { return A.id() < B.id(); });
  return Syms;
}

} // namespace

void scav::gc::collectAddresses(const Value *V, AddressSet &Out) {
  AddressCollector Coll(Out);
  Coll.visit(V);
}

void scav::gc::collectAddresses(const Term *E, AddressSet &Out) {
  AddressCollector Coll(Out);
  Coll.visit(E);
}

void scav::gc::reachableCells(const Term *E, const Memory &Mem,
                              AddressSet &Out, std::vector<Address> &Work) {
  Out.clear();
  Work.clear();
  // One collector for the whole traversal: its visited set spans every cell
  // visited below, so a value shared between N cells is walked once, not N
  // times.
  AddressCollector Coll(Out, &Work);
  if (E)
    Coll.visit(E);
  while (!Work.empty()) {
    Address A = Work.back();
    Work.pop_back();
    if (const Value *Cell = Mem.get(A))
      Coll.visit(Cell);
  }
}

void scav::gc::reachableCells(const Machine &M, AddressSet &Out,
                              std::vector<Address> &Work) {
  reachableCells(M.currentTerm(), M.memory(), Out, Work);
}

AddressSet scav::gc::reachableCells(const Machine &M) {
  AddressSet Seen;
  std::vector<Address> Work;
  reachableCells(M, Seen, Work);
  return Seen;
}

//===----------------------------------------------------------------------===//
// ⊢ (M, e)
//===----------------------------------------------------------------------===//

StateCheckResult scav::gc::checkState(Machine &Mach,
                                      const StateCheckOptions &Opts) {
  MachineSubject S(Mach);
  return checkState(S, Opts);
}

StateCheckResult scav::gc::checkState(CheckSubject &M,
                                      const StateCheckOptions &Opts) {
  TRACE_SCOPE("checker", "check.full");
  GcContext &C = M.context();
  Symbol CdS = C.cd().sym();

  // Cells written as raw words (collector/VM fast paths) must be decoded
  // before the Scope below — decoded Values are cached in Cells and must
  // not live in allocations the scope will roll back.
  M.memory().decodeAll();

  // Checking allocates heavily (normalization, substitution); none of it
  // survives the call, so scope it with a context checkpoint — otherwise a
  // per-step checking run leaks the whole transcript of its own work. This
  // must be GcContext::Scope, not a raw arena checkpoint: the uniquing
  // tables and normalization memos would otherwise keep dangling pointers
  // to the released nodes.
  GcContext::Scope Scope(C);
  // The oracle's fresh mints live in their own "o" namespace (counter
  // persisted on the context): checking never perturbs the machine's (or
  // the incremental engine's) fresh-name numbering, so running extra
  // oracle checks cannot change any later diagnostic's spelling.
  GcContext::FreshScope Fresh(C, "o", C.oracleFreshCtr());

  if (!M.typeTrackingOk())
    return StateCheckResult::failure("Psi maintenance failed: " +
                                     M.typeTrackingError());

  DiagEngine Diags;
  TypeChecker Checker(C, M.level(), Diags);

  CheckEnv Env;
  Env.Psi.M = &M.psi();
  Env.Psi.Cd = CdS;
  Env.Delta = M.psi().domain();

  AddressSet Reachable;
  if (Opts.RestrictToReachable) {
    std::vector<Address> Work;
    reachableCells(M.currentTerm(), M.memory(), Reachable, Work);
  }

  // Dom(M) = Dom(Ψ) region-wise. Region iteration is by symbol id so the
  // *first* violation reported is deterministic (see IncrementalStateCheck
  // doc).
  std::vector<Symbol> MemSyms = sortedRegionSyms(M.memory().Regions);
  for (Symbol S : MemSyms)
    if (!M.psi().hasRegion(S))
      return StateCheckResult::failure(
          "memory region missing from Psi: " + std::string(C.name(S)));
  for (Symbol S : sortedRegionSyms(M.psi().Regions)) {
    const RegionData *MD = M.memory().region(S);
    if (!MD)
      return StateCheckResult::failure(
          "Psi region missing from memory: " + std::string(C.name(S)));
    // Ψ entries exist only at offsets memory has (recordPut / defineCode
    // write at established cells, and MemoryType::set resizes exactly to
    // the written offset). A Ψ entry past the region's extent types a cell
    // that does not exist — fuzzer-found: the region-wise domain check
    // above cannot see it, and the per-cell loop below iterates memory.
    const RegionType &PT = *M.psi().region(S);
    const RegionData &RD = *MD;
    if (PT.Cells.size() > RD.Cells.size())
      return StateCheckResult::failure(
          "Psi types a cell memory does not have: " + std::string(C.name(S)) +
          "." + std::to_string(RD.Cells.size()));
  }

  // ⊢ M : Ψ (cell by cell), with Fig 7's cd discipline — the per-cell body
  // is TypeChecker::checkHeapCell, shared with the incremental checker so
  // the two produce identical verdicts and error text.
  std::string CellErr;
  for (Symbol S : MemSyms) {
    const RegionData &R = *M.memory().region(S);
    bool IsCd = S == CdS;
    for (uint32_t Off = 0; Off != R.Cells.size(); ++Off) {
      const Value *V = R.Cells[Off];
      if (!V)
        continue; // reserved-but-undefined code slot
      Address A{Region::name(S), Off};
      if (Opts.RestrictToReachable && !IsCd && !Reachable.count(A))
        continue; // Def 7.1: drop unreachable (possibly ill-typed) garbage.
      if (!Checker.checkHeapCell(A, V, M.psi().lookup(A), IsCd,
                                 Opts.CheckCodeRegion, Env,
                                 /*Cache=*/nullptr, &CellErr))
        return StateCheckResult::failure(std::move(CellErr));
    }
  }

  // Ψ; Dom(Ψ); ·; ·; · ⊢ e.
  if (const Term *E = M.currentTerm()) {
    Checker.setSkipCodeBodies(true);
    if (!Checker.checkTerm(E, Env))
      return StateCheckResult::failure("term ill-typed:\n" + Diags.str());
  }

  return StateCheckResult{};
}

//===----------------------------------------------------------------------===//
// IncrementalStateCheck
//===----------------------------------------------------------------------===//

namespace {

/// Collects every *region name* a cell judgment depends on: regions of
/// addresses embedded in the value (their typing reads Ψ), region mentions
/// in types (the cell type and the annotation types embedded in pack
/// values). Conservative over-collection is harmless (a spurious dependent
/// just re-validates); a miss would be a soundness bug, so every
/// region-carrying constructor is walked. Code values/types are closed
/// global entities (cd discipline) and are skipped, mirroring the machine's
/// own region-renaming iterator.
class RegionDepCollector {
public:
  explicit RegionDepCollector(std::unordered_set<Symbol, SymbolHash> &Out)
      : Out(Out) {}

  void region(Region R) {
    if (R.isName())
      Out.insert(R.sym());
  }
  void regions(const RegionSet &RS) {
    for (Region R : RS)
      region(R);
  }

  void visit(const Type *T) {
    if (!T || seen(T))
      return;
    switch (T->kind()) {
    case TypeKind::Int:
    case TypeKind::TyVar:
    case TypeKind::Code: // closed (see Machine::renameRegionName)
      return;
    case TypeKind::Prod:
    case TypeKind::Sum:
      visit(T->left());
      visit(T->right());
      return;
    case TypeKind::Left:
    case TypeKind::Right:
      visit(T->body());
      return;
    case TypeKind::At:
      region(T->atRegion());
      visit(T->body());
      return;
    case TypeKind::MApp:
      for (Region R : T->mRegions())
        region(R);
      return;
    case TypeKind::CApp:
      region(T->cFrom());
      region(T->cTo());
      return;
    case TypeKind::ExistsTag:
      visit(T->body());
      return;
    case TypeKind::ExistsTyVar:
    case TypeKind::ExistsRegion:
      regions(T->delta());
      visit(T->body());
      return;
    case TypeKind::TransCode:
      for (Region R : T->transRegions())
        region(R);
      region(T->atRegion());
      for (const Type *A : T->argTypes())
        visit(A);
      return;
    }
  }

  void visit(const Value *V) {
    if (!V || seen(V))
      return;
    switch (V->kind()) {
    case ValueKind::Int:
    case ValueKind::Var:
    case ValueKind::Code: // cd-resident, closed
      return;
    case ValueKind::Addr:
      region(V->address().R);
      return;
    case ValueKind::Pair:
      visit(V->first());
      visit(V->second());
      return;
    case ValueKind::Inl:
    case ValueKind::Inr:
      visit(V->payload());
      return;
    case ValueKind::TransApp:
      for (Region R : V->transRegions())
        region(R);
      visit(V->payload());
      return;
    case ValueKind::PackTag:
      visit(V->payload());
      visit(V->bodyType());
      return;
    case ValueKind::PackTyVar:
      regions(V->delta());
      visit(V->typeWitness());
      visit(V->payload());
      visit(V->bodyType());
      return;
    case ValueKind::PackRegion:
      regions(V->delta());
      region(V->regionWitness());
      visit(V->payload());
      visit(V->bodyType());
      return;
    }
  }

private:
  bool seen(const void *P) { return !Visited.insert(P).second; }

  std::unordered_set<Symbol, SymbolHash> &Out;
  std::unordered_set<const void *> Visited;
};

} // namespace

IncrementalStateCheck::IncrementalStateCheck(Machine &Mach,
                                             IncrementalCheckOptions Opts)
    : OwnedSubject(std::make_unique<MachineSubject>(Mach)), M(*OwnedSubject),
      Opts(Opts), CdS(M.context().cd().sym()),
      Checker(M.context(), M.level(), Diags) {}

IncrementalStateCheck::IncrementalStateCheck(CheckSubject &S,
                                             IncrementalCheckOptions Opts)
    : M(S), Opts(Opts), CdS(M.context().cd().sym()),
      Checker(M.context(), M.level(), Diags) {}

StateCheckResult IncrementalStateCheck::check() {
  TRACE_SCOPE("checker", "check.incremental");
  ++Stats.Checks;
  if (!M.typeTrackingOk())
    return StateCheckResult::failure("Psi maintenance failed: " +
                                     M.typeTrackingError());
  // Surface word-written cells as Values before opening the scope below
  // (decodes cache into Cells and must survive rollback).
  M.memory().decodeAll();
  // Everything the check allocates (normalization, term forcing,
  // diagnostics) is transient; the caches hold only pointers to
  // machine-owned nodes, so the whole check runs under a context scope —
  // same discipline as the full checkState.
  GcContext::Scope Scope(M.context());
  // Engine mints live in the "c" fresh namespace, numbered continuously
  // across checks: they can neither collide with nor renumber the
  // machine's own `Base$<n>` mints, which keeps every diagnostic's
  // spelling a pure function of the subject state.
  GcContext::FreshScope Fresh(M.context(), "c", EngineFreshCtr);
  StateCheckResult R = runCheck();
  Stats.CachedFacts = Facts.size();
  Stats.CellJudgmentCacheHits = JudgmentMemo.Hits;
  return R;
}

StateCheckResult IncrementalStateCheck::runCheck() {
  Env.Psi.M = &M.psi();
  Env.Psi.Cd = CdS;
  Env.Delta = M.psi().domain();
  ExactThisCheck = false;

  if (!Attached) {
    M.enableDeltaJournal();
    Attached = true;
    JournalCursor = M.journalEnd();
    CheckCodeNow = Opts.CheckCodeRegion;
    return resync();
  }
  if (NeedResync ||
      (Opts.ResyncEvery != 0 && Stats.Checks % Opts.ResyncEvery == 0)) {
    CheckCodeNow = false; // matches the per-step oracle's settings
    return resync();
  }

  DirtySet.clear();
  if (StateCheckResult R = drainJournal(); !R.Ok)
    return R;
  if (NeedResync) { // out-of-band mutation: the journal cannot say what
    CheckCodeNow = false;
    return resync();
  }
  collectDirty();
  if (StateCheckResult R = checkRegionDomains(); !R.Ok)
    return R;
  CheckCodeNow = Opts.CheckCodeRegion; // freshly defined code
  if (StateCheckResult R = validateDirty(); !R.Ok)
    return R;

  // A cell that failed while unreachable is tolerated garbage (Def 7.1) —
  // but if the conservative reachable set has since grown over it, decide
  // exactly, as the full checker would.
  if (Opts.RestrictToReachable && ReachGrew && !KnownBad.empty()) {
    bool Hit = false;
    for (Address B : KnownBad)
      if (ReachPlus.count(B)) {
        Hit = true;
        break;
      }
    if (Hit) {
      if (!ExactThisCheck)
        recomputeExactReachable();
      // Dedicated snapshot: validateCell's success path reuses WorkScratch
      // as the addToReachable worklist, which would invalidate a range-for
      // over it. Sorted for deterministic failure selection.
      std::vector<Address> Recheck(KnownBad.begin(), KnownBad.end());
      std::sort(Recheck.begin(), Recheck.end(), addrLess);
      for (Address B : Recheck) {
        if (!ReachPlus.count(B))
          continue;
        KnownBad.erase(B);
        std::string Err;
        if (!validateCell(B, Err))
          return StateCheckResult::failure(std::move(Err));
      }
    }
  }
  ReachGrew = false;

  return checkTermJudgment();
}

StateCheckResult IncrementalStateCheck::resync() {
  TRACE_INSTANT("checker", "check.resync");
  ++Stats.FullResyncs;
  NeedResync = false;
  Facts.clear();
  Dependents.clear();
  JudgmentMemo.clear();
  KnownBad.clear();
  ReachGrew = false;

  if (Opts.RestrictToReachable)
    recomputeExactReachable();
  else
    ReachPlus.clear();

  if (StateCheckResult R = checkRegionDomains(); !R.Ok)
    return R;

  for (Symbol S : sortedRegionSyms(M.memory().Regions)) {
    const RegionData &RD = *M.memory().region(S);
    Region RName = Region::name(S);
    for (uint32_t Off = 0; Off != RD.Cells.size(); ++Off) {
      if (!RD.Cells[Off])
        continue;
      std::string Err;
      if (!validateCell(Address{RName, Off}, Err))
        return StateCheckResult::failure(std::move(Err));
    }
  }

  syncCursors();
  JournalCursor = M.journalEnd();
  M.trimJournal(JournalCursor);
  return checkTermJudgment();
}

StateCheckResult IncrementalStateCheck::drainJournal() {
  uint64_t End = M.journalEnd();
  for (; JournalCursor != End && !NeedResync; ++JournalCursor) {
    const DeltaEvent &Ev = M.journalEvent(JournalCursor);
    ++Stats.JournalEventsConsumed;
    switch (Ev.Kind) {
    case DeltaKind::RegionCreated:
      // Monotone: nothing cached is affected; a zeroed cursor makes
      // collectDirty pick up every cell the region accrues.
      Cursors.try_emplace(Ev.R);
      break;
    case DeltaKind::RegionDropped:
      TRACE_INSTANT("checker", "invalidate.drop");
      invalidateRegion(Ev.R, /*Dropped=*/true);
      break;
    case DeltaKind::RegionWidened:
      TRACE_INSTANT("checker", "invalidate.widen");
      invalidateRegion(Ev.R, /*Dropped=*/false);
      break;
    case DeltaKind::ExternalMutation:
      TRACE_INSTANT("checker", "invalidate.external");
      NeedResync = true; // consume the rest via resync
      break;
    }
  }
  if (NeedResync)
    JournalCursor = End;
  M.trimJournal(JournalCursor);
  return StateCheckResult{};
}

void IncrementalStateCheck::invalidateRegion(Symbol S, bool Dropped) {
  ++Stats.RegionInvalidations;
  // The (value, type) memo can hide a judgment that consulted S through an
  // embedded address; region events are rare (once per collection), so a
  // coarse clear is the honest price of keyed-by-pointer memoization.
  JudgmentMemo.clear();

  // Facts about S's own cells.
  for (auto It = Facts.begin(); It != Facts.end();) {
    if (It->first.R.sym() == S)
      It = Facts.erase(It);
    else
      ++It;
  }
  if (Dropped) {
    Cursors.erase(S);
    for (auto It = KnownBad.begin(); It != KnownBad.end();) {
      if (It->R.sym() == S)
        It = KnownBad.erase(It);
      else
        ++It;
    }
    for (auto It = ReachPlus.begin(); It != ReachPlus.end();) {
      if (It->R.sym() == S)
        It = ReachPlus.erase(It);
      else
        ++It;
    }
  } else {
    // Widened in place: every surviving cell of S must re-validate against
    // its rewritten Ψ type (and annotation-rewritten value).
    if (const RegionData *RD = M.memory().region(S)) {
      Region RName = Region::name(S);
      for (uint32_t Off = 0; Off != RD->Cells.size(); ++Off)
        if (RD->Cells[Off])
          DirtySet.insert(Address{RName, Off});
    }
  }

  // Judgments elsewhere that consulted S (dropped: they must now fail if
  // reachable, exactly as the full checker fails them; widened: their
  // addresses' Ψ entries changed view).
  auto DIt = Dependents.find(S);
  if (DIt != Dependents.end()) {
    for (Address A : DIt->second) {
      if (A.R.sym() == S)
        continue; // own-region facts already handled above
      if (Facts.erase(A) != 0) {
        DirtySet.insert(A);
        ++Stats.DependentInvalidations;
      }
    }
    Dependents.erase(DIt);
  }
}

void IncrementalStateCheck::collectDirty() {
  for (auto &[S, RD] : M.memory().Regions) {
    RegionCursor &Cur = Cursors[S]; // zero-init for untracked regions
    RegionType *PT = nullptr;
    auto PIt = M.psi().Regions.find(S);
    if (PIt != M.psi().Regions.end())
      PT = &PIt->second;
    uint64_t PsiV = PT ? PT->Version : 0;
    if (Cur.MemVersion == RD.Version && Cur.PsiVersion == PsiV &&
        Cur.MemCells == RD.Cells.size())
      continue; // untouched region: O(1) skip
    Region RName = Region::name(S);
    // Fresh cells (put / reserveCode growth).
    for (size_t Off = Cur.MemCells; Off < RD.Cells.size(); ++Off) {
      Address A{RName, static_cast<uint32_t>(Off)};
      DirtySet.insert(A);
      // A put-bound address flows straight into the term: conservatively
      // reachable from birth.
      if (Opts.RestrictToReachable && S != CdS && ReachPlus.insert(A).second)
        ReachGrew = true;
    }
    // In-place overwrites (set / fill / defineCode). An overflowed log has
    // forgotten which offsets were written (Memory.h, DirtyLogCap), so the
    // honest fallback is to treat every established cell as dirty — the
    // cost of one bounded-memory resync of the region.
    if (RD.DirtyOverflow) {
      for (uint32_t Off = 0; Off != RD.Cells.size(); ++Off)
        if (RD.Cells[Off])
          DirtySet.insert(Address{RName, Off});
    } else {
      for (uint32_t Off : RD.DirtyLog)
        DirtySet.insert(Address{RName, Off});
    }
    RD.clearDirty();
    // In-place Ψ overwrites happen under external surgery (the machine
    // appends or rewrites whole regions, which are journaled) or when an
    // out-of-order defineCode fills a reserved null pad in cd: treat the
    // region as suspicious — re-validate the touched cells and poison
    // judgments that depend on this region.
    if (PT && (PT->DirtyOverflow || !PT->DirtyLog.empty())) {
      if (PT->DirtyOverflow) {
        for (uint32_t Off = 0; Off != RD.Cells.size(); ++Off)
          if (RD.Cells[Off])
            DirtySet.insert(Address{RName, Off});
      } else {
        for (uint32_t Off : PT->DirtyLog)
          DirtySet.insert(Address{RName, Off});
      }
      PT->clearDirty();
      invalidateRegion(S, /*Dropped=*/false);
    }
    Cur.MemVersion = RD.Version;
    Cur.MemCells = RD.Cells.size();
    Cur.PsiVersion = PT ? PT->Version : 0;
  }
}

StateCheckResult IncrementalStateCheck::checkRegionDomains() {
  GcContext &C = M.context();
  for (Symbol S : sortedRegionSyms(M.memory().Regions))
    if (!M.psi().hasRegion(S))
      return StateCheckResult::failure("memory region missing from Psi: " +
                                       std::string(C.name(S)));
  for (Symbol S : sortedRegionSyms(M.psi().Regions)) {
    const RegionType &PT = *M.psi().region(S);
    const RegionData *MD = M.memory().region(S);
    if (!MD)
      return StateCheckResult::failure("Psi region missing from memory: " +
                                       std::string(C.name(S)));
    // Mirror of the full checker's extent check (same error text): a Ψ
    // entry past the region's memory extent types a nonexistent cell, and
    // neither per-cell pass would visit it.
    if (PT.Cells.size() > MD->Cells.size())
      return StateCheckResult::failure(
          "Psi types a cell memory does not have: " + std::string(C.name(S)) +
          "." + std::to_string(MD->Cells.size()));
  }
  return StateCheckResult{};
}

StateCheckResult IncrementalStateCheck::validateDirty() {
  // Sorted so which of several bad cells fails the check is deterministic.
  std::vector<Address> Dirty(DirtySet.begin(), DirtySet.end());
  std::sort(Dirty.begin(), Dirty.end(), addrLess);
  for (Address A : Dirty) {
    std::string Err;
    if (!validateCell(A, Err))
      return StateCheckResult::failure(std::move(Err));
  }
  return StateCheckResult{};
}

bool IncrementalStateCheck::validateCell(Address A, std::string &Err) {
  const RegionData *RD = M.memory().region(A.R.sym());
  if (!RD) { // region dropped after this address was dirtied
    Facts.erase(A);
    return true;
  }
  const Value *V =
      A.Offset < RD->Cells.size() ? RD->Cells[A.Offset] : nullptr;
  if (!V) { // reserved-but-undefined code slot
    Facts.erase(A);
    return true;
  }
  const Type *CellTy = M.psi().lookup(A);
  bool IsCd = A.R.sym() == CdS;

  auto It = Facts.find(A);
  if (It != Facts.end() && It->second.V == V && It->second.T == CellTy)
    return true; // dirtied but unchanged (e.g. idempotent fill)

  ++Stats.CellsValidated;
  std::string CellErr;
  bool Ok = Checker.checkHeapCell(A, V, CellTy, IsCd, CheckCodeNow, Env,
                                  IsCd ? nullptr : &JudgmentMemo, &CellErr);
  if (Ok) {
    Facts[A] = CellFact{V, CellTy};
    KnownBad.erase(A);
    if (!IsCd) {
      recordDeps(A, V, CellTy);
      if (Opts.RestrictToReachable)
        addToReachable(A, V);
    }
    return true;
  }

  Facts.erase(A);
  if (!Opts.RestrictToReachable || IsCd) {
    Err = std::move(CellErr);
    return false;
  }
  // Def 7.1: an unreachable ill-typed cell is tolerated garbage. The
  // conservative set only ever *skips* (definitely-unreachable) failures;
  // a failure inside it is decided by exact reachability.
  if (!ReachPlus.count(A)) {
    KnownBad.insert(A);
    return true;
  }
  if (!ExactThisCheck)
    recomputeExactReachable();
  if (ReachPlus.count(A)) {
    Err = std::move(CellErr);
    return false;
  }
  KnownBad.insert(A);
  return true;
}

void IncrementalStateCheck::recordDeps(Address A, const Value *V,
                                       const Type *T) {
  std::unordered_set<Symbol, SymbolHash> Regs;
  RegionDepCollector Coll(Regs);
  Coll.visit(V);
  Coll.visit(T);
  for (Symbol S : Regs) {
    if (S == CdS || S == A.R.sym())
      continue; // cd is immortal; own-region facts are invalidated directly
    Dependents[S].push_back(A);
  }
}

void IncrementalStateCheck::addToReachable(Address A, const Value *V) {
  // Contents become reachable only through a (conservatively) reachable
  // cell; unreachable garbage must not grow the set, or the Def 7.1 skip
  // would erode into checking everything.
  if (!ReachPlus.count(A))
    return;
  WorkScratch.clear();
  size_t Before = ReachPlus.size();
  AddressCollector Coll(ReachPlus, &WorkScratch);
  Coll.visit(V);
  while (!WorkScratch.empty()) {
    Address Next = WorkScratch.back();
    WorkScratch.pop_back();
    if (const Value *Cell = M.memory().get(Next))
      Coll.visit(Cell);
  }
  if (ReachPlus.size() != Before)
    ReachGrew = true;
}

void IncrementalStateCheck::recomputeExactReachable() {
  ++Stats.ReachExactRecomputes;
  reachableCells(M.currentTerm(), M.memory(), ReachScratch, WorkScratch);
  ReachPlus.swap(ReachScratch);
  ExactThisCheck = true;
}

void IncrementalStateCheck::syncCursors() {
  Cursors.clear();
  for (auto &[S, RD] : M.memory().Regions) {
    RegionCursor Cur;
    Cur.MemVersion = RD.Version;
    Cur.MemCells = RD.Cells.size();
    RD.clearDirty();
    auto It = M.psi().Regions.find(S);
    if (It != M.psi().Regions.end()) {
      Cur.PsiVersion = It->second.Version;
      It->second.clearDirty();
    }
    Cursors.emplace(S, Cur);
  }
}

StateCheckResult IncrementalStateCheck::checkTermJudgment() {
  // The redex moves every step and the environment machine's force
  // boundary rebuilds the closed term anyway, so the term judgment is
  // re-run in full — measured at tens of microseconds against the
  // multi-millisecond per-cell loop this class exists to kill.
  if (const Term *E = M.currentTerm()) {
    Checker.setSkipCodeBodies(true);
    Diags.clear();
    if (!Checker.checkTerm(E, Env))
      return StateCheckResult::failure("term ill-typed:\n" + Diags.str());
  }
  return StateCheckResult{};
}
