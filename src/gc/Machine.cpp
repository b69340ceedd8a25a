//===- gc/Machine.cpp - Small-step allocation semantics -------------------===//
///
/// \file
/// Implements Fig 5 (λGC), the §7 rules (ifleft/strip/set/widen — with the
/// paper's `ifleft (inr v) ⇒ el` typo corrected to `er`), and the §8 rules
/// (region-existential open, ifreg). See Machine.h for the Ψ-maintenance
/// contract.
///
//===----------------------------------------------------------------------===//

#include "gc/Machine.h"

#include "support/WrapArith.h"

using namespace scav;
using namespace scav::gc;

Address Machine::reserveCode(std::string_view Label) {
  Symbol CdS = C.cd().sym();
  RegionData *R = Mem.region(CdS);
  assert(R && "cd region must exist");
  assert(R->Cells.size() < std::numeric_limits<uint32_t>::max() &&
         "cd offset space exhausted");
  (void)R;
  uint32_t Off = Mem.reserveSlot(CdS); // placeholder until defineCode
  // Remember the label: tracing names collector-phase App events after it,
  // and drivers can resolve it back for diagnostics.
  CdLabels.emplace(Off, std::string(Label));
  return Address{C.cd(), Off};
}

void Machine::defineCode(Address A, const Value *Code) {
  assert(A.R == C.cd() && "code must live in cd");
  assert(Code->is(ValueKind::Code) && "cd region only holds code (§6.2)");
  RegionData *R = Mem.region(C.cd().sym());
  assert(A.Offset < R->Cells.size() && "defineCode on unreserved label");
  // Through Memory::fill, not a raw cell store: the write must land in cd's
  // dirty log so an attached incremental checker re-validates the slot.
  Mem.fill(A, Code);
  ++R->TotalAllocated;
  // Ψ(cd.ℓ) is the code's declared type.
  const Type *Ty = C.typeCode(Code->tagParams(), Code->tagParamKinds(),
                              Code->regionParams(), Code->valParamTypes());
  Psi.set(A, Ty);
}

Address Machine::installCode(std::string_view Label, const Value *Code) {
  Address A = reserveCode(Label);
  defineCode(A, Code);
  return A;
}

Region Machine::createRegion(std::string_view BaseName, uint32_t Capacity) {
  Symbol S = C.fresh(BaseName);
  Mem.addRegion(S, Capacity == 0 ? Config.DefaultRegionCapacity : Capacity);
  Mem.region(S)->Epoch = OnlyEpoch;
  Psi.addRegion(S);
  ++Stats.RegionsCreated;
  journal(DeltaKind::RegionCreated, S);
  if (SCAV_TRACE_ENABLED()) {
    support::TraceSink &Sink = support::TraceSink::get();
    Sink.instant("region", "region.create");
    Sink.counter("regions", static_cast<double>(Mem.numRegions()));
    Sink.counter(traceRegionName(S), 0);
  }
  return Region::name(S);
}

const Value *Machine::allocate(Region R, const Value *V) {
  assert(R.isName() && "allocate into a concrete region");
  std::optional<Address> A = Mem.put(R.sym(), V);
  assert(A && "allocate failed: reclaimed region or offset-space overflow");
  ++Stats.Puts;
  recordPut(*A, V);
  return C.valAddr(*A);
}

void Machine::start(const Term *E) {
  Cur = E;
  EnvS = Subst{};
  St = Status::Running;
  HaltVal = nullptr;
  StuckMsg.clear();
  PauseOpen = false;
  if (Config.Eval == EvalMode::Vm && Backend)
    Backend->onStart(E);
}

const Term *Machine::currentTerm() const {
  if (Config.Eval == EvalMode::Vm && Backend)
    return Backend->currentTerm();
  if (!Cur || Config.Eval != EvalMode::Env || EnvS.empty())
    return Cur;
  // Force boundary: external observers (checkState, the soundness harness,
  // failure diagnostics) must see exactly the paper's substituted (M, e)
  // state. Deliberately not memoized: checkState calls this under a
  // GcContext::Scope, so caching the forced term would leave a dangling
  // pointer once the scope unwinds.
  ++Stats.EnvForces;
  CloseCounters Ctr;
  const Term *T = closeTerm(C, Cur, EnvS, &Ctr);
  // Observer-driven lookups are counted apart from EnvLookups: currentTerm
  // runs once per *observation* (checkState, diagnostics), so folding its
  // lookups into the execution counter made EnvLookups depend on how often
  // the run was watched (the env-counter drift fixed in this PR).
  Stats.EnvForceLookups += Ctr.Lookups;
  return T;
}

const Type *Machine::inferRuntimeType(const Value *V) {
  GcContext::TypeworkTimer Timer(C.stats());
  InferDiags.clear();
  CheckEnv E;
  E.Psi.M = &Psi;
  E.Psi.Cd = C.cd().sym();
  E.Delta = Psi.domain();
  return Checker.inferValue(V, E);
}

bool Machine::appendPutKey(const Value *V, std::vector<uint64_t> &Key) const {
  auto Ptr = [](const void *P) {
    return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(P));
  };
  auto Reg = [](Region R) {
    return (static_cast<uint64_t>(R.sym().id()) << 1) | (R.isName() ? 1 : 0);
  };
  auto Delta = [&](const RegionSet &D) {
    Key.push_back(D.size());
    for (Region R : D)
      Key.push_back(Reg(R));
  };
  Key.push_back(static_cast<uint64_t>(V->kind()));
  switch (V->kind()) {
  case ValueKind::Int:
    return true;
  case ValueKind::Var:
  case ValueKind::Code:
    return false;
  case ValueKind::Addr: {
    const Type *Cell = Psi.lookup(V->address());
    if (!Cell)
      return false;
    Key.push_back(Ptr(Cell));
    Key.push_back(Reg(V->address().R));
    return true;
  }
  case ValueKind::Pair:
    return appendPutKey(V->first(), Key) && appendPutKey(V->second(), Key);
  case ValueKind::Inl:
  case ValueKind::Inr:
    return appendPutKey(V->payload(), Key);
  case ValueKind::PackTag:
    Key.push_back(V->var().id());
    Key.push_back(Ptr(V->tagWitness()));
    Key.push_back(Ptr(V->bodyType()));
    return appendPutKey(V->payload(), Key);
  case ValueKind::PackTyVar:
    Key.push_back(V->var().id());
    Key.push_back(Ptr(V->typeWitness()));
    Key.push_back(Ptr(V->bodyType()));
    Delta(V->delta());
    return appendPutKey(V->payload(), Key);
  case ValueKind::PackRegion:
    Key.push_back(V->var().id());
    Key.push_back(Reg(V->regionWitness()));
    Key.push_back(Ptr(V->bodyType()));
    Delta(V->delta());
    return appendPutKey(V->payload(), Key);
  case ValueKind::TransApp:
    Key.push_back(V->transTags().size());
    for (const Tag *T : V->transTags())
      Key.push_back(Ptr(T));
    Key.push_back(V->transRegions().size());
    for (Region R : V->transRegions())
      Key.push_back(Reg(R));
    return appendPutKey(V->payload(), Key);
  }
  return false;
}

void Machine::recordPut(Address A, const Value *V) {
  if (!Config.TrackTypes)
    return;
  // Key building and lookup are Ψ upkeep too: time them with the inference.
  GcContext::TypeworkTimer Timer(C.stats());
  // Fast path: a value whose shape was already inferred under this Ψ gets
  // that type (inference never looks at the destination cell, and reads Ψ
  // only through the parts the key records; see PutTypeCache).
  bool Keyed = false;
  if (C.interningEnabled()) {
    PutKey.clear();
    Keyed = appendPutKey(V, PutKey);
    if (Keyed) {
      auto It = PutTypeCache.find(PutKey);
      if (It != PutTypeCache.end()) {
        ++Stats.RecordPutCacheHits;
        Psi.set(A, It->second);
        return;
      }
    }
    ++Stats.RecordPutCacheMisses;
  }
  const Type *T = inferRuntimeType(V);
  if (!T) {
    if (TypeTrackingOkFlag) {
      TypeTrackingOkFlag = false;
      TypeTrackingMsg = "put of value that does not infer: " +
                        printValue(C, V) + "\n" + InferDiags.str();
    }
    return;
  }
  Psi.set(A, T);
  if (Keyed)
    PutTypeCache.emplace(PutKey, T);
}

//===----------------------------------------------------------------------===//
// The T iterator (Lemma C.8) on Ψ cell types
//===----------------------------------------------------------------------===//

const Type *Machine::renameRegionName(const Type *T, Symbol From, Symbol To) {
  auto Ren = [&](Region R) {
    return (R.isName() && R.sym() == From) ? Region::name(To) : R;
  };
  switch (T->kind()) {
  case TypeKind::Int:
  case TypeKind::TyVar:
  case TypeKind::Code:
    return T;
  case TypeKind::Prod:
    return C.typeProd(renameRegionName(T->left(), From, To),
                      renameRegionName(T->right(), From, To));
  case TypeKind::Sum:
    return C.typeSum(renameRegionName(T->left(), From, To),
                     renameRegionName(T->right(), From, To));
  case TypeKind::Left:
    return C.typeLeft(renameRegionName(T->body(), From, To));
  case TypeKind::Right:
    return C.typeRight(renameRegionName(T->body(), From, To));
  case TypeKind::At:
    return C.typeAt(renameRegionName(T->body(), From, To), Ren(T->atRegion()));
  case TypeKind::MApp: {
    std::vector<Region> Rs;
    for (Region R : T->mRegions())
      Rs.push_back(Ren(R));
    return C.typeM(std::move(Rs), T->tag());
  }
  case TypeKind::CApp:
    return C.typeC(Ren(T->cFrom()), Ren(T->cTo()), T->tag());
  case TypeKind::ExistsTag:
    return C.typeExistsTag(T->var(), T->binderKind(),
                           renameRegionName(T->body(), From, To));
  case TypeKind::ExistsTyVar: {
    RegionSet D;
    for (Region R : T->delta())
      D.insert(Ren(R));
    return C.typeExistsTyVar(T->var(), std::move(D),
                             renameRegionName(T->body(), From, To));
  }
  case TypeKind::ExistsRegion: {
    RegionSet D;
    for (Region R : T->delta())
      D.insert(Ren(R));
    return C.typeExistsRegion(T->var(), std::move(D),
                              renameRegionName(T->body(), From, To));
  }
  case TypeKind::TransCode: {
    std::vector<Region> Rs;
    for (Region R : T->transRegions())
      Rs.push_back(Ren(R));
    std::vector<const Type *> Args;
    for (const Type *A : T->argTypes())
      Args.push_back(renameRegionName(A, From, To));
    return C.typeTransCode(T->transTags(), std::move(Rs), std::move(Args),
                           Ren(T->atRegion()));
  }
  }
  return T;
}

const Type *Machine::widenPsiType(const Type *T, Symbol FromR, Symbol ToR) {
  Region From = Region::name(FromR);
  switch (T->kind()) {
  case TypeKind::Int:
  case TypeKind::Code:
  case TypeKind::TransCode:
  case TypeKind::TyVar:
  case TypeKind::Sum:   // already collector-view; T is idempotent on it
  case TypeKind::Right:
  case TypeKind::CApp:
    return T;
  case TypeKind::Prod:
    return C.typeProd(widenPsiType(T->left(), FromR, ToR),
                      widenPsiType(T->right(), FromR, ToR));
  case TypeKind::ExistsTag:
    return C.typeExistsTag(T->var(), T->binderKind(),
                           widenPsiType(T->body(), FromR, ToR));
  case TypeKind::ExistsTyVar:
    return C.typeExistsTyVar(T->var(), T->delta(),
                             widenPsiType(T->body(), FromR, ToR));
  case TypeKind::ExistsRegion:
    return C.typeExistsRegion(T->var(), T->delta(),
                              widenPsiType(T->body(), FromR, ToR));
  case TypeKind::MApp:
    // T(M_ν(τ)) = C_{ν,ν'}(τ); M at other regions is untouched.
    if (T->mRegions().size() == 1 && T->mRegions()[0] == From)
      return C.typeC(From, Region::name(ToR), T->tag());
    return T;
  case TypeKind::Left:
    // A bare mutator cell type `left σ` gains the forwarding alternative:
    // left σ  ↦  left T(σ) + right((left σ[ν'/ν]) at ν').
    return C.typeSum(
        C.typeLeft(widenPsiType(T->body(), FromR, ToR)),
        C.typeRight(C.typeAt(
            C.typeLeft(renameRegionName(T->body(), FromR, ToR)),
            Region::name(ToR))));
  case TypeKind::At: {
    if (T->atRegion() == C.cd())
      return T;
    if (T->atRegion() == From && T->body()->is(TypeKind::Left))
      return C.typeAt(widenPsiType(T->body(), FromR, ToR), From);
    return C.typeAt(widenPsiType(T->body(), FromR, ToR), T->atRegion());
  }
  }
  return T;
}

const Value *Machine::widenValueTypes(const Value *V, Symbol FromR,
                                      Symbol ToR) {
  switch (V->kind()) {
  case ValueKind::Int:
  case ValueKind::Var:
  case ValueKind::Addr:
  case ValueKind::Code: // cd cells are never widened
    return V;
  case ValueKind::Pair:
    return C.valPair(widenValueTypes(V->first(), FromR, ToR),
                     widenValueTypes(V->second(), FromR, ToR));
  case ValueKind::Inl:
    return C.valInl(widenValueTypes(V->payload(), FromR, ToR));
  case ValueKind::Inr:
    return C.valInr(widenValueTypes(V->payload(), FromR, ToR));
  case ValueKind::TransApp:
    return C.valTransApp(widenValueTypes(V->payload(), FromR, ToR),
                         V->transTags(), V->transRegions());
  case ValueKind::PackTag:
    return C.valPackTag(V->var(), V->tagWitness(),
                        widenValueTypes(V->payload(), FromR, ToR),
                        widenPsiType(V->bodyType(), FromR, ToR));
  case ValueKind::PackTyVar:
    return C.valPackTyVar(V->var(), V->delta(),
                          widenPsiType(V->typeWitness(), FromR, ToR),
                          widenValueTypes(V->payload(), FromR, ToR),
                          widenPsiType(V->bodyType(), FromR, ToR));
  case ValueKind::PackRegion:
    return C.valPackRegion(V->var(), V->delta(), V->regionWitness(),
                           widenValueTypes(V->payload(), FromR, ToR),
                           widenPsiType(V->bodyType(), FromR, ToR));
  }
  return V;
}

//===----------------------------------------------------------------------===//
// Trace emission (only reached when the global sink is enabled)
//===----------------------------------------------------------------------===//

namespace {
/// Stable per-kind names for mutator-step instants.
const char *stepEventName(TermKind K) {
  switch (K) {
  case TermKind::App:
    return "step.app";
  case TermKind::Let:
    return "step.let";
  case TermKind::Halt:
    return "step.halt";
  case TermKind::IfGc:
    return "step.ifgc";
  case TermKind::OpenTag:
  case TermKind::OpenTyVar:
  case TermKind::OpenRegion:
    return "step.open";
  case TermKind::LetRegion:
    return "step.letregion";
  case TermKind::Only:
    return "step.only";
  case TermKind::Typecase:
    return "step.typecase";
  case TermKind::IfLeft:
    return "step.ifleft";
  case TermKind::Set:
    return "step.set";
  case TermKind::LetWiden:
    return "step.widen";
  case TermKind::IfReg:
    return "step.ifreg";
  case TermKind::If0:
    return "step.if0";
  }
  return "step.unknown";
}
} // namespace

const char *Machine::traceRegionName(Symbol S) {
  auto It = TraceRegionNames.find(S);
  if (It != TraceRegionNames.end())
    return It->second;
  const char *Name = support::TraceSink::get().intern(
      "cells." + std::string(C.symbols().name(S)));
  TraceRegionNames.emplace(S, Name);
  return Name;
}

void Machine::traceRegionCounters() {
  support::TraceSink &Sink = support::TraceSink::get();
  for (const auto &[S, R] : Mem.Regions) {
    if (S == C.cd().sym())
      continue;
    Sink.counter(traceRegionName(S), static_cast<double>(R.Cells.size()));
  }
}

void Machine::traceStep(const Term *E) {
  support::TraceSink &Sink = support::TraceSink::get();
  Sink.instant("step", stepEventName(E->kind()));
  // Periodic counter tracks: cheap enough at 1/64 steps to leave on for a
  // whole run, dense enough to read heap growth off the timeline.
  if (Stats.Steps % 64 == 0) {
    Sink.counter("live_cells", static_cast<double>(Mem.liveDataCells()));
    Sink.counter("env_depth", static_cast<double>(envDepth()));
    Sink.counter("journal_len",
                 static_cast<double>(journalEnd() - journalBegin()));
  }
}

void Machine::traceAppPhase(Address CodeAddr) {
  if (CodeAddr.R != C.cd())
    return;
  auto It = PhaseMarks.find(CodeAddr.Offset);
  if (It == PhaseMarks.end())
    return;
  // Pause clock first: it ticks whether or not tracing is enabled.
  if (It->second && PauseHist && !PauseOpen) {
    PauseOpen = true;
    PauseStart = std::chrono::steady_clock::now();
  }
  if (!SCAV_TRACE_ENABLED())
    return;
  support::TraceSink &Sink = support::TraceSink::get();
  if (It->second && !TraceCollectOpen) {
    Sink.begin("collector", "collect");
    TraceCollectOpen = true;
  }
  // Interned in markCollectorPhase: the ring sink outlives this machine, so
  // event names must not point into machine-owned storage.
  auto LIt = TracePhaseNames.find(CodeAddr.Offset);
  if (LIt != TracePhaseNames.end())
    Sink.instant("collector", LIt->second);
}

//===----------------------------------------------------------------------===//
// Step bodies shared between the interpreters and the bytecode backend
//===----------------------------------------------------------------------===//

void Machine::applyOnly(const RegionSet &Keep) {
  // Journal the drop list *before* restrictTo erases it.
  if (JournalOn)
    for (const auto &[S2, _] : Mem.Regions)
      if (S2 != C.cd().sym() && !Keep.contains(Region::name(S2)))
        journal(DeltaKind::RegionDropped, S2);
  if (SCAV_TRACE_ENABLED()) {
    support::TraceSink &Sink = support::TraceSink::get();
    for (const auto &[S2, _] : Mem.Regions)
      if (S2 != C.cd().sym() && !Keep.contains(Region::name(S2))) {
        Sink.instant("region", "region.drop");
        Sink.counter(traceRegionName(S2), 0);
      }
  }
  size_t Reclaimed = Mem.restrictTo(Keep);
  Stats.RegionsReclaimed += Reclaimed;
  if (Config.HeapGrowthFactor != 0 && Config.DefaultRegionCapacity != 0) {
    // Resize the collection's own to-spaces (regions born this epoch);
    // older regions keep their capacity so that triggers like the
    // generational mutator's `ifgc ro` can still fire.
    for (auto &[S2, R2] : Mem.Regions) {
      if (S2 == C.cd().sym() || R2.Capacity == 0 || R2.Epoch != OnlyEpoch)
        continue;
      // Compute in 64 bits and clamp: cells × factor can exceed
      // uint32_t, and the old straight cast truncated — a huge region
      // could come out of a collection with a tiny (even zero) capacity.
      uint64_t Want64 = static_cast<uint64_t>(R2.Cells.size()) *
                        Config.HeapGrowthFactor;
      uint32_t Want = static_cast<uint32_t>(std::min<uint64_t>(
          Want64, std::numeric_limits<uint32_t>::max()));
      R2.Capacity = std::max(Config.DefaultRegionCapacity, Want);
    }
  }
  ++OnlyEpoch;
  // `only` is how every collection ends, so it closes an open pause clock
  // (tracing-independent; the trace scope below closes separately).
  if (PauseOpen) {
    PauseHist->record(std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - PauseStart)
                          .count());
    PauseOpen = false;
  }
  // Ψ|∆.
  std::vector<Symbol> Drop;
  for (const auto &[S2, _] : Psi.Regions)
    if (S2 != C.cd().sym() && !Keep.contains(Region::name(S2)))
      Drop.push_back(S2);
  for (Symbol S2 : Drop)
    Psi.removeRegion(S2);
  // Cached inferred types may mention (or have been inferred under) the
  // regions just dropped. The journal already carries the precise
  // RegionDropped events, so no ExternalMutation is emitted.
  clearPutTypeCache();
  if (SCAV_TRACE_ENABLED()) {
    support::TraceSink &Sink = support::TraceSink::get();
    Sink.counter("regions", static_cast<double>(Mem.numRegions()));
    Sink.counter("live_cells", static_cast<double>(Mem.liveDataCells()));
    traceRegionCounters();
    // `only` is how every collection ends (gcend frees all but the
    // to-space), so it closes the open collect scope.
    if (TraceCollectOpen) {
      Sink.end("collector", "collect");
      TraceCollectOpen = false;
    }
  }
}

void Machine::applyWiden(Symbol From, Symbol To) {
  if (Config.TrackTypes) {
    auto It = Psi.Regions.find(From);
    if (It != Psi.Regions.end())
      for (const Type *&Ty : It->second.Cells)
        if (Ty)
          Ty = widenPsiType(Ty, From, To);
    if (RegionData *R = Mem.region(From)) {
      // The compact layout must see every cell as a Value to rewrite its
      // embedded annotations, then mirror the rewrite into the word image.
      // Like the legacy in-place writes below, the re-encode is neither
      // version-stamped nor dirty-logged: the RegionWidened journal event
      // is the consumer's signal.
      Mem.decodeRegion(*R);
      for (size_t Off = 0; Off != R->Cells.size(); ++Off) {
        const Value *Cell = R->Cells[Off];
        if (!Cell)
          continue;
        const Value *NewCell = widenValueTypes(Cell, From, To);
        R->Cells[Off] = NewCell;
        if (Mem.compact())
          R->Words[Off] = Mem.encodeValue(*R, NewCell);
      }
    }
    // Ψ cell types just changed view (M → C); cached inferences are stale.
    // Journaled as the precise RegionWidened event below, so the internal
    // clear suffices.
    clearPutTypeCache();
  }
  journal(DeltaKind::RegionWidened, From, To);
  TRACE_INSTANT("region", "region.widen");
}

//===----------------------------------------------------------------------===//
// The step function
//===----------------------------------------------------------------------===//

Machine::Status Machine::step() {
  if (St != Status::Running)
    return St;
  if (Config.Eval == EvalMode::Vm) {
    if (!Backend)
      return stuck("vm eval mode with no execution backend attached");
    return Backend->step();
  }
  const Term *E = Cur;
  ++Stats.Steps;
  if (SCAV_TRACE_ENABLED())
    traceStep(E);

  switch (E->kind()) {
  case TermKind::App: {
    ++Stats.Applications;
    const Value *F = resolveValue(E->appFun());
    if (F->is(ValueKind::TransApp))
      F = F->payload(); // (vJ~τK)[~τ][~ρ](~v) ⇒ v[~τ][~ρ](~v)
    if (!F->is(ValueKind::Addr))
      return stuck("application of non-address value: " + printValue(C, F));
    if (SCAV_TRACE_ENABLED() || PauseHist)
      traceAppPhase(F->address());
    const Value *Code = Mem.get(F->address());
    if (!Code)
      return stuck("application of dangling code address: " +
                   printValue(C, F));
    if (!Code->is(ValueKind::Code))
      return stuck("application of non-code cell: " + printValue(C, F));
    if (Code->tagParams().size() != E->appTags().size() ||
        Code->regionParams().size() != E->appRegions().size() ||
        Code->valParams().size() != E->appArgs().size())
      return stuck("application arity mismatch at " + printValue(C, F));
    if (envMode()) {
      // The callee's body is closed up to its parameters (closure-converted
      // code), so the environment is *replaced*, not extended — the new
      // environment is exactly the binding set Fig 5's β-step substitutes,
      // and the body itself is entered shared, with no traversal at all.
      Subst NewEnv;
      for (size_t I = 0, N = E->appTags().size(); I != N; ++I)
        NewEnv.Tags[Code->tagParams()[I]] =
            normalizeTag(C, resolveTag(E->appTags()[I]));
      for (size_t I = 0, N = E->appRegions().size(); I != N; ++I) {
        Region R = resolveRegion(E->appRegions()[I]);
        if (!R.isName())
          return stuck("application with unresolved region variable " +
                       printRegion(C, R));
        NewEnv.Regions[Code->regionParams()[I]] = R;
      }
      for (size_t I = 0, N = E->appArgs().size(); I != N; ++I)
        NewEnv.Vals[Code->valParams()[I]] = resolveValue(E->appArgs()[I]);
      Stats.EnvBindings +=
          E->appTags().size() + E->appRegions().size() + E->appArgs().size();
      EnvS = std::move(NewEnv);
      noteEnvDepth();
      Cur = Code->codeBody();
      return St;
    }
    Subst S;
    for (size_t I = 0, N = E->appTags().size(); I != N; ++I)
      S.Tags[Code->tagParams()[I]] = normalizeTag(C, E->appTags()[I]);
    for (size_t I = 0, N = E->appRegions().size(); I != N; ++I) {
      Region R = E->appRegions()[I];
      if (!R.isName())
        return stuck("application with unresolved region variable " +
                     printRegion(C, R));
      S.Regions[Code->regionParams()[I]] = R;
    }
    for (size_t I = 0, N = E->appArgs().size(); I != N; ++I)
      S.Vals[Code->valParams()[I]] = E->appArgs()[I];
    Cur = applySubst(C, Code->codeBody(), S);
    return St;
  }

  case TermKind::Let: {
    const Op *O = E->letOp();
    const Value *BV = nullptr;
    switch (O->kind()) {
    case OpKind::Val:
      BV = resolveValue(O->value());
      break;
    case OpKind::Proj1:
    case OpKind::Proj2: {
      ++Stats.Projections;
      const Value *V = resolveValue(O->value());
      if (!V->is(ValueKind::Pair))
        return stuck("projection from non-pair: " + printValue(C, V));
      BV = O->is(OpKind::Proj1) ? V->first() : V->second();
      break;
    }
    case OpKind::Put: {
      ++Stats.Puts;
      Region R = resolveRegion(O->putRegion());
      if (!R.isName())
        return stuck("put into unresolved region variable " +
                     printRegion(C, R));
      // Stored values escape the step loop into memory, so they are closed
      // here (the Env-mode force boundary for `put`).
      const Value *SV = resolveValue(O->value());
      std::optional<Address> A = Mem.put(R.sym(), SV);
      if (!A)
        return stuck(Mem.hasRegion(R.sym())
                         ? "put overflows the region offset space of " +
                               printRegion(C, R)
                         : "put into reclaimed region " + printRegion(C, R));
      recordPut(*A, SV);
      BV = C.valAddr(*A);
      break;
    }
    case OpKind::Get: {
      ++Stats.Gets;
      const Value *V = resolveValue(O->value());
      if (!V->is(ValueKind::Addr))
        return stuck("get of non-address: " + printValue(C, V));
      const Value *Cell = Mem.get(V->address());
      if (!Cell)
        return stuck("get of dangling address: " + printValue(C, V));
      BV = Cell;
      break;
    }
    case OpKind::Strip: {
      const Value *V = resolveValue(O->value());
      if (!V->is(ValueKind::Inl) && !V->is(ValueKind::Inr))
        return stuck("strip of untagged value: " + printValue(C, V));
      BV = V->payload();
      break;
    }
    case OpKind::Prim: {
      const Value *L = resolveValue(O->lhs()), *R = resolveValue(O->rhs());
      if (!L->is(ValueKind::Int) || !R->is(ValueKind::Int))
        return stuck("primitive on non-integers");
      BV = C.valInt(
          support::evalIntPrim(O->primOp(), L->intValue(), R->intValue()));
      break;
    }
    }
    continueBindVal(E->binderVar(), BV, E->sub1());
    return St;
  }

  case TermKind::Halt: {
    // Halt values escape the machine: force them closed in Env mode.
    const Value *V = resolveValue(E->scrutinee());
    St = Status::Halted;
    HaltVal = V;
    return St;
  }

  case TermKind::IfGc: {
    Region R = resolveRegion(E->region());
    if (!R.isName())
      return stuck("ifgc on unresolved region variable");
    if (Mem.isFull(R.sym())) {
      ++Stats.IfGcTaken;
      TRACE_INSTANT("collector", "ifgc.taken");
      Cur = E->sub1();
    } else {
      ++Stats.IfGcSkipped;
      Cur = E->sub2();
    }
    return St;
  }

  case TermKind::OpenTag: {
    ++Stats.Opens;
    const Value *V = resolveValue(E->scrutinee());
    if (!V->is(ValueKind::PackTag))
      return stuck("open-as-tag of non-package: " + printValue(C, V));
    const Tag *W = normalizeTag(C, V->tagWitness());
    if (envMode()) {
      bindTag(E->binderVar(), W);
      bindVal(E->binderVar2(), V->payload());
      Cur = E->sub1();
      return St;
    }
    Subst S;
    S.Tags[E->binderVar()] = W;
    S.Vals[E->binderVar2()] = V->payload();
    Cur = applySubst(C, E->sub1(), S);
    return St;
  }

  case TermKind::OpenTyVar: {
    ++Stats.Opens;
    const Value *V = resolveValue(E->scrutinee());
    if (!V->is(ValueKind::PackTyVar))
      return stuck("open-as-type of non-package: " + printValue(C, V));
    if (envMode()) {
      bindType(E->binderVar(), V->typeWitness());
      bindVal(E->binderVar2(), V->payload());
      Cur = E->sub1();
      return St;
    }
    Subst S;
    S.Types[E->binderVar()] = V->typeWitness();
    S.Vals[E->binderVar2()] = V->payload();
    Cur = applySubst(C, E->sub1(), S);
    return St;
  }

  case TermKind::OpenRegion: {
    ++Stats.Opens;
    const Value *V = resolveValue(E->scrutinee());
    if (!V->is(ValueKind::PackRegion))
      return stuck("open-as-region of non-package: " + printValue(C, V));
    if (!V->regionWitness().isName())
      return stuck("region package with unresolved witness");
    if (envMode()) {
      bindRegion(E->binderVar(), V->regionWitness());
      bindVal(E->binderVar2(), V->payload());
      Cur = E->sub1();
      return St;
    }
    Subst S;
    S.Regions[E->binderVar()] = V->regionWitness();
    S.Vals[E->binderVar2()] = V->payload();
    Cur = applySubst(C, E->sub1(), S);
    return St;
  }

  case TermKind::LetRegion: {
    Region R = createRegion(C.name(E->binderVar()), 0);
    if (envMode()) {
      bindRegion(E->binderVar(), R);
      Cur = E->sub1();
      return St;
    }
    Subst S;
    S.Regions[E->binderVar()] = R;
    Cur = applySubst(C, E->sub1(), S);
    return St;
  }

  case TermKind::Only: {
    ++Stats.OnlyOps;
    Stats.OnlyRegionsScanned += Mem.numRegions();
    RegionSet Keep = resolveRegionSet(E->onlySet());
    for (Region R : Keep)
      if (!R.isName())
        return stuck("only with unresolved region variable");
    applyOnly(Keep);
    Cur = E->sub1();
    return St;
  }

  case TermKind::Typecase: {
    ++Stats.TypecaseSteps;
    const Tag *T = normalizeTag(C, resolveTag(E->tag()));
    switch (T->kind()) {
    case TagKind::Int:
      Cur = E->caseInt();
      return St;
    case TagKind::Arrow:
      Cur = E->caseArrow();
      return St;
    case TagKind::Prod: {
      if (envMode()) {
        bindTag(E->prodVar1(), T->left());
        bindTag(E->prodVar2(), T->right());
        Cur = E->caseProd();
        return St;
      }
      Subst S;
      S.Tags[E->prodVar1()] = T->left();
      S.Tags[E->prodVar2()] = T->right();
      Cur = applySubst(C, E->caseProd(), S);
      return St;
    }
    case TagKind::Exists: {
      const Tag *Lam = C.tagLam(T->var(), C.omega(), T->body());
      if (envMode()) {
        bindTag(E->existsVar(), Lam);
        Cur = E->caseExists();
        return St;
      }
      Subst S;
      S.Tags[E->existsVar()] = Lam;
      Cur = applySubst(C, E->caseExists(), S);
      return St;
    }
    default:
      return stuck("typecase on non-constructor tag: " + printTag(C, T));
    }
  }

  case TermKind::IfLeft: {
    const Value *V = resolveValue(E->scrutinee());
    if (V->is(ValueKind::Inl))
      continueBindVal(E->binderVar(), V, E->sub1());
    else if (V->is(ValueKind::Inr))
      continueBindVal(E->binderVar(), V,
                      E->sub2()); // (paper Fig 5 typo corrected)
    else
      return stuck("ifleft of untagged value: " + printValue(C, V));
    return St;
  }

  case TermKind::Set: {
    ++Stats.Sets;
    const Value *Dst = resolveValue(E->scrutinee());
    if (!Dst->is(ValueKind::Addr))
      return stuck("set of non-address: " + printValue(C, Dst));
    // The stored value escapes into memory: force it closed in Env mode.
    if (!Mem.update(Dst->address(), resolveValue(E->setSource())))
      return stuck("set of dangling address: " + printValue(C, Dst));
    // During a collection, `set` is the forwarding-pointer install (§7).
    TRACE_INSTANT("mem", "set.forward");
    // Ψ deliberately keeps the cell's (sum) type: the forwarding pointer is
    // typed by subsumption against it.
    Cur = E->sub1();
    return St;
  }

  case TermKind::LetWiden: {
    ++Stats.Widens;
    const Value *V = resolveValue(E->scrutinee());
    if (!V->is(ValueKind::Addr))
      return stuck("widen of non-address value: " + printValue(C, V));
    Region To = resolveRegion(E->region());
    if (!To.isName())
      return stuck("widen with unresolved to-region");
    applyWiden(V->address().R.sym(), To.sym());
    continueBindVal(E->binderVar(), V, E->sub1()); // widen is a no-op on
                                                   // data (§7.1)
    return St;
  }

  case TermKind::IfReg: {
    Region A = resolveRegion(E->ifregLhs()), B = resolveRegion(E->ifregRhs());
    if (!A.isName() || !B.isName())
      return stuck("ifreg on unresolved region variable");
    Cur = A == B ? E->sub1() : E->sub2();
    return St;
  }

  case TermKind::If0: {
    const Value *V = resolveValue(E->scrutinee());
    if (!V->is(ValueKind::Int))
      return stuck("if0 of non-integer: " + printValue(C, V));
    Cur = V->intValue() == 0 ? E->sub1() : E->sub2();
    return St;
  }
  }
  return stuck("unknown term form");
}

Machine::Status Machine::run(uint64_t MaxSteps) {
  if (Config.Eval == EvalMode::Vm && Backend && St == Status::Running)
    return Backend->run(MaxSteps);
  for (uint64_t I = 0; I != MaxSteps && St == Status::Running; ++I)
    step();
  return St;
}
