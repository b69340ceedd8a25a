//===- vm/Lower.cpp - λGC AST → flat bytecode compiler --------------------===//
///
/// \file
/// Syntax-directed lowering. The two load-bearing analyses are operand
/// classification (every operand is resolved against the *lexical* scope at
/// compile time — sound because CPS gives each instruction a unique lexical
/// path from its chunk root, so the lexical chain equals the env machine's
/// runtime environment at that point) and static typecase resolution (a
/// Const scrutinee tag is normalized at compile time, so the branch and its
/// binder tags are known before the program runs).
///
//===----------------------------------------------------------------------===//

#include "vm/Lower.h"

using namespace scav;
using namespace scav::gc;
using namespace scav::vm;

const char *scav::vm::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::LetVal:
    return "let.val";
  case Opcode::LetProj1:
    return "let.proj1";
  case Opcode::LetProj2:
    return "let.proj2";
  case Opcode::LetPut:
    return "let.put";
  case Opcode::LetGet:
    return "let.get";
  case Opcode::LetStrip:
    return "let.strip";
  case Opcode::LetPrim:
    return "let.prim";
  case Opcode::Call:
    return "call";
  case Opcode::Halt:
    return "halt";
  case Opcode::IfGc:
    return "ifgc";
  case Opcode::OpenTag:
    return "open.tag";
  case Opcode::OpenTyVar:
    return "open.tyvar";
  case Opcode::OpenRegion:
    return "open.region";
  case Opcode::LetRegion:
    return "let.region";
  case Opcode::Only:
    return "only";
  case Opcode::Typecase:
    return "typecase";
  case Opcode::TypecaseStatic:
    return "typecase.static";
  case Opcode::IfLeft:
    return "ifleft";
  case Opcode::Set:
    return "set";
  case Opcode::LetWiden:
    return "let.widen";
  case Opcode::IfReg:
    return "ifreg";
  case Opcode::If0:
    return "if0";
  }
  return "unknown";
}

void Lowerer::pushScope(Symbol Sym, Sort S, uint32_t Slot) {
  Out->Scopes.push_back(ScopeNode{Top, Sym, S, Slot});
  Top = static_cast<int32_t>(Out->Scopes.size()) - 1;
  Stack.push_back(ScopeEntry{Sym, S, Slot});
}

std::optional<uint32_t> Lowerer::lookup(Symbol Sym, Sort S) const {
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
    if (It->S == S && It->Sym == Sym)
      return It->Slot;
  return std::nullopt;
}

bool Lowerer::anyScopeSym(const SymbolSet &Syms, bool TagSortOnly) const {
  for (const ScopeEntry &E : Stack) {
    if (TagSortOnly && E.S != Sort::Tag)
      continue;
    if (Syms.count(E.Sym))
      return true;
  }
  return false;
}

std::pair<uint32_t, uint32_t> Lowerer::collectBinds(const SymbolSet &Syms,
                                                    bool ValSortOnly) {
  uint32_t Begin = static_cast<uint32_t>(Out->Binds.size());
  // Innermost first; the materializers keep the first hit per (sym, sort),
  // which is exactly the env machine's shadow-by-overwrite.
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
    if (ValSortOnly && It->S != Sort::Val)
      continue;
    if (!Syms.count(It->Sym))
      continue;
    bool Dup = false;
    for (uint32_t I = Begin, E = static_cast<uint32_t>(Out->Binds.size());
         I != E; ++I)
      if (Out->Binds[I].Sym == It->Sym && Out->Binds[I].S == It->S) {
        Dup = true;
        break;
      }
    if (!Dup)
      Out->Binds.push_back(BindSpec{It->Sym, It->S, It->Slot});
  }
  return {Begin, static_cast<uint32_t>(Out->Binds.size())};
}

namespace {
/// A value the Fast materializer can rebuild: constructors without binders
/// or embedded types/tags/regions. Everything else (packs, code, transapp)
/// goes through closeValue.
bool isFastTemplate(const Value *V) {
  switch (V->kind()) {
  case ValueKind::Int:
  case ValueKind::Var:
  case ValueKind::Addr:
    return true;
  case ValueKind::Pair:
    return isFastTemplate(V->first()) && isFastTemplate(V->second());
  case ValueKind::Inl:
  case ValueKind::Inr:
    return isFastTemplate(V->payload());
  default:
    return false;
  }
}

/// A value the Tpl compiler can decompose: Fast shapes plus existential
/// packages and translucent applications. Code values (term bodies, binder
/// lists) stay on the closeValue path.
bool isTplTemplate(const Value *V) {
  switch (V->kind()) {
  case ValueKind::Int:
  case ValueKind::Var:
  case ValueKind::Addr:
    return true;
  case ValueKind::Pair:
    return isTplTemplate(V->first()) && isTplTemplate(V->second());
  case ValueKind::Inl:
  case ValueKind::Inr:
  case ValueKind::PackTag:
  case ValueKind::PackTyVar:
  case ValueKind::PackRegion:
  case ValueKind::TransApp:
    return isTplTemplate(V->payload());
  default:
    return false;
  }
}
} // namespace

uint32_t Lowerer::addVal(const Value *V) {
  ValOperand Op;
  Op.V = V;
  if (V->is(ValueKind::Var)) {
    if (auto Slot = lookup(V->var(), Sort::Val)) {
      Op.Kind = ValOperand::K::Slot;
      Op.Slot = *Slot;
      Out->ValOps.push_back(Op);
      return static_cast<uint32_t>(Out->ValOps.size()) - 1;
    }
  }
  SymbolSet Syms;
  collectSymbols(V, Syms);
  // collectSymbols is conservative (bound symbols too), so a scope symbol
  // that only occurs *under a binder* inside the operand demotes Const to
  // Slow — harmless, closeValue masks it and returns the same node.
  if (!anyScopeSym(Syms, /*TagSortOnly=*/false)) {
    Op.Kind = ValOperand::K::Const;
  } else if (isFastTemplate(V)) {
    Op.Kind = ValOperand::K::Fast;
    std::tie(Op.BindsBegin, Op.BindsEnd) =
        collectBinds(Syms, /*ValSortOnly=*/true);
  } else if (isTplTemplate(V)) {
    Op.Kind = ValOperand::K::Tpl;
    Op.Slot = compileTpl(V);
  } else {
    Op.Kind = ValOperand::K::Slow;
    std::tie(Op.BindsBegin, Op.BindsEnd) =
        collectBinds(Syms, /*ValSortOnly=*/false);
  }
  Out->ValOps.push_back(Op);
  return static_cast<uint32_t>(Out->ValOps.size()) - 1;
}

std::pair<uint32_t, uint32_t> Lowerer::typedBinds(const SymbolSet &Syms,
                                                  TplMask Mask, TplBuild &B) {
  uint32_t Begin = static_cast<uint32_t>(Out->Binds.size());
  // Innermost first, one entry per (sym, sort) — as collectBinds — but
  // restricted to the sorts types can mention, and with the pack binder
  // (if any) excluded from substitution entirely, at every scope depth:
  // close*'s mask hides outer bindings of the shadowed symbol too.
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
    if (It->S == Sort::Val)
      continue;
    if (Mask && It->Sym == Mask->first && It->S == Mask->second)
      continue;
    if (!Syms.count(It->Sym))
      continue;
    bool Dup = false;
    for (uint32_t I = Begin, E = static_cast<uint32_t>(Out->Binds.size());
         I != E; ++I)
      if (Out->Binds[I].Sym == It->Sym && Out->Binds[I].S == It->S) {
        Dup = true;
        break;
      }
    if (!Dup) {
      Out->Binds.push_back(BindSpec{It->Sym, It->S, It->Slot});
      B.key(It->S, It->Slot);
    }
  }
  return {Begin, static_cast<uint32_t>(Out->Binds.size())};
}

uint32_t Lowerer::addTplAttTag(const Tag *T, TplBuild &B) {
  TplAtt A;
  A.Kind = TplAtt::K::Tag;
  A.Node = T;
  SymbolSet Syms;
  collectSymbols(T, Syms);
  std::tie(A.BindsBegin, A.BindsEnd) = typedBinds(Syms, std::nullopt, B);
  A.Ord = B.NumAtts++;
  Out->TplAtts.push_back(A);
  return A.Ord;
}

uint32_t Lowerer::addTplAttType(const Type *T, TplMask Mask, TplBuild &B) {
  TplAtt A;
  A.Kind = TplAtt::K::Type;
  A.Node = T;
  SymbolSet Syms;
  collectSymbols(T, Syms);
  std::tie(A.BindsBegin, A.BindsEnd) = typedBinds(Syms, Mask, B);
  A.Ord = B.NumAtts++;
  Out->TplAtts.push_back(A);
  return A.Ord;
}

uint32_t Lowerer::addTplAttDelta(const RegionSet &RS, TplBuild &B) {
  TplAtt A;
  A.Kind = TplAtt::K::Delta;
  A.Set = &RS;
  A.ArgsBegin = static_cast<uint32_t>(Out->TplArgs.size());
  for (Region R : RS) {
    uint32_t Idx = addReg(R);
    if (Out->RegOps[Idx].Kind == RegOperand::K::Slot) {
      A.AllConst = false;
      B.key(Sort::Region, Out->RegOps[Idx].Slot);
    }
    Out->TplArgs.push_back(Idx);
  }
  A.ArgsEnd = static_cast<uint32_t>(Out->TplArgs.size());
  A.Ord = B.NumDeltas++;
  Out->TplAtts.push_back(A);
  return A.Ord;
}

uint32_t Lowerer::buildTplNode(const Value *V, TplBuild &B) {
  TplNode N;
  N.V = V;
  // Subtree pruning: no in-scope symbol anywhere → closeValue would return
  // the node unchanged, so it is a compile-time constant.
  {
    SymbolSet Syms;
    collectSymbols(V, Syms);
    if (!anyScopeSym(Syms, /*TagSortOnly=*/false)) {
      N.Kind = TplNode::K::Const;
      Out->Tpls.push_back(N);
      return static_cast<uint32_t>(Out->Tpls.size()) - 1;
    }
  }
  switch (V->kind()) {
  case ValueKind::Var:
    if (auto Slot = lookup(V->var(), Sort::Val)) {
      N.Kind = TplNode::K::Slot;
      N.Slot = *Slot;
    } else {
      N.Kind = TplNode::K::Const; // unbound: stays itself, as in closeValue
    }
    break;
  case ValueKind::Pair:
    N.Kind = TplNode::K::Pair;
    N.A = buildTplNode(V->first(), B);
    N.B = buildTplNode(V->second(), B);
    break;
  case ValueKind::Inl:
    N.Kind = TplNode::K::Inl;
    N.A = buildTplNode(V->payload(), B);
    break;
  case ValueKind::Inr:
    N.Kind = TplNode::K::Inr;
    N.A = buildTplNode(V->payload(), B);
    break;
  case ValueKind::PackTag:
    // Mirror closeValue's order: witness and payload close under the outer
    // scope; only the body type sees the binder masked.
    N.Kind = TplNode::K::PackTag;
    N.Att1 = addTplAttTag(V->tagWitness(), B);
    N.A = buildTplNode(V->payload(), B);
    N.Att2 = addTplAttType(V->bodyType(),
                           TplMask{{V->var(), Sort::Tag}}, B);
    break;
  case ValueKind::PackTyVar:
    N.Kind = TplNode::K::PackTyVar;
    N.Att3 = addTplAttDelta(V->delta(), B);
    N.Att1 = addTplAttType(V->typeWitness(), std::nullopt, B);
    N.A = buildTplNode(V->payload(), B);
    N.Att2 = addTplAttType(V->bodyType(),
                           TplMask{{V->var(), Sort::Type}}, B);
    break;
  case ValueKind::PackRegion:
    N.Kind = TplNode::K::PackRegion;
    N.Att3 = addTplAttDelta(V->delta(), B);
    N.Reg = addReg(V->regionWitness());
    N.A = buildTplNode(V->payload(), B);
    N.Att2 = addTplAttType(V->bodyType(),
                           TplMask{{V->var(), Sort::Region}}, B);
    break;
  case ValueKind::TransApp: {
    // The whole argument block (~τ and ~ρ) is type-layer: cache it as one
    // Trans attachment so steady-state materialization shares a single
    // TransData instead of rebuilding two vectors per step. The tag
    // attachments are pushed before the Trans attachment, so the in-order
    // refresh sees them resolved.
    N.Kind = TplNode::K::TransApp;
    N.A = buildTplNode(V->payload(), B);
    TplAtt A;
    A.Kind = TplAtt::K::Trans;
    A.ArgsBegin = static_cast<uint32_t>(Out->TplArgs.size());
    for (const Tag *T : V->transTags())
      Out->TplArgs.push_back(addTplAttTag(T, B));
    A.NumTags = static_cast<uint32_t>(Out->TplArgs.size()) - A.ArgsBegin;
    for (Region R : V->transRegions()) {
      uint32_t Idx = addReg(R);
      if (Out->RegOps[Idx].Kind == RegOperand::K::Slot)
        B.key(Sort::Region, Out->RegOps[Idx].Slot);
      Out->TplArgs.push_back(Idx);
    }
    A.ArgsEnd = static_cast<uint32_t>(Out->TplArgs.size());
    A.Ord = B.NumAtts++;
    Out->TplAtts.push_back(A);
    N.Att1 = A.Ord;
    break;
  }
  default:
    assert(false && "non-template value in Tpl operand");
    N.Kind = TplNode::K::Const;
    break;
  }
  Out->Tpls.push_back(N);
  return static_cast<uint32_t>(Out->Tpls.size()) - 1;
}

uint32_t Lowerer::compileTpl(const Value *V) {
  uint32_t InfoIdx = static_cast<uint32_t>(Out->TplInfos.size());
  Out->TplInfos.emplace_back();
  TplBuild B;
  uint32_t AttsBegin = static_cast<uint32_t>(Out->TplAtts.size());
  uint32_t Root = buildTplNode(V, B);
  TplInfo &Info = Out->TplInfos[InfoIdx];
  Info.Root = Root;
  Info.AttsBegin = AttsBegin;
  Info.AttsEnd = static_cast<uint32_t>(Out->TplAtts.size());
  Info.NumAtts = B.NumAtts;
  Info.NumDeltas = B.NumDeltas;
  Info.KeyBegin = static_cast<uint32_t>(Out->Binds.size());
  for (auto [S, Slot] : B.KeySlots)
    Out->Binds.push_back(BindSpec{gc::Symbol{}, S, Slot});
  Info.KeyEnd = static_cast<uint32_t>(Out->Binds.size());
  return InfoIdx;
}

uint32_t Lowerer::addTag(const Tag *T) {
  TagOperand Op;
  Op.T = T;
  if (T->is(TagKind::Var)) {
    if (auto Slot = lookup(T->var(), Sort::Tag)) {
      Op.Kind = TagOperand::K::Slot;
      Op.Slot = *Slot;
      Out->TagOps.push_back(Op);
      return static_cast<uint32_t>(Out->TagOps.size()) - 1;
    }
  }
  SymbolSet Syms;
  collectSymbols(T, Syms);
  // Tags only embed tags, so only tag-sort scope entries can fire.
  if (!anyScopeSym(Syms, /*TagSortOnly=*/true)) {
    Op.Kind = TagOperand::K::Const;
    // Pre-normalize: the interpreters normalize this tag at every use; for
    // a scope-independent tag the result never changes.
    Op.T = normalizeTag(C, T);
  } else {
    Op.Kind = TagOperand::K::Slow;
    std::tie(Op.BindsBegin, Op.BindsEnd) =
        collectBinds(Syms, /*ValSortOnly=*/false);
  }
  Out->TagOps.push_back(Op);
  return static_cast<uint32_t>(Out->TagOps.size()) - 1;
}

uint32_t Lowerer::addReg(Region R) {
  RegOperand Op;
  Op.R = R;
  if (R.isVar()) {
    if (auto Slot = lookup(R.sym(), Sort::Region)) {
      Op.Kind = RegOperand::K::Slot;
      Op.Slot = *Slot;
    }
    // An out-of-scope region variable stays Const and reaches its use site
    // unresolved, reproducing the interpreters' stuck diagnostics.
  }
  Out->RegOps.push_back(Op);
  return static_cast<uint32_t>(Out->RegOps.size()) - 1;
}

uint32_t Lowerer::emit(Instr I) {
  I.Scope = Top;
  Out->Code.push_back(I);
  return static_cast<uint32_t>(Out->Code.size()) - 1;
}

uint32_t Lowerer::compileTerm(const Term *E) {
  switch (E->kind()) {
  case TermKind::App: {
    Instr I;
    I.Op = Opcode::Call;
    I.Src = E;
    I.A = addVal(E->appFun());
    CallSite CS;
    for (const Tag *T : E->appTags())
      CS.Tags.push_back(addTag(T));
    for (Region R : E->appRegions())
      CS.Regions.push_back(addReg(R));
    for (const Value *V : E->appArgs())
      CS.Args.push_back(addVal(V));
    I.B = static_cast<uint32_t>(Out->Calls.size());
    Out->Calls.push_back(std::move(CS));
    return emit(I);
  }

  case TermKind::Let: {
    const Op *O = E->letOp();
    Instr I;
    I.Src = E;
    uint32_t Dest = 0;
    switch (O->kind()) {
    case OpKind::Val:
    case OpKind::Proj1:
    case OpKind::Proj2:
    case OpKind::Get:
    case OpKind::Strip:
      I.Op = O->is(OpKind::Val)     ? Opcode::LetVal
             : O->is(OpKind::Proj1) ? Opcode::LetProj1
             : O->is(OpKind::Proj2) ? Opcode::LetProj2
             : O->is(OpKind::Get)   ? Opcode::LetGet
                                    : Opcode::LetStrip;
      I.A = addVal(O->value());
      Dest = newSlot();
      I.B = Dest;
      break;
    case OpKind::Put:
      I.Op = Opcode::LetPut;
      I.A = addVal(O->value());
      I.B = addReg(O->putRegion());
      Dest = newSlot();
      I.C = Dest;
      break;
    case OpKind::Prim:
      I.Op = Opcode::LetPrim;
      I.Small = static_cast<uint8_t>(O->primOp());
      I.A = addVal(O->lhs());
      I.B = addVal(O->rhs());
      Dest = newSlot();
      I.C = Dest;
      break;
    }
    uint32_t At = emit(I);
    ScopeMark M = markScope();
    pushScope(E->binderVar(), Sort::Val, Dest);
    compileTerm(E->sub1());
    resetScope(M);
    return At;
  }

  case TermKind::Halt: {
    Instr I;
    I.Op = Opcode::Halt;
    I.Src = E;
    I.A = addVal(E->scrutinee());
    return emit(I);
  }

  case TermKind::IfGc: {
    Instr I;
    I.Op = Opcode::IfGc;
    I.Src = E;
    I.A = addReg(E->region());
    uint32_t At = emit(I);
    uint32_t Then = compileTerm(E->sub1());
    uint32_t Else = compileTerm(E->sub2());
    Out->Code[At].B = Then;
    Out->Code[At].C = Else;
    return At;
  }

  case TermKind::OpenTag:
  case TermKind::OpenTyVar:
  case TermKind::OpenRegion: {
    Instr I;
    I.Src = E;
    Sort WitnessSort = Sort::Tag;
    if (E->is(TermKind::OpenTag)) {
      I.Op = Opcode::OpenTag;
    } else if (E->is(TermKind::OpenTyVar)) {
      I.Op = Opcode::OpenTyVar;
      WitnessSort = Sort::Type;
    } else {
      I.Op = Opcode::OpenRegion;
      WitnessSort = Sort::Region;
    }
    I.A = addVal(E->scrutinee());
    uint32_t WSlot = newSlot(), PSlot = newSlot();
    I.B = WSlot;
    I.C = PSlot;
    uint32_t At = emit(I);
    ScopeMark M = markScope();
    pushScope(E->binderVar(), WitnessSort, WSlot);
    pushScope(E->binderVar2(), Sort::Val, PSlot);
    compileTerm(E->sub1());
    resetScope(M);
    return At;
  }

  case TermKind::LetRegion: {
    Instr I;
    I.Op = Opcode::LetRegion;
    I.Src = E;
    I.Sym = E->binderVar();
    uint32_t Slot = newSlot();
    I.A = Slot;
    uint32_t At = emit(I);
    ScopeMark M = markScope();
    pushScope(E->binderVar(), Sort::Region, Slot);
    compileTerm(E->sub1());
    resetScope(M);
    return At;
  }

  case TermKind::Only: {
    Instr I;
    I.Op = Opcode::Only;
    I.Src = E;
    RegSetOp RS;
    RS.Set = E->onlySet();
    for (Region R : E->onlySet()) {
      uint32_t Idx = addReg(R);
      if (Out->RegOps[Idx].Kind != RegOperand::K::Const)
        RS.AllConst = false;
      RS.Elems.push_back(Idx);
    }
    I.A = static_cast<uint32_t>(Out->RegSets.size());
    Out->RegSets.push_back(std::move(RS));
    uint32_t At = emit(I);
    compileTerm(E->sub1());
    return At;
  }

  case TermKind::Typecase: {
    Instr I;
    I.Src = E;
    I.A = addTag(E->tag());
    const TagOperand &TOp = Out->TagOps[I.A];
    TagKind SK = TOp.Kind == TagOperand::K::Const ? TOp.T->kind()
                                                  : TagKind::Var;
    bool Static = TOp.Kind == TagOperand::K::Const &&
                  (SK == TagKind::Int || SK == TagKind::Arrow ||
                   SK == TagKind::Prod || SK == TagKind::Exists);
    I.Op = Static ? Opcode::TypecaseStatic : Opcode::Typecase;

    TypecaseInfo TI;
    TI.ProdSlot1 = newSlot();
    TI.ProdSlot2 = newSlot();
    TI.ExistsSlot = newSlot();
    if (Static) {
      TI.StaticKind = SK;
      if (SK == TagKind::Prod) {
        TI.StaticA = TOp.T->left();
        TI.StaticB = TOp.T->right();
      } else if (SK == TagKind::Exists) {
        // Same closure the interpreters build at every analysis of ∃t.τ.
        TI.StaticA = C.tagLam(TOp.T->var(), C.omega(), TOp.T->body());
      }
    }
    uint32_t TIdx = static_cast<uint32_t>(Out->Typecases.size());
    Out->Typecases.push_back(TI);
    I.B = TIdx;
    uint32_t At = emit(I);

    // All four branches are compiled even for the static form: dead-branch
    // code is tiny and keeps the listing (and Src anchoring) uniform.
    uint32_t IntT = compileTerm(E->caseInt());
    uint32_t ArrowT = compileTerm(E->caseArrow());
    ScopeMark M = markScope();
    pushScope(E->prodVar1(), Sort::Tag, TI.ProdSlot1);
    pushScope(E->prodVar2(), Sort::Tag, TI.ProdSlot2);
    uint32_t ProdT = compileTerm(E->caseProd());
    resetScope(M);
    pushScope(E->existsVar(), Sort::Tag, TI.ExistsSlot);
    uint32_t ExistsT = compileTerm(E->caseExists());
    resetScope(M);

    TypecaseInfo &Patched = Out->Typecases[TIdx];
    Patched.IntT = IntT;
    Patched.ArrowT = ArrowT;
    Patched.ProdT = ProdT;
    Patched.ExistsT = ExistsT;
    return At;
  }

  case TermKind::IfLeft: {
    Instr I;
    I.Op = Opcode::IfLeft;
    I.Src = E;
    I.A = addVal(E->scrutinee());
    uint32_t Slot = newSlot();
    I.B = Slot;
    uint32_t At = emit(I);
    ScopeMark M = markScope();
    pushScope(E->binderVar(), Sort::Val, Slot);
    uint32_t Then = compileTerm(E->sub1());
    resetScope(M);
    pushScope(E->binderVar(), Sort::Val, Slot);
    uint32_t Else = compileTerm(E->sub2());
    resetScope(M);
    Out->Code[At].C = Then;
    Out->Code[At].D = Else;
    return At;
  }

  case TermKind::Set: {
    Instr I;
    I.Op = Opcode::Set;
    I.Src = E;
    I.A = addVal(E->scrutinee());
    I.B = addVal(E->setSource());
    uint32_t At = emit(I);
    compileTerm(E->sub1());
    return At;
  }

  case TermKind::LetWiden: {
    Instr I;
    I.Op = Opcode::LetWiden;
    I.Src = E;
    I.A = addVal(E->scrutinee());
    I.B = addReg(E->region());
    uint32_t Slot = newSlot();
    I.C = Slot;
    uint32_t At = emit(I);
    ScopeMark M = markScope();
    pushScope(E->binderVar(), Sort::Val, Slot);
    compileTerm(E->sub1());
    resetScope(M);
    return At;
  }

  case TermKind::IfReg: {
    Instr I;
    I.Op = Opcode::IfReg;
    I.Src = E;
    I.A = addReg(E->ifregLhs());
    I.B = addReg(E->ifregRhs());
    uint32_t At = emit(I);
    uint32_t Then = compileTerm(E->sub1());
    uint32_t Else = compileTerm(E->sub2());
    Out->Code[At].C = Then;
    Out->Code[At].D = Else;
    return At;
  }

  case TermKind::If0: {
    Instr I;
    I.Op = Opcode::If0;
    I.Src = E;
    I.A = addVal(E->scrutinee());
    uint32_t At = emit(I);
    uint32_t Then = compileTerm(E->sub1());
    uint32_t Else = compileTerm(E->sub2());
    Out->Code[At].B = Then;
    Out->Code[At].C = Else;
    return At;
  }
  }
  assert(false && "unknown term form");
  return 0;
}

std::unique_ptr<Chunk> Lowerer::lowerMain(const Term *E, std::string Label) {
  auto Ch = std::make_unique<Chunk>();
  Ch->Label = std::move(Label);
  Out = Ch.get();
  Stack.clear();
  Top = -1;
  compileTerm(E);
  Out = nullptr;
  return Ch;
}

std::unique_ptr<Chunk> Lowerer::lowerCode(const Value *Code,
                                          std::string Label) {
  assert(Code->is(ValueKind::Code) && "lowerCode on non-code value");
  auto Ch = std::make_unique<Chunk>();
  Ch->Label = std::move(Label);
  Ch->CodeVal = Code;
  Out = Ch.get();
  Stack.clear();
  Top = -1;
  for (Symbol S : Code->tagParams())
    pushScope(S, Sort::Tag, newSlot());
  for (Symbol S : Code->regionParams())
    pushScope(S, Sort::Region, newSlot());
  for (Symbol S : Code->valParams())
    pushScope(S, Sort::Val, newSlot());
  Ch->NumTagParams = static_cast<uint32_t>(Code->tagParams().size());
  Ch->NumRegionParams = static_cast<uint32_t>(Code->regionParams().size());
  Ch->NumValParams = static_cast<uint32_t>(Code->valParams().size());
  compileTerm(Code->codeBody());
  Out = nullptr;
  return Ch;
}
