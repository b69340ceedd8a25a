//===- gc/Subst.cpp - Simultaneous capture-avoiding substitution ----------===//
///
/// \file
/// One traversal, Rewriter<Policy>, implements both applySubst (Fig 5's
/// capture-avoiding substitution) and the environment machine's close*
/// (the same substitution restricted to closed ranges, DESIGN.md §3.6).
/// The traversal fixes the child order and returns a node as it is when
/// its children and binders come back unchanged; ground tags and types are
/// skipped outright. A compile-time binder policy supplies what differs:
///
///  * SubstPolicy renames a binder that collides with the substitution's
///    domain or with a symbol its range mentions, extending the
///    substitution copy-on-write;
///  * ClosePolicy never renames (a closed range cannot be captured): a
///    binder only masks same-named entries underneath.
///
//===----------------------------------------------------------------------===//

#include "gc/Ops.h"

using namespace scav;
using namespace scav::gc;

namespace {

/// The set of symbols that force a binder rename.
///
/// A ground range node has no variables at all, so it cannot capture any
/// binder; its symbols (concrete region names, at most) need not poison
/// the traversal. Skipping them keeps the unsafe set small, which keeps
/// binders un-renamed, which in turn lets the identity checks return
/// original (interned) subtrees.
SymbolSet computeUnsafe(const Subst &S) {
  SymbolSet U;
  for (const auto &[K, V] : S.Tags) {
    U.insert(K);
    if (V->isGround())
      continue;
    collectSymbols(V, U);
  }
  for (const auto &[K, V] : S.Regions) {
    U.insert(K);
    U.insert(V.sym());
  }
  for (const auto &[K, V] : S.Types) {
    U.insert(K);
    if (V->isGround())
      continue;
    collectSymbols(V, U);
  }
  for (const auto &[K, V] : S.Vals) {
    U.insert(K);
    collectSymbols(V, U);
  }
  return U;
}

enum class VarSort { TagVar, RegionVar, TypeVar, ValVar };

template <VarSort S> const auto &sortMap(const Subst &Su) {
  if constexpr (S == VarSort::TagVar)
    return Su.Tags;
  else if constexpr (S == VarSort::RegionVar)
    return Su.Regions;
  else if constexpr (S == VarSort::TypeVar)
    return Su.Types;
  else
    return Su.Vals;
}

/// The one variable lookup: \p Self when \p Sym is unbound, else its image,
/// counted as an environment hit when \p Ctr is set.
template <typename Map, typename N>
N lookup(const Map &M, Symbol Sym, N Self, CloseCounters *Ctr) {
  auto It = M.find(Sym);
  if (It == M.end())
    return Self;
  if (Ctr)
    ++Ctr->Lookups;
  return It->second;
}

/// applySubst's binder policy: a binder in the substitution's domain or
/// among the symbols its range mentions is renamed to a fresh symbol, and
/// the substitution is extended (copied on the first rename of a scope) to
/// map the old name to the new one.
class SubstPolicy {
public:
  SubstPolicy(GcContext &C, const Subst &S)
      : C(C), Unsafe(computeUnsafe(S)), Cur(&S), CurUnsafe(&Unsafe) {}

  const Subst &subst() const { return *Cur; }
  static bool masked(VarSort, Symbol) { return false; }
  static CloseCounters *counters() { return nullptr; }
  void groundSkip() { ++C.stats().SubstGroundSkips; }

  /// The binders of one node; restores the outer substitution on exit.
  class Scope {
  public:
    explicit Scope(SubstPolicy &P)
        : P(P), SavedS(P.Cur), SavedUnsafe(P.CurUnsafe) {}
    ~Scope() {
      P.Cur = SavedS;
      P.CurUnsafe = SavedUnsafe;
    }

    /// Enters one binder; returns the binder to emit.
    Symbol enter(VarSort Sort, Symbol B) {
      bool InDomain = false;
      switch (Sort) {
      case VarSort::TagVar:
        InDomain = P.Cur->Tags.count(B) != 0;
        break;
      case VarSort::RegionVar:
        InDomain = P.Cur->Regions.count(B) != 0;
        break;
      case VarSort::TypeVar:
        InDomain = P.Cur->Types.count(B) != 0;
        break;
      case VarSort::ValVar:
        InDomain = P.Cur->Vals.count(B) != 0;
        break;
      }
      if (!InDomain && P.CurUnsafe->count(B) == 0)
        return B;
      if (!OwnedS) {
        OwnedS = std::make_unique<Subst>(*P.Cur);
        OwnedUnsafe = std::make_unique<SymbolSet>(*P.CurUnsafe);
        P.Cur = OwnedS.get();
        P.CurUnsafe = OwnedUnsafe.get();
      }
      GcContext &C = P.C;
      Symbol B2 = C.fresh(C.name(B));
      switch (Sort) {
      case VarSort::TagVar:
        OwnedS->Tags[B] = C.tagVar(B2);
        break;
      case VarSort::RegionVar:
        OwnedS->Regions[B] = Region::var(B2);
        break;
      case VarSort::TypeVar:
        OwnedS->Types[B] = C.typeVar(B2);
        break;
      case VarSort::ValVar:
        OwnedS->Vals[B] = C.valVar(B2);
        break;
      }
      OwnedUnsafe->insert(B2);
      return B2;
    }

  private:
    SubstPolicy &P;
    const Subst *SavedS;
    const SymbolSet *SavedUnsafe;
    std::unique_ptr<Subst> OwnedS;
    std::unique_ptr<SymbolSet> OwnedUnsafe;
  };

private:
  GcContext &C;
  SymbolSet Unsafe;
  const Subst *Cur;
  const SymbolSet *CurUnsafe;
};

/// close*'s binder policy (see the contract in Ops.h): every range is
/// closed, so no binder can capture it and none is renamed. A binder only
/// masks same-named entries of its sort underneath; the masks count,
/// because nested binders can rebind one symbol.
class ClosePolicy {
public:
  ClosePolicy(const Subst &Env, CloseCounters *Ctr) : Env(Env), Ctr(Ctr) {}

  const Subst &subst() const { return Env; }
  bool masked(VarSort Sort, Symbol B) const {
    const MaskMap &M = Masks[static_cast<unsigned>(Sort)];
    return !M.empty() && M.count(B) != 0;
  }
  CloseCounters *counters() const { return Ctr; }
  static void groundSkip() {}

  /// The binders of one node; unmasks them on exit.
  class Scope {
  public:
    explicit Scope(ClosePolicy &P) : P(P) {}
    ~Scope() {
      for (auto It = Entered.rbegin(); It != Entered.rend(); ++It) {
        MaskMap &M = P.Masks[static_cast<unsigned>(It->first)];
        auto MI = M.find(It->second);
        if (--MI->second == 0)
          M.erase(MI);
      }
    }

    Symbol enter(VarSort Sort, Symbol B) {
      ++P.Masks[static_cast<unsigned>(Sort)][B];
      Entered.emplace_back(Sort, B);
      return B;
    }

  private:
    ClosePolicy &P;
    std::vector<std::pair<VarSort, Symbol>> Entered;
  };

private:
  using MaskMap = std::unordered_map<Symbol, unsigned, SymbolHash>;

  const Subst &Env;
  CloseCounters *Ctr;
  MaskMap Masks[4];
};

/// A list rewritten element by element, in order. The output is copied
/// from the input only from the first changed element on, so an unchanged
/// list costs no allocation.
template <typename N> class ListRewrite {
public:
  template <typename F>
  ListRewrite(const std::vector<N> &In, F &&Fn) : In(In) {
    for (size_t I = 0, E = In.size(); I != E; ++I) {
      N X = Fn(In[I]);
      if (Same && X == In[I])
        continue;
      if (Same) {
        Out.reserve(E);
        Out.assign(In.begin(), In.begin() + I);
        Same = false;
      }
      Out.push_back(X);
    }
  }

  bool Same = true;

  std::vector<N> take() {
    if (Same)
      return In;
    return std::move(Out);
  }

private:
  const std::vector<N> &In;
  std::vector<N> Out;
};

/// The one traversal over every syntactic class. A node whose children and
/// binders all come back unchanged is returned as it is.
template <typename Policy> class Rewriter {
public:
  Rewriter(GcContext &C, Policy &P) : C(C), P(P) {}

  const Tag *operator()(const Tag *T) { return tag(T); }
  const Type *operator()(const Type *T) { return type(T); }
  const Value *operator()(const Value *V) { return value(V); }
  const Op *operator()(const Op *O) { return op(O); }
  const Term *operator()(const Term *T) { return term(T); }

  Region region(Region R) {
    return R.isVar() ? var<VarSort::RegionVar>(R.sym(), R) : R;
  }
  RegionSet regionSet(const RegionSet &RS) {
    RegionSet Out;
    for (Region R : RS)
      Out.insert(region(R));
    return Out;
  }
  const Tag *tag(const Tag *T);
  const Type *type(const Type *T);
  const Value *value(const Value *V);
  const Op *op(const Op *O);
  const Term *term(const Term *T);

private:
  using Scope = typename Policy::Scope;

  template <VarSort S, typename N> N var(Symbol B, N Self) {
    if (P.masked(S, B))
      return Self;
    return lookup(sortMap<S>(P.subst()), B, Self, P.counters());
  }

  GcContext &C;
  Policy &P;
};

template <typename Policy> const Tag *Rewriter<Policy>::tag(const Tag *T) {
  // Ground subtrees mention no variables of any sort, so every
  // substitution is the identity on them.
  if (T->isGround()) {
    P.groundSkip();
    return T;
  }
  switch (T->kind()) {
  case TagKind::Int:
    return T;
  case TagKind::Var:
    return var<VarSort::TagVar>(T->var(), T);
  case TagKind::Prod:
  case TagKind::App: {
    const Tag *A = tag(T->left());
    const Tag *B = tag(T->right());
    if (A == T->left() && B == T->right())
      return T;
    return T->is(TagKind::Prod) ? C.tagProd(A, B) : C.tagApp(A, B);
  }
  case TagKind::Arrow: {
    ListRewrite Args(T->arrowArgs(), [&](const Tag *A) { return tag(A); });
    return Args.Same ? T : C.tagArrow(Args.take());
  }
  case TagKind::Exists:
  case TagKind::Lam: {
    Scope Sc(P);
    Symbol B = Sc.enter(VarSort::TagVar, T->var());
    const Tag *Body = tag(T->body());
    if (B == T->var() && Body == T->body())
      return T;
    return T->is(TagKind::Exists) ? C.tagExists(B, Body)
                                  : C.tagLam(B, T->binderKind(), Body);
  }
  }
  return T;
}

template <typename Policy> const Type *Rewriter<Policy>::type(const Type *T) {
  // See tag(): ground types mention no variables (and only concrete region
  // names), so substitution cannot change them.
  if (T->isGround()) {
    P.groundSkip();
    return T;
  }
  switch (T->kind()) {
  case TypeKind::Int:
    return T;
  case TypeKind::TyVar:
    return var<VarSort::TypeVar>(T->var(), T);
  case TypeKind::Prod:
  case TypeKind::Sum: {
    const Type *A = type(T->left());
    const Type *B = type(T->right());
    if (A == T->left() && B == T->right())
      return T;
    return T->is(TypeKind::Prod) ? C.typeProd(A, B) : C.typeSum(A, B);
  }
  case TypeKind::Left:
  case TypeKind::Right: {
    const Type *B = type(T->body());
    if (B == T->body())
      return T;
    return T->is(TypeKind::Left) ? C.typeLeft(B) : C.typeRight(B);
  }
  case TypeKind::At: {
    const Type *B = type(T->body());
    Region R = region(T->atRegion());
    return B == T->body() && R == T->atRegion() ? T : C.typeAt(B, R);
  }
  case TypeKind::MApp: {
    ListRewrite Rs(T->mRegions(), [&](Region R) { return region(R); });
    const Tag *Tg = tag(T->tag());
    if (Rs.Same && Tg == T->tag())
      return T;
    return C.typeM(Rs.take(), Tg);
  }
  case TypeKind::CApp: {
    Region F = region(T->cFrom());
    Region To = region(T->cTo());
    const Tag *Tg = tag(T->tag());
    if (F == T->cFrom() && To == T->cTo() && Tg == T->tag())
      return T;
    return C.typeC(F, To, Tg);
  }
  case TypeKind::ExistsTag: {
    Scope Sc(P);
    Symbol B = Sc.enter(VarSort::TagVar, T->var());
    const Type *Body = type(T->body());
    if (B == T->var() && Body == T->body())
      return T;
    return C.typeExistsTag(B, T->binderKind(), Body);
  }
  case TypeKind::ExistsTyVar:
  case TypeKind::ExistsRegion: {
    bool TyVar = T->is(TypeKind::ExistsTyVar);
    RegionSet Delta = regionSet(T->delta());
    Scope Sc(P);
    Symbol B =
        Sc.enter(TyVar ? VarSort::TypeVar : VarSort::RegionVar, T->var());
    const Type *Body = type(T->body());
    if (B == T->var() && Body == T->body() && Delta == T->delta())
      return T;
    return TyVar ? C.typeExistsTyVar(B, std::move(Delta), Body)
                 : C.typeExistsRegion(B, std::move(Delta), Body);
  }
  case TypeKind::Code: {
    Scope Sc(P);
    ListRewrite TagPs(T->tagParams(), [&](Symbol B) {
      return Sc.enter(VarSort::TagVar, B);
    });
    ListRewrite RegionPs(T->regionParams(), [&](Symbol B) {
      return Sc.enter(VarSort::RegionVar, B);
    });
    ListRewrite Args(T->argTypes(), [&](const Type *A) { return type(A); });
    if (TagPs.Same && RegionPs.Same && Args.Same)
      return T;
    return C.typeCode(TagPs.take(), T->tagParamKinds(), RegionPs.take(),
                      Args.take());
  }
  case TypeKind::TransCode: {
    ListRewrite Tags(T->transTags(), [&](const Tag *A) { return tag(A); });
    ListRewrite Rs(T->transRegions(), [&](Region R) { return region(R); });
    Region At = region(T->atRegion());
    ListRewrite Args(T->argTypes(), [&](const Type *A) { return type(A); });
    if (Tags.Same && Rs.Same && At == T->atRegion() && Args.Same)
      return T;
    return C.typeTransCode(Tags.take(), Rs.take(), Args.take(), At);
  }
  }
  return T;
}

template <typename Policy>
const Value *Rewriter<Policy>::value(const Value *V) {
  switch (V->kind()) {
  case ValueKind::Int:
  case ValueKind::Addr:
    return V;
  case ValueKind::Var:
    return var<VarSort::ValVar>(V->var(), V);
  case ValueKind::Pair: {
    const Value *A = value(V->first());
    const Value *B = value(V->second());
    return A == V->first() && B == V->second() ? V : C.valPair(A, B);
  }
  case ValueKind::Inl:
  case ValueKind::Inr: {
    const Value *X = value(V->payload());
    if (X == V->payload())
      return V;
    return V->is(ValueKind::Inl) ? C.valInl(X) : C.valInr(X);
  }
  // A pack's witness and payload are rewritten outside its binder; only
  // the body type sees it.
  case ValueKind::PackTag: {
    const Tag *W = tag(V->tagWitness());
    const Value *X = value(V->payload());
    Scope Sc(P);
    Symbol B = Sc.enter(VarSort::TagVar, V->var());
    const Type *BT = type(V->bodyType());
    if (B == V->var() && W == V->tagWitness() && X == V->payload() &&
        BT == V->bodyType())
      return V;
    return C.valPackTag(B, W, X, BT);
  }
  case ValueKind::PackTyVar: {
    RegionSet Delta = regionSet(V->delta());
    const Type *W = type(V->typeWitness());
    const Value *X = value(V->payload());
    Scope Sc(P);
    Symbol B = Sc.enter(VarSort::TypeVar, V->var());
    const Type *BT = type(V->bodyType());
    if (B == V->var() && Delta == V->delta() && W == V->typeWitness() &&
        X == V->payload() && BT == V->bodyType())
      return V;
    return C.valPackTyVar(B, std::move(Delta), W, X, BT);
  }
  case ValueKind::PackRegion: {
    RegionSet Delta = regionSet(V->delta());
    Region W = region(V->regionWitness());
    const Value *X = value(V->payload());
    Scope Sc(P);
    Symbol B = Sc.enter(VarSort::RegionVar, V->var());
    const Type *BT = type(V->bodyType());
    if (B == V->var() && Delta == V->delta() && W == V->regionWitness() &&
        X == V->payload() && BT == V->bodyType())
      return V;
    return C.valPackRegion(B, std::move(Delta), W, X, BT);
  }
  case ValueKind::TransApp: {
    const Value *X = value(V->payload());
    ListRewrite Tags(V->transTags(), [&](const Tag *T) { return tag(T); });
    ListRewrite Rs(V->transRegions(), [&](Region R) { return region(R); });
    if (X == V->payload() && Tags.Same && Rs.Same)
      return V;
    return C.valTransApp(X, Tags.take(), Rs.take());
  }
  case ValueKind::Code: {
    Scope Sc(P);
    ListRewrite TagPs(V->tagParams(), [&](Symbol B) {
      return Sc.enter(VarSort::TagVar, B);
    });
    ListRewrite RegionPs(V->regionParams(), [&](Symbol B) {
      return Sc.enter(VarSort::RegionVar, B);
    });
    ListRewrite ValPs(V->valParams(), [&](Symbol B) {
      return Sc.enter(VarSort::ValVar, B);
    });
    ListRewrite Types(V->valParamTypes(),
                      [&](const Type *T) { return type(T); });
    const Term *Body = term(V->codeBody());
    if (TagPs.Same && RegionPs.Same && ValPs.Same && Types.Same &&
        Body == V->codeBody())
      return V;
    return C.valCode(TagPs.take(), V->tagParamKinds(), RegionPs.take(),
                     ValPs.take(), Types.take(), Body);
  }
  }
  return V;
}

template <typename Policy> const Op *Rewriter<Policy>::op(const Op *O) {
  switch (O->kind()) {
  case OpKind::Val:
  case OpKind::Proj1:
  case OpKind::Proj2:
  case OpKind::Get:
  case OpKind::Strip: {
    const Value *V = value(O->value());
    if (V == O->value())
      return O;
    switch (O->kind()) {
    case OpKind::Val:
      return C.opVal(V);
    case OpKind::Get:
      return C.opGet(V);
    case OpKind::Strip:
      return C.opStrip(V);
    default:
      return C.opProj(O->is(OpKind::Proj1) ? 1 : 2, V);
    }
  }
  case OpKind::Put: {
    Region R = region(O->putRegion());
    const Value *V = value(O->value());
    if (R == O->putRegion() && V == O->value())
      return O;
    return C.opPut(R, V);
  }
  case OpKind::Prim: {
    const Value *L = value(O->lhs());
    const Value *R = value(O->rhs());
    if (L == O->lhs() && R == O->rhs())
      return O;
    return C.opPrim(O->primOp(), L, R);
  }
  }
  return O;
}

template <typename Policy> const Term *Rewriter<Policy>::term(const Term *T) {
  switch (T->kind()) {
  case TermKind::App: {
    const Value *F = value(T->appFun());
    ListRewrite Tags(T->appTags(), [&](const Tag *A) { return tag(A); });
    ListRewrite Rs(T->appRegions(), [&](Region R) { return region(R); });
    ListRewrite Args(T->appArgs(), [&](const Value *A) { return value(A); });
    if (F == T->appFun() && Tags.Same && Rs.Same && Args.Same)
      return T;
    return C.termApp(F, Tags.take(), Rs.take(), Args.take());
  }
  case TermKind::Let: {
    const Op *O = op(T->letOp());
    Scope Sc(P);
    Symbol X = Sc.enter(VarSort::ValVar, T->binderVar());
    const Term *B = term(T->sub1());
    if (O == T->letOp() && X == T->binderVar() && B == T->sub1())
      return T;
    return C.termLet(X, O, B);
  }
  case TermKind::Halt: {
    const Value *V = value(T->scrutinee());
    return V == T->scrutinee() ? T : C.termHalt(V);
  }
  case TermKind::IfGc: {
    Region R = region(T->region());
    const Term *A = term(T->sub1());
    const Term *B = term(T->sub2());
    if (R == T->region() && A == T->sub1() && B == T->sub2())
      return T;
    return C.termIfGc(R, A, B);
  }
  case TermKind::OpenTag:
  case TermKind::OpenTyVar:
  case TermKind::OpenRegion: {
    const Value *V = value(T->scrutinee());
    Scope Sc(P);
    VarSort Sort = T->is(TermKind::OpenTag)     ? VarSort::TagVar
                   : T->is(TermKind::OpenTyVar) ? VarSort::TypeVar
                                                : VarSort::RegionVar;
    Symbol A = Sc.enter(Sort, T->binderVar());
    Symbol X = Sc.enter(VarSort::ValVar, T->binderVar2());
    const Term *B = term(T->sub1());
    if (V == T->scrutinee() && A == T->binderVar() && X == T->binderVar2() &&
        B == T->sub1())
      return T;
    if (T->is(TermKind::OpenTag))
      return C.termOpenTag(V, A, X, B);
    if (T->is(TermKind::OpenTyVar))
      return C.termOpenTyVar(V, A, X, B);
    return C.termOpenRegion(V, A, X, B);
  }
  case TermKind::LetRegion: {
    Scope Sc(P);
    Symbol R = Sc.enter(VarSort::RegionVar, T->binderVar());
    const Term *B = term(T->sub1());
    if (R == T->binderVar() && B == T->sub1())
      return T;
    return C.termLetRegion(R, B);
  }
  case TermKind::Only: {
    RegionSet Keep = regionSet(T->onlySet());
    const Term *B = term(T->sub1());
    if (Keep == T->onlySet() && B == T->sub1())
      return T;
    return C.termOnly(std::move(Keep), B);
  }
  case TermKind::Typecase: {
    const Tag *Scrut = tag(T->tag());
    const Term *CaseI = term(T->caseInt());
    const Term *CaseA = term(T->caseArrow());
    // Each binding case gets its own scope over the outer substitution.
    Symbol T1 = T->prodVar1(), T2 = T->prodVar2(), Te = T->existsVar();
    const Term *CaseP = nullptr, *CaseE = nullptr;
    {
      Scope Sc(P);
      T1 = Sc.enter(VarSort::TagVar, T->prodVar1());
      T2 = Sc.enter(VarSort::TagVar, T->prodVar2());
      CaseP = term(T->caseProd());
    }
    {
      Scope Sc(P);
      Te = Sc.enter(VarSort::TagVar, T->existsVar());
      CaseE = term(T->caseExists());
    }
    if (Scrut == T->tag() && CaseI == T->caseInt() && CaseA == T->caseArrow() &&
        T1 == T->prodVar1() && T2 == T->prodVar2() && CaseP == T->caseProd() &&
        Te == T->existsVar() && CaseE == T->caseExists())
      return T;
    return C.termTypecase(Scrut, CaseI, CaseA, T1, T2, CaseP, Te, CaseE);
  }
  case TermKind::IfLeft: {
    const Value *V = value(T->scrutinee());
    Scope Sc(P);
    Symbol X = Sc.enter(VarSort::ValVar, T->binderVar());
    const Term *A = term(T->sub1());
    const Term *B = term(T->sub2());
    if (V == T->scrutinee() && X == T->binderVar() && A == T->sub1() &&
        B == T->sub2())
      return T;
    return C.termIfLeft(X, V, A, B);
  }
  case TermKind::Set: {
    const Value *Dst = value(T->scrutinee());
    const Value *Src = value(T->setSource());
    const Term *B = term(T->sub1());
    if (Dst == T->scrutinee() && Src == T->setSource() && B == T->sub1())
      return T;
    return C.termSet(Dst, Src, B);
  }
  case TermKind::LetWiden: {
    Region R = region(T->region());
    const Tag *Tau = tag(T->tag());
    const Value *V = value(T->scrutinee());
    Scope Sc(P);
    Symbol X = Sc.enter(VarSort::ValVar, T->binderVar());
    const Term *B = term(T->sub1());
    if (R == T->region() && Tau == T->tag() && V == T->scrutinee() &&
        X == T->binderVar() && B == T->sub1())
      return T;
    return C.termLetWiden(X, R, Tau, V, B);
  }
  case TermKind::IfReg: {
    Region A = region(T->ifregLhs());
    Region B = region(T->ifregRhs());
    const Term *E1 = term(T->sub1());
    const Term *E2 = term(T->sub2());
    if (A == T->ifregLhs() && B == T->ifregRhs() && E1 == T->sub1() &&
        E2 == T->sub2())
      return T;
    return C.termIfReg(A, B, E1, E2);
  }
  case TermKind::If0: {
    const Value *V = value(T->scrutinee());
    const Term *E1 = term(T->sub1());
    const Term *E2 = term(T->sub2());
    if (V == T->scrutinee() && E1 == T->sub1() && E2 == T->sub2())
      return T;
    return C.termIf0(V, E1, E2);
  }
  }
  return T;
}

template <typename N>
N closeNode(GcContext &C, N X, const Subst &Env, CloseCounters *Ctr) {
  if (Env.empty())
    return X;
  ClosePolicy P(Env, Ctr);
  return Rewriter<ClosePolicy>(C, P)(X);
}

template <typename N> N substNode(GcContext &C, N X, const Subst &S) {
  if (S.empty())
    return X;
  SubstPolicy P(C, S);
  return Rewriter<SubstPolicy>(C, P)(X);
}

} // namespace

const Tag *scav::gc::closeTag(GcContext &C, const Tag *T, const Subst &Env,
                              CloseCounters *Counters) {
  return closeNode(C, T, Env, Counters);
}

const Type *scav::gc::closeType(GcContext &C, const Type *T, const Subst &Env,
                                CloseCounters *Counters) {
  return closeNode(C, T, Env, Counters);
}

const Value *scav::gc::closeValue(GcContext &C, const Value *V,
                                  const Subst &Env, CloseCounters *Counters) {
  return closeNode(C, V, Env, Counters);
}

const Term *scav::gc::closeTerm(GcContext &C, const Term *E, const Subst &Env,
                                CloseCounters *Counters) {
  return closeNode(C, E, Env, Counters);
}

Region scav::gc::closeRegion(Region R, const Subst &Env,
                             CloseCounters *Counters) {
  return R.isVar() ? lookup(Env.Regions, R.sym(), R, Counters) : R;
}

RegionSet scav::gc::closeRegionSet(const RegionSet &RS, const Subst &Env,
                                   CloseCounters *Counters) {
  RegionSet Out;
  for (Region R : RS)
    Out.insert(closeRegion(R, Env, Counters));
  return Out;
}

const Tag *scav::gc::applySubst(GcContext &C, const Tag *T, const Subst &S) {
  return substNode(C, T, S);
}

const Type *scav::gc::applySubst(GcContext &C, const Type *T, const Subst &S) {
  return substNode(C, T, S);
}

const Value *scav::gc::applySubst(GcContext &C, const Value *V,
                                  const Subst &S) {
  return substNode(C, V, S);
}

const Op *scav::gc::applySubst(GcContext &C, const Op *O, const Subst &S) {
  return substNode(C, O, S);
}

const Term *scav::gc::applySubst(GcContext &C, const Term *E, const Subst &S) {
  return substNode(C, E, S);
}

Region scav::gc::applySubst(Region R, const Subst &S) {
  return closeRegion(R, S);
}

RegionSet scav::gc::applySubst(const RegionSet &RS, const Subst &S) {
  return closeRegionSet(RS, S);
}

const Tag *scav::gc::substTag(GcContext &C, const Tag *In, Symbol Var,
                              const Tag *Rep) {
  Subst S;
  S.Tags[Var] = Rep;
  return applySubst(C, In, S);
}

const Type *scav::gc::substTagInType(GcContext &C, const Type *In, Symbol Var,
                                     const Tag *Rep) {
  Subst S;
  S.Tags[Var] = Rep;
  return applySubst(C, In, S);
}

const Type *scav::gc::substRegionInType(GcContext &C, const Type *In,
                                        Symbol Var, Region Rep) {
  Subst S;
  S.Regions[Var] = Rep;
  return applySubst(C, In, S);
}

const Type *scav::gc::substTypeVarInType(GcContext &C, const Type *In,
                                         Symbol Var, const Type *Rep) {
  Subst S;
  S.Types[Var] = Rep;
  return applySubst(C, In, S);
}
