//===- gc/Subst.cpp - Simultaneous capture-avoiding substitution ----------===//
///
/// \file
/// Implements applySubst over every syntactic class. Binders are freshened
/// only when they collide with the substitution's domain or with symbols
/// mentioned by its range ("unsafe" symbols), so the common path allocates
/// no extra maps.
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
/// binders un-renamed, which in turn lets the identity checks below return
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

/// Carries the substitution and unsafe set down the traversal; extended
/// (copied) only when a binder must be renamed or shadowed.
struct Env {
  GcContext &C;
  const Subst &S;
  const SymbolSet &Unsafe;
};

/// Result of entering a binder: the possibly-renamed binder plus the
/// environment to use for the body. Owns the extension storage.
struct BinderScope {
  BinderScope(const Env &E) : C(E.C), CurS(&E.S), CurUnsafe(&E.Unsafe) {}

  /// Enters one binder of the given sort; returns the binder to emit.
  Symbol enter(Symbol B, VarSort Sort) {
    bool InDomain = false;
    switch (Sort) {
    case VarSort::TagVar:
      InDomain = CurS->Tags.count(B) != 0;
      break;
    case VarSort::RegionVar:
      InDomain = CurS->Regions.count(B) != 0;
      break;
    case VarSort::TypeVar:
      InDomain = CurS->Types.count(B) != 0;
      break;
    case VarSort::ValVar:
      InDomain = CurS->Vals.count(B) != 0;
      break;
    }
    if (!InDomain && CurUnsafe->count(B) == 0)
      return B;

    // Copy-on-write extension.
    if (!OwnedS) {
      OwnedS = std::make_unique<Subst>(*CurS);
      OwnedUnsafe = std::make_unique<SymbolSet>(*CurUnsafe);
      CurS = OwnedS.get();
      CurUnsafe = OwnedUnsafe.get();
    }
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

  Env env() const { return Env{C, *CurS, *CurUnsafe}; }

private:
  GcContext &C;
  const Subst *CurS;
  const SymbolSet *CurUnsafe;
  std::unique_ptr<Subst> OwnedS;
  std::unique_ptr<SymbolSet> OwnedUnsafe;
};

Region substRegion(Region R, const Env &E) {
  if (!R.isVar())
    return R;
  auto It = E.S.Regions.find(R.sym());
  return It == E.S.Regions.end() ? R : It->second;
}

RegionSet substRegionSet(const RegionSet &RS, const Env &E) {
  RegionSet Out;
  for (Region R : RS)
    Out.insert(substRegion(R, E));
  return Out;
}

const Tag *substTagRec(const Tag *T, const Env &E);
const Type *substTypeRec(const Type *T, const Env &E);
const Value *substValueRec(const Value *V, const Env &E);
const Term *substTermRec(const Term *T, const Env &E);

const Tag *substTagRec(const Tag *T, const Env &E) {
  GcContext &C = E.C;
  // Ground subtrees mention no variables of any sort, so every substitution
  // is the identity on them.
  if (T->isGround()) {
    ++C.stats().SubstGroundSkips;
    return T;
  }
  // Unchanged children ⇒ return T itself below: rebuilding an unchanged
  // node would only be a wasted uniquing lookup.
  switch (T->kind()) {
  case TagKind::Int:
    return T;
  case TagKind::Var: {
    auto It = E.S.Tags.find(T->var());
    return It == E.S.Tags.end() ? T : It->second;
  }
  case TagKind::Prod: {
    const Tag *A = substTagRec(T->left(), E);
    const Tag *B = substTagRec(T->right(), E);
    if (A == T->left() && B == T->right())
      return T;
    return C.tagProd(A, B);
  }
  case TagKind::App: {
    const Tag *A = substTagRec(T->left(), E);
    const Tag *B = substTagRec(T->right(), E);
    if (A == T->left() && B == T->right())
      return T;
    return C.tagApp(A, B);
  }
  case TagKind::Arrow: {
    std::vector<const Tag *> Args;
    Args.reserve(T->arrowArgs().size());
    bool Same = true;
    for (const Tag *A : T->arrowArgs()) {
      const Tag *N = substTagRec(A, E);
      Same = Same && N == A;
      Args.push_back(N);
    }
    if (Same)
      return T;
    return C.tagArrow(std::move(Args));
  }
  case TagKind::Exists: {
    BinderScope BS(E);
    Symbol B = BS.enter(T->var(), VarSort::TagVar);
    const Tag *Body = substTagRec(T->body(), BS.env());
    if (B == T->var() && Body == T->body())
      return T;
    return C.tagExists(B, Body);
  }
  case TagKind::Lam: {
    BinderScope BS(E);
    Symbol B = BS.enter(T->var(), VarSort::TagVar);
    const Tag *Body = substTagRec(T->body(), BS.env());
    if (B == T->var() && Body == T->body())
      return T;
    return C.tagLam(B, T->binderKind(), Body);
  }
  }
  return T;
}

const Type *substTypeRec(const Type *T, const Env &E) {
  GcContext &C = E.C;
  // See substTagRec: Ground types mention no variables (and only concrete
  // region names), so substitution cannot change them.
  if (T->isGround()) {
    ++C.stats().SubstGroundSkips;
    return T;
  }
  switch (T->kind()) {
  case TypeKind::Int:
    return T;
  case TypeKind::TyVar: {
    auto It = E.S.Types.find(T->var());
    return It == E.S.Types.end() ? T : It->second;
  }
  case TypeKind::Prod: {
    const Type *A = substTypeRec(T->left(), E);
    const Type *B = substTypeRec(T->right(), E);
    if (A == T->left() && B == T->right())
      return T;
    return C.typeProd(A, B);
  }
  case TypeKind::Sum: {
    const Type *A = substTypeRec(T->left(), E);
    const Type *B = substTypeRec(T->right(), E);
    if (A == T->left() && B == T->right())
      return T;
    return C.typeSum(A, B);
  }
  case TypeKind::Left: {
    const Type *B = substTypeRec(T->body(), E);
    return B == T->body() ? T : C.typeLeft(B);
  }
  case TypeKind::Right: {
    const Type *B = substTypeRec(T->body(), E);
    return B == T->body() ? T : C.typeRight(B);
  }
  case TypeKind::At: {
    const Type *B = substTypeRec(T->body(), E);
    Region R = substRegion(T->atRegion(), E);
    if (B == T->body() && R == T->atRegion())
      return T;
    return C.typeAt(B, R);
  }
  case TypeKind::MApp: {
    std::vector<Region> Rs;
    bool Same = true;
    for (Region R : T->mRegions()) {
      Region N = substRegion(R, E);
      Same = Same && N == R;
      Rs.push_back(N);
    }
    const Tag *Tg = substTagRec(T->tag(), E);
    if (Same && Tg == T->tag())
      return T;
    return C.typeM(std::move(Rs), Tg);
  }
  case TypeKind::CApp: {
    Region F = substRegion(T->cFrom(), E);
    Region To = substRegion(T->cTo(), E);
    const Tag *Tg = substTagRec(T->tag(), E);
    if (F == T->cFrom() && To == T->cTo() && Tg == T->tag())
      return T;
    return C.typeC(F, To, Tg);
  }
  case TypeKind::ExistsTag: {
    BinderScope BS(E);
    Symbol B = BS.enter(T->var(), VarSort::TagVar);
    const Type *Body = substTypeRec(T->body(), BS.env());
    if (B == T->var() && Body == T->body())
      return T;
    return C.typeExistsTag(B, T->binderKind(), Body);
  }
  case TypeKind::ExistsTyVar: {
    RegionSet Delta = substRegionSet(T->delta(), E);
    BinderScope BS(E);
    Symbol B = BS.enter(T->var(), VarSort::TypeVar);
    const Type *Body = substTypeRec(T->body(), BS.env());
    if (B == T->var() && Body == T->body() && Delta == T->delta())
      return T;
    return C.typeExistsTyVar(B, std::move(Delta), Body);
  }
  case TypeKind::ExistsRegion: {
    RegionSet Delta = substRegionSet(T->delta(), E);
    BinderScope BS(E);
    Symbol B = BS.enter(T->var(), VarSort::RegionVar);
    const Type *Body = substTypeRec(T->body(), BS.env());
    if (B == T->var() && Body == T->body() && Delta == T->delta())
      return T;
    return C.typeExistsRegion(B, std::move(Delta), Body);
  }
  case TypeKind::Code: {
    BinderScope BS(E);
    std::vector<Symbol> TagParams;
    for (Symbol P : T->tagParams())
      TagParams.push_back(BS.enter(P, VarSort::TagVar));
    std::vector<Symbol> RegionParams;
    for (Symbol P : T->regionParams())
      RegionParams.push_back(BS.enter(P, VarSort::RegionVar));
    Env Inner = BS.env();
    std::vector<const Type *> Args;
    for (const Type *A : T->argTypes())
      Args.push_back(substTypeRec(A, Inner));
    return C.typeCode(std::move(TagParams), T->tagParamKinds(),
                      std::move(RegionParams), std::move(Args));
  }
  case TypeKind::TransCode: {
    std::vector<const Tag *> TagArgs;
    for (const Tag *A : T->transTags())
      TagArgs.push_back(substTagRec(A, E));
    std::vector<Region> RegionArgs;
    for (Region R : T->transRegions())
      RegionArgs.push_back(substRegion(R, E));
    Region At = substRegion(T->atRegion(), E);
    std::vector<const Type *> Args;
    for (const Type *A : T->argTypes())
      Args.push_back(substTypeRec(A, E));
    return C.typeTransCode(std::move(TagArgs), std::move(RegionArgs),
                           std::move(Args), At);
  }
  }
  return T;
}

const Value *substValueRec(const Value *V, const Env &E) {
  GcContext &C = E.C;
  switch (V->kind()) {
  case ValueKind::Int:
  case ValueKind::Addr:
    return V;
  case ValueKind::Var: {
    auto It = E.S.Vals.find(V->var());
    return It == E.S.Vals.end() ? V : It->second;
  }
  case ValueKind::Pair:
    return C.valPair(substValueRec(V->first(), E),
                     substValueRec(V->second(), E));
  case ValueKind::Inl:
    return C.valInl(substValueRec(V->payload(), E));
  case ValueKind::Inr:
    return C.valInr(substValueRec(V->payload(), E));
  case ValueKind::PackTag: {
    const Tag *W = substTagRec(V->tagWitness(), E);
    const Value *P = substValueRec(V->payload(), E);
    BinderScope BS(E);
    Symbol B = BS.enter(V->var(), VarSort::TagVar);
    return C.valPackTag(B, W, P, substTypeRec(V->bodyType(), BS.env()));
  }
  case ValueKind::PackTyVar: {
    RegionSet Delta = substRegionSet(V->delta(), E);
    const Type *W = substTypeRec(V->typeWitness(), E);
    const Value *P = substValueRec(V->payload(), E);
    BinderScope BS(E);
    Symbol B = BS.enter(V->var(), VarSort::TypeVar);
    return C.valPackTyVar(B, std::move(Delta), W, P,
                          substTypeRec(V->bodyType(), BS.env()));
  }
  case ValueKind::PackRegion: {
    RegionSet Delta = substRegionSet(V->delta(), E);
    Region W = substRegion(V->regionWitness(), E);
    const Value *P = substValueRec(V->payload(), E);
    BinderScope BS(E);
    Symbol B = BS.enter(V->var(), VarSort::RegionVar);
    return C.valPackRegion(B, std::move(Delta), W, P,
                           substTypeRec(V->bodyType(), BS.env()));
  }
  case ValueKind::TransApp: {
    std::vector<const Tag *> Tags;
    for (const Tag *T : V->transTags())
      Tags.push_back(substTagRec(T, E));
    std::vector<Region> Regions;
    for (Region R : V->transRegions())
      Regions.push_back(substRegion(R, E));
    return C.valTransApp(substValueRec(V->payload(), E), std::move(Tags),
                         std::move(Regions));
  }
  case ValueKind::Code: {
    BinderScope BS(E);
    std::vector<Symbol> TagParams;
    for (Symbol P : V->tagParams())
      TagParams.push_back(BS.enter(P, VarSort::TagVar));
    std::vector<Symbol> RegionParams;
    for (Symbol P : V->regionParams())
      RegionParams.push_back(BS.enter(P, VarSort::RegionVar));
    std::vector<Symbol> ValParams;
    for (Symbol P : V->valParams())
      ValParams.push_back(BS.enter(P, VarSort::ValVar));
    Env Inner = BS.env();
    std::vector<const Type *> ValTypes;
    for (const Type *T : V->valParamTypes())
      ValTypes.push_back(substTypeRec(T, Inner));
    return C.valCode(std::move(TagParams), V->tagParamKinds(),
                     std::move(RegionParams), std::move(ValParams),
                     std::move(ValTypes), substTermRec(V->codeBody(), Inner));
  }
  }
  return V;
}

const Op *substOpRec(const Op *O, const Env &E) {
  GcContext &C = E.C;
  switch (O->kind()) {
  case OpKind::Val:
    return C.opVal(substValueRec(O->value(), E));
  case OpKind::Proj1:
    return C.opProj(1, substValueRec(O->value(), E));
  case OpKind::Proj2:
    return C.opProj(2, substValueRec(O->value(), E));
  case OpKind::Put:
    return C.opPut(substRegion(O->putRegion(), E),
                   substValueRec(O->value(), E));
  case OpKind::Get:
    return C.opGet(substValueRec(O->value(), E));
  case OpKind::Strip:
    return C.opStrip(substValueRec(O->value(), E));
  case OpKind::Prim:
    return C.opPrim(O->primOp(), substValueRec(O->lhs(), E),
                    substValueRec(O->rhs(), E));
  }
  return O;
}

const Term *substTermRec(const Term *T, const Env &E) {
  GcContext &C = E.C;
  switch (T->kind()) {
  case TermKind::App: {
    const Value *F = substValueRec(T->appFun(), E);
    std::vector<const Tag *> Tags;
    for (const Tag *A : T->appTags())
      Tags.push_back(substTagRec(A, E));
    std::vector<Region> Regions;
    for (Region R : T->appRegions())
      Regions.push_back(substRegion(R, E));
    std::vector<const Value *> Args;
    for (const Value *A : T->appArgs())
      Args.push_back(substValueRec(A, E));
    return C.termApp(F, std::move(Tags), std::move(Regions), std::move(Args));
  }
  case TermKind::Let: {
    const Op *O = substOpRec(T->letOp(), E);
    BinderScope BS(E);
    Symbol X = BS.enter(T->binderVar(), VarSort::ValVar);
    return C.termLet(X, O, substTermRec(T->sub1(), BS.env()));
  }
  case TermKind::Halt:
    return C.termHalt(substValueRec(T->scrutinee(), E));
  case TermKind::IfGc:
    return C.termIfGc(substRegion(T->region(), E), substTermRec(T->sub1(), E),
                      substTermRec(T->sub2(), E));
  case TermKind::OpenTag: {
    const Value *V = substValueRec(T->scrutinee(), E);
    BinderScope BS(E);
    Symbol TV = BS.enter(T->binderVar(), VarSort::TagVar);
    Symbol XV = BS.enter(T->binderVar2(), VarSort::ValVar);
    return C.termOpenTag(V, TV, XV, substTermRec(T->sub1(), BS.env()));
  }
  case TermKind::OpenTyVar: {
    const Value *V = substValueRec(T->scrutinee(), E);
    BinderScope BS(E);
    Symbol AV = BS.enter(T->binderVar(), VarSort::TypeVar);
    Symbol XV = BS.enter(T->binderVar2(), VarSort::ValVar);
    return C.termOpenTyVar(V, AV, XV, substTermRec(T->sub1(), BS.env()));
  }
  case TermKind::LetRegion: {
    BinderScope BS(E);
    Symbol R = BS.enter(T->binderVar(), VarSort::RegionVar);
    return C.termLetRegion(R, substTermRec(T->sub1(), BS.env()));
  }
  case TermKind::Only:
    return C.termOnly(substRegionSet(T->onlySet(), E),
                      substTermRec(T->sub1(), E));
  case TermKind::Typecase: {
    const Tag *Scrut = substTagRec(T->tag(), E);
    const Term *CaseI = substTermRec(T->caseInt(), E);
    const Term *CaseA = substTermRec(T->caseArrow(), E);
    BinderScope BSP(E);
    Symbol T1 = BSP.enter(T->prodVar1(), VarSort::TagVar);
    Symbol T2 = BSP.enter(T->prodVar2(), VarSort::TagVar);
    const Term *CaseP = substTermRec(T->caseProd(), BSP.env());
    BinderScope BSE(E);
    Symbol Te = BSE.enter(T->existsVar(), VarSort::TagVar);
    const Term *CaseE = substTermRec(T->caseExists(), BSE.env());
    return C.termTypecase(Scrut, CaseI, CaseA, T1, T2, CaseP, Te, CaseE);
  }
  case TermKind::IfLeft: {
    const Value *V = substValueRec(T->scrutinee(), E);
    BinderScope BS(E);
    Symbol X = BS.enter(T->binderVar(), VarSort::ValVar);
    Env Inner = BS.env();
    return C.termIfLeft(X, V, substTermRec(T->sub1(), Inner),
                        substTermRec(T->sub2(), Inner));
  }
  case TermKind::Set:
    return C.termSet(substValueRec(T->scrutinee(), E),
                     substValueRec(T->setSource(), E),
                     substTermRec(T->sub1(), E));
  case TermKind::LetWiden: {
    Region R = substRegion(T->region(), E);
    const Tag *Tau = substTagRec(T->tag(), E);
    const Value *V = substValueRec(T->scrutinee(), E);
    BinderScope BS(E);
    Symbol X = BS.enter(T->binderVar(), VarSort::ValVar);
    return C.termLetWiden(X, R, Tau, V, substTermRec(T->sub1(), BS.env()));
  }
  case TermKind::OpenRegion: {
    const Value *V = substValueRec(T->scrutinee(), E);
    BinderScope BS(E);
    Symbol RV = BS.enter(T->binderVar(), VarSort::RegionVar);
    Symbol XV = BS.enter(T->binderVar2(), VarSort::ValVar);
    return C.termOpenRegion(V, RV, XV, substTermRec(T->sub1(), BS.env()));
  }
  case TermKind::IfReg:
    return C.termIfReg(substRegion(T->ifregLhs(), E),
                       substRegion(T->ifregRhs(), E),
                       substTermRec(T->sub1(), E), substTermRec(T->sub2(), E));
  case TermKind::If0:
    return C.termIf0(substValueRec(T->scrutinee(), E),
                     substTermRec(T->sub1(), E), substTermRec(T->sub2(), E));
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Closing substitution (environment-machine force boundary)
//===----------------------------------------------------------------------===//

/// See the contract in Ops.h: every range in the environment is closed, so
/// no binder can capture it and freshening is never needed. Binders are
/// handled with per-sort counting masks (counting, because the same symbol
/// can be re-bound by nested binders) that suppress environment lookups
/// underneath. Like the subst* family above, ground subtrees and nodes with
/// unchanged children are returned as they are.
class Closer {
public:
  Closer(GcContext &C, const Subst &Env, CloseCounters *Ctr)
      : C(C), S(Env), Ctr(Ctr) {}

  Region region(Region R) {
    if (!R.isVar() || masked(MaskRegions, R.sym()))
      return R;
    auto It = S.Regions.find(R.sym());
    if (It == S.Regions.end())
      return R;
    count();
    return It->second;
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
  const Term *term(const Term *E);

private:
  using MaskMap = std::unordered_map<Symbol, unsigned, SymbolHash>;

  /// RAII shadow over one or more binders (one count per enter).
  struct Shadow {
    ~Shadow() {
      for (auto It = Entered.rbegin(); It != Entered.rend(); ++It) {
        auto MI = It->first->find(It->second);
        if (--MI->second == 0)
          It->first->erase(MI);
      }
    }
    void enter(MaskMap &M, Symbol B) {
      ++M[B];
      Entered.emplace_back(&M, B);
    }
    std::vector<std::pair<MaskMap *, Symbol>> Entered;
  };

  static bool masked(const MaskMap &M, Symbol B) {
    return !M.empty() && M.count(B) != 0;
  }
  void count() {
    if (Ctr)
      ++Ctr->Lookups;
  }

  GcContext &C;
  const Subst &S;
  CloseCounters *Ctr;
  MaskMap MaskTags, MaskRegions, MaskTypes, MaskVals;
};

const Tag *Closer::tag(const Tag *T) {
  if (T->isGround())
    return T;
  switch (T->kind()) {
  case TagKind::Int:
    return T;
  case TagKind::Var: {
    if (masked(MaskTags, T->var()))
      return T;
    auto It = S.Tags.find(T->var());
    if (It == S.Tags.end())
      return T;
    count();
    return It->second;
  }
  case TagKind::Prod: {
    const Tag *A = tag(T->left());
    const Tag *B = tag(T->right());
    return A == T->left() && B == T->right() ? T : C.tagProd(A, B);
  }
  case TagKind::App: {
    const Tag *A = tag(T->left());
    const Tag *B = tag(T->right());
    return A == T->left() && B == T->right() ? T : C.tagApp(A, B);
  }
  case TagKind::Arrow: {
    std::vector<const Tag *> Args;
    Args.reserve(T->arrowArgs().size());
    bool Same = true;
    for (const Tag *A : T->arrowArgs()) {
      const Tag *N = tag(A);
      Same = Same && N == A;
      Args.push_back(N);
    }
    return Same ? T : C.tagArrow(std::move(Args));
  }
  case TagKind::Exists: {
    Shadow Sh;
    Sh.enter(MaskTags, T->var());
    const Tag *Body = tag(T->body());
    return Body == T->body() ? T : C.tagExists(T->var(), Body);
  }
  case TagKind::Lam: {
    Shadow Sh;
    Sh.enter(MaskTags, T->var());
    const Tag *Body = tag(T->body());
    return Body == T->body() ? T : C.tagLam(T->var(), T->binderKind(), Body);
  }
  }
  return T;
}

const Type *Closer::type(const Type *T) {
  if (T->isGround())
    return T;
  switch (T->kind()) {
  case TypeKind::Int:
    return T;
  case TypeKind::TyVar: {
    if (masked(MaskTypes, T->var()))
      return T;
    auto It = S.Types.find(T->var());
    if (It == S.Types.end())
      return T;
    count();
    return It->second;
  }
  case TypeKind::Prod: {
    const Type *A = type(T->left());
    const Type *B = type(T->right());
    return A == T->left() && B == T->right() ? T : C.typeProd(A, B);
  }
  case TypeKind::Sum: {
    const Type *A = type(T->left());
    const Type *B = type(T->right());
    return A == T->left() && B == T->right() ? T : C.typeSum(A, B);
  }
  case TypeKind::Left: {
    const Type *B = type(T->body());
    return B == T->body() ? T : C.typeLeft(B);
  }
  case TypeKind::Right: {
    const Type *B = type(T->body());
    return B == T->body() ? T : C.typeRight(B);
  }
  case TypeKind::At: {
    const Type *B = type(T->body());
    Region R = region(T->atRegion());
    return B == T->body() && R == T->atRegion() ? T : C.typeAt(B, R);
  }
  case TypeKind::MApp: {
    std::vector<Region> Rs;
    bool Same = true;
    for (Region R : T->mRegions()) {
      Region N = region(R);
      Same = Same && N == R;
      Rs.push_back(N);
    }
    const Tag *Tg = tag(T->tag());
    if (Same && Tg == T->tag())
      return T;
    return C.typeM(std::move(Rs), Tg);
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
    Shadow Sh;
    Sh.enter(MaskTags, T->var());
    const Type *Body = type(T->body());
    return Body == T->body() ? T
                             : C.typeExistsTag(T->var(), T->binderKind(), Body);
  }
  case TypeKind::ExistsTyVar: {
    RegionSet Delta = regionSet(T->delta());
    Shadow Sh;
    Sh.enter(MaskTypes, T->var());
    const Type *Body = type(T->body());
    if (Body == T->body() && Delta == T->delta())
      return T;
    return C.typeExistsTyVar(T->var(), std::move(Delta), Body);
  }
  case TypeKind::ExistsRegion: {
    RegionSet Delta = regionSet(T->delta());
    Shadow Sh;
    Sh.enter(MaskRegions, T->var());
    const Type *Body = type(T->body());
    if (Body == T->body() && Delta == T->delta())
      return T;
    return C.typeExistsRegion(T->var(), std::move(Delta), Body);
  }
  case TypeKind::Code: {
    Shadow Sh;
    for (Symbol P : T->tagParams())
      Sh.enter(MaskTags, P);
    for (Symbol P : T->regionParams())
      Sh.enter(MaskRegions, P);
    std::vector<const Type *> Args;
    Args.reserve(T->argTypes().size());
    bool Same = true;
    for (const Type *A : T->argTypes()) {
      const Type *N = type(A);
      Same = Same && N == A;
      Args.push_back(N);
    }
    if (Same)
      return T;
    return C.typeCode(T->tagParams(), T->tagParamKinds(), T->regionParams(),
                      std::move(Args));
  }
  case TypeKind::TransCode: {
    bool Same = true;
    std::vector<const Tag *> TagArgs;
    for (const Tag *A : T->transTags()) {
      const Tag *N = tag(A);
      Same = Same && N == A;
      TagArgs.push_back(N);
    }
    std::vector<Region> RegionArgs;
    for (Region R : T->transRegions()) {
      Region N = region(R);
      Same = Same && N == R;
      RegionArgs.push_back(N);
    }
    Region At = region(T->atRegion());
    Same = Same && At == T->atRegion();
    std::vector<const Type *> Args;
    for (const Type *A : T->argTypes()) {
      const Type *N = type(A);
      Same = Same && N == A;
      Args.push_back(N);
    }
    if (Same)
      return T;
    return C.typeTransCode(std::move(TagArgs), std::move(RegionArgs),
                           std::move(Args), At);
  }
  }
  return T;
}

const Value *Closer::value(const Value *V) {
  switch (V->kind()) {
  case ValueKind::Int:
  case ValueKind::Addr:
    return V;
  case ValueKind::Var: {
    if (masked(MaskVals, V->var()))
      return V;
    auto It = S.Vals.find(V->var());
    if (It == S.Vals.end())
      return V;
    count();
    return It->second;
  }
  case ValueKind::Pair: {
    const Value *A = value(V->first());
    const Value *B = value(V->second());
    return A == V->first() && B == V->second() ? V : C.valPair(A, B);
  }
  case ValueKind::Inl: {
    const Value *P = value(V->payload());
    return P == V->payload() ? V : C.valInl(P);
  }
  case ValueKind::Inr: {
    const Value *P = value(V->payload());
    return P == V->payload() ? V : C.valInr(P);
  }
  case ValueKind::PackTag: {
    const Tag *W = tag(V->tagWitness());
    const Value *P = value(V->payload());
    Shadow Sh;
    Sh.enter(MaskTags, V->var());
    const Type *BT = type(V->bodyType());
    if (W == V->tagWitness() && P == V->payload() && BT == V->bodyType())
      return V;
    return C.valPackTag(V->var(), W, P, BT);
  }
  case ValueKind::PackTyVar: {
    RegionSet Delta = regionSet(V->delta());
    const Type *W = type(V->typeWitness());
    const Value *P = value(V->payload());
    Shadow Sh;
    Sh.enter(MaskTypes, V->var());
    const Type *BT = type(V->bodyType());
    if (Delta == V->delta() && W == V->typeWitness() && P == V->payload() &&
        BT == V->bodyType())
      return V;
    return C.valPackTyVar(V->var(), std::move(Delta), W, P, BT);
  }
  case ValueKind::PackRegion: {
    RegionSet Delta = regionSet(V->delta());
    Region W = region(V->regionWitness());
    const Value *P = value(V->payload());
    Shadow Sh;
    Sh.enter(MaskRegions, V->var());
    const Type *BT = type(V->bodyType());
    if (Delta == V->delta() && W == V->regionWitness() && P == V->payload() &&
        BT == V->bodyType())
      return V;
    return C.valPackRegion(V->var(), std::move(Delta), W, P, BT);
  }
  case ValueKind::TransApp: {
    const Value *P = value(V->payload());
    bool Same = P == V->payload();
    std::vector<const Tag *> Tags;
    for (const Tag *T : V->transTags()) {
      const Tag *N = tag(T);
      Same = Same && N == T;
      Tags.push_back(N);
    }
    std::vector<Region> Regions;
    for (Region R : V->transRegions()) {
      Region N = region(R);
      Same = Same && N == R;
      Regions.push_back(N);
    }
    if (Same)
      return V;
    return C.valTransApp(P, std::move(Tags), std::move(Regions));
  }
  case ValueKind::Code: {
    Shadow Sh;
    for (Symbol P : V->tagParams())
      Sh.enter(MaskTags, P);
    for (Symbol P : V->regionParams())
      Sh.enter(MaskRegions, P);
    for (Symbol P : V->valParams())
      Sh.enter(MaskVals, P);
    std::vector<const Type *> ValTypes;
    ValTypes.reserve(V->valParamTypes().size());
    bool Same = true;
    for (const Type *T : V->valParamTypes()) {
      const Type *N = type(T);
      Same = Same && N == T;
      ValTypes.push_back(N);
    }
    const Term *Body = term(V->codeBody());
    if (Same && Body == V->codeBody())
      return V;
    return C.valCode(V->tagParams(), V->tagParamKinds(), V->regionParams(),
                     V->valParams(), std::move(ValTypes), Body);
  }
  }
  return V;
}

const Op *Closer::op(const Op *O) {
  switch (O->kind()) {
  case OpKind::Val: {
    const Value *V = value(O->value());
    return V == O->value() ? O : C.opVal(V);
  }
  case OpKind::Proj1:
  case OpKind::Proj2: {
    const Value *V = value(O->value());
    return V == O->value() ? O : C.opProj(O->is(OpKind::Proj1) ? 1 : 2, V);
  }
  case OpKind::Put: {
    Region R = region(O->putRegion());
    const Value *V = value(O->value());
    if (R == O->putRegion() && V == O->value())
      return O;
    return C.opPut(R, V);
  }
  case OpKind::Get: {
    const Value *V = value(O->value());
    return V == O->value() ? O : C.opGet(V);
  }
  case OpKind::Strip: {
    const Value *V = value(O->value());
    return V == O->value() ? O : C.opStrip(V);
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

const Term *Closer::term(const Term *T) {
  switch (T->kind()) {
  case TermKind::App: {
    const Value *F = value(T->appFun());
    bool Same = F == T->appFun();
    std::vector<const Tag *> Tags;
    Tags.reserve(T->appTags().size());
    for (const Tag *A : T->appTags()) {
      const Tag *N = tag(A);
      Same = Same && N == A;
      Tags.push_back(N);
    }
    std::vector<Region> Regions;
    Regions.reserve(T->appRegions().size());
    for (Region R : T->appRegions()) {
      Region N = region(R);
      Same = Same && N == R;
      Regions.push_back(N);
    }
    std::vector<const Value *> Args;
    Args.reserve(T->appArgs().size());
    for (const Value *A : T->appArgs()) {
      const Value *N = value(A);
      Same = Same && N == A;
      Args.push_back(N);
    }
    if (Same)
      return T;
    return C.termApp(F, std::move(Tags), std::move(Regions), std::move(Args));
  }
  case TermKind::Let: {
    const Op *O = op(T->letOp());
    Shadow Sh;
    Sh.enter(MaskVals, T->binderVar());
    const Term *B = term(T->sub1());
    if (O == T->letOp() && B == T->sub1())
      return T;
    return C.termLet(T->binderVar(), O, B);
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
  case TermKind::OpenTag: {
    const Value *V = value(T->scrutinee());
    Shadow Sh;
    Sh.enter(MaskTags, T->binderVar());
    Sh.enter(MaskVals, T->binderVar2());
    const Term *B = term(T->sub1());
    if (V == T->scrutinee() && B == T->sub1())
      return T;
    return C.termOpenTag(V, T->binderVar(), T->binderVar2(), B);
  }
  case TermKind::OpenTyVar: {
    const Value *V = value(T->scrutinee());
    Shadow Sh;
    Sh.enter(MaskTypes, T->binderVar());
    Sh.enter(MaskVals, T->binderVar2());
    const Term *B = term(T->sub1());
    if (V == T->scrutinee() && B == T->sub1())
      return T;
    return C.termOpenTyVar(V, T->binderVar(), T->binderVar2(), B);
  }
  case TermKind::LetRegion: {
    Shadow Sh;
    Sh.enter(MaskRegions, T->binderVar());
    const Term *B = term(T->sub1());
    return B == T->sub1() ? T : C.termLetRegion(T->binderVar(), B);
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
    const Term *CaseP;
    {
      Shadow Sh;
      Sh.enter(MaskTags, T->prodVar1());
      Sh.enter(MaskTags, T->prodVar2());
      CaseP = term(T->caseProd());
    }
    const Term *CaseE;
    {
      Shadow Sh;
      Sh.enter(MaskTags, T->existsVar());
      CaseE = term(T->caseExists());
    }
    if (Scrut == T->tag() && CaseI == T->caseInt() && CaseA == T->caseArrow() &&
        CaseP == T->caseProd() && CaseE == T->caseExists())
      return T;
    return C.termTypecase(Scrut, CaseI, CaseA, T->prodVar1(), T->prodVar2(),
                          CaseP, T->existsVar(), CaseE);
  }
  case TermKind::IfLeft: {
    const Value *V = value(T->scrutinee());
    Shadow Sh;
    Sh.enter(MaskVals, T->binderVar());
    const Term *A = term(T->sub1());
    const Term *B = term(T->sub2());
    if (V == T->scrutinee() && A == T->sub1() && B == T->sub2())
      return T;
    return C.termIfLeft(T->binderVar(), V, A, B);
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
    Shadow Sh;
    Sh.enter(MaskVals, T->binderVar());
    const Term *B = term(T->sub1());
    if (R == T->region() && Tau == T->tag() && V == T->scrutinee() &&
        B == T->sub1())
      return T;
    return C.termLetWiden(T->binderVar(), R, Tau, V, B);
  }
  case TermKind::OpenRegion: {
    const Value *V = value(T->scrutinee());
    Shadow Sh;
    Sh.enter(MaskRegions, T->binderVar());
    Sh.enter(MaskVals, T->binderVar2());
    const Term *B = term(T->sub1());
    if (V == T->scrutinee() && B == T->sub1())
      return T;
    return C.termOpenRegion(V, T->binderVar(), T->binderVar2(), B);
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

} // namespace

const Tag *scav::gc::closeTag(GcContext &C, const Tag *T, const Subst &Env,
                              CloseCounters *Counters) {
  if (Env.empty())
    return T;
  return Closer(C, Env, Counters).tag(T);
}

const Type *scav::gc::closeType(GcContext &C, const Type *T, const Subst &Env,
                                CloseCounters *Counters) {
  if (Env.empty())
    return T;
  return Closer(C, Env, Counters).type(T);
}

const Value *scav::gc::closeValue(GcContext &C, const Value *V,
                                  const Subst &Env, CloseCounters *Counters) {
  if (Env.empty())
    return V;
  return Closer(C, Env, Counters).value(V);
}

const Term *scav::gc::closeTerm(GcContext &C, const Term *E, const Subst &Env,
                                CloseCounters *Counters) {
  if (Env.empty())
    return E;
  return Closer(C, Env, Counters).term(E);
}

Region scav::gc::closeRegion(Region R, const Subst &Env,
                             CloseCounters *Counters) {
  if (!R.isVar())
    return R;
  auto It = Env.Regions.find(R.sym());
  if (It == Env.Regions.end())
    return R;
  if (Counters)
    ++Counters->Lookups;
  return It->second;
}

RegionSet scav::gc::closeRegionSet(const RegionSet &RS, const Subst &Env,
                                   CloseCounters *Counters) {
  RegionSet Out;
  for (Region R : RS)
    Out.insert(closeRegion(R, Env, Counters));
  return Out;
}

const Tag *scav::gc::applySubst(GcContext &C, const Tag *T, const Subst &S) {
  if (S.empty())
    return T;
  SymbolSet Unsafe = computeUnsafe(S);
  return substTagRec(T, Env{C, S, Unsafe});
}

const Type *scav::gc::applySubst(GcContext &C, const Type *T, const Subst &S) {
  if (S.empty())
    return T;
  SymbolSet Unsafe = computeUnsafe(S);
  return substTypeRec(T, Env{C, S, Unsafe});
}

const Value *scav::gc::applySubst(GcContext &C, const Value *V,
                                  const Subst &S) {
  if (S.empty())
    return V;
  SymbolSet Unsafe = computeUnsafe(S);
  return substValueRec(V, Env{C, S, Unsafe});
}

const Op *scav::gc::applySubst(GcContext &C, const Op *O, const Subst &S) {
  if (S.empty())
    return O;
  SymbolSet Unsafe = computeUnsafe(S);
  return substOpRec(O, Env{C, S, Unsafe});
}

const Term *scav::gc::applySubst(GcContext &C, const Term *E, const Subst &S) {
  if (S.empty())
    return E;
  SymbolSet Unsafe = computeUnsafe(S);
  return substTermRec(E, Env{C, S, Unsafe});
}

Region scav::gc::applySubst(Region R, const Subst &S) {
  if (!R.isVar())
    return R;
  auto It = S.Regions.find(R.sym());
  return It == S.Regions.end() ? R : It->second;
}

RegionSet scav::gc::applySubst(const RegionSet &RS, const Subst &S) {
  RegionSet Out;
  for (Region R : RS)
    Out.insert(applySubst(R, S));
  return Out;
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
