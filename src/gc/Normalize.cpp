//===- gc/Normalize.cpp - Tag β-normalization and M/C reduction -----------===//
///
/// \file
/// Tag reduction is β on the simply-kinded tag λ-calculus — strongly
/// normalizing (Prop 6.1) and confluent (Prop 6.2). The M operator is the
/// hard-wired Typerec of §4.2 (base), §7 (forwarding view; the mutator view
/// gains a `left` wrapper), and §8 (generational, two region indices). C is
/// the collector's forwarding view of §7. M/C applications over variable-
/// or stuck-application-headed tags are normal forms (stuck), which is the
/// crux of the paper's "symmetry" design (§2.2.1): types never accumulate
/// operators across collections.
///
//===----------------------------------------------------------------------===//

#include "gc/Ops.h"

using namespace scav;
using namespace scav::gc;

namespace {

/// Structural normalization pass. Recursion goes through the public
/// normalizeTag wrapper so the Normal-bit and memo fast paths apply at every
/// level of the tree, not just the root.
const Tag *normalizeTagImpl(GcContext &C, const Tag *T) {
  switch (T->kind()) {
  case TagKind::Int:
  case TagKind::Var:
    return T;
  case TagKind::Prod: {
    const Tag *L = normalizeTag(C, T->left());
    const Tag *R = normalizeTag(C, T->right());
    if (L == T->left() && R == T->right())
      return T;
    return C.tagProd(L, R);
  }
  case TagKind::Arrow: {
    std::vector<const Tag *> Args;
    bool Changed = false;
    Args.reserve(T->arrowArgs().size());
    for (const Tag *A : T->arrowArgs()) {
      const Tag *N = normalizeTag(C, A);
      Changed |= N != A;
      Args.push_back(N);
    }
    return Changed ? C.tagArrow(std::move(Args)) : T;
  }
  case TagKind::Exists: {
    const Tag *B = normalizeTag(C, T->body());
    return B == T->body() ? T : C.tagExists(T->var(), B);
  }
  case TagKind::Lam: {
    const Tag *B = normalizeTag(C, T->body());
    return B == T->body() ? T : C.tagLam(T->var(), T->binderKind(), B);
  }
  case TagKind::App: {
    const Tag *F = normalizeTag(C, T->left());
    if (F->is(TagKind::Lam)) {
      const Tag *Red = substTag(C, F->body(), F->var(), T->right());
      return normalizeTag(C, Red);
    }
    const Tag *A = normalizeTag(C, T->right());
    if (F == T->left() && A == T->right())
      return T;
    return C.tagApp(F, A);
  }
  }
  return T;
}

} // namespace

/// Memoizing entry point. Already-normal tags exit in O(1) via the Normal
/// bit, and each distinct (by pointer = by structure) non-normal tag is
/// normalized at most once per context. The memo also
/// stabilizes results: re-normalizing a tag returns the *same* node.
const Tag *scav::gc::normalizeTag(GcContext &C, const Tag *T) {
  GcContext::Stats &S = C.stats();
  ++S.NormalizeTagCalls;
  if (T->isNormal()) {
    ++S.NormalizeTagNormalBitHits;
    return T;
  }
  if (const Tag *M = C.lookupNormalTagMemo(T)) {
    ++S.NormalizeTagMemoHits;
    return M;
  }
  GcContext::TypeworkTimer Timer(S);
  const Tag *N = normalizeTagImpl(C, T);
  C.rememberNormalTag(T, N);
  return N;
}

const Type *scav::gc::expandMOnce(GcContext &C, const std::vector<Region> &Rs,
                                  const Tag *T, LanguageLevel Level) {
  assert(!Rs.empty() && "M needs at least one region index");
  bool Gen = Level == LanguageLevel::Generational;
  assert(Rs.size() == (Gen ? 2u : 1u) && "wrong M arity for language level");
  Region Rho = Rs[0];

  switch (T->kind()) {
  case TagKind::Int:
    // M(Int) => int, at every level.
    return C.typeInt();

  case TagKind::Arrow: {
    // Base/forw: M_ρ(~τ→0)     => ∀[][r](M_r(~τ)) → 0 at cd.
    // Gen:       M_{ρy,ρo}(~τ→0) => ∀[][ry,ro](M_{ry,ro}(~τ)) → 0 at cd.
    std::vector<Symbol> RegionParams;
    std::vector<Region> InnerRs;
    if (Gen) {
      Symbol Ry = C.fresh("ry");
      Symbol Ro = C.fresh("ro");
      RegionParams = {Ry, Ro};
      InnerRs = {Region::var(Ry), Region::var(Ro)};
    } else {
      Symbol R = C.fresh("r");
      RegionParams = {R};
      InnerRs = {Region::var(R)};
    }
    std::vector<const Type *> Args;
    Args.reserve(T->arrowArgs().size());
    for (const Tag *A : T->arrowArgs())
      Args.push_back(C.typeM(InnerRs, A));
    const Type *Code =
        C.typeCode({}, {}, std::move(RegionParams), std::move(Args));
    return C.typeAt(Code, C.cd());
  }

  case TagKind::Prod: {
    if (Gen) {
      // ∃r∈{ρy,ρo}.((M_{r,ρo}(τ1) × M_{r,ρo}(τ2)) at r)
      Symbol R = C.fresh("r");
      Region Rv = Region::var(R);
      Region Ro = Rs[1];
      const Type *Body = C.typeProd(C.typeM({Rv, Ro}, T->left()),
                                    C.typeM({Rv, Ro}, T->right()));
      return C.typeExistsRegion(R, RegionSet{Rho, Ro}, Body);
    }
    const Type *Body =
        C.typeProd(C.typeM(Rho, T->left()), C.typeM(Rho, T->right()));
    if (Level == LanguageLevel::Forward)
      Body = C.typeLeft(Body); // Mutator must supply the forwarding tag bit.
    return C.typeAt(Body, Rho);
  }

  case TagKind::Exists: {
    if (Gen) {
      // ∃r∈{ρy,ρo}.((∃t:Ω.M_{r,ρo}(τ)) at r)
      Symbol R = C.fresh("r");
      Region Rv = Region::var(R);
      Region Ro = Rs[1];
      const Type *Body = C.typeExistsTag(T->var(), C.omega(),
                                         C.typeM({Rv, Ro}, T->body()));
      return C.typeExistsRegion(R, RegionSet{Rho, Ro}, Body);
    }
    const Type *Body =
        C.typeExistsTag(T->var(), C.omega(), C.typeM(Rho, T->body()));
    if (Level == LanguageLevel::Forward)
      Body = C.typeLeft(Body);
    return C.typeAt(Body, Rho);
  }

  case TagKind::Var:
  case TagKind::App:
    return nullptr; // Stuck: M_ρ(t) / M_ρ(te t') are normal forms.
  case TagKind::Lam:
    return nullptr; // Ill-kinded (M analyses kind-Ω tags only).
  }
  return nullptr;
}

const Type *scav::gc::expandCOnce(GcContext &C, Region From, Region To,
                                  const Tag *T) {
  switch (T->kind()) {
  case TagKind::Int:
    return C.typeInt();

  case TagKind::Arrow:
    // C_{ρ,ρ'}(~τ→0) => M_ρ(~τ→0): code never moves, no forwarding bit.
    return expandMOnce(C, {From}, T, LanguageLevel::Forward);

  case TagKind::Prod: {
    // (left(C(τ1) × C(τ2)) + right(M_{ρ'}(τ1×τ2))) at ρ
    const Type *L = C.typeLeft(
        C.typeProd(C.typeC(From, To, T->left()), C.typeC(From, To, T->right())));
    const Type *R = C.typeRight(C.typeM(To, T));
    return C.typeAt(C.typeSum(L, R), From);
  }

  case TagKind::Exists: {
    // (left(∃t:Ω.C_{ρ,ρ'}(τ)) + right(M_{ρ'}(∃t.τ))) at ρ
    const Type *L = C.typeLeft(
        C.typeExistsTag(T->var(), C.omega(), C.typeC(From, To, T->body())));
    const Type *R = C.typeRight(C.typeM(To, T));
    return C.typeAt(C.typeSum(L, R), From);
  }

  case TagKind::Var:
  case TagKind::App:
  case TagKind::Lam:
    return nullptr;
  }
  return nullptr;
}

namespace {

const Type *normalizeTypeImpl(GcContext &C, const Type *T,
                              LanguageLevel Level) {
  // Unchanged children => return T itself, skipping the uniquing table.
  switch (T->kind()) {
  case TypeKind::Int:
  case TypeKind::TyVar:
    return T;

  case TypeKind::Prod: {
    const Type *L = normalizeType(C, T->left(), Level);
    const Type *R = normalizeType(C, T->right(), Level);
    if (L == T->left() && R == T->right())
      return T;
    return C.typeProd(L, R);
  }
  case TypeKind::Sum: {
    const Type *L = normalizeType(C, T->left(), Level);
    const Type *R = normalizeType(C, T->right(), Level);
    if (L == T->left() && R == T->right())
      return T;
    return C.typeSum(L, R);
  }
  case TypeKind::Left: {
    const Type *B = normalizeType(C, T->body(), Level);
    return B == T->body() ? T : C.typeLeft(B);
  }
  case TypeKind::Right: {
    const Type *B = normalizeType(C, T->body(), Level);
    return B == T->body() ? T : C.typeRight(B);
  }
  case TypeKind::At: {
    const Type *B = normalizeType(C, T->body(), Level);
    return B == T->body() ? T : C.typeAt(B, T->atRegion());
  }

  case TypeKind::ExistsTag: {
    const Type *B = normalizeType(C, T->body(), Level);
    return B == T->body() ? T : C.typeExistsTag(T->var(), T->binderKind(), B);
  }
  case TypeKind::ExistsTyVar: {
    const Type *B = normalizeType(C, T->body(), Level);
    return B == T->body() ? T : C.typeExistsTyVar(T->var(), T->delta(), B);
  }
  case TypeKind::ExistsRegion: {
    const Type *B = normalizeType(C, T->body(), Level);
    return B == T->body() ? T
                          : C.typeExistsRegion(T->var(), T->delta(), B);
  }

  case TypeKind::Code: {
    std::vector<const Type *> Args;
    bool Changed = false;
    Args.reserve(T->argTypes().size());
    for (const Type *A : T->argTypes()) {
      const Type *N = normalizeType(C, A, Level);
      Changed |= N != A;
      Args.push_back(N);
    }
    if (!Changed)
      return T;
    return C.typeCode(T->tagParams(), T->tagParamKinds(), T->regionParams(),
                      std::move(Args));
  }
  case TypeKind::TransCode: {
    std::vector<const Tag *> Tags;
    bool Changed = false;
    Tags.reserve(T->transTags().size());
    for (const Tag *A : T->transTags()) {
      const Tag *N = normalizeTag(C, A);
      Changed |= N != A;
      Tags.push_back(N);
    }
    std::vector<const Type *> Args;
    Args.reserve(T->argTypes().size());
    for (const Type *A : T->argTypes()) {
      const Type *N = normalizeType(C, A, Level);
      Changed |= N != A;
      Args.push_back(N);
    }
    if (!Changed)
      return T;
    return C.typeTransCode(std::move(Tags), T->transRegions(),
                           std::move(Args), T->atRegion());
  }

  case TypeKind::MApp: {
    const Tag *NT = normalizeTag(C, T->tag());
    if (const Type *Expanded = expandMOnce(C, T->mRegions(), NT, Level))
      return normalizeType(C, Expanded, Level);
    return NT == T->tag() ? T : C.typeM(T->mRegions(), NT);
  }
  case TypeKind::CApp: {
    const Tag *NT = normalizeTag(C, T->tag());
    if (const Type *Expanded = expandCOnce(C, T->cFrom(), T->cTo(), NT))
      return normalizeType(C, Expanded, Level);
    return NT == T->tag() ? T : C.typeC(T->cFrom(), T->cTo(), NT);
  }
  }
  return T;
}

} // namespace

/// Memoizing entry point; the memo keys on (node, LanguageLevel) since the M
/// equations differ per level. Note that expandMOnce invents fresh region
/// binders, so without the memo two normalizations of the same type yield
/// alpha-equivalent but structurally *distinct* results; memoization pins
/// the first result, which in turn lets downstream equality checks succeed
/// by pointer identity.
const Type *scav::gc::normalizeType(GcContext &C, const Type *T,
                                    LanguageLevel Level) {
  GcContext::Stats &S = C.stats();
  ++S.NormalizeTypeCalls;
  if (T->isNormal()) {
    ++S.NormalizeTypeNormalBitHits;
    return T;
  }
  if (const Type *M = C.lookupNormalTypeMemo(T, Level)) {
    ++S.NormalizeTypeMemoHits;
    return M;
  }
  GcContext::TypeworkTimer Timer(S);
  const Type *N = normalizeTypeImpl(C, T, Level);
  C.rememberNormalType(T, Level, N);
  return N;
}
