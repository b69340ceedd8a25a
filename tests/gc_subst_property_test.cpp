//===- tests/gc_subst_property_test.cpp - Substitution/normalization -------===//
//
// Property sweeps over randomly generated tags and types (T2 territory):
// normalization is idempotent and substitution-stable, M is symmetric in
// its region index (§2.2.1), the Forward M always provides the tag bit,
// and C agrees with M exactly on non-pointer tags. Substitution and the
// environment machine's close* share one rewrite: on closed ranges they
// agree, and a substitution that fires nowhere returns its input.
//
//===----------------------------------------------------------------------===//

#include "gc/CollectorBasic.h"
#include "gc/CollectorForward.h"
#include "gc/CollectorGen.h"
#include "gc/Ops.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>

using namespace scav;
using namespace scav::gc;

namespace {

/// Random well-kinded tags of kind Ω; binders may shadow.
const Tag *randomTag(GcContext &C, Rng &R, unsigned Depth,
                     std::vector<Symbol> &Scope) {
  if (Depth == 0 || R.chance(1, 3)) {
    if (!Scope.empty() && R.chance(1, 2))
      return C.tagVar(Scope[R.below(Scope.size())]);
    return C.tagInt();
  }
  switch (R.below(4)) {
  case 0:
    return C.tagProd(randomTag(C, R, Depth - 1, Scope),
                     randomTag(C, R, Depth - 1, Scope));
  case 1: {
    std::vector<const Tag *> Args;
    size_t N = 1 + R.below(2);
    for (size_t I = 0; I != N; ++I)
      Args.push_back(randomTag(C, R, Depth - 1, Scope));
    return C.tagArrow(std::move(Args));
  }
  case 2: {
    Symbol B = C.fresh("t");
    Scope.push_back(B);
    const Tag *Body = randomTag(C, R, Depth - 1, Scope);
    Scope.pop_back();
    return C.tagExists(B, Body);
  }
  default: {
    // A β-redex (λt.body) arg — gives the normalizer real work.
    Symbol B = C.fresh("t");
    Scope.push_back(B);
    const Tag *Body = randomTag(C, R, Depth - 1, Scope);
    Scope.pop_back();
    const Tag *Arg = randomTag(C, R, Depth - 1, Scope);
    return C.tagApp(C.tagLam(B, Body), Arg);
  }
  }
}

class TagSweep : public ::testing::TestWithParam<int> {};

TEST_P(TagSweep, NormalizationIdempotentAndClosedUnderSubst) {
  GcContext C;
  Rng R(0xABCD + GetParam() * 131);
  std::vector<Symbol> Scope;
  Symbol Free = C.fresh("f");
  Scope.push_back(Free);
  const Tag *T = randomTag(C, R, 5, Scope);

  const Tag *N1 = normalizeTag(C, T);
  const Tag *N2 = normalizeTag(C, N1);
  EXPECT_TRUE(alphaEqualTag(N1, N2)) << printTag(C, T);

  // Kinds are preserved by normalization.
  TagEnv Theta;
  Theta[Free] = C.omega();
  const Kind *K0 = kindOfTag(C, T, Theta);
  if (K0) {
    const Kind *K1 = kindOfTag(C, N1, Theta);
    ASSERT_NE(K1, nullptr);
    EXPECT_TRUE(Kind::equal(K0, K1));
  }

  // Substitution commutes with normalization on the free variable:
  // norm(T[τ/f]) == norm(norm(T)[τ/f]).
  const Tag *Rep = C.tagProd(C.tagInt(), C.tagInt());
  const Tag *A = normalizeTag(C, substTag(C, T, Free, Rep));
  const Tag *B = normalizeTag(C, substTag(C, N1, Free, Rep));
  EXPECT_TRUE(alphaEqualTag(A, B))
      << printTag(C, A) << "\nvs\n" << printTag(C, B);
}

TEST_P(TagSweep, MIsSymmetricInItsRegion) {
  // §2.2.1: the whole point of M's design — M_ρ1(τ) and M_ρ2(τ) are the
  // same type up to the region name, so collection never grows types.
  GcContext C;
  Rng R(0x5EED + GetParam() * 997);
  std::vector<Symbol> Scope;
  const Tag *T = randomTag(C, R, 4, Scope);
  Region R1 = Region::name(C.fresh("nu"));
  Region R2 = Region::name(C.fresh("nu"));
  const Type *M1 = normalizeType(C, C.typeM(R1, T), LanguageLevel::Base);
  const Type *M2 = normalizeType(C, C.typeM(R2, T), LanguageLevel::Base);
  EXPECT_EQ(typeSize(M1), typeSize(M2));
  // Renaming ρ1 to ρ2 in M1 yields exactly M2 — checked via a fresh
  // region substitution through a region *variable* intermediary.
  Symbol RV = C.fresh("r");
  const Type *Mv =
      normalizeType(C, C.typeM(Region::var(RV), T), LanguageLevel::Base);
  EXPECT_TRUE(alphaEqualType(substRegionInType(C, Mv, RV, R1), M1));
  EXPECT_TRUE(alphaEqualType(substRegionInType(C, Mv, RV, R2), M2));
}

TEST_P(TagSweep, ForwardMSuppliesTheTagBit) {
  // §7: every Forward-level heap object type is left(...) at ρ — the
  // mutator must reserve the forwarding bit on pairs and existentials.
  GcContext C;
  Rng R(0xF0 + GetParam() * 31);
  std::vector<Symbol> Scope;
  const Tag *T = normalizeTag(C, randomTag(C, R, 4, Scope));
  Region Nu = Region::name(C.fresh("nu"));
  const Type *M = normalizeType(C, C.typeM(Nu, T), LanguageLevel::Forward);
  if (T->is(TagKind::Prod) || T->is(TagKind::Exists)) {
    ASSERT_TRUE(M->is(TypeKind::At));
    EXPECT_TRUE(M->body()->is(TypeKind::Left));
  }
  if (T->is(TagKind::Int)) {
    EXPECT_TRUE(M->is(TypeKind::Int));
  }
}

TEST_P(TagSweep, CEqualsMOnNonPointers) {
  GcContext C;
  Rng R(0xCA + GetParam() * 7);
  std::vector<Symbol> Scope;
  const Tag *T = normalizeTag(C, randomTag(C, R, 3, Scope));
  Region R1 = Region::name(C.fresh("nu1"));
  Region R2 = Region::name(C.fresh("nu2"));
  const Type *M = normalizeType(C, C.typeM(R1, T), LanguageLevel::Forward);
  const Type *Cv = normalizeType(C, C.typeC(R1, R2, T),
                                 LanguageLevel::Forward);
  if (T->is(TagKind::Int) || T->is(TagKind::Arrow)) {
    EXPECT_TRUE(alphaEqualType(M, Cv));
  } else if (T->is(TagKind::Prod) || T->is(TagKind::Exists)) {
    // Pointers gain the forwarding alternative: C = (left .. + right ..).
    ASSERT_TRUE(Cv->is(TypeKind::At));
    EXPECT_TRUE(Cv->body()->is(TypeKind::Sum));
    // And its right branch is exactly the to-space M view.
    const Type *Fwd = Cv->body()->right()->body();
    const Type *MTo = normalizeType(C, C.typeM(R2, T),
                                    LanguageLevel::Forward);
    EXPECT_TRUE(alphaEqualType(Fwd, MTo));
  }
}

TEST_P(TagSweep, GenerationalMNestsTheOldBound) {
  GcContext C;
  Rng R(0x9E + GetParam() * 13);
  std::vector<Symbol> Scope;
  const Tag *T = normalizeTag(C, randomTag(C, R, 3, Scope));
  if (!T->is(TagKind::Prod) && !T->is(TagKind::Exists))
    return;
  Region Ry = Region::name(C.fresh("ry"));
  Region Ro = Region::name(C.fresh("ro"));
  const Type *M = normalizeType(C, C.typeM({Ry, Ro}, T),
                                LanguageLevel::Generational);
  ASSERT_TRUE(M->is(TypeKind::ExistsRegion));
  EXPECT_TRUE(M->delta().contains(Ry));
  EXPECT_TRUE(M->delta().contains(Ro));
}

TEST_P(TagSweep, CloseMatchesApplySubstOnClosedRanges) {
  // The environment machine binds only closed ranges. On a ground tag for
  // the free tag variable and a region name for a region variable, no
  // binder is renamed, so close* and applySubst build the same nodes.
  GcContext C;
  Rng R(0xC105E + GetParam() * 53);
  std::vector<Symbol> Scope;
  Symbol Free = C.fresh("f");
  Scope.push_back(Free);
  const Tag *T = randomTag(C, R, 5, Scope);
  Symbol Rv = C.fresh("r"), Rb = C.fresh("rb");
  Subst S;
  S.Tags[Free] = C.tagProd(C.tagInt(), C.tagArrow({C.tagInt()}));
  S.Regions[Rv] = Region::name(C.fresh("nu"));
  EXPECT_EQ(closeTag(C, T, S), applySubst(C, T, S)) << printTag(C, T);
  Region V = Region::var(Rv);
  const Type *Types[] = {
      C.typeM(V, T),
      C.typeC(V, C.cd(), T),
      C.typeAt(C.typeProd(C.typeM(V, T), C.typeInt()), V),
      C.typeExistsRegion(Rb, RegionSet{V},
                         C.typeM({Region::var(Rb), V}, T)),
  };
  for (const Type *Ty : Types)
    EXPECT_EQ(closeType(C, Ty, S), applySubst(C, Ty, S)) << printType(C, Ty);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TagSweep, ::testing::Range(0, 25));

/// Renames each minted symbol (`base$N`, possibly chained as `base$N$M`)
/// to `base$<index of first appearance>`, so two printouts that differ
/// only in the spelling of minted binders compare equal.
std::string canonMinted(const std::string &S) {
  auto IdChar = [](char Ch) {
    return std::isalnum(static_cast<unsigned char>(Ch)) || Ch == '_';
  };
  std::map<std::string, size_t> Ids;
  std::string Out;
  for (size_t I = 0, N = S.size(); I != N;) {
    if (!IdChar(S[I])) {
      Out += S[I++];
      continue;
    }
    size_t Begin = I;
    while (I != N && IdChar(S[I]))
      ++I;
    size_t BaseEnd = I;
    while (I != N && S[I] == '$') { // a `$[a-z]*[0-9]+` suffix chain
      size_t J = I + 1;
      while (J != N && std::islower(static_cast<unsigned char>(S[J])))
        ++J;
      size_t D = J;
      while (D != N && std::isdigit(static_cast<unsigned char>(S[D])))
        ++D;
      if (D == J)
        break;
      I = D;
    }
    Out.append(S, Begin, BaseEnd - Begin);
    if (I != BaseEnd)
      Out += "$" + std::to_string(
                       Ids.emplace(S.substr(Begin, I - Begin), Ids.size())
                           .first->second);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Targeted substitution regressions
//===----------------------------------------------------------------------===//

TEST(SubstRegression, SimultaneousSubstitutionIsNotSequential) {
  // [a↦b, b↦a] must swap, not collapse.
  GcContext C;
  Symbol A = C.fresh("a"), B = C.fresh("b");
  const Tag *T = C.tagProd(C.tagVar(A), C.tagVar(B));
  Subst S;
  S.Tags[A] = C.tagVar(B);
  S.Tags[B] = C.tagVar(A);
  const Tag *Out = applySubst(C, T, S);
  EXPECT_EQ(Out->left()->var(), B);
  EXPECT_EQ(Out->right()->var(), A);
}

TEST(SubstRegression, ShadowedBinderBlocksSubstitution) {
  // (∃a. a × f)[g/a] must keep the bound a intact.
  GcContext C;
  Symbol A = C.fresh("a"), F = C.fresh("f");
  const Tag *T = C.tagExists(A, C.tagProd(C.tagVar(A), C.tagVar(F)));
  const Tag *Out = substTag(C, T, A, C.tagInt());
  ASSERT_TRUE(Out->is(TagKind::Exists));
  ASSERT_TRUE(Out->body()->is(TagKind::Prod));
  EXPECT_EQ(Out->body()->left()->var(), Out->var());
  EXPECT_EQ(Out->body()->right()->var(), F);
}

TEST(SubstRegression, RegionSubstitutionReachesDeltaSets) {
  GcContext C;
  Symbol Rv = C.fresh("r");
  Symbol Al = C.fresh("a");
  Region Nu = Region::name(C.fresh("nu"));
  const Type *T = C.typeExistsTyVar(Al, RegionSet{Region::var(Rv)},
                                    C.typeVar(Al));
  const Type *Out = substRegionInType(C, T, Rv, Nu);
  EXPECT_TRUE(Out->delta().contains(Nu));
  EXPECT_FALSE(Out->delta().contains(Region::var(Rv)));
}

TEST(SubstRegression, ValueSubstitutionAvoidsTermCapture) {
  // (let x = 1 in halt y)[x/y]: the free x in the replacement must not be
  // captured by the let binder.
  GcContext C;
  Symbol X = C.fresh("x"), Y = C.fresh("y");
  const Term *T =
      C.termLet(X, C.opVal(C.valInt(1)), C.termHalt(C.valVar(Y)));
  Subst S;
  S.Vals[Y] = C.valVar(X);
  const Term *Out = applySubst(C, T, S);
  // The binder must have been renamed away from x.
  EXPECT_NE(Out->binderVar(), X);
  EXPECT_TRUE(Out->sub1()->scrutinee()->is(ValueKind::Var));
  EXPECT_EQ(Out->sub1()->scrutinee()->var(), X);
}

TEST(SubstRegression, EmptySubstitutionIsIdentity) {
  GcContext C;
  const Term *T = C.termHalt(C.valInt(1));
  Subst S;
  EXPECT_EQ(applySubst(C, T, S), T);
}

TEST(SubstRegression, UnfiredSubstitutionReturnsItsInput) {
  // No domain symbol occurs and no binder collides, so every node comes
  // back as it is: values, ops and terms are not interned, so a rebuild
  // would show as a new pointer.
  GcContext C;
  Symbol X = C.fresh("x"), Y = C.fresh("y"), Rs = C.fresh("r");
  Subst S;
  S.Vals[C.fresh("z")] = C.valInt(7);
  S.Tags[C.fresh("t")] = C.tagInt();
  const Value *V = C.valPair(C.valInt(1), C.valInl(C.valVar(Y)));
  const Op *O = C.opPut(Region::var(Rs), V);
  const Term *T = C.termLet(X, O, C.termHalt(C.valVar(X)));
  const Value *Code = C.valCode({}, {}, {Rs}, {Y}, {C.typeInt()}, T);
  EXPECT_EQ(applySubst(C, V, S), V);
  EXPECT_EQ(applySubst(C, O, S), O);
  EXPECT_EQ(applySubst(C, T, S), T);
  EXPECT_EQ(applySubst(C, Code, S), Code);
}

TEST(SubstRegression, CloseMatchesApplySubstOnCollectorCode) {
  // Each installed collector's cd code value, with its parameters bound to
  // closed ranges (ground tags, region names, ints, addresses) as in a
  // β-step. The code value itself rebinds every parameter, which close*
  // masks and applySubst renames: the printouts agree up to minted names.
  // (Region parameters join the domain only afterwards: a renamed region
  // variable sorts differently in the region sets that mention it.) No
  // collector binder rebinds a parameter, so both rewrites of the body
  // print the same.
  for (LanguageLevel Level :
       {LanguageLevel::Base, LanguageLevel::Forward,
        LanguageLevel::Generational}) {
    GcContext C;
    Machine M(C, Level);
    if (Level == LanguageLevel::Base)
      installBasicCollector(M);
    else if (Level == LanguageLevel::Forward)
      installForwardCollector(M);
    else
      installGenCollector(M);
    Region Nu = Region::name(C.fresh("nu"));
    const RegionData *Cd = M.memory().region(C.cd().sym());
    ASSERT_NE(Cd, nullptr);
    M.memory().decodeRegion(*Cd);
    size_t Codes = 0;
    for (const Value *V : Cd->Cells) {
      if (!V || !V->is(ValueKind::Code))
        continue;
      ++Codes;
      Subst S;
      for (Symbol P : V->tagParams())
        S.Tags[P] = C.tagProd(C.tagInt(), C.tagInt());
      uint32_t I = 0;
      for (Symbol P : V->valParams())
        S.Vals[P] = ++I % 2 ? C.valInt(I) : C.valAddr(Address{Nu, I});
      EXPECT_EQ(canonMinted(printValue(C, closeValue(C, V, S))),
                canonMinted(printValue(C, applySubst(C, V, S))))
          << languageLevelName(Level);
      for (Symbol P : V->regionParams())
        S.Regions[P] = Nu;
      const Term *Body = V->codeBody();
      EXPECT_EQ(printTerm(C, closeTerm(C, Body, S)),
                printTerm(C, applySubst(C, Body, S)))
          << languageLevelName(Level);
    }
    EXPECT_GT(Codes, 0u);
  }
}

TEST(SubstRegression, TermSizeMetricsCountNodes) {
  GcContext C;
  const Term *T = C.termLet(C.fresh("x"),
                            C.opVal(C.valPair(C.valInt(1), C.valInt(2))),
                            C.termHalt(C.valInt(0)));
  EXPECT_EQ(termSize(T), 1u + 3u + 2u); // let + pair(3) + halt(2)
}

} // namespace
