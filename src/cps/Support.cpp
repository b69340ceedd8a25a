//===- cps/Support.cpp - CPS typechecker, evaluator, printer ---------------===//

#include "cps/Cps.h"
#include "support/WrapArith.h"

using namespace scav;
using namespace scav::cps;

//===----------------------------------------------------------------------===//
// Typechecker
//===----------------------------------------------------------------------===//

bool scav::cps::typeEqual(const Type *A, const Type *B) {
  if (A == B)
    return true;
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case TypeKind::Int:
    return true;
  case TypeKind::Prod:
    return typeEqual(A->left(), B->left()) &&
           typeEqual(A->right(), B->right());
  case TypeKind::Code: {
    if (A->params().size() != B->params().size())
      return false;
    for (size_t I = 0, E = A->params().size(); I != E; ++I)
      if (!typeEqual(A->params()[I], B->params()[I]))
        return false;
    return true;
  }
  }
  return false;
}

const Type *scav::cps::typeOfVal(CpsContext &C, const Val *V,
                                 const TypeEnv &Env, DiagEngine &Diags) {
  switch (V->kind()) {
  case ValKind::Int:
    return C.tyInt();
  case ValKind::Var: {
    auto It = Env.find(V->var());
    if (It == Env.end()) {
      Diags.error("unbound CPS variable " + std::string(C.name(V->var())));
      return nullptr;
    }
    return It->second;
  }
  case ValKind::Lam: {
    const Type *Ty = C.tyCode(V->paramTypes());
    TypeEnv Inner = Env;
    if (V->self().isValid())
      Inner[V->self()] = Ty;
    for (size_t I = 0, E = V->params().size(); I != E; ++I)
      Inner[V->params()[I]] = V->paramTypes()[I];
    if (!checkExp(C, V->body(), Inner, Diags))
      return nullptr;
    return Ty;
  }
  }
  return nullptr;
}

bool scav::cps::checkExp(CpsContext &C, const Exp *E, const TypeEnv &Env,
                         DiagEngine &Diags) {
  auto Fail = [&](const std::string &Msg) {
    Diags.error(Msg);
    return false;
  };

  switch (E->kind()) {
  case ExpKind::LetVal: {
    const Type *T = typeOfVal(C, E->val1(), Env, Diags);
    if (!T)
      return false;
    TypeEnv Inner = Env;
    Inner[E->binder()] = T;
    return checkExp(C, E->sub1(), Inner, Diags);
  }
  case ExpKind::LetPair: {
    const Type *L = typeOfVal(C, E->val1(), Env, Diags);
    const Type *R = typeOfVal(C, E->val2(), Env, Diags);
    if (!L || !R)
      return false;
    TypeEnv Inner = Env;
    Inner[E->binder()] = C.tyProd(L, R);
    return checkExp(C, E->sub1(), Inner, Diags);
  }
  case ExpKind::LetProj1:
  case ExpKind::LetProj2: {
    const Type *P = typeOfVal(C, E->val1(), Env, Diags);
    if (!P)
      return false;
    if (!P->is(TypeKind::Prod))
      return Fail("CPS projection from non-pair");
    TypeEnv Inner = Env;
    Inner[E->binder()] =
        E->is(ExpKind::LetProj1) ? P->left() : P->right();
    return checkExp(C, E->sub1(), Inner, Diags);
  }
  case ExpKind::LetPrim: {
    const Type *L = typeOfVal(C, E->val1(), Env, Diags);
    const Type *R = typeOfVal(C, E->val2(), Env, Diags);
    if (!L || !R)
      return false;
    if (!L->is(TypeKind::Int) || !R->is(TypeKind::Int))
      return Fail("CPS primitive on non-integers");
    TypeEnv Inner = Env;
    Inner[E->binder()] = C.tyInt();
    return checkExp(C, E->sub1(), Inner, Diags);
  }
  case ExpKind::App: {
    const Type *F = typeOfVal(C, E->val1(), Env, Diags);
    if (!F)
      return false;
    if (!F->is(TypeKind::Code))
      return Fail("CPS application of non-code value");
    if (F->params().size() != E->appArgs().size())
      return Fail("CPS application arity mismatch");
    for (size_t I = 0, N = E->appArgs().size(); I != N; ++I) {
      const Type *A = typeOfVal(C, E->appArgs()[I], Env, Diags);
      if (!A)
        return false;
      if (!typeEqual(A, F->params()[I]))
        return Fail("CPS application argument type mismatch");
    }
    return true;
  }
  case ExpKind::If0: {
    const Type *S = typeOfVal(C, E->val1(), Env, Diags);
    if (!S)
      return false;
    if (!S->is(TypeKind::Int))
      return Fail("CPS if0 scrutinee must be Int");
    return checkExp(C, E->sub1(), Env, Diags) &&
           checkExp(C, E->sub2(), Env, Diags);
  }
  case ExpKind::Halt: {
    const Type *V = typeOfVal(C, E->val1(), Env, Diags);
    if (!V)
      return false;
    if (!V->is(TypeKind::Int))
      return Fail("CPS halt value must be Int");
    return true;
  }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Evaluator
//===----------------------------------------------------------------------===//

namespace {

struct RtVal;
using RtRef = std::shared_ptr<RtVal>;

struct RtVal {
  enum class Kind { Int, Pair, Closure } K;
  int64_t N = 0;
  RtRef A, B;
  const Val *Lam = nullptr;
  std::map<Symbol, RtRef> Env;
};

RtRef mkInt(int64_t N) {
  auto V = std::make_shared<RtVal>();
  V->K = RtVal::Kind::Int;
  V->N = N;
  return V;
}

} // namespace

CpsEvalResult scav::cps::evaluate(const Exp *Start, uint64_t Fuel) {
  const Exp *E = Start;
  std::map<Symbol, RtRef> Env;
  CpsEvalResult Res;

  auto Fail = [&](const std::string &Msg) {
    Res.Ok = false;
    Res.Error = Msg;
    return Res;
  };

  auto Atom = [&](const Val *V) -> RtRef {
    switch (V->kind()) {
    case ValKind::Int:
      return mkInt(V->intValue());
    case ValKind::Var: {
      auto It = Env.find(V->var());
      return It == Env.end() ? nullptr : It->second;
    }
    case ValKind::Lam: {
      auto C = std::make_shared<RtVal>();
      C->K = RtVal::Kind::Closure;
      C->Lam = V;
      C->Env = Env;
      return C;
    }
    }
    return nullptr;
  };

  for (uint64_t Step = 0;; ++Step) {
    if (Step > Fuel)
      return Fail("out of fuel");
    ++Res.Steps;
    switch (E->kind()) {
    case ExpKind::LetVal: {
      RtRef V = Atom(E->val1());
      if (!V)
        return Fail("unbound variable");
      Env[E->binder()] = V;
      E = E->sub1();
      break;
    }
    case ExpKind::LetPair: {
      RtRef L = Atom(E->val1()), R = Atom(E->val2());
      if (!L || !R)
        return Fail("unbound variable");
      auto P = std::make_shared<RtVal>();
      P->K = RtVal::Kind::Pair;
      P->A = L;
      P->B = R;
      Env[E->binder()] = P;
      E = E->sub1();
      break;
    }
    case ExpKind::LetProj1:
    case ExpKind::LetProj2: {
      RtRef P = Atom(E->val1());
      if (!P || P->K != RtVal::Kind::Pair)
        return Fail("projection from non-pair");
      Env[E->binder()] = E->is(ExpKind::LetProj1) ? P->A : P->B;
      E = E->sub1();
      break;
    }
    case ExpKind::LetPrim: {
      RtRef L = Atom(E->val1()), R = Atom(E->val2());
      if (!L || !R || L->K != RtVal::Kind::Int || R->K != RtVal::Kind::Int)
        return Fail("primitive on non-integers");
      Env[E->binder()] =
          mkInt(support::evalIntPrim(E->primOp(), L->N, R->N));
      E = E->sub1();
      break;
    }
    case ExpKind::App: {
      RtRef F = Atom(E->val1());
      if (!F || F->K != RtVal::Kind::Closure)
        return Fail("application of non-closure");
      if (F->Lam->params().size() != E->appArgs().size())
        return Fail("application arity mismatch");
      std::vector<RtRef> Args;
      for (const Val *A : E->appArgs()) {
        RtRef V = Atom(A);
        if (!V)
          return Fail("unbound argument");
        Args.push_back(V);
      }
      std::map<Symbol, RtRef> NewEnv = F->Env;
      if (F->Lam->self().isValid())
        NewEnv[F->Lam->self()] = F;
      for (size_t I = 0, N = Args.size(); I != N; ++I)
        NewEnv[F->Lam->params()[I]] = Args[I];
      Env = std::move(NewEnv);
      E = F->Lam->body();
      break;
    }
    case ExpKind::If0: {
      RtRef S = Atom(E->val1());
      if (!S || S->K != RtVal::Kind::Int)
        return Fail("if0 of non-integer");
      E = S->N == 0 ? E->sub1() : E->sub2();
      break;
    }
    case ExpKind::Halt: {
      RtRef V = Atom(E->val1());
      if (!V || V->K != RtVal::Kind::Int)
        return Fail("halt of non-integer");
      Res.Ok = true;
      Res.Value = V->N;
      return Res;
    }
    }
  }
}

//===----------------------------------------------------------------------===//
// Printer
//===----------------------------------------------------------------------===//

std::string scav::cps::printType(const CpsContext &C, const Type *T) {
  switch (T->kind()) {
  case TypeKind::Int:
    return "Int";
  case TypeKind::Prod:
    return "(* " + printType(C, T->left()) + " " + printType(C, T->right()) +
           ")";
  case TypeKind::Code: {
    std::string Out = "((";
    for (size_t I = 0, E = T->params().size(); I != E; ++I) {
      if (I)
        Out += ", ";
      Out += printType(C, T->params()[I]);
    }
    return Out + ") -> 0)";
  }
  }
  return "?";
}

namespace {

std::string printVal(const CpsContext &C, const Val *V) {
  switch (V->kind()) {
  case ValKind::Int:
    return std::to_string(V->intValue());
  case ValKind::Var:
    return std::string(C.name(V->var()));
  case ValKind::Lam: {
    std::string Out = "(lam";
    if (V->self().isValid())
      Out += "[" + std::string(C.name(V->self())) + "]";
    Out += " (";
    for (size_t I = 0, E = V->params().size(); I != E; ++I) {
      if (I)
        Out += " ";
      Out += std::string(C.name(V->params()[I])) + ":" +
             printType(C, V->paramTypes()[I]);
    }
    return Out + ") " + printExp(C, V->body()) + ")";
  }
  }
  return "?";
}

} // namespace

std::string scav::cps::printExp(const CpsContext &C, const Exp *E) {
  switch (E->kind()) {
  case ExpKind::LetVal:
    return "(let " + std::string(C.name(E->binder())) + " " +
           printVal(C, E->val1()) + " " + printExp(C, E->sub1()) + ")";
  case ExpKind::LetPair:
    return "(letpair " + std::string(C.name(E->binder())) + " " +
           printVal(C, E->val1()) + " " + printVal(C, E->val2()) + " " +
           printExp(C, E->sub1()) + ")";
  case ExpKind::LetProj1:
  case ExpKind::LetProj2:
    return std::string("(let") +
           (E->is(ExpKind::LetProj1) ? "fst " : "snd ") +
           std::string(C.name(E->binder())) + " " + printVal(C, E->val1()) +
           " " + printExp(C, E->sub1()) + ")";
  case ExpKind::LetPrim:
    return "(letprim " + std::string(C.name(E->binder())) + " " +
           printVal(C, E->val1()) + " " + printVal(C, E->val2()) + " " +
           printExp(C, E->sub1()) + ")";
  case ExpKind::App: {
    std::string Out = "(" + printVal(C, E->val1());
    for (const Val *A : E->appArgs())
      Out += " " + printVal(C, A);
    return Out + ")";
  }
  case ExpKind::If0:
    return "(if0 " + printVal(C, E->val1()) + " " + printExp(C, E->sub1()) +
           " " + printExp(C, E->sub2()) + ")";
  case ExpKind::Halt:
    return "(halt " + printVal(C, E->val1()) + ")";
  }
  return "?";
}
