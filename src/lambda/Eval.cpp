//===- lambda/Eval.cpp - Big-step evaluator ---------------------------------===//
///
/// \file
/// Environment-based big-step evaluation with fuel. This is the reference
/// semantics for the whole pipeline: the differential tests require
/// evaluate(e) == λCLOS-eval(cc(cps(e))) == λGC-machine(translate(...)).
///
//===----------------------------------------------------------------------===//

#include "lambda/Lambda.h"
#include "support/WrapArith.h"

using namespace scav;
using namespace scav::lambda;

namespace {

struct Evaluator {
  uint64_t Fuel;
  uint64_t Steps = 0;
  std::string Error;

  EvalValueRef fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    return nullptr;
  }

  EvalValueRef eval(const Expr *E, const std::map<Symbol, EvalValueRef> &Env) {
    if (++Steps > Fuel)
      return fail("out of fuel");

    switch (E->kind()) {
    case ExprKind::Int: {
      auto V = std::make_shared<EvalValue>();
      V->K = EvalValue::Kind::Int;
      V->N = E->intValue();
      return V;
    }
    case ExprKind::Var: {
      auto It = Env.find(E->var());
      if (It == Env.end())
        return fail("unbound variable at runtime");
      return It->second;
    }
    case ExprKind::Lam:
    case ExprKind::Fix: {
      auto V = std::make_shared<EvalValue>();
      V->K = EvalValue::Kind::Closure;
      V->Fun = E;
      V->Env = Env;
      return V;
    }
    case ExprKind::App: {
      EvalValueRef F = eval(E->sub1(), Env);
      EvalValueRef A = eval(E->sub2(), Env);
      if (!F || !A)
        return nullptr;
      if (F->K != EvalValue::Kind::Closure)
        return fail("application of non-closure");
      std::map<Symbol, EvalValueRef> Inner = F->Env;
      if (F->Fun->is(ExprKind::Fix)) {
        Inner[F->Fun->var()] = F;
        Inner[F->Fun->var2()] = A;
      } else {
        Inner[F->Fun->var()] = A;
      }
      return eval(F->Fun->sub1(), Inner);
    }
    case ExprKind::Pair: {
      EvalValueRef L = eval(E->sub1(), Env);
      EvalValueRef R = eval(E->sub2(), Env);
      if (!L || !R)
        return nullptr;
      auto V = std::make_shared<EvalValue>();
      V->K = EvalValue::Kind::Pair;
      V->A = L;
      V->B = R;
      return V;
    }
    case ExprKind::Fst:
    case ExprKind::Snd: {
      EvalValueRef P = eval(E->sub1(), Env);
      if (!P)
        return nullptr;
      if (P->K != EvalValue::Kind::Pair)
        return fail("projection from non-pair");
      return E->is(ExprKind::Fst) ? P->A : P->B;
    }
    case ExprKind::Let: {
      EvalValueRef B = eval(E->sub1(), Env);
      if (!B)
        return nullptr;
      std::map<Symbol, EvalValueRef> Inner = Env;
      Inner[E->var()] = B;
      return eval(E->sub2(), Inner);
    }
    case ExprKind::Prim: {
      EvalValueRef L = eval(E->sub1(), Env);
      EvalValueRef R = eval(E->sub2(), Env);
      if (!L || !R)
        return nullptr;
      if (L->K != EvalValue::Kind::Int || R->K != EvalValue::Kind::Int)
        return fail("primitive on non-integers");
      auto V = std::make_shared<EvalValue>();
      V->K = EvalValue::Kind::Int;
      V->N = support::evalIntPrim(E->primOp(), L->N, R->N);
      return V;
    }
    case ExprKind::If0: {
      EvalValueRef S = eval(E->sub1(), Env);
      if (!S)
        return nullptr;
      if (S->K != EvalValue::Kind::Int)
        return fail("if0 of non-integer");
      return eval(S->N == 0 ? E->sub2() : E->sub3(), Env);
    }
    }
    return fail("unknown expression kind");
  }
};

} // namespace

EvalResult scav::lambda::evaluate(const Expr *E, uint64_t Fuel) {
  Evaluator Ev{Fuel, 0, {}};
  std::map<Symbol, EvalValueRef> Empty;
  EvalValueRef V = Ev.eval(E, Empty);
  return EvalResult{V, Ev.Error, Ev.Steps};
}
