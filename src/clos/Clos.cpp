//===- clos/Clos.cpp - λCLOS typechecker, evaluator, printer ---------------===//

#include "clos/Clos.h"
#include "support/WrapArith.h"

#include <functional>

using namespace scav;
using namespace scav::clos;

static const char *primOpNameOf(lambda::PrimOp P) {
  switch (P) {
  case lambda::PrimOp::Add:
    return "+";
  case lambda::PrimOp::Sub:
    return "-";
  case lambda::PrimOp::Mul:
    return "*";
  case lambda::PrimOp::Le:
    return "<=";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Typechecker
//===----------------------------------------------------------------------===//

const Tag *scav::clos::typeOfVal(ClosContext &C, const Val *V,
                                 const gc::TagEnv &Theta,
                                 const std::map<Symbol, const Tag *> &Gamma,
                                 const std::map<Symbol, const Tag *> &FunTys,
                                 DiagEngine &Diags) {
  GcContext &GC = C.gcContext();
  auto FailT = [&](const std::string &Msg) -> const Tag * {
    Diags.error(Msg);
    return nullptr;
  };
  switch (V->kind()) {
  case ValKind::Int:
    return GC.tagInt();
  case ValKind::Var: {
    auto It = Gamma.find(V->var());
    if (It == Gamma.end())
      return FailT("unbound variable " + std::string(C.name(V->var())));
    return It->second;
  }
  case ValKind::FunName: {
    auto It = FunTys.find(V->var());
    if (It == FunTys.end())
      return FailT("unknown function " + std::string(C.name(V->var())));
    return It->second;
  }
  case ValKind::Pair: {
    const Tag *L = typeOfVal(C, V->first(), Theta, Gamma, FunTys, Diags);
    const Tag *R = typeOfVal(C, V->second(), Theta, Gamma, FunTys, Diags);
    if (!L || !R)
      return nullptr;
    return GC.tagProd(L, R);
  }
  case ValKind::Pack: {
    const gc::Kind *K = gc::kindOfTag(GC, V->witness(), Theta);
    if (!K || !K->isOmega())
      return FailT("ill-formed witness tag in package");
    const Tag *Want = gc::substTag(GC, V->bodyType(), V->var(), V->witness());
    const Tag *Got = typeOfVal(C, V->payload(), Theta, Gamma, FunTys, Diags);
    if (!Got)
      return nullptr;
    if (!gc::tagEqual(GC, Got, Want))
      return FailT("package payload type mismatch: got " +
                   gc::printTag(GC, Got) + ", want " + gc::printTag(GC, Want));
    return GC.tagExists(V->var(), V->bodyType());
  }
  }
  return nullptr;
}

namespace {

struct Checker {
  ClosContext &C;
  GcContext &GC;
  DiagEngine &Diags;
  std::map<Symbol, const Tag *> FunTys; // f ↦ τ→0 (unary arrow tag)

  bool fail(const std::string &Msg) {
    Diags.error(Msg);
    return false;
  }

  bool tagWf(const Tag *T, const gc::TagEnv &Theta) {
    const gc::Kind *K = gc::kindOfTag(GC, T, Theta);
    return K && K->isOmega();
  }

  const Tag *typeOfVal(const Val *V, const gc::TagEnv &Theta,
                       const std::map<Symbol, const Tag *> &Gamma) {
    return clos::typeOfVal(C, V, Theta, Gamma, FunTys, Diags);
  }

  bool checkExp(const Exp *E, gc::TagEnv Theta,
                std::map<Symbol, const Tag *> Gamma) {
    for (const Exp *Cur = E;;) {
      switch (Cur->kind()) {
      case ExpKind::LetVal: {
        const Tag *T = typeOfVal(Cur->val1(), Theta, Gamma);
        if (!T)
          return false;
        Gamma[Cur->binder()] = T;
        Cur = Cur->sub1();
        continue;
      }
      case ExpKind::LetProj1:
      case ExpKind::LetProj2: {
        const Tag *T = typeOfVal(Cur->val1(), Theta, Gamma);
        if (!T)
          return false;
        const Tag *N = gc::normalizeTag(GC, T);
        if (!N->is(gc::TagKind::Prod))
          return fail("projection from non-pair of type " +
                      gc::printTag(GC, N));
        Gamma[Cur->binder()] =
            Cur->is(ExpKind::LetProj1) ? N->left() : N->right();
        Cur = Cur->sub1();
        continue;
      }
      case ExpKind::LetPrim: {
        const Tag *L = typeOfVal(Cur->val1(), Theta, Gamma);
        const Tag *R = typeOfVal(Cur->val2(), Theta, Gamma);
        if (!L || !R)
          return false;
        if (!gc::tagEqual(GC, L, GC.tagInt()) ||
            !gc::tagEqual(GC, R, GC.tagInt()))
          return fail("primitive operands must be Int");
        Gamma[Cur->binder()] = GC.tagInt();
        Cur = Cur->sub1();
        continue;
      }
      case ExpKind::App: {
        const Tag *F = typeOfVal(Cur->val1(), Theta, Gamma);
        const Tag *A = typeOfVal(Cur->val2(), Theta, Gamma);
        if (!F || !A)
          return false;
        const Tag *N = gc::normalizeTag(GC, F);
        if (!N->is(gc::TagKind::Arrow) || N->arrowArgs().size() != 1)
          return fail("application of non-function of type " +
                      gc::printTag(GC, N));
        if (!gc::tagEqual(GC, A, N->arrowArgs()[0]))
          return fail("application argument type mismatch: got " +
                      gc::printTag(GC, A) + ", want " +
                      gc::printTag(GC, N->arrowArgs()[0]));
        return true;
      }
      case ExpKind::Open: {
        const Tag *T = typeOfVal(Cur->val1(), Theta, Gamma);
        if (!T)
          return false;
        const Tag *N = gc::normalizeTag(GC, T);
        if (!N->is(gc::TagKind::Exists))
          return fail("open of non-existential of type " +
                      gc::printTag(GC, N));
        Theta[Cur->tagBinder()] = GC.omega();
        Gamma[Cur->binder()] = gc::substTag(GC, N->body(), N->var(),
                                            GC.tagVar(Cur->tagBinder()));
        Cur = Cur->sub1();
        continue;
      }
      case ExpKind::Halt: {
        const Tag *T = typeOfVal(Cur->val1(), Theta, Gamma);
        if (!T)
          return false;
        if (!gc::tagEqual(GC, T, GC.tagInt()))
          return fail("halt value must be Int");
        return true;
      }
      case ExpKind::If0: {
        const Tag *T = typeOfVal(Cur->val1(), Theta, Gamma);
        if (!T)
          return false;
        if (!gc::tagEqual(GC, T, GC.tagInt()))
          return fail("if0 scrutinee must be Int");
        if (!checkExp(Cur->sub1(), Theta, Gamma))
          return false;
        Cur = Cur->sub2();
        continue;
      }
      }
      return false;
    }
  }
};

} // namespace

bool scav::clos::typeCheckProgram(ClosContext &C, const Program &P,
                                  DiagEngine &Diags) {
  Checker Ck{C, C.gcContext(), Diags, {}};
  GcContext &GC = C.gcContext();
  for (const FunDef &F : P.Funs)
    Ck.FunTys[F.Name] = GC.tagArrow({F.ParamTy});
  for (const FunDef &F : P.Funs) {
    gc::TagEnv Theta;
    std::map<Symbol, const Tag *> Gamma;
    if (!Ck.tagWf(F.ParamTy, Theta)) {
      Diags.error("ill-formed parameter type for function " +
                  std::string(C.name(F.Name)));
      return false;
    }
    Gamma[F.Param] = F.ParamTy;
    if (!Ck.checkExp(F.Body, Theta, Gamma)) {
      Diags.error("in function " + std::string(C.name(F.Name)));
      return false;
    }
  }
  return Ck.checkExp(P.Main, {}, {});
}

//===----------------------------------------------------------------------===//
// Evaluator
//===----------------------------------------------------------------------===//

namespace {

struct ClosRt;
using ClosRef = std::shared_ptr<ClosRt>;

struct ClosRt {
  enum class Kind { Int, Pair, Pack, Fun } K;
  int64_t N = 0;
  ClosRef A, B;
  Symbol Fun;
};

} // namespace

ClosEvalResult scav::clos::evaluate(const ClosContext &C, const Program &P,
                                    uint64_t Fuel) {
  ClosEvalResult Res;
  std::map<Symbol, const FunDef *> Funs;
  for (const FunDef &F : P.Funs)
    Funs[F.Name] = &F;

  std::map<Symbol, ClosRef> Env;
  const Exp *E = P.Main;

  auto Fail = [&](const std::string &Msg) {
    Res.Ok = false;
    Res.Error = Msg;
    return Res;
  };

  std::function<ClosRef(const Val *)> Atom = [&](const Val *V) -> ClosRef {
    switch (V->kind()) {
    case ValKind::Int: {
      auto R = std::make_shared<ClosRt>();
      R->K = ClosRt::Kind::Int;
      R->N = V->intValue();
      return R;
    }
    case ValKind::Var: {
      auto It = Env.find(V->var());
      return It == Env.end() ? nullptr : It->second;
    }
    case ValKind::FunName: {
      auto R = std::make_shared<ClosRt>();
      R->K = ClosRt::Kind::Fun;
      R->Fun = V->var();
      return R;
    }
    case ValKind::Pair: {
      ClosRef L = Atom(V->first()), Rr = Atom(V->second());
      if (!L || !Rr)
        return nullptr;
      auto R = std::make_shared<ClosRt>();
      R->K = ClosRt::Kind::Pair;
      R->A = L;
      R->B = Rr;
      ++Res.PairAllocs;
      return R;
    }
    case ValKind::Pack: {
      ClosRef Pl = Atom(V->payload());
      if (!Pl)
        return nullptr;
      auto R = std::make_shared<ClosRt>();
      R->K = ClosRt::Kind::Pack;
      R->A = Pl;
      ++Res.PairAllocs;
      return R;
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
      ClosRef V = Atom(E->val1());
      if (!V)
        return Fail("unbound variable");
      Env[E->binder()] = V;
      E = E->sub1();
      break;
    }
    case ExpKind::LetProj1:
    case ExpKind::LetProj2: {
      ClosRef P2 = Atom(E->val1());
      if (!P2 || P2->K != ClosRt::Kind::Pair)
        return Fail("projection from non-pair");
      Env[E->binder()] = E->is(ExpKind::LetProj1) ? P2->A : P2->B;
      E = E->sub1();
      break;
    }
    case ExpKind::LetPrim: {
      ClosRef L = Atom(E->val1()), R = Atom(E->val2());
      if (!L || !R || L->K != ClosRt::Kind::Int || R->K != ClosRt::Kind::Int)
        return Fail("primitive on non-integers");
      auto V = std::make_shared<ClosRt>();
      V->K = ClosRt::Kind::Int;
      V->N = support::evalIntPrim(E->primOp(), L->N, R->N);
      Env[E->binder()] = V;
      E = E->sub1();
      break;
    }
    case ExpKind::App: {
      ClosRef F = Atom(E->val1());
      ClosRef A = Atom(E->val2());
      if (!F || !A)
        return Fail("unbound value in application");
      if (F->K != ClosRt::Kind::Fun)
        return Fail("application of non-function");
      auto It = Funs.find(F->Fun);
      if (It == Funs.end())
        return Fail("unknown function");
      Env.clear(); // letrec functions are closed
      Env[It->second->Param] = A;
      E = It->second->Body;
      break;
    }
    case ExpKind::Open: {
      ClosRef V = Atom(E->val1());
      if (!V || V->K != ClosRt::Kind::Pack)
        return Fail("open of non-package");
      Env[E->binder()] = V->A;
      E = E->sub1();
      break;
    }
    case ExpKind::Halt: {
      ClosRef V = Atom(E->val1());
      if (!V || V->K != ClosRt::Kind::Int)
        return Fail("halt of non-integer");
      Res.Ok = true;
      Res.Value = V->N;
      return Res;
    }
    case ExpKind::If0: {
      ClosRef V = Atom(E->val1());
      if (!V || V->K != ClosRt::Kind::Int)
        return Fail("if0 of non-integer");
      E = V->N == 0 ? E->sub1() : E->sub2();
      break;
    }
    }
  }
}

//===----------------------------------------------------------------------===//
// Printer
//===----------------------------------------------------------------------===//

std::string scav::clos::printVal(const ClosContext &C, const Val *V) {
  const GcContext &GC = const_cast<ClosContext &>(C).gcContext();
  switch (V->kind()) {
  case ValKind::Int:
    return std::to_string(V->intValue());
  case ValKind::Var:
    return std::string(C.name(V->var()));
  case ValKind::FunName:
    return "@" + std::string(C.name(V->var()));
  case ValKind::Pair:
    return "(" + printVal(C, V->first()) + ", " + printVal(C, V->second()) +
           ")";
  case ValKind::Pack:
    return "pack<" + std::string(C.name(V->var())) + " = " +
           gc::printTag(GC, V->witness()) + ", " + printVal(C, V->payload()) +
           ">";
  }
  return "?";
}

std::string scav::clos::printExp(const ClosContext &C, const Exp *E) {
  switch (E->kind()) {
  case ExpKind::LetVal:
    return "let " + std::string(C.name(E->binder())) + " = " +
           printVal(C, E->val1()) + " in\n" + printExp(C, E->sub1());
  case ExpKind::LetProj1:
  case ExpKind::LetProj2:
    return "let " + std::string(C.name(E->binder())) + " = pi" +
           (E->is(ExpKind::LetProj1) ? "1 " : "2 ") + printVal(C, E->val1()) +
           " in\n" + printExp(C, E->sub1());
  case ExpKind::LetPrim:
    return "let " + std::string(C.name(E->binder())) + " = " +
           printVal(C, E->val1()) + " " + primOpNameOf(E->primOp()) + " " +
           printVal(C, E->val2()) + " in\n" + printExp(C, E->sub1());
  case ExpKind::App:
    return printVal(C, E->val1()) + "(" + printVal(C, E->val2()) + ")";
  case ExpKind::Open:
    return "open " + printVal(C, E->val1()) + " as <" +
           std::string(C.name(E->tagBinder())) + ", " +
           std::string(C.name(E->binder())) + "> in\n" +
           printExp(C, E->sub1());
  case ExpKind::Halt:
    return "halt " + printVal(C, E->val1());
  case ExpKind::If0:
    return "if0 " + printVal(C, E->val1()) + " then " +
           printExp(C, E->sub1()) + " else " + printExp(C, E->sub2());
  }
  return "?";
}

std::string scav::clos::printProgram(const ClosContext &C, const Program &P) {
  const GcContext &GC = const_cast<ClosContext &>(C).gcContext();
  std::string Out;
  for (const FunDef &F : P.Funs) {
    Out += "letrec " + std::string(C.name(F.Name)) + " = \\(" +
           std::string(C.name(F.Param)) + " : " +
           gc::printTag(GC, F.ParamTy) + ").\n" + printExp(C, F.Body) +
           "\n\n";
  }
  Out += "in\n" + printExp(C, P.Main) + "\n";
  return Out;
}
