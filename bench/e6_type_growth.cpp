//===- bench/e6_type_growth.cpp - E6: symmetric M vs naive S (§2.2.1) -----===//
//
// The paper's §2.2.1 ablation: the naive Typerec S_{T,F}(σ) (substitute
// the to-region for the from-region) is *asymmetric* — after each
// collection the mutator's types become S_{ρk,ρk-1}(...S_{ρ1,ρ0}(σ)...),
// and because S is stuck on quantified type variables
// ("∃α.S_{T,F}(α) is a normal form"), the operators accumulate: type size
// grows linearly with the number of collections. The paper's M (one region
// index, symmetric copy ∀F.∀T.(M_F(α) → M_T(α))) keeps types at constant
// size.
//
// This binary models the rejected design faithfully (S distributes over
// Int/×/→/∃-bodies but is stuck on type variables) and measures both.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gc/Ops.h"

#include <cstdio>
#include <memory>
#include <vector>

using namespace scav;
using namespace scav::gc;

namespace {

/// The rejected substitution-Typerec, modeled over λGC tags with explicit
/// stuck S applications.
struct SType {
  enum class Kind { Leaf, Prod, Exists, Var, SApp } K;
  const SType *A = nullptr;
  const SType *B = nullptr;
  int FromEpoch = 0, ToEpoch = 0; // S_{ρto,ρfrom}
};

struct SArena {
  std::vector<std::unique_ptr<SType>> Pool;
  const SType *make(SType T) {
    Pool.push_back(std::make_unique<SType>(T));
    return Pool.back().get();
  }
};

/// Applies one collection: wrap in S_{k+1,k} and push it through the
/// structure; stuck on ∃-bound variables (§2.2.1).
const SType *collect(SArena &A, const SType *T, int Epoch) {
  switch (T->K) {
  case SType::Kind::Leaf:
    return T; // S(Int) = Int
  case SType::Kind::Prod:
    return A.make({SType::Kind::Prod, collect(A, T->A, Epoch),
                   collect(A, T->B, Epoch)});
  case SType::Kind::Exists:
    // S pushes into the body...
    return A.make({SType::Kind::Exists, collect(A, T->A, Epoch), nullptr});
  case SType::Kind::Var:
  case SType::Kind::SApp:
    // ...but ∃α.S(α) is a normal form: the new S wraps the old ones.
    return A.make(
        {SType::Kind::SApp, T, nullptr, Epoch - 1, Epoch});
  }
  return T;
}

size_t sizeOf(const SType *T) {
  size_t N = 1;
  if (T->A)
    N += sizeOf(T->A);
  if (T->B)
    N += sizeOf(T->B);
  return N;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = scav::bench::parseBenchArgs(argc, argv);
  scav::bench::JsonReport Report("e6_type_growth");
  std::printf("E6: type growth across collections — naive S vs symmetric M "
              "(section 2.2.1)\n");
  std::printf("claim: S operators accumulate on quantified variables (type "
              "size grows per collection); the M design stays constant\n\n");

  // The mutator type: ∃α.((α × Int) × ∃β.β) — two quantifiers to get
  // stuck on.
  SArena A;
  const SType *Leaf = A.make({SType::Kind::Leaf});
  const SType *Inner =
      A.make({SType::Kind::Exists, A.make({SType::Kind::Var}), nullptr});
  const SType *Body = A.make(
      {SType::Kind::Prod,
       A.make({SType::Kind::Prod, A.make({SType::Kind::Var}), Leaf}),
       Inner});
  const SType *Naive = A.make({SType::Kind::Exists, Body, nullptr});

  // The same type under the paper's M, in a real GcContext: M_ρ(∃t.(t×Int))
  // after k collections is M_ρk(τ) — same size for every k.
  GcContext C;
  Symbol T = C.fresh("t"), U = C.fresh("u");
  const Tag *Tau = C.tagExists(
      T, C.tagProd(C.tagProd(C.tagVar(T), C.tagInt()),
                   C.tagExists(U, C.tagVar(U))));

  std::printf("%12s %14s %14s\n", "collections", "naive-S-size", "M-size");
  bool Ok = true;
  size_t MBase = 0;
  for (int K = 0; K <= 32; K += 4) {
    const SType *Cur = Naive;
    for (int I = 1; I <= K; ++I)
      Cur = collect(A, Cur, I);
    Region R = Region::name(C.fresh("rho"));
    auto T0 = std::chrono::steady_clock::now();
    size_t MSize =
        typeSize(normalizeType(C, C.typeM(R, Tau), LanguageLevel::Base));
    Report.sample("normalize_ns",
                  std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - T0)
                      .count());
    if (K == 0)
      MBase = MSize;
    std::printf("%12d %14zu %14zu\n", K, sizeOf(Cur), MSize);
    Ok = Ok && MSize == MBase;
    if (K >= 4)
      Ok = Ok && sizeOf(Cur) > sizeOf(Naive);
    if (K == 32) {
      Report.metric("collections", uint64_t(K));
      Report.metric("naive_s_size", uint64_t(sizeOf(Cur)));
      Report.metric("m_size", uint64_t(MSize));
    }
  }

  std::printf("\n");
  std::printf("%s: naive S grows linearly with collection count; the "
              "symmetric M stays constant\n",
              Ok ? "PASS" : "FAIL");
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
