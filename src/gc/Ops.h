//===- gc/Ops.h - Operations over λGC syntax -------------------*- C++ -*-===//
///
/// \file
/// Free functions over the λGC AST:
///
///  * simultaneous capture-avoiding substitution (tags, regions, type
///    variables, and term variables at once — exactly the shape of the
///    machine's β-step, Fig 5 line 2);
///  * tag β-normalization and M/C Typerec reduction (§4.2, §6.3, §7, §8;
///    strong normalization is Prop 6.1, confluence Prop 6.2);
///  * alpha-equivalence of tags and types;
///  * free-symbol and free-region collection;
///  * pretty-printing.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_GC_OPS_H
#define SCAV_GC_OPS_H

#include "gc/GcContext.h"
#include "gc/Lang.h"

#include <string>
#include <unordered_map>
#include <unordered_set>

namespace scav::gc {

//===----------------------------------------------------------------------===//
// Substitution
//===----------------------------------------------------------------------===//

/// A simultaneous substitution over all four variable sorts.
struct Subst {
  std::unordered_map<Symbol, const Tag *, SymbolHash> Tags;
  std::unordered_map<Symbol, Region, SymbolHash> Regions;
  std::unordered_map<Symbol, const Type *, SymbolHash> Types;
  std::unordered_map<Symbol, const Value *, SymbolHash> Vals;

  bool empty() const {
    return Tags.empty() && Regions.empty() && Types.empty() && Vals.empty();
  }
};

/// Capture-avoiding substitution (Fig 5): a binder that collides with the
/// substitution's domain, or with a symbol its range mentions, is renamed
/// to a fresh symbol, minted in left-to-right traversal order. A node whose
/// children and binders all come back unchanged is returned as it is
/// (pointer-identical), so a substitution that touches nothing allocates
/// nothing.
const Tag *applySubst(GcContext &C, const Tag *T, const Subst &S);
const Type *applySubst(GcContext &C, const Type *T, const Subst &S);
const Value *applySubst(GcContext &C, const Value *V, const Subst &S);
const Op *applySubst(GcContext &C, const Op *O, const Subst &S);
const Term *applySubst(GcContext &C, const Term *E, const Subst &S);
Region applySubst(Region R, const Subst &S);
RegionSet applySubst(const RegionSet &RS, const Subst &S);

/// Counters reported by the close* entry points (environment-mode machine
/// statistics; see MachineStats::EnvLookups).
struct CloseCounters {
  uint64_t Lookups = 0; ///< environment hits at variable occurrences
};

/// Closing substitution: applySubst's traversal under a masking binder
/// policy, for environments whose ranges are *closed* — no free variables
/// of any sort, and every region a concrete name — as maintained by the
/// environment-mode machine (Machine.h, EvalMode::Env). Closed ranges
/// cannot be captured, so binders are never freshened; they only *shadow*
/// (mask) same-named environment entries. As in applySubst, a node in
/// which no substitution fires comes back unchanged, so forcing an
/// already-closed subtree is pointer-identity.
const Tag *closeTag(GcContext &C, const Tag *T, const Subst &Env,
                    CloseCounters *Counters = nullptr);
const Type *closeType(GcContext &C, const Type *T, const Subst &Env,
                      CloseCounters *Counters = nullptr);
const Value *closeValue(GcContext &C, const Value *V, const Subst &Env,
                        CloseCounters *Counters = nullptr);
const Term *closeTerm(GcContext &C, const Term *E, const Subst &Env,
                      CloseCounters *Counters = nullptr);
Region closeRegion(Region R, const Subst &Env,
                   CloseCounters *Counters = nullptr);
RegionSet closeRegionSet(const RegionSet &RS, const Subst &Env,
                         CloseCounters *Counters = nullptr);

/// Convenience single-binding substitutions.
const Tag *substTag(GcContext &C, const Tag *In, Symbol Var, const Tag *Rep);
const Type *substTagInType(GcContext &C, const Type *In, Symbol Var,
                           const Tag *Rep);
const Type *substRegionInType(GcContext &C, const Type *In, Symbol Var,
                              Region Rep);
const Type *substTypeVarInType(GcContext &C, const Type *In, Symbol Var,
                               const Type *Rep);

//===----------------------------------------------------------------------===//
// Free variables
//===----------------------------------------------------------------------===//

using SymbolSet = std::unordered_set<Symbol, SymbolHash>;

/// Collects every symbol mentioned anywhere in the node (free or bound;
/// conservative — used only to steer binder freshening).
void collectSymbols(const Tag *T, SymbolSet &Out);
void collectSymbols(const Type *T, SymbolSet &Out);
void collectSymbols(const Value *V, SymbolSet &Out);
void collectSymbols(const Term *E, SymbolSet &Out);

/// Free tag variables of a tag.
void freeTagVars(const Tag *T, SymbolSet &Out);

/// Free regions (names and variables) of a type. Used to implement the
/// environment restrictions Γ|∆ / Φ|∆ and the ∆;Θ;Φ ⊢ σ judgment.
void freeRegionsOfType(const Type *T, RegionSet &Out);

/// Free term variables of a value / term.
void freeValVars(const Value *V, SymbolSet &Out);
void freeValVars(const Term *E, SymbolSet &Out);

//===----------------------------------------------------------------------===//
// Normalization (Props 6.1/6.2)
//===----------------------------------------------------------------------===//

/// β-normalizes a tag (normal order; strongly normalizing for well-kinded
/// tags since the tag language is a simply-kinded λ-calculus).
const Tag *normalizeTag(GcContext &C, const Tag *T);

/// Normalizes a type: normalizes embedded tags and reduces the M (§4.2 /
/// §7 / §8 equations, selected by \p Level) and C (§7) operators as far as
/// possible. M/C applications on variable-headed tags are normal forms.
const Type *normalizeType(GcContext &C, const Type *T, LanguageLevel Level);

/// One-step head expansion of M_ρs(τ) / C_{ρ,ρ'}(τ) for a *constructor*
/// -headed normal tag; returns nullptr if the tag is variable-headed
/// (stuck). Exposed for the translators and the native collector.
const Type *expandMOnce(GcContext &C, const std::vector<Region> &Rs,
                        const Tag *NormalTag, LanguageLevel Level);
const Type *expandCOnce(GcContext &C, Region From, Region To,
                        const Tag *NormalTag);

//===----------------------------------------------------------------------===//
// Equality
//===----------------------------------------------------------------------===//

/// Alpha-equivalence of raw tags / types (no normalization).
bool alphaEqualTag(const Tag *A, const Tag *B);
bool alphaEqualType(const Type *A, const Type *B);

/// Semantic equality: normalize (at \p Level) then alpha-compare.
bool tagEqual(GcContext &C, const Tag *A, const Tag *B);
bool typeEqual(GcContext &C, const Type *A, const Type *B,
               LanguageLevel Level);

//===----------------------------------------------------------------------===//
// Kinding (Θ ⊢ τ : κ, Fig 6 top-left)
//===----------------------------------------------------------------------===//

using TagEnv = std::unordered_map<Symbol, const Kind *, SymbolHash>;

/// Infers the kind of \p T under \p Theta; returns nullptr if ill-kinded.
const Kind *kindOfTag(GcContext &C, const Tag *T, const TagEnv &Theta);

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

std::string printKind(const GcContext &C, const Kind *K);
std::string printTag(const GcContext &C, const Tag *T);
std::string printType(const GcContext &C, const Type *T);
std::string printRegion(const GcContext &C, Region R);
std::string printRegionSet(const GcContext &C, const RegionSet &RS);
std::string printValue(const GcContext &C, const Value *V);
std::string printTerm(const GcContext &C, const Term *E);

//===----------------------------------------------------------------------===//
// Size metrics (used by the E6 type-growth ablation)
//===----------------------------------------------------------------------===//

size_t tagSize(const Tag *T);
size_t typeSize(const Type *T);
size_t termSize(const Term *E);
size_t valueSize(const Value *V);

} // namespace scav::gc

#endif // SCAV_GC_OPS_H
