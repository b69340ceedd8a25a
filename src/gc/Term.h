//===- gc/Term.h - λGC values, operations, and terms -----------*- C++ -*-===//
///
/// \file
/// The term language of the λGC family (Fig 2, Fig 8, Fig 10):
///
///   v  ::= n | x | ν.ℓ | (v1, v2) | ⟨t = τ, v : σ⟩ | vJ~τK
///        | ⟨α : ∆ = σ1, v : σ2⟩ | λ[~t:~κ][~r](~x:~σ).e
///        | inl v | inr v                         (λGC-forw)
///        | ⟨r ∈ ∆ = ρ, v : σ⟩                    (λGC-gen)
///
///   op ::= v | πi v | put[ρ] v | get v
///        | strip v                               (λGC-forw)
///        | v1 ⊕ v2                               (int-primitive extension)
///
///   e  ::= v[~τ][~ρ](~v) | let x = op in e | halt v
///        | ifgc ρ e1 e2 | open v as ⟨t, x⟩ in e | open v as ⟨α, x⟩ in e
///        | let region r in e | only ∆ in e
///        | typecase τ of (ei; eλ; t1 t2.e×; te.e∃)
///        | ifleft x = v el er | set v1 := v2; e
///        | let x = widen[ρ][τ](v) in e           (λGC-forw)
///        | open v as ⟨r, x⟩ in e | ifreg (ρ1 = ρ2) e1 e2  (λGC-gen)
///        | if0 v e1 e2                           (int-primitive extension)
///
/// The integer primitives (⊕ and if0) are a documented extension (see
/// DESIGN.md): they only manipulate values of type int and are needed so
/// mutators can compute anything observable.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_GC_TERM_H
#define SCAV_GC_TERM_H

#include "gc/Type.h"

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace scav::gc {

class Term;

/// A concrete memory address ν.ℓ.
struct Address {
  Region R;        ///< Must be a region name ν.
  uint32_t Offset; ///< ℓ within the region.

  friend bool operator==(Address A, Address B) {
    return A.R == B.R && A.Offset == B.Offset;
  }
  friend bool operator<(Address A, Address B) {
    if (A.R != B.R)
      return A.R < B.R;
    return A.Offset < B.Offset;
  }
};

/// Hash for unordered address sets/maps (state checking, reachability).
struct AddressHash {
  size_t operator()(Address A) const {
    size_t H = (static_cast<size_t>(A.R.sym().id()) << 1) |
               (A.R.isName() ? 1u : 0u);
    return (H * 0x9e3779b97f4a7c15ULL) ^ A.Offset;
  }
};

enum class ValueKind {
  Int,        ///< n
  Var,        ///< x
  Addr,       ///< ν.ℓ
  Pair,       ///< (v1, v2)
  PackTag,    ///< ⟨t = τ, v : σ⟩
  TransApp,   ///< vJ~τK
  PackTyVar,  ///< ⟨α : ∆ = σ1, v : σ2⟩
  Code,       ///< λ[~t:~κ][~r](~x:~σ).e
  Inl,        ///< inl v   (λGC-forw)
  Inr,        ///< inr v   (λGC-forw)
  PackRegion, ///< ⟨r ∈ ∆ = ρ, v : σ⟩   (λGC-gen)
};

/// Code-only payload of a Value, split out so the (hot, allocated per
/// machine step) Value node stays small and trivially destructible; code
/// values are built once per program, so the extra indirection is cold.
struct CodeData {
  std::vector<Symbol> TagParams;
  std::vector<const Kind *> TagKinds;
  std::vector<Symbol> RegionParams;
  std::vector<Symbol> ValParams;
  std::vector<const Type *> ValTypes;
  const Term *Body = nullptr;
};

/// TransApp-only payload of a Value (see CodeData).
struct TransData {
  std::vector<const Tag *> TagArgs;
  std::vector<Region> RegionArgs;
};

/// A value; arena-allocated and immutable.
class Value {
public:
  ValueKind kind() const { return K; }
  bool is(ValueKind Which) const { return K == Which; }

  int64_t intValue() const {
    assert(K == ValueKind::Int && "not an int");
    return N;
  }

  /// Var: x. PackTag: t. PackTyVar: α. PackRegion: r.
  Symbol var() const {
    assert((K == ValueKind::Var || K == ValueKind::PackTag ||
            K == ValueKind::PackTyVar || K == ValueKind::PackRegion) &&
           "no variable");
    return V;
  }

  Address address() const {
    assert(K == ValueKind::Addr && "not an address");
    return Addr;
  }

  /// Pair components.
  const Value *first() const {
    assert(K == ValueKind::Pair && "not a pair");
    return A;
  }
  const Value *second() const {
    assert(K == ValueKind::Pair && "not a pair");
    return B;
  }

  /// PackTag/PackTyVar/PackRegion/Inl/Inr/TransApp: the wrapped value.
  const Value *payload() const {
    assert((K == ValueKind::PackTag || K == ValueKind::PackTyVar ||
            K == ValueKind::PackRegion || K == ValueKind::Inl ||
            K == ValueKind::Inr || K == ValueKind::TransApp) &&
           "no payload");
    return A;
  }

  /// PackTag: the witness tag τ.
  const Tag *tagWitness() const {
    assert(K == ValueKind::PackTag && "no tag witness");
    return TW;
  }

  /// PackTyVar: the witness type σ1.
  const Type *typeWitness() const {
    assert(K == ValueKind::PackTyVar && "no type witness");
    return TyW;
  }

  /// PackRegion: the witness region ρ.
  Region regionWitness() const {
    assert(K == ValueKind::PackRegion && "no region witness");
    return RW;
  }

  /// PackTag/PackTyVar/PackRegion: the annotated body type (binds var()).
  const Type *bodyType() const {
    assert((K == ValueKind::PackTag || K == ValueKind::PackTyVar ||
            K == ValueKind::PackRegion) &&
           "no body type");
    return BT;
  }

  /// PackTyVar/PackRegion: the ∆ bound of the package.
  const RegionSet &delta() const {
    assert((K == ValueKind::PackTyVar || K == ValueKind::PackRegion) &&
           "no ∆ bound");
    return *Delta;
  }

  /// TransApp: the pinned tag arguments ~τ of vJ~τK.
  const std::vector<const Tag *> &transTags() const {
    assert(K == ValueKind::TransApp && "no translucent tags");
    return Trans->TagArgs;
  }

  /// TransApp: the pinned region arguments ~ρ of vJ~ρK.
  const std::vector<Region> &transRegions() const {
    assert(K == ValueKind::TransApp && "no translucent regions");
    return Trans->RegionArgs;
  }

  // -- Code values ---------------------------------------------------------

  const std::vector<Symbol> &tagParams() const {
    assert(K == ValueKind::Code && "not code");
    return Code->TagParams;
  }
  const std::vector<const Kind *> &tagParamKinds() const {
    assert(K == ValueKind::Code && "not code");
    return Code->TagKinds;
  }
  const std::vector<Symbol> &regionParams() const {
    assert(K == ValueKind::Code && "not code");
    return Code->RegionParams;
  }
  const std::vector<Symbol> &valParams() const {
    assert(K == ValueKind::Code && "not code");
    return Code->ValParams;
  }
  const std::vector<const Type *> &valParamTypes() const {
    assert(K == ValueKind::Code && "not code");
    return Code->ValTypes;
  }
  const Term *codeBody() const {
    assert(K == ValueKind::Code && "not code");
    return Code->Body;
  }

private:
  friend class GcContext;
  Value(ValueKind K) : K(K) {}

  ValueKind K;
  int64_t N = 0;
  Symbol V;
  Address Addr{};
  const Value *A = nullptr;
  const Value *B = nullptr;
  const Tag *TW = nullptr;
  const Type *TyW = nullptr;
  Region RW;
  const Type *BT = nullptr;
  /// PackTyVar/PackRegion: ∆ bound, arena-allocated (shared when the
  /// producer caches it — see vm::TplInfo).
  const RegionSet *Delta = nullptr;
  const CodeData *Code = nullptr;   ///< Code only
  const TransData *Trans = nullptr; ///< TransApp only
};
static_assert(std::is_trivially_destructible_v<Value>,
              "Value is allocated per machine step; keep cold payloads in "
              "side structs so the arena skips destructor registration");

/// Integer primitives (documented extension).
enum class PrimOp { Add, Sub, Mul, Le };

inline const char *primOpName(PrimOp P) {
  switch (P) {
  case PrimOp::Add:
    return "+";
  case PrimOp::Sub:
    return "-";
  case PrimOp::Mul:
    return "*";
  case PrimOp::Le:
    return "<=";
  }
  return "?";
}

enum class OpKind {
  Val,   ///< v
  Proj1, ///< π1 v
  Proj2, ///< π2 v
  Put,   ///< put[ρ] v
  Get,   ///< get v
  Strip, ///< strip v   (λGC-forw)
  Prim,  ///< v1 ⊕ v2   (extension)
};

/// A let-bound operation.
class Op {
public:
  OpKind kind() const { return K; }
  bool is(OpKind Which) const { return K == Which; }

  const Value *value() const {
    assert(K != OpKind::Prim && "use lhs()/rhs() on prim");
    return A;
  }

  Region putRegion() const {
    assert(K == OpKind::Put && "not a put");
    return R;
  }

  PrimOp primOp() const {
    assert(K == OpKind::Prim && "not a prim");
    return P;
  }
  const Value *lhs() const {
    assert(K == OpKind::Prim && "not a prim");
    return A;
  }
  const Value *rhs() const {
    assert(K == OpKind::Prim && "not a prim");
    return B;
  }

private:
  friend class GcContext;
  Op(OpKind K) : K(K) {}

  OpKind K;
  const Value *A = nullptr;
  const Value *B = nullptr;
  Region R;
  PrimOp P = PrimOp::Add;
};

enum class TermKind {
  App,        ///< v[~τ][~ρ](~v)
  Let,        ///< let x = op in e
  Halt,       ///< halt v
  IfGc,       ///< ifgc ρ e1 e2
  OpenTag,    ///< open v as ⟨t, x⟩ in e
  OpenTyVar,  ///< open v as ⟨α, x⟩ in e
  LetRegion,  ///< let region r in e
  Only,       ///< only ∆ in e
  Typecase,   ///< typecase τ of (ei; eλ; t1 t2.e×; te.e∃)
  IfLeft,     ///< ifleft x = v el er        (λGC-forw)
  Set,        ///< set v1 := v2 ; e          (λGC-forw)
  LetWiden,   ///< let x = widen[ρ][τ](v) in e  (λGC-forw)
  OpenRegion, ///< open v as ⟨r, x⟩ in e     (λGC-gen)
  IfReg,      ///< ifreg (ρ1 = ρ2) e1 e2     (λGC-gen)
  If0,        ///< if0 v e1 e2               (extension)
};

/// A term; arena-allocated and immutable.
class Term {
public:
  TermKind kind() const { return K; }
  bool is(TermKind Which) const { return K == Which; }

  // -- App -------------------------------------------------------------
  const Value *appFun() const {
    assert(K == TermKind::App && "not an application");
    return V1;
  }
  const std::vector<const Tag *> &appTags() const {
    assert(K == TermKind::App && "not an application");
    return TagArgs;
  }
  const std::vector<Region> &appRegions() const {
    assert(K == TermKind::App && "not an application");
    return RegionArgs;
  }
  const std::vector<const Value *> &appArgs() const {
    assert(K == TermKind::App && "not an application");
    return ValArgs;
  }

  // -- Binders & scrutinees ---------------------------------------------
  /// Let/LetWiden/IfLeft: x. OpenTag: t then binderVar2 is x. OpenTyVar: α
  /// then x. OpenRegion: r then x. LetRegion: r.
  Symbol binderVar() const { return X1; }
  Symbol binderVar2() const { return X2; }

  const Op *letOp() const {
    assert(K == TermKind::Let && "not a let");
    return O;
  }

  /// Halt/OpenTag/OpenTyVar/OpenRegion/IfLeft/Set(dst)/LetWiden: scrutinee.
  const Value *scrutinee() const {
    assert((K == TermKind::Halt || K == TermKind::OpenTag ||
            K == TermKind::OpenTyVar || K == TermKind::OpenRegion ||
            K == TermKind::IfLeft || K == TermKind::Set ||
            K == TermKind::LetWiden || K == TermKind::If0) &&
           "no scrutinee");
    return V1;
  }

  /// Set: the stored value v2.
  const Value *setSource() const {
    assert(K == TermKind::Set && "not a set");
    return V2;
  }

  /// IfGc: ρ. LetWiden: the to-region ρ'.
  Region region() const {
    assert((K == TermKind::IfGc || K == TermKind::LetWiden) && "no region");
    return R1;
  }

  /// IfReg: ρ1 and ρ2.
  Region ifregLhs() const {
    assert(K == TermKind::IfReg && "not an ifreg");
    return R1;
  }
  Region ifregRhs() const {
    assert(K == TermKind::IfReg && "not an ifreg");
    return R2;
  }

  /// Only: the keep-set ∆.
  const RegionSet &onlySet() const {
    assert(K == TermKind::Only && "not an only");
    return Delta;
  }

  /// Typecase/LetWiden: the analysed tag τ.
  const Tag *tag() const {
    assert((K == TermKind::Typecase || K == TermKind::LetWiden) && "no tag");
    return T;
  }

  /// Sub-terms. Which slots are populated depends on kind():
  ///  * Let/Set/LetWiden/LetRegion/Only/OpenTag/OpenTyVar/OpenRegion: E1.
  ///  * IfGc/IfLeft/IfReg/If0: E1 (then / left), E2 (else / right).
  ///  * Typecase: E1 = ei, E2 = eλ, E3 = e× (binds X1, X2), E4 = e∃
  ///    (binds X1... stored in X3).
  const Term *sub1() const { return E1; }
  const Term *sub2() const { return E2; }

  // -- Typecase --------------------------------------------------------
  const Term *caseInt() const {
    assert(K == TermKind::Typecase && "not a typecase");
    return E1;
  }
  const Term *caseArrow() const {
    assert(K == TermKind::Typecase && "not a typecase");
    return E2;
  }
  Symbol prodVar1() const {
    assert(K == TermKind::Typecase && "not a typecase");
    return X1;
  }
  Symbol prodVar2() const {
    assert(K == TermKind::Typecase && "not a typecase");
    return X2;
  }
  const Term *caseProd() const {
    assert(K == TermKind::Typecase && "not a typecase");
    return E3;
  }
  Symbol existsVar() const {
    assert(K == TermKind::Typecase && "not a typecase");
    return X3;
  }
  const Term *caseExists() const {
    assert(K == TermKind::Typecase && "not a typecase");
    return E4;
  }

private:
  friend class GcContext;
  Term(TermKind K) : K(K) {}

  TermKind K;
  const Value *V1 = nullptr;
  const Value *V2 = nullptr;
  const Op *O = nullptr;
  Symbol X1;
  Symbol X2;
  Symbol X3;
  Region R1;
  Region R2;
  RegionSet Delta;
  const Tag *T = nullptr;
  const Term *E1 = nullptr;
  const Term *E2 = nullptr;
  const Term *E3 = nullptr;
  const Term *E4 = nullptr;
  std::vector<const Tag *> TagArgs;
  std::vector<Region> RegionArgs;
  std::vector<const Value *> ValArgs;
};

} // namespace scav::gc

#endif // SCAV_GC_TERM_H
