//===- gc/Snapshot.cpp - Versioned machine-state snapshots ----------------===//
//
// Format v1 ("SCAVSNP1", little-endian throughout, host-independent):
//
//   magic[8] u32(version)
//   header:  u8 level, u8 layout (0; see parseSnapshot), u8 status,
//            u8 typeTrackingOk,
//            u64 steps, str stuckReason, str typeTrackingError,
//            str freshNamespace, u64 oracleFreshCtr,
//            str meta.kind, str meta.diagnostic, str meta.checker,
//            u8 meta.restrict, u8 meta.checkCode
//   symbols: u32 count, count × str   (the whole SymbolTable, in id order —
//            positions ARE the file symbol ids)
//   nodes:   u32 count, count × record (post-order: children always refer
//            to smaller indices; one shared index space across node classes)
//   roots:   ref currentTerm, ref haltValue
//   memory:  u32 regionCount, per region (sorted by live symbol id):
//            sym, u32 capacity, u64 totalAllocated, u64 epoch,
//            u32 cellCount, cellCount × ref value   (decoded view)
//   psi:     u32 regionCount, per region (sorted): sym, u32 cellCount,
//            cellCount × ref type   (exact extent, trailing nulls included)
//   journal: u64 base, u32 count, count × (u8 kind, sym R, sym R2)
//
// A node record is u8 class (Kind/Tag/Type/Value/Op/Term), u8 kind, then
// kind-specific fields. `ref` is u32 (0xFFFFFFFF = null); `sym` is the u32
// file symbol id (0xFFFFFFFF = invalid Symbol); `str` is u32 length + bytes.
//
//===----------------------------------------------------------------------===//

#include "gc/Snapshot.h"

#include "gc/Ops.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

using namespace scav;
using namespace scav::gc;

namespace {

constexpr char Magic[8] = {'S', 'C', 'A', 'V', 'S', 'N', 'P', '1'};
constexpr uint32_t FormatVersion = 1;
constexpr uint32_t None = 0xFFFFFFFFu;

enum NodeClass : uint8_t {
  ClassKind = 0,
  ClassTag = 1,
  ClassType = 2,
  ClassValue = 3,
  ClassOp = 4,
  ClassTerm = 5,
};

//===----------------------------------------------------------------------===//
// Little-endian writer
//===----------------------------------------------------------------------===//

class Writer {
public:
  std::string Out;

  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Out.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    Out.append(S.data(), S.size());
  }
};

//===----------------------------------------------------------------------===//
// Node encoder (post-order, memoized per node class)
//===----------------------------------------------------------------------===//

class Encoder {
public:
  Writer Nodes;
  uint32_t Count = 0;

  void sym(Symbol S) { Nodes.u32(S.isValid() ? S.id() : None); }

  void region(Region R) {
    if (!R.isValid()) {
      Nodes.u8(0);
      Nodes.u32(None);
    } else {
      Nodes.u8(R.isName() ? 2 : 1);
      Nodes.u32(R.sym().id());
    }
  }

  void regionSet(const RegionSet &RS) {
    Nodes.u32(static_cast<uint32_t>(RS.size()));
    for (Region R : RS)
      region(R);
  }

  void address(Address A) {
    region(A.R);
    Nodes.u32(A.Offset);
  }

  uint32_t kind(const Kind *K) {
    if (!K)
      return None;
    auto It = KindIds.find(K);
    if (It != KindIds.end())
      return It->second;
    uint32_t From = None, To = None;
    if (K->isArrow()) {
      From = kind(K->from());
      To = kind(K->to());
    }
    Nodes.u8(ClassKind);
    Nodes.u8(static_cast<uint8_t>(K->kind()));
    if (K->isArrow()) {
      Nodes.u32(From);
      Nodes.u32(To);
    }
    return KindIds[K] = Count++;
  }

  uint32_t tag(const Tag *T) {
    if (!T)
      return None;
    auto It = TagIds.find(T);
    if (It != TagIds.end())
      return It->second;
    uint32_t A = None, B = None, BK = None;
    std::vector<uint32_t> Args;
    switch (T->kind()) {
    case TagKind::Var:
    case TagKind::Int:
      break;
    case TagKind::Prod:
    case TagKind::App:
      A = tag(T->left());
      B = tag(T->right());
      break;
    case TagKind::Arrow:
      for (const Tag *X : T->arrowArgs())
        Args.push_back(tag(X));
      break;
    case TagKind::Exists:
      A = tag(T->body());
      break;
    case TagKind::Lam:
      BK = kind(T->binderKind());
      A = tag(T->body());
      break;
    }
    Nodes.u8(ClassTag);
    Nodes.u8(static_cast<uint8_t>(T->kind()));
    switch (T->kind()) {
    case TagKind::Int:
      break;
    case TagKind::Var:
      sym(T->var());
      break;
    case TagKind::Prod:
    case TagKind::App:
      Nodes.u32(A);
      Nodes.u32(B);
      break;
    case TagKind::Arrow:
      refs(Args);
      break;
    case TagKind::Exists:
      sym(T->var());
      Nodes.u32(A);
      break;
    case TagKind::Lam:
      sym(T->var());
      Nodes.u32(BK);
      Nodes.u32(A);
      break;
    }
    return TagIds[T] = Count++;
  }

  uint32_t type(const Type *T) {
    if (!T)
      return None;
    auto It = TypeIds.find(T);
    if (It != TypeIds.end())
      return It->second;
    // Children first (post-order), collected into locals so the record is
    // written contiguously.
    uint32_t A = None, B = None, BK = None, TG = None;
    std::vector<uint32_t> KindRefs, TypeRefs, TagRefs;
    switch (T->kind()) {
    case TypeKind::Int:
    case TypeKind::TyVar:
      break;
    case TypeKind::Prod:
    case TypeKind::Sum:
      A = type(T->left());
      B = type(T->right());
      break;
    case TypeKind::Left:
    case TypeKind::Right:
    case TypeKind::At:
      A = type(T->body());
      break;
    case TypeKind::ExistsTag:
      BK = kind(T->binderKind());
      A = type(T->body());
      break;
    case TypeKind::ExistsTyVar:
    case TypeKind::ExistsRegion:
      A = type(T->body());
      break;
    case TypeKind::MApp:
    case TypeKind::CApp:
      TG = tag(T->tag());
      break;
    case TypeKind::Code:
      for (const Kind *K : T->tagParamKinds())
        KindRefs.push_back(kind(K));
      for (const Type *X : T->argTypes())
        TypeRefs.push_back(type(X));
      break;
    case TypeKind::TransCode:
      for (const Tag *X : T->transTags())
        TagRefs.push_back(tag(X));
      for (const Type *X : T->argTypes())
        TypeRefs.push_back(type(X));
      break;
    }
    Nodes.u8(ClassType);
    Nodes.u8(static_cast<uint8_t>(T->kind()));
    switch (T->kind()) {
    case TypeKind::Int:
      break;
    case TypeKind::TyVar:
      sym(T->var());
      break;
    case TypeKind::Prod:
    case TypeKind::Sum:
      Nodes.u32(A);
      Nodes.u32(B);
      break;
    case TypeKind::Left:
    case TypeKind::Right:
      Nodes.u32(A);
      break;
    case TypeKind::At:
      Nodes.u32(A);
      region(T->atRegion());
      break;
    case TypeKind::ExistsTag:
      sym(T->var());
      Nodes.u32(BK);
      Nodes.u32(A);
      break;
    case TypeKind::ExistsTyVar:
    case TypeKind::ExistsRegion:
      sym(T->var());
      regionSet(T->delta());
      Nodes.u32(A);
      break;
    case TypeKind::MApp:
      Nodes.u32(static_cast<uint32_t>(T->mRegions().size()));
      for (Region R : T->mRegions())
        region(R);
      Nodes.u32(TG);
      break;
    case TypeKind::CApp:
      region(T->cFrom());
      region(T->cTo());
      Nodes.u32(TG);
      break;
    case TypeKind::Code:
      syms(T->tagParams());
      refs(KindRefs);
      syms(T->regionParams());
      refs(TypeRefs);
      break;
    case TypeKind::TransCode:
      refs(TagRefs);
      Nodes.u32(static_cast<uint32_t>(T->transRegions().size()));
      for (Region R : T->transRegions())
        region(R);
      refs(TypeRefs);
      region(T->atRegion());
      break;
    }
    return TypeIds[T] = Count++;
  }

  uint32_t value(const Value *V) {
    if (!V)
      return None;
    auto It = ValueIds.find(V);
    if (It != ValueIds.end())
      return It->second;
    uint32_t A = None, B = None, TW = None, TyW = None, BT = None,
             Body = None;
    std::vector<uint32_t> KindRefs, TypeRefs, TagRefs;
    switch (V->kind()) {
    case ValueKind::Int:
    case ValueKind::Var:
    case ValueKind::Addr:
      break;
    case ValueKind::Pair:
      A = value(V->first());
      B = value(V->second());
      break;
    case ValueKind::Inl:
    case ValueKind::Inr:
      A = value(V->payload());
      break;
    case ValueKind::PackTag:
      TW = tag(V->tagWitness());
      A = value(V->payload());
      BT = type(V->bodyType());
      break;
    case ValueKind::PackTyVar:
      TyW = type(V->typeWitness());
      A = value(V->payload());
      BT = type(V->bodyType());
      break;
    case ValueKind::PackRegion:
      A = value(V->payload());
      BT = type(V->bodyType());
      break;
    case ValueKind::TransApp:
      A = value(V->payload());
      for (const Tag *X : V->transTags())
        TagRefs.push_back(tag(X));
      break;
    case ValueKind::Code:
      for (const Kind *K : V->tagParamKinds())
        KindRefs.push_back(kind(K));
      for (const Type *X : V->valParamTypes())
        TypeRefs.push_back(type(X));
      Body = term(V->codeBody());
      break;
    }
    Nodes.u8(ClassValue);
    Nodes.u8(static_cast<uint8_t>(V->kind()));
    switch (V->kind()) {
    case ValueKind::Int:
      Nodes.i64(V->intValue());
      break;
    case ValueKind::Var:
      sym(V->var());
      break;
    case ValueKind::Addr:
      address(V->address());
      break;
    case ValueKind::Pair:
      Nodes.u32(A);
      Nodes.u32(B);
      break;
    case ValueKind::Inl:
    case ValueKind::Inr:
      Nodes.u32(A);
      break;
    case ValueKind::PackTag:
      sym(V->var());
      Nodes.u32(TW);
      Nodes.u32(A);
      Nodes.u32(BT);
      break;
    case ValueKind::PackTyVar:
      sym(V->var());
      regionSet(V->delta());
      Nodes.u32(TyW);
      Nodes.u32(A);
      Nodes.u32(BT);
      break;
    case ValueKind::PackRegion:
      sym(V->var());
      regionSet(V->delta());
      region(V->regionWitness());
      Nodes.u32(A);
      Nodes.u32(BT);
      break;
    case ValueKind::TransApp:
      Nodes.u32(A);
      refs(TagRefs);
      Nodes.u32(static_cast<uint32_t>(V->transRegions().size()));
      for (Region R : V->transRegions())
        region(R);
      break;
    case ValueKind::Code:
      syms(V->tagParams());
      refs(KindRefs);
      syms(V->regionParams());
      syms(V->valParams());
      refs(TypeRefs);
      Nodes.u32(Body);
      break;
    }
    return ValueIds[V] = Count++;
  }

  uint32_t op(const Op *O) {
    if (!O)
      return None;
    auto It = OpIds.find(O);
    if (It != OpIds.end())
      return It->second;
    uint32_t A = None, B = None;
    if (O->is(OpKind::Prim)) {
      A = value(O->lhs());
      B = value(O->rhs());
    } else {
      A = value(O->value());
    }
    Nodes.u8(ClassOp);
    Nodes.u8(static_cast<uint8_t>(O->kind()));
    if (O->is(OpKind::Prim)) {
      Nodes.u8(static_cast<uint8_t>(O->primOp()));
      Nodes.u32(A);
      Nodes.u32(B);
    } else {
      if (O->is(OpKind::Put))
        region(O->putRegion());
      Nodes.u32(A);
    }
    return OpIds[O] = Count++;
  }

  uint32_t term(const Term *E) {
    if (!E)
      return None;
    auto It = TermIds.find(E);
    if (It != TermIds.end())
      return It->second;
    uint32_t V1 = None, V2 = None, O = None, TG = None;
    uint32_t E1 = None, E2 = None, E3 = None, E4 = None;
    std::vector<uint32_t> TagRefs, ValRefs;
    switch (E->kind()) {
    case TermKind::App:
      V1 = value(E->appFun());
      for (const Tag *X : E->appTags())
        TagRefs.push_back(tag(X));
      for (const Value *X : E->appArgs())
        ValRefs.push_back(value(X));
      break;
    case TermKind::Let:
      O = op(E->letOp());
      E1 = term(E->sub1());
      break;
    case TermKind::Halt:
      V1 = value(E->scrutinee());
      break;
    case TermKind::IfGc:
    case TermKind::IfReg:
      E1 = term(E->sub1());
      E2 = term(E->sub2());
      break;
    case TermKind::OpenTag:
    case TermKind::OpenTyVar:
    case TermKind::OpenRegion:
      V1 = value(E->scrutinee());
      E1 = term(E->sub1());
      break;
    case TermKind::LetRegion:
    case TermKind::Only:
      E1 = term(E->sub1());
      break;
    case TermKind::Typecase:
      TG = tag(E->tag());
      E1 = term(E->caseInt());
      E2 = term(E->caseArrow());
      E3 = term(E->caseProd());
      E4 = term(E->caseExists());
      break;
    case TermKind::IfLeft:
    case TermKind::If0:
      V1 = value(E->scrutinee());
      E1 = term(E->sub1());
      E2 = term(E->sub2());
      break;
    case TermKind::Set:
      V1 = value(E->scrutinee());
      V2 = value(E->setSource());
      E1 = term(E->sub1());
      break;
    case TermKind::LetWiden:
      TG = tag(E->tag());
      V1 = value(E->scrutinee());
      E1 = term(E->sub1());
      break;
    }
    Nodes.u8(ClassTerm);
    Nodes.u8(static_cast<uint8_t>(E->kind()));
    switch (E->kind()) {
    case TermKind::App:
      Nodes.u32(V1);
      refs(TagRefs);
      Nodes.u32(static_cast<uint32_t>(E->appRegions().size()));
      for (Region R : E->appRegions())
        region(R);
      refs(ValRefs);
      break;
    case TermKind::Let:
      sym(E->binderVar());
      Nodes.u32(O);
      Nodes.u32(E1);
      break;
    case TermKind::Halt:
      Nodes.u32(V1);
      break;
    case TermKind::IfGc:
      region(E->region());
      Nodes.u32(E1);
      Nodes.u32(E2);
      break;
    case TermKind::IfReg:
      region(E->ifregLhs());
      region(E->ifregRhs());
      Nodes.u32(E1);
      Nodes.u32(E2);
      break;
    case TermKind::OpenTag:
    case TermKind::OpenTyVar:
    case TermKind::OpenRegion:
      Nodes.u32(V1);
      sym(E->binderVar());
      sym(E->binderVar2());
      Nodes.u32(E1);
      break;
    case TermKind::LetRegion:
      sym(E->binderVar());
      Nodes.u32(E1);
      break;
    case TermKind::Only:
      regionSet(E->onlySet());
      Nodes.u32(E1);
      break;
    case TermKind::Typecase:
      Nodes.u32(TG);
      Nodes.u32(E1);
      Nodes.u32(E2);
      sym(E->prodVar1());
      sym(E->prodVar2());
      Nodes.u32(E3);
      sym(E->existsVar());
      Nodes.u32(E4);
      break;
    case TermKind::IfLeft:
      sym(E->binderVar());
      Nodes.u32(V1);
      Nodes.u32(E1);
      Nodes.u32(E2);
      break;
    case TermKind::If0:
      Nodes.u32(V1);
      Nodes.u32(E1);
      Nodes.u32(E2);
      break;
    case TermKind::Set:
      Nodes.u32(V1);
      Nodes.u32(V2);
      Nodes.u32(E1);
      break;
    case TermKind::LetWiden:
      sym(E->binderVar());
      region(E->region());
      Nodes.u32(TG);
      Nodes.u32(V1);
      Nodes.u32(E1);
      break;
    }
    return TermIds[E] = Count++;
  }

private:
  void refs(const std::vector<uint32_t> &Rs) {
    Nodes.u32(static_cast<uint32_t>(Rs.size()));
    for (uint32_t R : Rs)
      Nodes.u32(R);
  }
  void syms(const std::vector<Symbol> &Ss) {
    Nodes.u32(static_cast<uint32_t>(Ss.size()));
    for (Symbol S : Ss)
      sym(S);
  }

  std::unordered_map<const void *, uint32_t> KindIds, TagIds, TypeIds,
      ValueIds, OpIds, TermIds;
};

//===----------------------------------------------------------------------===//
// Reader / decoder
//===----------------------------------------------------------------------===//

class Reader {
public:
  Reader(std::string_view In) : In(In) {}

  bool ok() const { return Err.empty(); }
  std::string takeError() { return Err; }
  void fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg;
  }
  bool atEnd() const { return Pos == In.size(); }
  /// Bytes not yet consumed — the cap for any count-driven reserve, since
  /// every element occupies at least one byte.
  size_t remaining() const { return In.size() - Pos; }

  uint8_t u8() {
    if (!need(1))
      return 0;
    return static_cast<uint8_t>(In[Pos++]);
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(static_cast<uint8_t>(In[Pos++])) << (8 * I);
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(In[Pos++])) << (8 * I);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string str() {
    uint32_t N = u32();
    if (!need(N))
      return {};
    std::string S(In.substr(Pos, N));
    Pos += N;
    return S;
  }

private:
  bool need(size_t N) {
    if (Err.empty() && Pos + N <= In.size())
      return true;
    fail("truncated snapshot");
    return false;
  }

  std::string_view In;
  size_t Pos = 0;
  std::string Err;
};

/// Rebuilds the node stream into context-owned nodes. Tags/types/kinds go
/// through the interning factories, so pointer identity (hash-consing) is
/// restored; values/ops/terms are fresh arena nodes.
class Decoder {
public:
  Decoder(Reader &R, GcContext &C, const std::vector<Symbol> &Syms)
      : R(R), C(C), Syms(Syms) {}

  Symbol sym() {
    uint32_t Id = R.u32();
    if (Id == None)
      return Symbol();
    if (Id >= Syms.size()) {
      R.fail("symbol id out of range");
      return Symbol();
    }
    return Syms[Id];
  }

  Region region() {
    uint8_t T = R.u8();
    Symbol S = sym();
    if (T == 0)
      return Region();
    if (!S.isValid()) {
      R.fail("region with invalid symbol");
      return Region();
    }
    return T == 2 ? Region::name(S) : Region::var(S);
  }

  RegionSet regionSet() {
    uint32_t N = R.u32();
    RegionSet RS;
    for (uint32_t I = 0; I != N && R.ok(); ++I)
      RS.insert(region());
    return RS;
  }

  Address address() {
    Region Rg = region();
    uint32_t Off = R.u32();
    if (R.ok() && !Rg.isName())
      R.fail("address region is not a name");
    return Address{Rg, Off};
  }

  /// Reads \p Count node records. False on malformed input.
  bool decodeAllNodes(uint32_t Count) {
    Nodes.reserve(std::min<size_t>(Count, R.remaining()));
    for (uint32_t I = 0; I != Count && R.ok(); ++I)
      decodeOne();
    return R.ok();
  }

  /// Root and cell references, where None is a legitimate null (halted
  /// machine, hole, Ψ null pad).
  const Type *typeOrNull(uint32_t Ref) {
    return Ref == None ? nullptr : at<Type>(Ref, ClassType);
  }
  const Value *valueOrNull(uint32_t Ref) {
    return Ref == None ? nullptr : at<Value>(Ref, ClassValue);
  }
  const Term *termOrNull(uint32_t Ref) {
    return Ref == None ? nullptr : at<Term>(Ref, ClassTerm);
  }

private:
  struct NodeRef {
    uint8_t Class;
    const void *P;
  };

  /// A node's child. The factories dereference every child, so a None,
  /// out-of-range or wrong-class reference fails the parse (and returns
  /// null, which callers must not hand to a factory once !R.ok()).
  template <typename T> const T *at(uint32_t Ref, uint8_t Class) {
    if (Ref >= Nodes.size() || Nodes[Ref].Class != Class) {
      R.fail(Ref == None ? "null child reference"
                         : "node reference out of range or wrong class");
      return nullptr;
    }
    return static_cast<const T *>(Nodes[Ref].P);
  }

  const Kind *kindRef() { return at<Kind>(R.u32(), ClassKind); }
  const Tag *tagRef() { return at<Tag>(R.u32(), ClassTag); }
  const Type *typeRef() { return at<Type>(R.u32(), ClassType); }
  const Value *valueRef() { return at<Value>(R.u32(), ClassValue); }
  const Op *opRef() { return at<Op>(R.u32(), ClassOp); }
  const Term *termRef() { return at<Term>(R.u32(), ClassTerm); }

  /// A u32 count followed by that many elements, each read by \p Read.
  template <typename F> auto list(F Read) {
    uint32_t N = R.u32();
    std::vector<decltype(Read())> Out;
    for (uint32_t I = 0; I != N && R.ok(); ++I)
      Out.push_back(Read());
    return Out;
  }
  auto tagRefs() { return list([this] { return tagRef(); }); }
  auto kindRefs() { return list([this] { return kindRef(); }); }
  auto typeRefs() { return list([this] { return typeRef(); }); }
  auto valueRefs() { return list([this] { return valueRef(); }); }
  auto regions() { return list([this] { return region(); }); }
  auto symList() { return list([this] { return sym(); }); }

  void push(uint8_t Class, const void *P) {
    if (R.ok() && !P)
      R.fail("node construction failed");
    Nodes.push_back(NodeRef{Class, P});
  }

  void decodeOne() {
    uint8_t Class = R.u8();
    uint8_t K = R.u8();
    if (!R.ok())
      return;
    switch (Class) {
    case ClassKind:
      decodeKind(K);
      return;
    case ClassTag:
      decodeTag(K);
      return;
    case ClassType:
      decodeType(K);
      return;
    case ClassValue:
      decodeValue(K);
      return;
    case ClassOp:
      decodeOp(K);
      return;
    case ClassTerm:
      decodeTerm(K);
      return;
    }
    R.fail("unknown node class");
  }

  void decodeKind(uint8_t K) {
    switch (static_cast<KindKind>(K)) {
    case KindKind::Omega:
      push(ClassKind, C.omega());
      return;
    case KindKind::Arrow: {
      const Kind *From = kindRef();
      const Kind *To = kindRef();
      push(ClassKind, R.ok() ? C.arrowKind(From, To) : nullptr);
      return;
    }
    }
    R.fail("unknown kind kind");
  }

  void decodeTag(uint8_t K) {
    switch (static_cast<TagKind>(K)) {
    case TagKind::Int:
      push(ClassTag, C.tagInt());
      return;
    case TagKind::Var:
      push(ClassTag, C.tagVar(sym()));
      return;
    case TagKind::Prod: {
      const Tag *A = tagRef();
      const Tag *B = tagRef();
      push(ClassTag, R.ok() ? C.tagProd(A, B) : nullptr);
      return;
    }
    case TagKind::App: {
      const Tag *A = tagRef();
      const Tag *B = tagRef();
      push(ClassTag, R.ok() ? C.tagApp(A, B) : nullptr);
      return;
    }
    case TagKind::Arrow: {
      std::vector<const Tag *> Args = tagRefs();
      push(ClassTag, R.ok() ? C.tagArrow(std::move(Args)) : nullptr);
      return;
    }
    case TagKind::Exists: {
      Symbol V = sym();
      const Tag *Body = tagRef();
      push(ClassTag, R.ok() ? C.tagExists(V, Body) : nullptr);
      return;
    }
    case TagKind::Lam: {
      Symbol V = sym();
      const Kind *BK = kindRef();
      const Tag *Body = tagRef();
      push(ClassTag, R.ok() ? C.tagLam(V, BK, Body) : nullptr);
      return;
    }
    }
    R.fail("unknown tag kind");
  }

  void decodeType(uint8_t K) {
    switch (static_cast<TypeKind>(K)) {
    case TypeKind::Int:
      push(ClassType, C.typeInt());
      return;
    case TypeKind::TyVar:
      push(ClassType, C.typeVar(sym()));
      return;
    case TypeKind::Prod: {
      const Type *A = typeRef();
      const Type *B = typeRef();
      push(ClassType, R.ok() ? C.typeProd(A, B) : nullptr);
      return;
    }
    case TypeKind::Sum: {
      const Type *A = typeRef();
      const Type *B = typeRef();
      push(ClassType, R.ok() ? C.typeSum(A, B) : nullptr);
      return;
    }
    case TypeKind::Left: {
      const Type *Body = typeRef();
      push(ClassType, R.ok() ? C.typeLeft(Body) : nullptr);
      return;
    }
    case TypeKind::Right: {
      const Type *Body = typeRef();
      push(ClassType, R.ok() ? C.typeRight(Body) : nullptr);
      return;
    }
    case TypeKind::At: {
      const Type *Body = typeRef();
      Region Rg = region();
      push(ClassType, R.ok() ? C.typeAt(Body, Rg) : nullptr);
      return;
    }
    case TypeKind::ExistsTag: {
      Symbol V = sym();
      const Kind *BK = kindRef();
      const Type *Body = typeRef();
      push(ClassType, R.ok() ? C.typeExistsTag(V, BK, Body) : nullptr);
      return;
    }
    case TypeKind::ExistsTyVar: {
      Symbol V = sym();
      RegionSet Delta = regionSet();
      const Type *Body = typeRef();
      push(ClassType,
           R.ok() ? C.typeExistsTyVar(V, std::move(Delta), Body) : nullptr);
      return;
    }
    case TypeKind::ExistsRegion: {
      Symbol V = sym();
      RegionSet Delta = regionSet();
      const Type *Body = typeRef();
      push(ClassType,
           R.ok() ? C.typeExistsRegion(V, std::move(Delta), Body) : nullptr);
      return;
    }
    case TypeKind::MApp: {
      std::vector<Region> Rs = regions();
      const Tag *T = tagRef();
      if (R.ok() && (Rs.size() != 1 && Rs.size() != 2))
        R.fail("M type with bad region count");
      push(ClassType, R.ok() ? C.typeM(std::move(Rs), T) : nullptr);
      return;
    }
    case TypeKind::CApp: {
      Region From = region();
      Region To = region();
      const Tag *T = tagRef();
      push(ClassType, R.ok() ? C.typeC(From, To, T) : nullptr);
      return;
    }
    case TypeKind::Code: {
      std::vector<Symbol> TagParams = symList();
      std::vector<const Kind *> TagKinds = kindRefs();
      std::vector<Symbol> RegionParams = symList();
      std::vector<const Type *> Args = typeRefs();
      if (R.ok() && TagParams.size() != TagKinds.size())
        R.fail("code type with mismatched tag binders");
      push(ClassType,
           R.ok() ? C.typeCode(std::move(TagParams), std::move(TagKinds),
                               std::move(RegionParams), std::move(Args))
                  : nullptr);
      return;
    }
    case TypeKind::TransCode: {
      std::vector<const Tag *> TagArgs = tagRefs();
      std::vector<Region> RegionArgs = regions();
      std::vector<const Type *> Args = typeRefs();
      Region At = region();
      push(ClassType,
           R.ok() ? C.typeTransCode(std::move(TagArgs), std::move(RegionArgs),
                                    std::move(Args), At)
                  : nullptr);
      return;
    }
    }
    R.fail("unknown type kind");
  }

  void decodeValue(uint8_t K) {
    switch (static_cast<ValueKind>(K)) {
    case ValueKind::Int:
      push(ClassValue, C.valInt(R.i64()));
      return;
    case ValueKind::Var:
      push(ClassValue, C.valVar(sym()));
      return;
    case ValueKind::Addr: {
      Address A = address();
      push(ClassValue, R.ok() ? C.valAddr(A) : nullptr);
      return;
    }
    case ValueKind::Pair: {
      const Value *A = valueRef();
      const Value *B = valueRef();
      push(ClassValue, R.ok() ? C.valPair(A, B) : nullptr);
      return;
    }
    case ValueKind::Inl: {
      const Value *P = valueRef();
      push(ClassValue, R.ok() ? C.valInl(P) : nullptr);
      return;
    }
    case ValueKind::Inr: {
      const Value *P = valueRef();
      push(ClassValue, R.ok() ? C.valInr(P) : nullptr);
      return;
    }
    case ValueKind::PackTag: {
      Symbol V = sym();
      const Tag *TW = tagRef();
      const Value *Payload = valueRef();
      const Type *BT = typeRef();
      push(ClassValue,
           R.ok() ? C.valPackTag(V, TW, Payload, BT) : nullptr);
      return;
    }
    case ValueKind::PackTyVar: {
      Symbol V = sym();
      RegionSet Delta = regionSet();
      const Type *TyW = typeRef();
      const Value *Payload = valueRef();
      const Type *BT = typeRef();
      push(ClassValue,
           R.ok() ? C.valPackTyVar(V, std::move(Delta), TyW, Payload, BT)
                  : nullptr);
      return;
    }
    case ValueKind::PackRegion: {
      Symbol V = sym();
      RegionSet Delta = regionSet();
      Region RW = region();
      const Value *Payload = valueRef();
      const Type *BT = typeRef();
      push(ClassValue,
           R.ok() ? C.valPackRegion(V, std::move(Delta), RW, Payload, BT)
                  : nullptr);
      return;
    }
    case ValueKind::TransApp: {
      const Value *Inner = valueRef();
      std::vector<const Tag *> TagArgs = tagRefs();
      std::vector<Region> RegionArgs = regions();
      push(ClassValue,
           R.ok() ? C.valTransApp(Inner, std::move(TagArgs),
                                  std::move(RegionArgs))
                  : nullptr);
      return;
    }
    case ValueKind::Code: {
      std::vector<Symbol> TagParams = symList();
      std::vector<const Kind *> TagKinds = kindRefs();
      std::vector<Symbol> RegionParams = symList();
      std::vector<Symbol> ValParams = symList();
      std::vector<const Type *> ValTypes = typeRefs();
      const Term *Body = termRef();
      if (R.ok() && (TagParams.size() != TagKinds.size() ||
                     ValParams.size() != ValTypes.size()))
        R.fail("code value with mismatched binders");
      push(ClassValue,
           R.ok() ? C.valCode(std::move(TagParams), std::move(TagKinds),
                              std::move(RegionParams), std::move(ValParams),
                              std::move(ValTypes), Body)
                  : nullptr);
      return;
    }
    }
    R.fail("unknown value kind");
  }

  void decodeOp(uint8_t K) {
    switch (static_cast<OpKind>(K)) {
    case OpKind::Val: {
      const Value *V = valueRef();
      push(ClassOp, R.ok() ? C.opVal(V) : nullptr);
      return;
    }
    case OpKind::Proj1: {
      const Value *V = valueRef();
      push(ClassOp, R.ok() ? C.opProj(1, V) : nullptr);
      return;
    }
    case OpKind::Proj2: {
      const Value *V = valueRef();
      push(ClassOp, R.ok() ? C.opProj(2, V) : nullptr);
      return;
    }
    case OpKind::Get: {
      const Value *V = valueRef();
      push(ClassOp, R.ok() ? C.opGet(V) : nullptr);
      return;
    }
    case OpKind::Strip: {
      const Value *V = valueRef();
      push(ClassOp, R.ok() ? C.opStrip(V) : nullptr);
      return;
    }
    case OpKind::Put: {
      Region Rg = region();
      const Value *V = valueRef();
      push(ClassOp, R.ok() ? C.opPut(Rg, V) : nullptr);
      return;
    }
    case OpKind::Prim: {
      uint8_t P = R.u8();
      const Value *L = valueRef();
      const Value *Rv = valueRef();
      if (R.ok() && P > static_cast<uint8_t>(PrimOp::Le))
        R.fail("unknown prim op");
      push(ClassOp,
           R.ok() ? C.opPrim(static_cast<PrimOp>(P), L, Rv) : nullptr);
      return;
    }
    }
    R.fail("unknown op kind");
  }

  void decodeTerm(uint8_t K) {
    switch (static_cast<TermKind>(K)) {
    case TermKind::App: {
      const Value *Fun = valueRef();
      std::vector<const Tag *> Tags = tagRefs();
      std::vector<Region> Rs = regions();
      std::vector<const Value *> Args = valueRefs();
      push(ClassTerm,
           R.ok() ? C.termApp(Fun, std::move(Tags), std::move(Rs),
                              std::move(Args))
                  : nullptr);
      return;
    }
    case TermKind::Let: {
      Symbol X = sym();
      const Op *O = opRef();
      const Term *Body = termRef();
      push(ClassTerm, R.ok() ? C.termLet(X, O, Body) : nullptr);
      return;
    }
    case TermKind::Halt: {
      const Value *V = valueRef();
      push(ClassTerm, R.ok() ? C.termHalt(V) : nullptr);
      return;
    }
    case TermKind::IfGc: {
      Region Rg = region();
      const Term *E1 = termRef();
      const Term *E2 = termRef();
      push(ClassTerm, R.ok() ? C.termIfGc(Rg, E1, E2) : nullptr);
      return;
    }
    case TermKind::IfReg: {
      Region A = region();
      Region B = region();
      const Term *E1 = termRef();
      const Term *E2 = termRef();
      push(ClassTerm, R.ok() ? C.termIfReg(A, B, E1, E2) : nullptr);
      return;
    }
    case TermKind::OpenTag:
    case TermKind::OpenTyVar:
    case TermKind::OpenRegion: {
      const Value *V = valueRef();
      Symbol X1 = sym();
      Symbol X2 = sym();
      const Term *E1 = termRef();
      if (!R.ok()) {
        push(ClassTerm, nullptr);
        return;
      }
      const Term *T = K == static_cast<uint8_t>(TermKind::OpenTag)
                          ? C.termOpenTag(V, X1, X2, E1)
                      : K == static_cast<uint8_t>(TermKind::OpenTyVar)
                          ? C.termOpenTyVar(V, X1, X2, E1)
                          : C.termOpenRegion(V, X1, X2, E1);
      push(ClassTerm, T);
      return;
    }
    case TermKind::LetRegion: {
      Symbol X = sym();
      const Term *E1 = termRef();
      push(ClassTerm, R.ok() ? C.termLetRegion(X, E1) : nullptr);
      return;
    }
    case TermKind::Only: {
      RegionSet Keep = regionSet();
      const Term *E1 = termRef();
      push(ClassTerm, R.ok() ? C.termOnly(std::move(Keep), E1) : nullptr);
      return;
    }
    case TermKind::Typecase: {
      const Tag *T = tagRef();
      const Term *E1 = termRef();
      const Term *E2 = termRef();
      Symbol X1 = sym();
      Symbol X2 = sym();
      const Term *E3 = termRef();
      Symbol X3 = sym();
      const Term *E4 = termRef();
      push(ClassTerm, R.ok() ? C.termTypecase(T, E1, E2, X1, X2, E3, X3, E4)
                             : nullptr);
      return;
    }
    case TermKind::IfLeft: {
      Symbol X = sym();
      const Value *V = valueRef();
      const Term *E1 = termRef();
      const Term *E2 = termRef();
      push(ClassTerm, R.ok() ? C.termIfLeft(X, V, E1, E2) : nullptr);
      return;
    }
    case TermKind::If0: {
      const Value *V = valueRef();
      const Term *E1 = termRef();
      const Term *E2 = termRef();
      push(ClassTerm, R.ok() ? C.termIf0(V, E1, E2) : nullptr);
      return;
    }
    case TermKind::Set: {
      const Value *V1 = valueRef();
      const Value *V2 = valueRef();
      const Term *E1 = termRef();
      push(ClassTerm, R.ok() ? C.termSet(V1, V2, E1) : nullptr);
      return;
    }
    case TermKind::LetWiden: {
      Symbol X = sym();
      Region Rg = region();
      const Tag *T = tagRef();
      const Value *V = valueRef();
      const Term *E1 = termRef();
      push(ClassTerm,
           R.ok() ? C.termLetWiden(X, Rg, T, V, E1) : nullptr);
      return;
    }
    }
    R.fail("unknown term kind");
  }

  Reader &R;
  GcContext &C;
  const std::vector<Symbol> &Syms;
  std::vector<NodeRef> Nodes;
};

std::vector<Symbol> sortedRegionSymsOf(
    const std::unordered_map<Symbol, RegionData, SymbolHash> &Regions) {
  std::vector<Symbol> Out;
  Out.reserve(Regions.size());
  for (const auto &KV : Regions)
    Out.push_back(KV.first);
  std::sort(Out.begin(), Out.end(),
            [](Symbol A, Symbol B) { return A.id() < B.id(); });
  return Out;
}

std::vector<Symbol> sortedRegionSymsOf(
    const std::unordered_map<Symbol, RegionType, SymbolHash> &Regions) {
  std::vector<Symbol> Out;
  Out.reserve(Regions.size());
  for (const auto &KV : Regions)
    Out.push_back(KV.first);
  std::sort(Out.begin(), Out.end(),
            [](Symbol A, Symbol B) { return A.id() < B.id(); });
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

Snapshot::~Snapshot() = default;

std::string scav::gc::serializeSnapshot(Machine &M, const SnapshotMeta &Meta) {
  GcContext &C = M.context();
  // Surface every word-written compact cell as a Value: the snapshot writes
  // the decoded view, which is the view both checkers check.
  M.memory().decodeAll();
  // In Env mode this forces the pending environment into a closed term. The
  // nodes land in the machine context's arena (no scope is open here) —
  // snapshotting is a failure-path operation, the transient is acceptable.
  const Term *Cur = M.currentTerm();

  Writer W;
  W.Out.append(Magic, sizeof(Magic));
  W.u32(FormatVersion);

  // Header.
  W.u8(static_cast<uint8_t>(M.level()));
  W.u8(0); // layout byte, see parseSnapshot
  W.u8(static_cast<uint8_t>(M.status()));
  W.u8(M.typeTrackingOk() ? 1 : 0);
  W.u64(M.stats().Steps);
  W.str(M.stuckReason());
  W.str(M.typeTrackingError());
  W.str(C.freshNamespace());
  W.u64(C.oracleFreshCtr());
  W.str(Meta.Kind);
  W.str(Meta.Diagnostic);
  W.str(Meta.Checker);
  W.u8(Meta.RestrictToReachable ? 1 : 0);
  W.u8(Meta.CheckCodeRegion ? 1 : 0);

  // The whole symbol table, in id order. This is what makes offline
  // verdicts byte-identical: region orderings (sortedRegionSyms) and
  // fresh() collision-skips replay only if every id and every spelling
  // does. size() is sampled once — a consistent prefix even if another
  // serve session's thread interns concurrently.
  const SymbolTable &Syms = C.symbols();
  uint32_t NumSyms = static_cast<uint32_t>(Syms.size());
  W.u32(NumSyms);
  for (uint32_t I = 0; I != NumSyms; ++I)
    W.str(Syms.name(I));

  // Node stream. Encode roots and cells through one encoder so shared
  // structure (heavy under the sharing-preserving collectors) is written
  // once.
  Encoder Enc;
  uint32_t CurRef = Enc.term(Cur);
  uint32_t HaltRef = Enc.value(M.haltValue());

  std::vector<Symbol> MemSyms = sortedRegionSymsOf(M.memory().Regions);
  std::vector<std::pair<Symbol, std::vector<uint32_t>>> MemCells;
  for (Symbol S : MemSyms) {
    const RegionData &RD = *M.memory().region(S);
    std::vector<uint32_t> Cells;
    Cells.reserve(RD.Cells.size());
    for (const Value *V : RD.Cells)
      Cells.push_back(Enc.value(V));
    MemCells.emplace_back(S, std::move(Cells));
  }

  std::vector<Symbol> PsiSyms = sortedRegionSymsOf(M.psi().Regions);
  std::vector<std::pair<Symbol, std::vector<uint32_t>>> PsiCells;
  for (Symbol S : PsiSyms) {
    const RegionType &PT = *M.psi().region(S);
    std::vector<uint32_t> Cells;
    Cells.reserve(PT.Cells.size());
    for (const Type *T : PT.Cells)
      Cells.push_back(Enc.type(T));
    PsiCells.emplace_back(S, std::move(Cells));
  }

  W.u32(Enc.Count);
  W.Out += Enc.Nodes.Out;
  W.u32(CurRef);
  W.u32(HaltRef);

  // Memory.
  W.u32(static_cast<uint32_t>(MemCells.size()));
  for (auto &[S, Cells] : MemCells) {
    const RegionData &RD = *M.memory().region(S);
    W.u32(S.id());
    W.u32(RD.Capacity);
    W.u64(RD.TotalAllocated);
    W.u64(RD.Epoch);
    W.u32(static_cast<uint32_t>(Cells.size()));
    for (uint32_t Ref : Cells)
      W.u32(Ref);
  }

  // Ψ — exact extents, trailing nulls included: the "Psi types a cell
  // memory does not have" check compares sizes, so the loaded Ψ must have
  // the live one's exact shape.
  W.u32(static_cast<uint32_t>(PsiCells.size()));
  for (auto &[S, Cells] : PsiCells) {
    W.u32(S.id());
    W.u32(static_cast<uint32_t>(Cells.size()));
    for (uint32_t Ref : Cells)
      W.u32(Ref);
  }

  // Delta-journal tail (whatever the machine still retains).
  uint64_t JBase = M.journalBegin();
  uint64_t JEnd = M.journalEnd();
  W.u64(JBase);
  W.u32(static_cast<uint32_t>(JEnd - JBase));
  for (uint64_t I = JBase; I != JEnd; ++I) {
    const DeltaEvent &Ev = M.journalEvent(I);
    W.u8(static_cast<uint8_t>(Ev.Kind));
    W.u32(Ev.R.isValid() ? Ev.R.id() : None);
    W.u32(Ev.R2.isValid() ? Ev.R2.id() : None);
  }

  return std::move(W.Out);
}

bool scav::gc::saveSnapshot(Machine &M, const SnapshotMeta &Meta,
                            const std::string &Path, std::string &Error) {
  std::string Bytes = serializeSnapshot(M, Meta);
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out) {
    Error = "cannot open " + Path + " for writing";
    return false;
  }
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  Out.close();
  if (!Out) {
    Error = "short write to " + Path;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

std::unique_ptr<Snapshot>
scav::gc::parseSnapshot(std::string_view Bytes, std::string &Error) {
  Reader R(Bytes);
  char Mg[8];
  for (char &Ch : Mg)
    Ch = static_cast<char>(R.u8());
  if (!R.ok() || std::memcmp(Mg, Magic, sizeof(Magic)) != 0) {
    Error = "not a snapshot file (bad magic)";
    return nullptr;
  }
  uint32_t Version = R.u32();
  if (Version != FormatVersion) {
    Error = "unsupported snapshot version " + std::to_string(Version);
    return nullptr;
  }

  auto S = std::make_unique<Snapshot>();
  uint8_t Level = R.u8();
  // Dumps from before the heap had one layout carry 1 here for the pointer
  // layout. Cells are serialized decoded, so those load identically.
  uint8_t Layout = R.u8();
  uint8_t Status = R.u8();
  S->TypeTrackingOk = R.u8() != 0;
  S->Steps = R.u64();
  S->StuckReason = R.str();
  S->TypeTrackingError = R.str();
  S->FreshNamespace = R.str();
  S->OracleFreshCtr = R.u64();
  S->Meta.Kind = R.str();
  S->Meta.Diagnostic = R.str();
  S->Meta.Checker = R.str();
  S->Meta.RestrictToReachable = R.u8() != 0;
  S->Meta.CheckCodeRegion = R.u8() != 0;
  if (Level > static_cast<uint8_t>(LanguageLevel::Generational) ||
      Layout > 1 ||
      Status > static_cast<uint8_t>(Machine::Status::Stuck))
    R.fail("bad header enum");
  S->Level = static_cast<LanguageLevel>(Level);
  S->Status = static_cast<Machine::Status>(Status);

  S->Ctx = std::make_unique<GcContext>();
  GcContext &C = *S->Ctx;
  // Restore the fresh-name bookkeeping before anything can mint: spellings
  // of checker "o"/"c" mints must replay exactly (see file comment).
  C.setFreshNamespace(S->FreshNamespace);
  C.oracleFreshCtr() = S->OracleFreshCtr;

  // Symbols: intern every spelling in file-id order. A fresh table assigns
  // dense ids in intern order and the file lists unique spellings, so the
  // mapping is order-preserving (identity in practice — "cd"/"t_id" are
  // pre-interned by the context constructor and lead every live table too).
  uint32_t NumSyms = R.u32();
  std::vector<Symbol> Syms;
  if (R.ok())
    Syms.reserve(std::min<size_t>(NumSyms, R.remaining()));
  for (uint32_t I = 0; I != NumSyms && R.ok(); ++I)
    Syms.push_back(C.intern(R.str()));

  Decoder Dec(R, C, Syms);
  uint32_t NumNodes = R.u32();
  if (R.ok())
    Dec.decodeAllNodes(NumNodes);
  S->CurrentTerm = Dec.termOrNull(R.u32());
  S->HaltValue = Dec.valueOrNull(R.u32());

  // Memory: reconstruct through the public allocation API, which encodes
  // each cell into its word, then restore the bookkeeping put() cannot know.
  S->Mem = std::make_unique<Memory>(C.cd().sym(), C);
  uint32_t NumRegions = R.u32();
  for (uint32_t I = 0; I != NumRegions && R.ok(); ++I) {
    uint32_t SymId = R.u32();
    Symbol RS = SymId < Syms.size() ? Syms[SymId] : Symbol();
    if (!RS.isValid()) {
      R.fail("memory region with bad symbol");
      break;
    }
    uint32_t Capacity = R.u32();
    uint64_t TotalAllocated = R.u64();
    uint64_t Epoch = R.u64();
    uint32_t NumCells = R.u32();
    S->Mem->addRegion(RS, Capacity);
    for (uint32_t Off = 0; Off != NumCells && R.ok(); ++Off) {
      const Value *V = Dec.valueOrNull(R.u32());
      if (!S->Mem->put(RS, V))
        R.fail("memory reconstruction failed");
    }
    if (RegionData *RD = S->Mem->region(RS)) {
      RD->TotalAllocated = TotalAllocated;
      RD->Epoch = Epoch;
      RD->clearDirty();
    }
  }

  // Ψ: write the exact per-region vectors (MemoryType::set cannot recreate
  // trailing nulls, so Cells is assigned directly).
  uint32_t NumPsi = R.u32();
  for (uint32_t I = 0; I != NumPsi && R.ok(); ++I) {
    uint32_t SymId = R.u32();
    Symbol RS = SymId < Syms.size() ? Syms[SymId] : Symbol();
    if (!RS.isValid()) {
      R.fail("Psi region with bad symbol");
      break;
    }
    uint32_t NumCells = R.u32();
    S->Psi.addRegion(RS);
    RegionType *PT = S->Psi.region(RS);
    PT->Cells.reserve(std::min<size_t>(NumCells, R.remaining()));
    for (uint32_t Off = 0; Off != NumCells && R.ok(); ++Off)
      PT->Cells.push_back(Dec.typeOrNull(R.u32()));
  }

  // Journal tail.
  S->JournalBase = R.u64();
  uint32_t NumEvents = R.u32();
  for (uint32_t I = 0; I != NumEvents && R.ok(); ++I) {
    uint8_t K = R.u8();
    uint32_t RId = R.u32();
    uint32_t R2Id = R.u32();
    if (K > static_cast<uint8_t>(DeltaKind::ExternalMutation)) {
      R.fail("bad journal event kind");
      break;
    }
    DeltaEvent Ev;
    Ev.Kind = static_cast<DeltaKind>(K);
    if (RId != None && RId < Syms.size())
      Ev.R = Syms[RId];
    if (R2Id != None && R2Id < Syms.size())
      Ev.R2 = Syms[R2Id];
    S->Journal.push_back(Ev);
  }

  if (!R.ok() || !R.atEnd()) {
    Error = R.ok() ? "trailing bytes after snapshot" : R.takeError();
    return nullptr;
  }
  return S;
}

std::unique_ptr<Snapshot>
scav::gc::loadSnapshot(const std::string &Path, std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot open " + Path;
    return nullptr;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Bytes = SS.str();
  return parseSnapshot(Bytes, Error);
}

//===----------------------------------------------------------------------===//
// Offline re-checking
//===----------------------------------------------------------------------===//

StateCheckResult scav::gc::recheckSnapshot(Snapshot &S) {
  SnapshotSubject Subj(S);
  StateCheckOptions Opts;
  Opts.CheckCodeRegion = S.Meta.CheckCodeRegion;
  Opts.RestrictToReachable = S.Meta.RestrictToReachable;
  return checkState(Subj, Opts);
}

StateCheckResult scav::gc::recheckSnapshotIncremental(Snapshot &S) {
  SnapshotSubject Subj(S);
  IncrementalCheckOptions Opts;
  Opts.CheckCodeRegion = S.Meta.CheckCodeRegion;
  Opts.RestrictToReachable = S.Meta.RestrictToReachable;
  IncrementalStateCheck Inc(Subj, Opts);
  return Inc.check();
}

//===----------------------------------------------------------------------===//
// Diff / describe
//===----------------------------------------------------------------------===//

namespace {

/// Region spellings → symbols, sorted by name: diffing happens across two
/// independent contexts, so names (not ids) are the join key.
template <typename MapT>
std::map<std::string, Symbol> regionsByName(const GcContext &C,
                                            const MapT &Regions) {
  std::map<std::string, Symbol> Out;
  for (const auto &KV : Regions)
    Out.emplace(std::string(C.name(KV.first)), KV.first);
  return Out;
}

constexpr size_t MaxCellDiffs = 16;

} // namespace

std::string scav::gc::diffSnapshots(const Snapshot &A, const Snapshot &B) {
  std::ostringstream Out;
  auto Line = [&](const std::string &S) { Out << S << "\n"; };
  auto Field = [&](const char *Name, const std::string &VA,
                   const std::string &VB) {
    if (VA != VB)
      Line(std::string(Name) + ": " + VA + " vs " + VB);
  };

  Field("level", languageLevelName(A.Level), languageLevelName(B.Level));
  Field("status", std::to_string(static_cast<int>(A.Status)),
        std::to_string(static_cast<int>(B.Status)));
  Field("steps", std::to_string(A.Steps), std::to_string(B.Steps));
  Field("stuck-reason", A.StuckReason, B.StuckReason);
  Field("type-tracking", A.TypeTrackingOk ? "ok" : "failed",
        B.TypeTrackingOk ? "ok" : "failed");
  Field("type-tracking-error", A.TypeTrackingError, B.TypeTrackingError);
  Field("current-term",
        A.CurrentTerm ? printTerm(*A.Ctx, A.CurrentTerm) : "<none>",
        B.CurrentTerm ? printTerm(*B.Ctx, B.CurrentTerm) : "<none>");
  Field("halt-value",
        A.HaltValue ? printValue(*A.Ctx, A.HaltValue) : "<none>",
        B.HaltValue ? printValue(*B.Ctx, B.HaltValue) : "<none>");
  Field("journal-events", std::to_string(A.Journal.size()),
        std::to_string(B.Journal.size()));

  auto RegsA = regionsByName(*A.Ctx, A.Mem->Regions);
  auto RegsB = regionsByName(*B.Ctx, B.Mem->Regions);
  for (const auto &[Name, SymA] : RegsA)
    if (!RegsB.count(Name))
      Line("region only in A: " + Name);
  for (const auto &[Name, SymB] : RegsB)
    if (!RegsA.count(Name))
      Line("region only in B: " + Name);

  for (const auto &[Name, SymA] : RegsA) {
    auto ItB = RegsB.find(Name);
    if (ItB == RegsB.end())
      continue;
    const RegionData &RA = *A.Mem->region(SymA);
    const RegionData &RB = *B.Mem->region(ItB->second);
    if (RA.Capacity != RB.Capacity)
      Line("region " + Name + ": capacity " + std::to_string(RA.Capacity) +
           " vs " + std::to_string(RB.Capacity));
    if (RA.Cells.size() != RB.Cells.size())
      Line("region " + Name + ": cells " + std::to_string(RA.Cells.size()) +
           " vs " + std::to_string(RB.Cells.size()));
    size_t Common = std::min(RA.Cells.size(), RB.Cells.size());
    size_t Shown = 0, Diffs = 0;
    for (size_t Off = 0; Off != Common; ++Off) {
      // Compare decoded printed forms: name-based, so two contexts' nodes
      // compare exactly. Memory::get decodes lazily on demand.
      Address AdA{Region::name(SymA), static_cast<uint32_t>(Off)};
      Address AdB{Region::name(ItB->second), static_cast<uint32_t>(Off)};
      const Value *VA = A.Mem->get(AdA);
      const Value *VB = B.Mem->get(AdB);
      std::string PA = VA ? printValue(*A.Ctx, VA) : "<null>";
      std::string PB = VB ? printValue(*B.Ctx, VB) : "<null>";
      if (PA == PB)
        continue;
      ++Diffs;
      if (Shown < MaxCellDiffs) {
        ++Shown;
        Line("cell " + Name + "." + std::to_string(Off) + ": " + PA +
             " vs " + PB);
      }
    }
    if (Diffs > Shown)
      Line("region " + Name + ": ... (+" + std::to_string(Diffs - Shown) +
           " more cell diffs)");
  }

  auto PsiA = regionsByName(*A.Ctx, A.Psi.Regions);
  auto PsiB = regionsByName(*B.Ctx, B.Psi.Regions);
  for (const auto &[Name, SymA] : PsiA)
    if (!PsiB.count(Name))
      Line("Psi region only in A: " + Name);
  for (const auto &[Name, SymB] : PsiB)
    if (!PsiA.count(Name))
      Line("Psi region only in B: " + Name);
  for (const auto &[Name, SymA] : PsiA) {
    auto ItB = PsiB.find(Name);
    if (ItB == PsiB.end())
      continue;
    const RegionType &TA = *A.Psi.region(SymA);
    const RegionType &TB = *B.Psi.region(ItB->second);
    if (TA.Cells.size() != TB.Cells.size())
      Line("Psi " + Name + ": entries " + std::to_string(TA.Cells.size()) +
           " vs " + std::to_string(TB.Cells.size()));
    size_t Common = std::min(TA.Cells.size(), TB.Cells.size());
    size_t Shown = 0, Diffs = 0;
    for (size_t Off = 0; Off != Common; ++Off) {
      const Type *TyA = TA.Cells[Off];
      const Type *TyB = TB.Cells[Off];
      std::string PA = TyA ? printType(*A.Ctx, TyA) : "<null>";
      std::string PB = TyB ? printType(*B.Ctx, TyB) : "<null>";
      if (PA == PB)
        continue;
      ++Diffs;
      if (Shown < MaxCellDiffs) {
        ++Shown;
        Line("Psi " + Name + "." + std::to_string(Off) + ": " + PA + " vs " +
             PB);
      }
    }
    if (Diffs > Shown)
      Line("Psi " + Name + ": ... (+" + std::to_string(Diffs - Shown) +
           " more entry diffs)");
  }

  return Out.str();
}

std::string scav::gc::describeSnapshot(const Snapshot &S) {
  std::ostringstream Out;
  const char *StatusName =
      S.Status == Machine::Status::Running
          ? "running"
          : (S.Status == Machine::Status::Halted ? "halted" : "stuck");
  Out << "level: " << languageLevelName(S.Level) << "\n";
  Out << "status: " << StatusName << "\n";
  Out << "steps: " << S.Steps << "\n";
  if (!S.StuckReason.empty())
    Out << "stuck-reason: " << S.StuckReason << "\n";
  if (!S.TypeTrackingOk)
    Out << "type-tracking-error: " << S.TypeTrackingError << "\n";
  if (!S.Meta.Kind.empty())
    Out << "dump-kind: " << S.Meta.Kind << "\n";
  if (!S.Meta.Checker.empty())
    Out << "checker: " << S.Meta.Checker << "\n";
  if (!S.Meta.Diagnostic.empty())
    Out << "diagnostic: " << S.Meta.Diagnostic << "\n";
  Out << "journal: base=" << S.JournalBase << " events=" << S.Journal.size()
      << "\n";
  Out << "regions: " << S.Mem->numRegions() << "\n";
  for (const auto &[Name, Sym] : regionsByName(*S.Ctx, S.Mem->Regions)) {
    const RegionData &RD = *S.Mem->region(Sym);
    const RegionType *PT = S.Psi.region(Sym);
    Out << "  " << Name << ": cells=" << RD.Cells.size()
        << " capacity=" << RD.Capacity
        << " allocated=" << RD.TotalAllocated
        << " psi=" << (PT ? PT->Cells.size() : 0) << "\n";
  }
  return Out.str();
}
