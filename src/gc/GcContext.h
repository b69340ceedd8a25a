//===- gc/GcContext.h - Owning, uniquing context and node factories -------===//
///
/// \file
/// GcContext owns the arena behind every λGC AST node and provides the only
/// way to construct nodes. For Tag, Type, and Kind nodes it is additionally a
/// *uniquing (hash-consing) context*: every factory canonicalizes through a
/// per-class hash table keyed on a structural hash stored in the node, so
/// structurally identical nodes are pointer-identical. Because children are
/// canonicalized before their parents, a parent only needs a *shallow*
/// hash/equality over its own fields and child pointers — the classic
/// FoldingSet discipline.
///
/// Each node carries three derived-fact bits, computed bottom-up at
/// construction:
///
///  * Normal — the node is a normal form: normalizeTag/normalizeType would
///    return it unchanged (level-independent: whether an M/C application is
///    stuck depends only on its tag's head constructor).
///  * Ground — no variables of any sort and no binders anywhere in the
///    subtree (for types, every region mentioned is a concrete name). On
///    ground nodes alpha-equivalence degenerates to structural equality, so
///    canonical ground nodes compare by pointer in both directions. The bit
///    deliberately excludes *binders*, not just free variables: interning is
///    name-sensitive, so λt.t and λs.s are alpha-equal yet distinct nodes.
///  * Canonical — the node went through the uniquing table of a context
///    that marks canonical nodes (every one but an observer context, see
///    below), licensing the negative pointer-compare.
///
/// The context also owns the normalization memo caches (keyed by node
/// pointer — sound precisely because nodes are unique — plus the
/// LanguageLevel for types, whose M-expansions differ per level) and a
/// Stats block with hit counters and an exclusive wall-clock accumulator
/// for type-level work (see TypeworkTimer).
///
/// Lifetime: transient checking phases (StateCheck) bulk-free their
/// allocations via Arena::mark/release. Uniquing tables and memo caches
/// would then hold dangling pointers, so GcContext keeps insertion logs and
/// exposes its own Checkpoint/Scope that unwinds table and memo entries
/// *before* releasing the arena. Use GcContext::Scope, never a raw arena
/// checkpoint, when nodes may be created inside the scope.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_GC_GCCONTEXT_H
#define SCAV_GC_GCCONTEXT_H

#include "gc/Lang.h"
#include "gc/Term.h"
#include "support/Arena.h"
#include "support/Symbol.h"

#include <array>
#include <chrono>
#include <map>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace scav::gc {

/// Owns all λGC AST nodes and the symbol table used for their variables.
class GcContext {
public:
  /// Counters for the uniquing tables, the normalization memo caches, and
  /// the equality fast paths, plus an exclusive typework clock. Cheap enough
  /// to maintain unconditionally; read by bench/e10_typework and
  /// tests/gc_intern_test.
  struct Stats {
    // Uniquing: hit = factory returned an existing node.
    uint64_t TagInternHits = 0;
    uint64_t TagInternMisses = 0;
    uint64_t TypeInternHits = 0;
    uint64_t TypeInternMisses = 0;
    uint64_t KindInternHits = 0;
    uint64_t KindInternMisses = 0;
    // Of the hits above, how many were served by a frozen shared base
    // context (session contexts only; see the shared-base constructor).
    uint64_t TagBaseHits = 0;
    uint64_t TypeBaseHits = 0;
    uint64_t KindBaseHits = 0;
    // Normalization: NormalBit = O(1) already-normal exit; Memo = cache hit.
    uint64_t NormalizeTagCalls = 0;
    uint64_t NormalizeTagNormalBitHits = 0;
    uint64_t NormalizeTagMemoHits = 0;
    uint64_t NormalizeTypeCalls = 0;
    uint64_t NormalizeTypeNormalBitHits = 0;
    uint64_t NormalizeTypeMemoHits = 0;
    // Semantic equality (tagEqual/typeEqual).
    uint64_t EqualTagCalls = 0;
    uint64_t EqualTypeCalls = 0;
    uint64_t EqualPointerHits = 0;
    // Substitution short-circuits on ground subtrees.
    uint64_t SubstGroundSkips = 0;
    // Exclusive wall time spent in normalize/equal/infer (TypeworkTimer).
    bool TimingEnabled = false;
    unsigned TimingDepth = 0;
    double TypeworkSeconds = 0.0;
  };

  /// Depth-guarded RAII accumulator for Stats::TypeworkSeconds: only the
  /// outermost timed frame reads the clock, so nested normalize-inside-infer
  /// calls are not double counted. Off (zero clock reads) unless
  /// Stats::TimingEnabled is set by a measurement harness.
  class TypeworkTimer {
  public:
    explicit TypeworkTimer(Stats &S) : S(S), Active(S.TimingEnabled) {
      if (Active && S.TimingDepth++ == 0)
        Start = std::chrono::steady_clock::now();
    }
    ~TypeworkTimer() {
      if (Active && --S.TimingDepth == 0)
        S.TypeworkSeconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          Start)
                .count();
    }
    TypeworkTimer(const TypeworkTimer &) = delete;
    TypeworkTimer &operator=(const TypeworkTimer &) = delete;

  private:
    Stats &S;
    bool Active;
    std::chrono::steady_clock::time_point Start;
  };

  GcContext() : GcContext(nullptr, /*MarkCanonicalBit=*/true) {}

  /// Observer-context constructor: shares \p SharedSyms (the mutator
  /// context's symbol table — thread-safe, see support/Symbol.h) instead of
  /// owning one, so symbols captured from machine state resolve here too.
  /// Built with MarkCanonicalBit off: this context's uniquing tables are
  /// disjoint from the mutator's, so marking its nodes Canonical would
  /// license the negative pointer-compare fast path (Equal.cpp) *across*
  /// contexts, where structurally equal nodes are not pointer-identical.
  /// Interning still dedupes (and memoizes) within this context; only the
  /// cross-context-unsound bit is withheld.
  explicit GcContext(SymbolTable &SharedSyms)
      : GcContext(&SharedSyms, /*MarkCanonicalBit=*/false) {}

  /// Session-context constructor: layers this context over \p SharedBase, a
  /// *frozen* (freeze()) context whose tables are consulted read-only before
  /// this context's own. This is the multi-session sharing seam: a service
  /// builds one base context, warms it (collector installation interns the
  /// runtime's tag/type vocabulary), freezes it, and then every concurrent
  /// session layers a private context on top — all writes (interning, memo
  /// fills, arena allocation) land in the session's own tables, so sessions
  /// never synchronize with each other beyond the already-thread-safe shared
  /// SymbolTable.
  ///
  /// Soundness of sharing hash-consed nodes:
  ///  * Kinds are hashed by address (finishTag/finishType), so the base's
  ///    Kind singletons (OmegaKind, ArrowKinds) MUST be reused — a private
  ///    Omega would change every dependent hash and the base tables would
  ///    never hit. The singleton Tag/Type nodes are copied for the same
  ///    reason, and because derived-fact bits must agree.
  ///  * The Canonical bit stays on: within one session's canonicalization
  ///    domain (base tables ∪ session tables, probed in that order) every
  ///    structurally-equal canonical node IS pointer-identical, which is all
  ///    the negative pointer-compare fast path (Equal.cpp) needs. Two
  ///    *different* sessions may each mint a canonical node for the same
  ///    structure, but nodes never flow between sessions, so the domains
  ///    never mix.
  ///  * The base must outlive every session layered on it (its arena owns
  ///    the shared nodes).
  ///
  /// \p SessionNamespace prefixes every fresh() mint of this context
  /// (`Base$<ns><n>`). Sessions sharing a SymbolTable must use pairwise
  /// distinct namespaces, each terminated unambiguously (e.g. "s3."), so
  /// their name streams are disjoint — otherwise concurrent internNew
  /// collisions would make counter skips (and hence spellings) depend on
  /// thread interleaving.
  GcContext(const GcContext &SharedBase, std::string SessionNamespace)
      : OwnedSyms(nullptr), Syms(SharedBase.Syms),
        MarkCanonical(SharedBase.MarkCanonical), Base(&SharedBase),
        FreshTag(std::move(SessionNamespace)) {
    assert(SharedBase.Frozen &&
           "shared base must be frozen before sessions layer on it");
    // Sessions start with the warmed base vocabulary already available;
    // their private tables only hold workload-specific nodes, so start
    // them a few powers of two smaller than a standalone context's.
    TagTable.reserve(1u << 10);
    TypeTable.reserve(1u << 12);
    TagNormalMemo.reserve(1u << 10);
    TypeNormalMemo.reserve(1u << 12);
    OmegaKind = SharedBase.OmegaKind;
    IntTagNode = SharedBase.IntTagNode;
    IntTypeNode = SharedBase.IntTypeNode;
    IdFunTag = SharedBase.IdFunTag;
    CdRegion = SharedBase.CdRegion;
  }

private:
  GcContext(SymbolTable *Shared, bool MarkCanonicalBit)
      : OwnedSyms(Shared ? nullptr : std::make_unique<SymbolTable>()),
        Syms(Shared ? *Shared : *OwnedSyms), MarkCanonical(MarkCanonicalBit) {
    // Collections create nodes by the tens of thousands and the tables only
    // ever grow (Scope unwinds aside), so incremental rehashing of a
    // near-full table is pure overhead on the hot path — and it lands
    // inside the typework timer. Start roomy instead.
    TagTable.reserve(1u << 14);
    TypeTable.reserve(1u << 16);
    TagNormalMemo.reserve(1u << 12);
    TypeNormalMemo.reserve(1u << 14);
    OmegaKind = Alloc.create<Kind>(Kind());
    IntTagNode = internTag(Tag(TagKind::Int));
    IntTypeNode = internType(Type(TypeKind::Int));
    CdRegion = Region::name(Syms.intern("cd"));
    // Eagerly build the identity tag singleton so it can never be created
    // (and then rolled back) inside a transient Scope.
    Symbol IdVar = Syms.intern("t_id");
    IdFunTag = tagLam(IdVar, tagVar(IdVar));
  }

public:
  GcContext(const GcContext &) = delete;
  GcContext &operator=(const GcContext &) = delete;

  /// Makes this context a read-only shared base: after this call no node may
  /// be created, interned, memoized, or freshly named through it — only
  /// lookups (performed by session contexts layered on it) remain legal.
  /// Enforced by asserts on the mutating entry points; the TSan CI job is
  /// the backstop in NDEBUG builds. Irreversible by design: a base that
  /// could thaw while sessions race over it is exactly the bug class this
  /// exists to remove.
  void freeze() { Frozen = true; }
  bool frozen() const { return Frozen; }

  /// The frozen shared base this session context layers over, or null.
  const GcContext *base() const { return Base; }

  /// Re-tags fresh() mints (`Base$<ns><n>`). Must be called before the
  /// first mint; used to give checker mirrors the session's namespace so
  /// their "c"-scoped mints stay session-disjoint too (FreshScope appends
  /// to this tag).
  void setFreshNamespace(std::string Ns) {
    assert(FreshCtr == 0 && "re-namespacing an already-minting context");
    FreshTag = std::move(Ns);
  }
  const std::string &freshNamespace() const { return FreshTag; }

  Stats &stats() { return S; }
  const Stats &stats() const { return S; }

  size_t internedTags() const { return TagTable.size(); }
  size_t internedTypes() const { return TypeTable.size(); }

  SymbolTable &symbols() { return Syms; }
  const SymbolTable &symbols() const { return Syms; }

  Symbol intern(std::string_view Sv) { return Syms.intern(Sv); }

  /// Creates a fresh symbol `Base$<tag><n>` distinct from everything
  /// interned so far. The counter is per *context* and the spelling carries
  /// the context's namespace tag, so an observer context (a state checker)
  /// minting names against the shared table can never perturb the mutator
  /// context's numbering — the mutator's name stream is a pure function of
  /// the program, regardless of when or on which thread checks run.
  Symbol fresh(std::string_view Stem) {
    assert(!Frozen && "minting fresh names through a frozen shared base");
    for (;;) {
      std::string Candidate(Stem);
      Candidate += '$';
      Candidate += FreshTag;
      Candidate += std::to_string(FreshCtr++);
      auto [Sym, New] = Syms.internNew(Candidate);
      if (New)
        return Sym;
      // Collision with an already-interned spelling (a source-program name,
      // or an earlier mint in this namespace): skip the counter value. The
      // skip is deterministic for a deterministic interning history.
    }
  }

  std::string_view name(Symbol Sym) const { return Syms.name(Sym); }

  /// Re-namespaces fresh() for the duration of the scope: names become
  /// `Base$<Tag><n>` drawn from the caller-owned counter \p Ctr (updated on
  /// exit, so a long-lived owner — an incremental checker — numbers
  /// monotonically across scopes). Checking phases wrap themselves in one of
  /// these so their transient fresh names live in a namespace disjoint from
  /// the mutator's ("" ↔ "c"/"o"), which keeps checker-minted symbols from
  /// ever aliasing machine-state names and keeps both streams deterministic
  /// when checks run asynchronously. The scope tag *appends* to the
  /// context's namespace tag rather than replacing it: in a session context
  /// namespaced "s3." the checker mints under "s3.c", so checker streams of
  /// concurrent sessions sharing one SymbolTable stay disjoint too (for a
  /// standalone context the base tag is empty and nothing changes).
  class FreshScope {
  public:
    FreshScope(GcContext &C, std::string Tag, uint64_t &Ctr)
        : C(C), SavedTag(std::move(C.FreshTag)), SavedCtr(C.FreshCtr),
          Ext(&Ctr) {
      C.FreshTag = SavedTag;
      C.FreshTag += Tag;
      C.FreshCtr = Ctr;
    }
    ~FreshScope() {
      *Ext = C.FreshCtr;
      C.FreshTag = std::move(SavedTag);
      C.FreshCtr = SavedCtr;
    }
    FreshScope(const FreshScope &) = delete;
    FreshScope &operator=(const FreshScope &) = delete;

  private:
    GcContext &C;
    std::string SavedTag;
    uint64_t SavedCtr;
    uint64_t *Ext;
  };

  /// Counter for the full checkState oracle's "o" namespace. Per-context
  /// and persistent so back-to-back oracle calls number monotonically: a
  /// restarted-at-zero counter would make every call re-skip all previous
  /// "o" mints in fresh() — quadratic over a per-step checking run.
  uint64_t &oracleFreshCtr() { return OracleCtr; }

  /// The distinguished code region cd (§4.3).
  Region cd() const { return CdRegion; }

  // -- Kinds -------------------------------------------------------------

  const Kind *omega() const { return OmegaKind; }
  const Kind *arrowKind(const Kind *From, const Kind *To) {
    auto Key = std::pair(From, To);
    auto It = ArrowKinds.find(Key);
    if (It != ArrowKinds.end()) {
      ++S.KindInternHits;
      return It->second;
    }
    if (Base) {
      auto BIt = Base->ArrowKinds.find(Key);
      if (BIt != Base->ArrowKinds.end()) {
        ++S.KindInternHits;
        ++S.KindBaseHits;
        return BIt->second;
      }
    }
    assert(!Frozen && "interning kinds into a frozen shared base");
    ++S.KindInternMisses;
    const Kind *K = Alloc.create<Kind>(Kind(From, To));
    ArrowKinds.emplace(Key, K);
    KindLog.push_back(Key);
    return K;
  }
  /// Ω → Ω, the kind of tag functions.
  const Kind *omegaToOmega() { return arrowKind(OmegaKind, OmegaKind); }

  // -- Tags ----------------------------------------------------------------

  const Tag *tagInt() const { return IntTagNode; }

  const Tag *tagVar(Symbol Sym) {
    Tag T(TagKind::Var);
    T.V = Sym;
    return internTag(std::move(T));
  }

  const Tag *tagProd(const Tag *L, const Tag *R) {
    Tag T(TagKind::Prod);
    T.A = L;
    T.B = R;
    return internTag(std::move(T));
  }

  const Tag *tagArrow(std::vector<const Tag *> Args) {
    Tag T(TagKind::Arrow);
    T.Args = std::move(Args);
    return internTag(std::move(T));
  }

  const Tag *tagExists(Symbol Var, const Tag *Body) {
    Tag T(TagKind::Exists);
    T.V = Var;
    T.A = Body;
    return internTag(std::move(T));
  }

  const Tag *tagLam(Symbol Var, const Kind *K, const Tag *Body) {
    Tag T(TagKind::Lam);
    T.V = Var;
    T.BK = K;
    T.A = Body;
    return internTag(std::move(T));
  }
  const Tag *tagLam(Symbol Var, const Tag *Body) {
    return tagLam(Var, omega(), Body);
  }

  const Tag *tagApp(const Tag *Fun, const Tag *Arg) {
    Tag T(TagKind::App);
    T.A = Fun;
    T.B = Arg;
    return internTag(std::move(T));
  }

  /// λt.t — the identity tag function, used to fill unused te slots in the
  /// closure-converted collector (Fig 12). A singleton: all uses are
  /// alpha-equivalent, so one shared binder is as good as a fresh one.
  const Tag *tagIdFun() { return IdFunTag; }

  // -- Types ---------------------------------------------------------------

  const Type *typeInt() const { return IntTypeNode; }

  const Type *typeProd(const Type *L, const Type *R) {
    Type T(TypeKind::Prod);
    T.A = L;
    T.B = R;
    return internType(std::move(T));
  }

  const Type *typeCode(std::vector<Symbol> TagParams,
                       std::vector<const Kind *> TagKinds,
                       std::vector<Symbol> RegionParams,
                       std::vector<const Type *> Args) {
    assert(TagParams.size() == TagKinds.size() && "mismatched tag binders");
    Type T(TypeKind::Code);
    T.TagParams = std::move(TagParams);
    T.TagKinds = std::move(TagKinds);
    T.RegionParams = std::move(RegionParams);
    T.Args = std::move(Args);
    return internType(std::move(T));
  }

  /// ∀J~τKJ~ρK(~σ) →At 0: translucent code with pinned tag and region
  /// arguments (see the note in Type.h).
  const Type *typeTransCode(std::vector<const Tag *> TagArgs,
                            std::vector<Region> RegionArgs,
                            std::vector<const Type *> Args, Region At) {
    Type T(TypeKind::TransCode);
    T.TagArgs = std::move(TagArgs);
    T.Regions = std::move(RegionArgs);
    T.Args = std::move(Args);
    T.R1 = At;
    return internType(std::move(T));
  }

  const Type *typeExistsTag(Symbol Var, const Kind *K, const Type *Body) {
    Type T(TypeKind::ExistsTag);
    T.V = Var;
    T.BK = K;
    T.A = Body;
    return internType(std::move(T));
  }

  const Type *typeExistsTyVar(Symbol Var, RegionSet Delta, const Type *Body) {
    Type T(TypeKind::ExistsTyVar);
    T.V = Var;
    T.Delta = std::move(Delta);
    T.A = Body;
    return internType(std::move(T));
  }

  /// ∃r∈∆.(Body at r); Body may mention r.
  const Type *typeExistsRegion(Symbol Var, RegionSet Delta, const Type *Body) {
    Type T(TypeKind::ExistsRegion);
    T.V = Var;
    T.Delta = std::move(Delta);
    T.A = Body;
    return internType(std::move(T));
  }

  const Type *typeAt(const Type *Body, Region R) {
    Type T(TypeKind::At);
    T.A = Body;
    T.R1 = R;
    return internType(std::move(T));
  }

  /// M_ρ(τ) (Base/Forward: one region) or M_{ρy,ρo}(τ) (Generational: two).
  const Type *typeM(std::vector<Region> Regions, const Tag *T) {
    assert((Regions.size() == 1 || Regions.size() == 2) &&
           "M takes one or two regions");
    Type Ty(TypeKind::MApp);
    Ty.Regions = std::move(Regions);
    Ty.T = T;
    return internType(std::move(Ty));
  }
  const Type *typeM(Region R, const Tag *T) {
    return typeM(std::vector<Region>{R}, T);
  }

  const Type *typeC(Region From, Region To, const Tag *T) {
    Type Ty(TypeKind::CApp);
    Ty.R1 = From;
    Ty.R2 = To;
    Ty.T = T;
    return internType(std::move(Ty));
  }

  const Type *typeVar(Symbol Sym) {
    Type T(TypeKind::TyVar);
    T.V = Sym;
    return internType(std::move(T));
  }

  const Type *typeLeft(const Type *Body) {
    Type T(TypeKind::Left);
    T.A = Body;
    return internType(std::move(T));
  }

  const Type *typeRight(const Type *Body) {
    Type T(TypeKind::Right);
    T.A = Body;
    return internType(std::move(T));
  }

  const Type *typeSum(const Type *L, const Type *R) {
    Type T(TypeKind::Sum);
    T.A = L;
    T.B = R;
    return internType(std::move(T));
  }

  // -- Normalization memo caches ------------------------------------------
  //
  // Keyed by node pointer, which is sound because nodes are unique; the type
  // cache additionally keys on the LanguageLevel since the M equations (and
  // hence normal forms) differ per level (Normalize.cpp).

  // Session contexts fall through to the frozen base's memos: normal forms
  // of base nodes computed during warmup are shared read-only. A local miss
  // must consult the base even when the local key exists (the type memo is
  // per-level — the base may hold the level this context does not).
  const Tag *lookupNormalTagMemo(const Tag *T) const {
    auto It = TagNormalMemo.find(T);
    if (It != TagNormalMemo.end())
      return It->second;
    return Base ? Base->lookupNormalTagMemo(T) : nullptr;
  }
  void rememberNormalTag(const Tag *T, const Tag *N) {
    assert(!Frozen && "memoizing into a frozen shared base");
    if (TagNormalMemo.emplace(T, N).second)
      TagMemoLog.push_back(T);
  }

  const Type *lookupNormalTypeMemo(const Type *T, LanguageLevel L) const {
    auto It = TypeNormalMemo.find(T);
    if (It != TypeNormalMemo.end() && It->second[levelIndex(L)])
      return It->second[levelIndex(L)];
    return Base ? Base->lookupNormalTypeMemo(T, L) : nullptr;
  }
  void rememberNormalType(const Type *T, LanguageLevel L, const Type *N) {
    assert(!Frozen && "memoizing into a frozen shared base");
    auto &Slot = TypeNormalMemo[T][levelIndex(L)];
    if (Slot == N)
      return;
    assert(!Slot && "normalization memo slot rebound to a different result");
    Slot = N;
    TypeMemoLog.push_back({T, levelIndex(L)});
  }

  // -- Checkpoint / Scope --------------------------------------------------

  /// A rollback point for transient allocation phases: the arena checkpoint
  /// plus the sizes of the uniquing-table and memo insertion logs.
  struct Checkpoint {
    Arena::Checkpoint Mem;
    size_t Tags, Types, Kinds, TagMemo, TypeMemo;
  };

  Checkpoint mark() const {
    return Checkpoint{Alloc.mark(),        TagLog.size(),
                      TypeLog.size(),      KindLog.size(),
                      TagMemoLog.size(),   TypeMemoLog.size()};
  }

  /// Unwinds every uniquing-table and memo entry inserted since \p Cp, then
  /// bulk-frees the arena back to it. Entry removal must come first: the
  /// hash tables need the (about-to-be-freed) node memory to rehash keys.
  /// Entries inserted before the mark can only reference pre-mark nodes
  /// (both key and value existed at insertion time), so they stay valid.
  void release(const Checkpoint &Cp) {
    assert(!Frozen && "rolling back a frozen shared base");
    for (size_t I = TagLog.size(); I > Cp.Tags; --I)
      TagTable.erase(TagLog[I - 1]);
    TagLog.resize(Cp.Tags);
    for (size_t I = TypeLog.size(); I > Cp.Types; --I)
      TypeTable.erase(TypeLog[I - 1]);
    TypeLog.resize(Cp.Types);
    for (size_t I = KindLog.size(); I > Cp.Kinds; --I)
      ArrowKinds.erase(KindLog[I - 1]);
    KindLog.resize(Cp.Kinds);
    for (size_t I = TagMemoLog.size(); I > Cp.TagMemo; --I)
      TagNormalMemo.erase(TagMemoLog[I - 1]);
    TagMemoLog.resize(Cp.TagMemo);
    for (size_t I = TypeMemoLog.size(); I > Cp.TypeMemo; --I) {
      auto [T, L] = TypeMemoLog[I - 1];
      auto It = TypeNormalMemo.find(T);
      if (It == TypeNormalMemo.end())
        continue;
      It->second[L] = nullptr;
      if (!It->second[0] && !It->second[1] && !It->second[2])
        TypeNormalMemo.erase(It);
    }
    TypeMemoLog.resize(Cp.TypeMemo);
    Alloc.release(Cp.Mem);
  }

  /// RAII over mark()/release(): scopes the transient allocations of a
  /// checking phase without leaving dangling intern/memo entries behind.
  class Scope {
  public:
    explicit Scope(GcContext &C) : C(C), Cp(C.mark()) {}
    ~Scope() { C.release(Cp); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    GcContext &C;
    Checkpoint Cp;
  };

  // -- Values ----------------------------------------------------------

  const Value *valInt(int64_t N) {
    Value *V = allocValue(ValueKind::Int);
    V->N = N;
    return V;
  }

  const Value *valVar(Symbol Sym) {
    Value *V = allocValue(ValueKind::Var);
    V->V = Sym;
    return V;
  }

  const Value *valAddr(Address A) {
    assert(A.R.isName() && "addresses live in concrete regions");
    Value *V = allocValue(ValueKind::Addr);
    V->Addr = A;
    return V;
  }

  const Value *valPair(const Value *A, const Value *B) {
    Value *V = allocValue(ValueKind::Pair);
    V->A = A;
    V->B = B;
    return V;
  }

  const Value *valPackTag(Symbol Var, const Tag *Witness, const Value *Payload,
                          const Type *BodyType) {
    Value *V = allocValue(ValueKind::PackTag);
    V->V = Var;
    V->TW = Witness;
    V->A = Payload;
    V->BT = BodyType;
    return V;
  }

  /// vJ~τKJ~ρK: translucent application pinning tags and regions.
  const Value *valTransApp(const Value *Inner, std::vector<const Tag *> TagArgs,
                           std::vector<Region> RegionArgs) {
    return valTransApp(Inner,
                       allocTransData(std::move(TagArgs),
                                      std::move(RegionArgs)));
  }

  /// Shared-argument variant: \p Args must outlive the context
  /// (arena-allocated). Producers that materialize the same vJ~τKJ~ρK
  /// template many times share one argument block (see vm::TplInfo).
  const Value *valTransApp(const Value *Inner, const TransData *Args) {
    Value *V = allocValue(ValueKind::TransApp);
    V->A = Inner;
    V->Trans = Args;
    return V;
  }

  /// Arena-allocates a TransApp argument block (see valTransApp).
  const TransData *allocTransData(std::vector<const Tag *> TagArgs,
                                  std::vector<Region> RegionArgs) {
    auto *D = Alloc.create<TransData>();
    D->TagArgs = std::move(TagArgs);
    D->RegionArgs = std::move(RegionArgs);
    return D;
  }

  /// Arena-allocates a ∆ set for sharing across pack values (the Value node
  /// holds deltas by pointer so it stays trivially destructible).
  const RegionSet *allocRegionSet(RegionSet RS) {
    return Alloc.create<RegionSet>(std::move(RS));
  }

  const Value *valPackTyVar(Symbol Var, RegionSet Delta, const Type *Witness,
                            const Value *Payload, const Type *BodyType) {
    return valPackTyVar(Var, allocRegionSet(std::move(Delta)), Witness,
                        Payload, BodyType);
  }

  /// Pointer-∆ variant: \p Delta must outlive the context (arena-allocated
  /// or owned by a producer cache). Lets hot paths share one set across
  /// many pack values instead of copying it per materialization.
  const Value *valPackTyVar(Symbol Var, const RegionSet *Delta,
                            const Type *Witness, const Value *Payload,
                            const Type *BodyType) {
    Value *V = allocValue(ValueKind::PackTyVar);
    V->V = Var;
    V->Delta = Delta;
    V->TyW = Witness;
    V->A = Payload;
    V->BT = BodyType;
    return V;
  }

  const Value *valCode(std::vector<Symbol> TagParams,
                       std::vector<const Kind *> TagKinds,
                       std::vector<Symbol> RegionParams,
                       std::vector<Symbol> ValParams,
                       std::vector<const Type *> ValTypes, const Term *Body) {
    assert(TagParams.size() == TagKinds.size() && "mismatched tag binders");
    assert(ValParams.size() == ValTypes.size() && "mismatched val binders");
    Value *V = allocValue(ValueKind::Code);
    auto *D = Alloc.create<CodeData>();
    D->TagParams = std::move(TagParams);
    D->TagKinds = std::move(TagKinds);
    D->RegionParams = std::move(RegionParams);
    D->ValParams = std::move(ValParams);
    D->ValTypes = std::move(ValTypes);
    D->Body = Body;
    V->Code = D;
    return V;
  }

  const Value *valInl(const Value *Payload) {
    Value *V = allocValue(ValueKind::Inl);
    V->A = Payload;
    return V;
  }

  const Value *valInr(const Value *Payload) {
    Value *V = allocValue(ValueKind::Inr);
    V->A = Payload;
    return V;
  }

  const Value *valPackRegion(Symbol Var, RegionSet Delta, Region Witness,
                             const Value *Payload, const Type *BodyType) {
    return valPackRegion(Var, allocRegionSet(std::move(Delta)), Witness,
                         Payload, BodyType);
  }

  /// Pointer-∆ variant of valPackRegion (see valPackTyVar).
  const Value *valPackRegion(Symbol Var, const RegionSet *Delta,
                             Region Witness, const Value *Payload,
                             const Type *BodyType) {
    Value *V = allocValue(ValueKind::PackRegion);
    V->V = Var;
    V->Delta = Delta;
    V->RW = Witness;
    V->A = Payload;
    V->BT = BodyType;
    return V;
  }

  // -- Operations --------------------------------------------------------

  const Op *opVal(const Value *V) {
    Op *O = allocOp(OpKind::Val);
    O->A = V;
    return O;
  }

  const Op *opProj(unsigned Index, const Value *V) {
    assert((Index == 1 || Index == 2) && "projection index must be 1 or 2");
    Op *O = allocOp(Index == 1 ? OpKind::Proj1 : OpKind::Proj2);
    O->A = V;
    return O;
  }

  const Op *opPut(Region R, const Value *V) {
    Op *O = allocOp(OpKind::Put);
    O->R = R;
    O->A = V;
    return O;
  }

  const Op *opGet(const Value *V) {
    Op *O = allocOp(OpKind::Get);
    O->A = V;
    return O;
  }

  const Op *opStrip(const Value *V) {
    Op *O = allocOp(OpKind::Strip);
    O->A = V;
    return O;
  }

  const Op *opPrim(PrimOp P, const Value *L, const Value *R) {
    Op *O = allocOp(OpKind::Prim);
    O->P = P;
    O->A = L;
    O->B = R;
    return O;
  }

  // -- Terms ---------------------------------------------------------------

  const Term *termApp(const Value *Fun, std::vector<const Tag *> Tags,
                      std::vector<Region> Regions,
                      std::vector<const Value *> Args) {
    Term *T = allocTerm(TermKind::App);
    T->V1 = Fun;
    T->TagArgs = std::move(Tags);
    T->RegionArgs = std::move(Regions);
    T->ValArgs = std::move(Args);
    return T;
  }

  const Term *termLet(Symbol X, const Op *O, const Term *Body) {
    Term *T = allocTerm(TermKind::Let);
    T->X1 = X;
    T->O = O;
    T->E1 = Body;
    return T;
  }

  const Term *termHalt(const Value *V) {
    Term *T = allocTerm(TermKind::Halt);
    T->V1 = V;
    return T;
  }

  const Term *termIfGc(Region R, const Term *Full, const Term *NotFull) {
    Term *T = allocTerm(TermKind::IfGc);
    T->R1 = R;
    T->E1 = Full;
    T->E2 = NotFull;
    return T;
  }

  const Term *termOpenTag(const Value *V, Symbol TagVar, Symbol ValVar,
                          const Term *Body) {
    Term *T = allocTerm(TermKind::OpenTag);
    T->V1 = V;
    T->X1 = TagVar;
    T->X2 = ValVar;
    T->E1 = Body;
    return T;
  }

  const Term *termOpenTyVar(const Value *V, Symbol TyVar, Symbol ValVar,
                            const Term *Body) {
    Term *T = allocTerm(TermKind::OpenTyVar);
    T->V1 = V;
    T->X1 = TyVar;
    T->X2 = ValVar;
    T->E1 = Body;
    return T;
  }

  const Term *termLetRegion(Symbol R, const Term *Body) {
    Term *T = allocTerm(TermKind::LetRegion);
    T->X1 = R;
    T->E1 = Body;
    return T;
  }

  const Term *termOnly(RegionSet Keep, const Term *Body) {
    Term *T = allocTerm(TermKind::Only);
    T->Delta = std::move(Keep);
    T->E1 = Body;
    return T;
  }

  const Term *termTypecase(const Tag *Scrutinee, const Term *CaseInt,
                           const Term *CaseArrow, Symbol ProdVar1,
                           Symbol ProdVar2, const Term *CaseProd,
                           Symbol ExistsVar, const Term *CaseExists) {
    Term *T = allocTerm(TermKind::Typecase);
    T->T = Scrutinee;
    T->E1 = CaseInt;
    T->E2 = CaseArrow;
    T->X1 = ProdVar1;
    T->X2 = ProdVar2;
    T->E3 = CaseProd;
    T->X3 = ExistsVar;
    T->E4 = CaseExists;
    return T;
  }

  const Term *termIfLeft(Symbol X, const Value *Scrutinee, const Term *IfL,
                         const Term *IfR) {
    Term *T = allocTerm(TermKind::IfLeft);
    T->X1 = X;
    T->V1 = Scrutinee;
    T->E1 = IfL;
    T->E2 = IfR;
    return T;
  }

  const Term *termSet(const Value *Dst, const Value *Src, const Term *Rest) {
    Term *T = allocTerm(TermKind::Set);
    T->V1 = Dst;
    T->V2 = Src;
    T->E1 = Rest;
    return T;
  }

  const Term *termLetWiden(Symbol X, Region ToRegion, const Tag *Tau,
                           const Value *V, const Term *Body) {
    Term *T = allocTerm(TermKind::LetWiden);
    T->X1 = X;
    T->R1 = ToRegion;
    T->T = Tau;
    T->V1 = V;
    T->E1 = Body;
    return T;
  }

  const Term *termOpenRegion(const Value *V, Symbol RegionVar, Symbol ValVar,
                             const Term *Body) {
    Term *T = allocTerm(TermKind::OpenRegion);
    T->V1 = V;
    T->X1 = RegionVar;
    T->X2 = ValVar;
    T->E1 = Body;
    return T;
  }

  const Term *termIfReg(Region A, Region B, const Term *Eq, const Term *Ne) {
    Term *T = allocTerm(TermKind::IfReg);
    T->R1 = A;
    T->R2 = B;
    T->E1 = Eq;
    T->E2 = Ne;
    return T;
  }

  const Term *termIf0(const Value *V, const Term *Zero, const Term *NonZero) {
    Term *T = allocTerm(TermKind::If0);
    T->V1 = V;
    T->E1 = Zero;
    T->E2 = NonZero;
    return T;
  }

  Arena &arena() { return Alloc; }

private:
  static size_t hashCombine(size_t Seed, size_t V) {
    return Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
  }
  static size_t symbolHash(Symbol Sym) {
    return Sym.isValid() ? Sym.id() : static_cast<size_t>(~0u);
  }
  static size_t regionHash(Region R) {
    if (!R.isValid())
      return ~size_t(0);
    return (static_cast<size_t>(R.sym().id()) << 1) | (R.isName() ? 1 : 0);
  }
  static size_t levelIndex(LanguageLevel L) {
    return static_cast<size_t>(L); // Base/Forward/Generational → 0/1/2.
  }

  /// Computes and stores the structural hash and the Normal/Ground bits of a
  /// freshly built tag from its (already canonical) children.
  void finishTag(Tag &T) {
    size_t H = hashCombine(0x517cc1b727220a95ULL, static_cast<size_t>(T.K));
    uint8_t Bits = 0;
    constexpr uint8_t NG = Tag::FlagNormal | Tag::FlagGround;
    switch (T.K) {
    case TagKind::Int:
      Bits = NG;
      break;
    case TagKind::Var:
      H = hashCombine(H, symbolHash(T.V));
      Bits = Tag::FlagNormal;
      break;
    case TagKind::Prod:
      H = hashCombine(hashCombine(H, T.A->hash()), T.B->hash());
      Bits = (T.A->flags() & T.B->flags()) & NG;
      break;
    case TagKind::Arrow: {
      Bits = NG;
      for (const Tag *A : T.Args) {
        H = hashCombine(H, A->hash());
        Bits &= A->flags();
      }
      Bits &= NG;
      break;
    }
    case TagKind::Exists:
      H = hashCombine(hashCombine(H, symbolHash(T.V)), T.A->hash());
      Bits = T.A->flags() & Tag::FlagNormal; // a binder: never ground
      break;
    case TagKind::Lam:
      H = hashCombine(hashCombine(H, symbolHash(T.V)),
                      reinterpret_cast<size_t>(T.BK));
      H = hashCombine(H, T.A->hash());
      Bits = T.A->flags() & Tag::FlagNormal; // a binder: never ground
      break;
    case TagKind::App:
      H = hashCombine(hashCombine(H, T.A->hash()), T.B->hash());
      Bits = (T.A->flags() & T.B->flags()) & Tag::FlagGround;
      if (T.A->isNormal() && T.B->isNormal() && !T.A->is(TagKind::Lam))
        Bits |= Tag::FlagNormal; // stuck application
      break;
    }
    T.H = H;
    T.Bits = Bits;
  }

  /// Same for types. The hash folds every field uniformly (unused fields are
  /// empty/null and hash to constants); the bits are per-kind. Normality of
  /// an M/C application depends only on whether its tag's *head constructor*
  /// is analyzable (Int/Arrow/Prod/Exists) or stuck (Var/App/Lam) — the same
  /// distinction at every LanguageLevel, so one bit suffices.
  void finishType(Type &T) {
    size_t H = hashCombine(0x2545f4914f6cdd1dULL, static_cast<size_t>(T.K));
    H = hashCombine(H, T.A ? T.A->hash() : 0);
    H = hashCombine(H, T.B ? T.B->hash() : 0);
    H = hashCombine(H, symbolHash(T.V));
    H = hashCombine(H, reinterpret_cast<size_t>(T.BK));
    for (Region R : T.Delta)
      H = hashCombine(H, regionHash(R));
    H = hashCombine(H, regionHash(T.R1));
    H = hashCombine(H, regionHash(T.R2));
    H = hashCombine(H, T.T ? T.T->hash() : 0);
    for (Region R : T.Regions)
      H = hashCombine(H, regionHash(R));
    for (Symbol Sym : T.TagParams)
      H = hashCombine(H, symbolHash(Sym));
    for (const Kind *K : T.TagKinds)
      H = hashCombine(H, reinterpret_cast<size_t>(K));
    for (Symbol Sym : T.RegionParams)
      H = hashCombine(H, symbolHash(Sym));
    for (const Type *A : T.Args)
      H = hashCombine(H, A->hash());
    for (const Tag *A : T.TagArgs)
      H = hashCombine(H, A->hash());
    T.H = H;
    T.Bits = typeBits(T);
  }

  uint8_t typeBits(const Type &T) const {
    constexpr uint8_t NG = Type::FlagNormal | Type::FlagGround;
    switch (T.K) {
    case TypeKind::Int:
      return NG;
    case TypeKind::TyVar:
      return Type::FlagNormal;
    case TypeKind::Prod:
    case TypeKind::Sum:
      return (T.A->flags() & T.B->flags()) & NG;
    case TypeKind::Left:
    case TypeKind::Right:
      return T.A->flags() & NG;
    case TypeKind::At: {
      uint8_t Bits = T.A->flags() & NG;
      if (!T.R1.isName())
        Bits &= ~Type::FlagGround;
      return Bits;
    }
    case TypeKind::MApp:
    case TypeKind::CApp: {
      bool Stuck = T.T->is(TagKind::Var) || T.T->is(TagKind::App) ||
                   T.T->is(TagKind::Lam);
      uint8_t Bits = 0;
      if (Stuck && T.T->isNormal())
        Bits |= Type::FlagNormal;
      bool Ground = T.T->isGround();
      if (T.K == TypeKind::MApp) {
        for (Region R : T.Regions)
          Ground &= R.isName();
      } else {
        Ground &= T.R1.isName() && T.R2.isName();
      }
      if (Ground)
        Bits |= Type::FlagGround;
      return Bits;
    }
    case TypeKind::ExistsTag:
    case TypeKind::ExistsTyVar:
    case TypeKind::ExistsRegion:
      return T.A->flags() & Type::FlagNormal; // binders: never ground
    case TypeKind::Code: {
      uint8_t Bits = Type::FlagNormal; // binders: never ground
      for (const Type *A : T.Args)
        Bits &= A->flags();
      return Bits & Type::FlagNormal;
    }
    case TypeKind::TransCode: {
      uint8_t Bits = NG;
      for (const Tag *A : T.TagArgs)
        Bits &= A->flags();
      for (const Type *A : T.Args)
        Bits &= A->flags();
      bool RegionsGround = T.R1.isName();
      for (Region R : T.Regions)
        RegionsGround &= R.isName();
      if (!RegionsGround)
        Bits &= ~Type::FlagGround;
      return Bits & NG;
    }
    }
    return 0;
  }

  struct TagHash {
    size_t operator()(const Tag *T) const { return T->hash(); }
  };
  struct TagEq {
    bool operator()(const Tag *A, const Tag *B) const {
      return A->shallowEquals(*B);
    }
  };
  struct TypeHash {
    size_t operator()(const Type *T) const { return T->hash(); }
  };
  struct TypeEq {
    bool operator()(const Type *A, const Type *B) const {
      return A->shallowEquals(*B);
    }
  };

  const Tag *internTag(Tag &&T) {
    finishTag(T);
    // Base probe first: the frozen base holds the warm shared vocabulary
    // (collector/runtime types), the hot case for session contexts. A node
    // is inserted locally only after missing both tables, so the two are
    // disjoint and probe order is a pure performance choice.
    if (Base) {
      auto BIt = Base->TagTable.find(&T);
      if (BIt != Base->TagTable.end()) {
        ++S.TagInternHits;
        ++S.TagBaseHits;
        return *BIt;
      }
    }
    auto It = TagTable.find(&T);
    if (It != TagTable.end()) {
      ++S.TagInternHits;
      return *It;
    }
    assert(!Frozen && "interning tags into a frozen shared base");
    ++S.TagInternMisses;
    Tag *N = Alloc.create<Tag>(std::move(T));
    if (MarkCanonical)
      N->Bits |= Tag::FlagCanonical;
    TagTable.insert(N);
    TagLog.push_back(N);
    return N;
  }

  const Type *internType(Type &&T) {
    finishType(T);
    if (Base) {
      auto BIt = Base->TypeTable.find(&T);
      if (BIt != Base->TypeTable.end()) {
        ++S.TypeInternHits;
        ++S.TypeBaseHits;
        return *BIt;
      }
    }
    auto It = TypeTable.find(&T);
    if (It != TypeTable.end()) {
      ++S.TypeInternHits;
      return *It;
    }
    assert(!Frozen && "interning types into a frozen shared base");
    ++S.TypeInternMisses;
    Type *N = Alloc.create<Type>(std::move(T));
    if (MarkCanonical)
      N->Bits |= Type::FlagCanonical;
    TypeTable.insert(N);
    TypeLog.push_back(N);
    return N;
  }

  // In-place construction: node constructors are private (friends of this
  // context), so Arena::create can't call them — and the temporary-then-move
  // detour it would need writes every fat node twice. allocateFor +
  // placement new keeps one write pass; the kind-only constructors are
  // noexcept, which allocateFor requires.
  Value *allocValue(ValueKind K) {
    assert(!Frozen && "allocating values in a frozen shared base");
    return new (Alloc.allocateFor<Value>()) Value(K);
  }
  Op *allocOp(OpKind K) {
    assert(!Frozen && "allocating ops in a frozen shared base");
    return new (Alloc.allocateFor<Op>()) Op(K);
  }
  Term *allocTerm(TermKind K) {
    assert(!Frozen && "allocating terms in a frozen shared base");
    return new (Alloc.allocateFor<Term>()) Term(K);
  }

  Arena Alloc;
  /// Owned unless constructed over a shared table (observer contexts).
  /// OwnedSyms must be declared before the reference that may bind to it.
  std::unique_ptr<SymbolTable> OwnedSyms;
  SymbolTable &Syms;
  Stats S;
  /// Whether interned nodes get FlagCanonical (off for observer contexts —
  /// see the shared-table constructor).
  bool MarkCanonical;
  /// Frozen read-only context whose tables are probed before this one's
  /// (session contexts only; see the shared-base constructor). Null for
  /// standalone and observer contexts.
  const GcContext *Base = nullptr;
  /// Set by freeze(): this context is now a read-only shared base; every
  /// mutating entry point asserts against it.
  bool Frozen = false;
  /// fresh() namespace tag + counter; see FreshScope.
  std::string FreshTag;
  uint64_t FreshCtr = 0;
  uint64_t OracleCtr = 0; ///< see oracleFreshCtr()

  const Kind *OmegaKind;
  const Tag *IntTagNode;
  const Type *IntTypeNode;
  const Tag *IdFunTag = nullptr;
  Region CdRegion;

  // Uniquing tables + insertion logs (for Checkpoint rollback).
  std::unordered_set<Tag *, TagHash, TagEq> TagTable;
  std::unordered_set<Type *, TypeHash, TypeEq> TypeTable;
  std::map<std::pair<const Kind *, const Kind *>, const Kind *> ArrowKinds;
  std::vector<Tag *> TagLog;
  std::vector<Type *> TypeLog;
  std::vector<std::pair<const Kind *, const Kind *>> KindLog;

  // Normalization memos + insertion logs.
  std::unordered_map<const Tag *, const Tag *> TagNormalMemo;
  std::unordered_map<const Type *, std::array<const Type *, 3>> TypeNormalMemo;
  std::vector<const Tag *> TagMemoLog;
  std::vector<std::pair<const Type *, size_t>> TypeMemoLog;
};

} // namespace scav::gc

#endif // SCAV_GC_GCCONTEXT_H
