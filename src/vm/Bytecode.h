//===- vm/Bytecode.h - Flat bytecode for the λGC machine -------*- C++ -*-===//
///
/// \file
/// The compiled form of a λGC term (DESIGN.md §3.10): enum-tagged
/// instructions in one contiguous vector, with every auxiliary payload
/// (operands, call sites, typecase tables, scope chains) pooled in
/// side-vectors indexed by uint32. One instruction executes exactly one
/// Fig 5 machine step, so MachineStats::Steps and every stuck diagnostic
/// agree with the interpreted modes byte for byte.
///
/// Design constraints that shaped the layout:
///
///  * CPS continuations become jump targets: control flow is a PC within a
///    Chunk plus chunk-to-chunk transfer at `Call` (App), which replaces
///    the whole frame — closure-converted code bodies are closed up to
///    their parameters, exactly like the env machine's wholesale
///    environment replacement.
///  * Environment slots are resolved to frame indices at compile time
///    (Lower.cpp); shadowing is resolved lexically to the innermost
///    binder, mirroring the env machine's shadow-by-overwrite.
///  * Operands are classified once at compile time (see ValOperand) so the
///    dispatch loop never consults a hash table.
///  * gc::Region has a non-trivial default constructor, so Instr holds no
///    unions — just pool indices; the pools hold the typed payloads.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_VM_BYTECODE_H
#define SCAV_VM_BYTECODE_H

#include "gc/Term.h"

#include <string>
#include <vector>

namespace scav::vm {

/// One opcode per λGC step rule (Let is split by its operation, typecase
/// by whether the scrutinee tag was statically known).
enum class Opcode : uint8_t {
  LetVal,
  LetProj1,
  LetProj2,
  LetPut,
  LetGet,
  LetStrip,
  LetPrim,
  Call,
  Halt,
  IfGc,
  OpenTag,
  OpenTyVar,
  OpenRegion,
  LetRegion,
  Only,
  Typecase,
  /// `typecase` whose scrutinee tag is a compile-time constant: the branch
  /// and its binder tags are pre-resolved (seeded from SpecializeCopy's
  /// static-tag specialization idea). Still counts a TypecaseStep.
  TypecaseStatic,
  IfLeft,
  Set,
  LetWiden,
  IfReg,
  If0,
};

const char *opcodeName(Opcode Op);

/// Which of the four variable sorts a frame slot / scope entry holds.
enum class Sort : uint8_t { Val, Tag, Type, Region };

/// One runtime frame cell. The sort is known statically from the operand
/// that reads the slot, so values/tags/types share one pointer; regions
/// (not a pointer type) get their own member.
///
/// Compact-heap fast path (DESIGN.md §3.12): a Val-sort cell may hold a raw
/// heap word instead of a `const Value *`. The two are distinguished by the
/// tag nibble — arena pointers never set bits 60..63, every non-Hole word
/// does. WordRegion is the dense region id whose Aux table a Pair/InlAux/
/// InrAux word's payload indexes; it is written together with every word
/// store and meaningless when Ptr holds a real pointer.
struct FrameCell {
  const void *Ptr = nullptr;
  gc::Region Reg;
  uint32_t WordRegion = 0;
};

/// Compile-time binding used by template materialization: symbol → frame
/// slot, innermost binder first. Lists are short (only symbols that occur
/// in the template), so the runtime lookup is a linear scan — no hashing.
struct BindSpec {
  gc::Symbol Sym;
  Sort S = Sort::Val;
  uint32_t Slot = 0;
};

/// A value operand, classified at compile time against the lexical scope:
///
///  * Const — no in-scope symbol occurs anywhere in the node: the env
///    machine's close would return it unchanged (even if it has free
///    variables — they would be unbound there too), so the original node
///    is used verbatim. This keeps stuck diagnostics byte-identical.
///  * Slot  — the operand is exactly an in-scope variable: one frame load.
///  * Fast  — a binder-free constructor template (pairs / inl / inr over
///    ints, addresses, and variables): rebuilt by a tiny recursive
///    materializer with a linear-scan bind list.
///  * Tpl   — a constructor template containing existential packages or
///    translucent applications (the collector's hot-path values): compiled
///    to a TplNode tree whose type/tag/region-set attachments are resolved
///    through a per-operand inline cache (see TplInfo), so steady-state
///    materialization rebuilds only the value spine.
///  * Slow  — anything else with binders (code values): a restricted Subst
///    is built from the bind list and gc::closeValue runs, which handles
///    shadow masking exactly as the env machine does.
struct ValOperand {
  enum class K : uint8_t { Const, Slot, Fast, Tpl, Slow };
  K Kind = K::Const;
  uint32_t Slot = 0; ///< Slot: frame slot. Tpl: TplInfo pool index.
  const gc::Value *V = nullptr;
  uint32_t BindsBegin = 0, BindsEnd = 0; ///< [begin, end) into Chunk::Binds
};

/// A tag operand. Const tags are pre-normalized at compile time — sound
/// because every tag that enters a frame is already β-normal (App and
/// open-as-tag normalize witnesses; typecase binds subterms of normal
/// forms), which is the same invariant the env machine maintains.
struct TagOperand {
  enum class K : uint8_t { Const, Slot, Slow };
  K Kind = K::Const;
  uint32_t Slot = 0;
  const gc::Tag *T = nullptr;
  uint32_t BindsBegin = 0, BindsEnd = 0;
};

/// A region operand. Const covers both concrete names and out-of-scope
/// variables — the latter reach the use site unresolved and produce the
/// interpreter's exact "unresolved region variable" diagnostics.
struct RegOperand {
  enum class K : uint8_t { Const, Slot };
  K Kind = K::Const;
  uint32_t Slot = 0;
  gc::Region R;
};

/// Pooled payload of a Call instruction: operand indices per parameter
/// sort, plus a monomorphic inline cache (code value pointer → compiled
/// chunk) maintained by the executor.
struct CallSite {
  std::vector<uint32_t> Tags;    ///< TagOperand indices
  std::vector<uint32_t> Regions; ///< RegOperand indices
  std::vector<uint32_t> Args;    ///< ValOperand indices
  mutable const gc::Value *CachedCode = nullptr;
  mutable const void *CachedChunk = nullptr;
};

/// Pooled payload of Typecase / TypecaseStatic: the four branch targets,
/// the binder slots of the prod / exists branches, and — for the static
/// form — the pre-resolved case and binder tags.
struct TypecaseInfo {
  uint32_t IntT = 0, ArrowT = 0, ProdT = 0, ExistsT = 0;
  uint32_t ProdSlot1 = 0, ProdSlot2 = 0, ExistsSlot = 0;
  gc::TagKind StaticKind = gc::TagKind::Int;
  const gc::Tag *StaticA = nullptr; ///< prod left / exists λ-closure
  const gc::Tag *StaticB = nullptr; ///< prod right
};

/// Pooled payload of Only: the keep set. When every element is Const the
/// original (already canonically sorted) RegionSet is reused without
/// rebuilding; otherwise the set is rebuilt from per-element operands.
struct RegSetOp {
  gc::RegionSet Set;
  bool AllConst = true;
  std::vector<uint32_t> Elems; ///< RegOperand indices, one per element
};

/// One node of a compiled constructor template (ValOperand::K::Tpl). The
/// value spine (pairs, injections, package payloads) is rebuilt on every
/// materialization; type-level attachments — pack witnesses, body types,
/// region-set deltas — are read from the owning TplInfo's attachment cache,
/// which is refreshed only when one of the frame slots the type layer
/// depends on changes. Soundness: λGC types never contain values, so closed
/// types depend only on the tag/type/region slots captured in the cache
/// key; the substitution itself is the same closeTag/closeType the env
/// machine runs, with pack-binder masking resolved at compile time (close*'s
/// binder policy masks, it never renames).
struct TplNode {
  enum class K : uint8_t {
    Const,      ///< verbatim arena node (no in-scope symbol occurs)
    Slot,       ///< in-scope Val variable: one frame load
    Pair,       ///< A=first, B=second
    Inl,        ///< A=payload
    Inr,        ///< A=payload
    PackTag,    ///< A=payload, Att1=witness tag, Att2=body type
    PackTyVar,  ///< A=payload, Att1=witness type, Att2=body type, Att3=delta
    PackRegion, ///< A=payload, Reg=witness region op, Att2=body, Att3=delta
    TransApp,   ///< A=payload, Att1=Trans attachment (cached argument block)
  };
  K Kind = K::Const;
  const gc::Value *V = nullptr; ///< source node (binder symbol, Const value)
  uint32_t Slot = 0;
  uint32_t A = 0, B = 0;            ///< child TplNode indices
  uint32_t Att1 = 0, Att2 = 0;      ///< attachment ordinals (CachedAtts)
  uint32_t Att3 = 0;                ///< delta ordinal (CachedDeltas)
  uint32_t Reg = 0;                 ///< PackRegion: RegOperand index
  uint32_t ArgsBegin = 0, ArgsEnd = 0, NumTags = 0; ///< TransApp arg range
};

/// One cached type-layer attachment of a Tpl operand: a tag or type
/// template closed against the binds range, a region-set delta rebuilt
/// from per-element region operands, or a TransApp argument block (the
/// pinned ~τ/~ρ vectors, shared by every value built from the cache).
/// Binds exclude the owning pack's binder symbol (compile-time masking).
struct TplAtt {
  enum class K : uint8_t { Tag, Type, Delta, Trans };
  K Kind = K::Tag;
  const void *Node = nullptr; ///< Tag* / Type* template; Delta/Trans: unused
  uint32_t BindsBegin = 0, BindsEnd = 0; ///< Tag/Type: Chunk::Binds range
  uint32_t Ord = 0; ///< CachedAtts index (Tag/Type/Trans), CachedDeltas (Delta)
  // Delta: element RegOperand indices; AllConst reuses Set verbatim.
  // Trans: NumTags tag-attachment ordinals, then RegOperand indices.
  uint32_t ArgsBegin = 0, ArgsEnd = 0; ///< [begin,end) into Chunk::TplArgs
  uint32_t NumTags = 0;                ///< Trans only
  const gc::RegionSet *Set = nullptr;  ///< Delta: the template's own set
  bool AllConst = true;
};

/// One resolved attachment set of a Tpl operand, keyed by the contents of
/// the operand's key slots at resolution time. Atts/Deltas hold
/// arena-allocated nodes: values built from the cache reference them by
/// pointer, so entries are immutable once built (eviction just forgets
/// the pointers; the arena keeps the nodes alive).
struct TplCacheEntry {
  std::vector<FrameCell> Key;
  std::vector<const void *> Atts; ///< Tag* / Type* / TransData* by ordinal
  std::vector<const gc::RegionSet *> Deltas;
};

/// The per-operand payload of a Tpl value operand: the root node, the
/// attachment list, and a small MRU cache. Key slots are the union of every
/// frame slot the attachments read; when their contents match a cached
/// entry's key, that entry's attachments are reused without running a
/// substitution. The cache holds several entries because collector loops
/// alternate between the few tag shapes of the scanned heap (int cell,
/// pair cell, ...) — a single entry would ping-pong and re-close per step.
struct TplInfo {
  /// Distinct key contents a Tpl operand sees in steady state is bounded by
  /// the scanned heap's tag alphabet; 4 covers every λGC level's collector.
  static constexpr size_t MaxCacheEntries = 4;

  uint32_t Root = 0;
  uint32_t AttsBegin = 0, AttsEnd = 0; ///< [begin,end) into Chunk::TplAtts
  uint32_t KeyBegin = 0, KeyEnd = 0;   ///< key slots, Chunk::Binds range
  uint32_t NumAtts = 0, NumDeltas = 0;
  // Inline cache (single-threaded executor, like CallSite's code cache),
  // most-recently-used first.
  mutable std::vector<TplCacheEntry> Cache;
};

/// A node of the compile-time scope chain: which symbol the enclosing
/// binder bound, at which slot, of which sort. Instr::Scope points at the
/// innermost node in effect when the instruction executes; walking Parent
/// links innermost→outermost and keeping the first occurrence per symbol
/// reconstructs exactly the env machine's environment — which is how
/// currentTerm() rebuilds the paper's substituted (M, e) state.
struct ScopeNode {
  int32_t Parent = -1;
  gc::Symbol Sym;
  Sort S = Sort::Val;
  uint32_t Slot = 0;
};

/// One instruction. Field meaning by opcode (all pool indices):
///
///   LetVal/LetProj1/LetProj2/LetGet/LetStrip  A=val  B=dest slot
///   LetPrim       A=lhs val  B=rhs val  C=dest slot  Small=PrimOp
///   LetPut        A=val      B=region   C=dest slot
///   Call          A=fun val  B=CallSite
///   Halt          A=val
///   IfGc          A=region   B=then pc  C=else pc
///   OpenTag/OpenTyVar/OpenRegion  A=val  B=witness slot  C=payload slot
///   LetRegion     A=dest slot  Sym=binder (region base name)
///   Only          A=RegSetOp
///   Typecase(+Static)  A=tag  B=TypecaseInfo
///   IfLeft        A=val  B=dest slot  C=then pc  D=else pc
///   Set           A=dst val  B=src val
///   LetWiden      A=val  B=to-region  C=dest slot
///   IfReg         A=lhs region  B=rhs region  C=then pc  D=else pc
///   If0           A=val  B=then pc  C=else pc
///
/// Non-branching instructions fall through to PC+1 (their continuation is
/// laid out immediately after); Call and Halt terminate the chunk's path.
struct Instr {
  Opcode Op = Opcode::Halt;
  uint8_t Small = 0;
  uint32_t A = 0, B = 0, C = 0, D = 0;
  gc::Symbol Sym;
  /// The original subterm this instruction was lowered from: the anchor
  /// for trace step events, diagnostics, and currentTerm reconstruction.
  const gc::Term *Src = nullptr;
  /// Scope chain in effect when this instruction executes (-1 = empty).
  int32_t Scope = -1;
};

/// A compiled code body (or main term): the instruction vector plus every
/// pool it indexes. Compiled once per Code value and cached by the
/// executor; pointers into the GcContext arena (operand nodes, Src terms,
/// pre-normalized tags) stay valid for the context's lifetime.
struct Chunk {
  std::vector<Instr> Code;
  std::vector<ValOperand> ValOps;
  std::vector<TagOperand> TagOps;
  std::vector<RegOperand> RegOps;
  std::vector<BindSpec> Binds;
  std::vector<CallSite> Calls;
  std::vector<TypecaseInfo> Typecases;
  std::vector<RegSetOp> RegSets;
  std::vector<ScopeNode> Scopes;
  std::vector<TplNode> Tpls;
  std::vector<TplAtt> TplAtts;
  std::vector<uint32_t> TplArgs;
  std::vector<TplInfo> TplInfos;
  uint32_t NumSlots = 0;
  uint32_t NumTagParams = 0, NumRegionParams = 0, NumValParams = 0;
  const gc::Value *CodeVal = nullptr; ///< null for a main-term chunk
  std::string Label;                  ///< cd label / "main" (disassembly)
};

} // namespace scav::vm

#endif // SCAV_VM_BYTECODE_H
