//===- vm/Lower.h - λGC AST → flat bytecode compiler -----------*- C++ -*-===//
///
/// \file
/// Lowerer compiles an arena λGC term (a main program or a closure-converted
/// code body) into a vm::Chunk. Lowering is purely syntax-directed and runs
/// once per code value; see Bytecode.h for the invariants the output obeys
/// and DESIGN.md §3.10 for the instruction set table.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_VM_LOWER_H
#define SCAV_VM_LOWER_H

#include "vm/Bytecode.h"

#include "gc/GcContext.h"
#include "gc/Ops.h"

#include <memory>
#include <optional>
#include <string>

namespace scav::vm {

/// Compiles terms / code values to chunks. Stateless between top-level
/// calls; one instance can lower any number of chunks against one context.
class Lowerer {
public:
  explicit Lowerer(gc::GcContext &C) : C(C) {}

  /// Lowers a whole program term (empty initial scope).
  std::unique_ptr<Chunk> lowerMain(const gc::Term *E,
                                   std::string Label = "main");

  /// Lowers a code value's body with its tag/region/value parameters bound
  /// to frame slots 0..n-1 (tags first, then regions, then values — the
  /// argument-materialization order used by the Call instruction).
  std::unique_ptr<Chunk> lowerCode(const gc::Value *Code, std::string Label);

private:
  struct ScopeEntry {
    gc::Symbol Sym;
    Sort S;
    uint32_t Slot;
  };
  struct ScopeMark {
    size_t StackSize;
    int32_t Top;
  };

  uint32_t newSlot() { return Out->NumSlots++; }

  ScopeMark markScope() const { return {Stack.size(), Top}; }
  void resetScope(ScopeMark M) {
    Stack.resize(M.StackSize);
    Top = M.Top;
  }
  void pushScope(gc::Symbol Sym, Sort S, uint32_t Slot);
  std::optional<uint32_t> lookup(gc::Symbol Sym, Sort S) const;

  bool anyScopeSym(const gc::SymbolSet &Syms, bool TagSortOnly) const;
  std::pair<uint32_t, uint32_t> collectBinds(const gc::SymbolSet &Syms,
                                             bool ValSortOnly);

  uint32_t addVal(const gc::Value *V);
  uint32_t addTag(const gc::Tag *T);
  uint32_t addReg(gc::Region R);

  /// Scratch state while compiling one Tpl operand: attachment/delta
  /// ordinal counters and the deduplicated set of key slots.
  struct TplBuild {
    uint32_t NumAtts = 0, NumDeltas = 0;
    std::vector<std::pair<Sort, uint32_t>> KeySlots;
    void key(Sort S, uint32_t Slot) {
      for (auto &[KS, KSlot] : KeySlots)
        if (KS == S && KSlot == Slot)
          return;
      KeySlots.emplace_back(S, Slot);
    }
  };
  /// The optional compile-time mask: a pack binder symbol excluded from
  /// substitution inside its own body type (close*'s binder policy masks,
  /// never renames, so this is exactly equivalent).
  using TplMask = std::optional<std::pair<gc::Symbol, Sort>>;

  uint32_t compileTpl(const gc::Value *V);
  uint32_t buildTplNode(const gc::Value *V, TplBuild &B);
  std::pair<uint32_t, uint32_t> typedBinds(const gc::SymbolSet &Syms,
                                           TplMask Mask, TplBuild &B);
  uint32_t addTplAttTag(const gc::Tag *T, TplBuild &B);
  uint32_t addTplAttType(const gc::Type *T, TplMask Mask, TplBuild &B);
  uint32_t addTplAttDelta(const gc::RegionSet &RS, TplBuild &B);

  uint32_t emit(Instr I);
  uint32_t compileTerm(const gc::Term *E);

  gc::GcContext &C;
  Chunk *Out = nullptr;
  std::vector<ScopeEntry> Stack; ///< lexical scope, innermost at the back
  int32_t Top = -1;              ///< current Chunk::Scopes chain head
};

} // namespace scav::vm

#endif // SCAV_VM_LOWER_H
