//===- vm/Vm.h - Bytecode execution backend for the λGC machine -*- C++ -*-===//
///
/// \file
/// VmExec is the gc::ExecBackend behind MachineConfig::EvalMode::Vm: it
/// lowers terms to vm::Chunk bytecode (lazily, cached per code value) and
/// drives a tight switch-dispatch loop. The Machine keeps ownership of every
/// observable — memory, Ψ, stats, status, journal — and the VM calls back
/// into the same Machine primitives (put/get/update, recordPut, applyOnly,
/// applyWiden, stuck, trace helpers) the interpreted modes use, so the two
/// engines cannot drift at the region-operation boundary.
///
/// Usage: construct with the machine (attaches itself), then drive the
/// machine normally; destroy before the machine (detaches itself).
///
///   gc::Machine M(C, Level, Cfg);       // Cfg.Eval == EvalMode::Vm
///   vm::VmExec Vm(M);
///   M.start(Program);
///   M.run(Budget);
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_VM_VM_H
#define SCAV_VM_VM_H

#include "vm/Bytecode.h"
#include "vm/Lower.h"

#include "gc/Machine.h"

#include <memory>
#include <string_view>
#include <unordered_map>

namespace scav::vm {

class VmExec final : public gc::ExecBackend {
public:
  /// Attaches itself to \p M as the execution backend.
  explicit VmExec(gc::Machine &M);
  /// Detaches (if still the attached backend).
  ~VmExec() override;

  VmExec(const VmExec &) = delete;
  VmExec &operator=(const VmExec &) = delete;

  void onStart(const gc::Term *E) override;
  gc::Machine::Status step() override;
  gc::Machine::Status run(uint64_t MaxSteps) override;
  const gc::Term *currentTerm() const override;
  void exportMetrics(support::MetricsRegistry &Reg) const override;

  /// The (cached) chunk for a main term / code value; compiles on first
  /// request. Keys are node pointers — sound for code values because cd
  /// cells are never rewritten, and for main terms because the driver owns
  /// the term for the machine's lifetime.
  const Chunk *chunkForTerm(const gc::Term *E);
  const Chunk *chunkForCode(const gc::Value *Code, std::string_view Label);

  /// Every chunk compiled so far, keyed by its source node (tests and
  /// offline disassembly).
  const std::unordered_map<const void *, std::unique_ptr<Chunk>> &
  chunks() const {
    return Chunks;
  }

  // Compile/run metrics (also exported as "vm.*" via exportMetrics).
  uint64_t vmSteps() const { return VmSteps; }
  uint64_t lowerNs() const { return LowerNs; }
  uint64_t chunksCompiled() const { return NumChunks; }
  uint64_t instrsCompiled() const { return NumInstrs; }
  uint64_t staticTypecaseSteps() const { return StaticTypecaseSteps; }

private:
  gc::Machine::Status execOne();

  const gc::Value *materialize(const ValOperand &Op);
  const gc::Value *matFast(const gc::Value *V, uint32_t BindsBegin,
                           uint32_t BindsEnd);
  const gc::Value *matSlow(const ValOperand &Op);
  const gc::Value *matTpl(const ValOperand &Op);
  const TplCacheEntry &refreshTpl(const TplInfo &TI);
  const gc::Value *buildTpl(const TplInfo &TI, const TplCacheEntry &E,
                            uint32_t Id);
  const gc::Tag *materializeTag(const TagOperand &Op);
  /// Compact-heap put/set fast path: encode the operand straight to a
  /// tagged word in \p RD (no Value materialization for templates).
  /// \returns false for operand kinds that must take the slow path.
  bool tryEncodeOperand(const ValOperand &Op, gc::RegionData &RD,
                        uint64_t &W);
  uint64_t encodeFastWord(const gc::Value *V, uint32_t BindsBegin,
                          uint32_t BindsEnd, gc::RegionData &RD);
  uint64_t encodeTplWord(const TplInfo &TI, const TplCacheEntry &E,
                         uint32_t Id, gc::RegionData &RD);

  // Word frame slots (FastHeap): a Val-sort cell whose Ptr bits carry a
  // nonzero tag nibble holds a raw heap word (see FrameCell). The VM's
  // get/proj/strip/ifleft/if0/prim/put/set chains stay word-level; a word
  // decodes to a Value only when a generic consumer asks for one.
  static bool isWordCell(const FrameCell &FC) {
    return (reinterpret_cast<uintptr_t>(FC.Ptr) >> gc::heapword::TagShift) !=
           0;
  }
  static uint64_t wordOf(const FrameCell &FC) {
    return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(FC.Ptr));
  }
  static const void *wordPtr(uint64_t W) {
    return reinterpret_cast<const void *>(static_cast<uintptr_t>(W));
  }
  /// Stores word \p W (owned by \p RD) into \p FC; Box words store the
  /// boxed Value pointer directly, so Box never appears in a frame slot.
  void storeWord(FrameCell &FC, uint64_t W, const gc::RegionData &RD);
  /// Decodes \p FC's word to a Value without caching (const consumers).
  const gc::Value *decodeSlotWord(const FrameCell &FC) const;
  /// Decodes a word slot to a Value and caches the pointer back into the
  /// slot; plain passthrough for pointer slots.
  const gc::Value *slotValue(uint32_t Slot);
  /// Re-encodes the word held in \p FC for storage into \p RD.
  uint64_t transcodeSlot(const FrameCell &FC, gc::RegionData &RD);
  /// Decodes every live aux-dependent word slot before `only` can drop the
  /// region that owns its Aux table (Int/Addr payloads are inline and
  /// survive any reclaim).
  void decodeFrameWords();
  gc::Region materializeReg(const RegOperand &Op) const {
    return Op.Kind == RegOperand::K::Slot ? Frame[Op.Slot].Reg : Op.R;
  }

  void noteChunk(const Chunk &Ch);

  gc::Machine &M;
  gc::GcContext &C;
  Lowerer Lower;

  /// Word-direct put/set are sound only when cells need no Ψ tracking at
  /// write time: TrackTypes off (recordPut is a no-op).
  const bool FastHeap;

  /// Node pointer (Term or code Value) → compiled chunk.
  std::unordered_map<const void *, std::unique_ptr<Chunk>> Chunks;

  const Chunk *Cur = nullptr;
  uint32_t PC = 0;
  std::vector<FrameCell> Frame;
  /// Callee-frame staging buffer; swapped with Frame at Call. Reading
  /// argument operands from the old frame while writing the new one into a
  /// separate buffer is what makes wholesale frame replacement safe.
  std::vector<FrameCell> Scratch;

  uint64_t VmSteps = 0;
  uint64_t LowerNs = 0;
  uint64_t NumChunks = 0;
  uint64_t NumInstrs = 0;
  uint64_t StaticTypecaseSteps = 0;
  uint64_t FrameSlotsPeak = 0;
  uint64_t TplHits = 0;
  uint64_t TplMisses = 0;
};

} // namespace scav::vm

#endif // SCAV_VM_VM_H
