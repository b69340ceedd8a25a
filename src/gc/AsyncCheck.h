//===- gc/AsyncCheck.h - Pipelined state certification ---------*- C++ -*-===//
///
/// \file
/// Runs the incremental state checker on a dedicated thread, pipelined
/// behind the mutator (DESIGN.md §3.11). The mutator never shares mutable
/// state with the checker; instead, at every would-be check point it
/// *captures* a CheckUnit — the delta since the previous capture: the
/// journal slice, per-region dirty offsets + appended cells (pointers to
/// immutable machine-arena nodes), and the raw (term, environment) pair —
/// and pushes it onto a bounded SPSC queue. The checker thread replays each
/// unit into a private mirror (Memory + Ψ + an *observer* GcContext that
/// shares only the thread-safe SymbolTable) and runs the ordinary
/// IncrementalStateCheck engine over the mirror via the CheckSubject seam.
///
/// Because the engine, its iteration order, and its fresh-name namespace
/// are all deterministic functions of the subject state, the verdict, the
/// failing cell, and the diagnostic are identical to what a synchronous
/// checker would have produced at the same step — byte-identical up to the
/// spelling of freshly minted bound type variables (the normalization memo
/// is per-context, so the mirror can re-mint an M-unfold binder the
/// machine context had already named; the printed types are then
/// alpha-equivalent, not alpha-identical). A failure verdict carries the
/// capture-time step count, so the driver reports the violation at the
/// same step a synchronous run would have stopped at, even though the
/// mutator has raced ahead in the meantime.
///
/// Backpressure and the lag safety net: a full queue blocks capture for at
/// most PushTimeoutMs; on timeout the mutator falls back to a synchronous
/// full checkState (so certification is never unboundedly stale), drops
/// the unit, and marks the session so the next capture ships a full-state
/// snapshot that resyncs the mirror (ResyncEvery-style).
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_GC_ASYNCCHECK_H
#define SCAV_GC_ASYNCCHECK_H

#include "gc/StateCheck.h"
#include "support/SpscQueue.h"

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

namespace scav::gc {

/// Per-region delta of one capture window. All Value/Type pointers are
/// machine-arena nodes: immutable once built and never reclaimed during a
/// run, so the checker thread may read them freely.
struct RegionDelta {
  Symbol S;
  /// Wholesale replacement (widen rewrote the region in place without
  /// dirty-logging; or a dirty log overflowed and forgot its offsets).
  bool Snapshot = false;
  /// Snapshot=true: the overflow flags to reproduce on the mirror (a
  /// widen needs none — its journal event already invalidates the region).
  bool MemOverflow = false;
  bool PsiOverflow = false;
  /// Which sides exist machine-side at capture. Normally both; a forged
  /// state can have one without the other, and the mirror must reproduce
  /// the mismatch so the engine's domain check fails identically.
  bool HasMem = true;
  bool HasPsi = true;
  /// Snapshot=true: the full cell/Ψ contents. Snapshot=false: unused.
  std::vector<const Value *> SnapCells;
  std::vector<const Type *> SnapPsi;
  /// Snapshot=false: cells appended this window...
  std::vector<const Value *> Tail;
  /// ...in-place overwrites (offset, new value)...
  std::vector<std::pair<uint32_t, const Value *>> Dirty;
  /// ...and the same for Ψ.
  std::vector<const Type *> PsiTail;
  std::vector<std::pair<uint32_t, const Type *>> PsiDirty;
};

/// Everything the checker needs to reproduce the machine state at one
/// check point. Built on the mutator thread, consumed on the checker
/// thread; ownership moves through the queue.
struct CheckUnit {
  uint64_t Index = 0; ///< 0 = the attach check ("initial state").
  uint64_t Steps = 0; ///< Machine steps at capture (verdict attribution).
  /// Rebuild the mirror wholesale from the deltas (external mutation made
  /// the journal/dirty contract unable to say what changed, or a lag
  /// resync dropped a unit) and invalidate the engine.
  bool FullSnapshot = false;
  bool TypeTrackingOk = true;
  std::string TypeTrackingError;
  /// Raw (unforced) term state; forcing runs on the checker thread in the
  /// mirror's observer context.
  const Term *Cur = nullptr;
  Subst Env;
  std::vector<DeltaEvent> Journal;
  std::vector<RegionDelta> Deltas;
};

/// The checker thread's private replica of the machine state, fed by
/// CheckUnits. Satisfies CheckSubject, so the stock IncrementalStateCheck
/// runs over it unchanged — same caches, same dirty-log consumption, same
/// diagnostics. Its Memory is an ordinary word heap over the observer
/// context, written only through Memory's own members; every cell keeps the
/// machine's decoded Value pointer, so the checker never decodes a word.
class MirrorSubject final : public CheckSubject {
public:
  /// \p MachineCtx is used only for its SymbolTable: the mirror's context
  /// is an observer (shared symbols, private arena/interner, no canonical
  /// marking — pointer *in*equality between two contexts' interned nodes
  /// means nothing, so the observer's nodes fall back to structural
  /// comparison against machine nodes).
  MirrorSubject(GcContext &MachineCtx, LanguageLevel Level);

  /// Replays one unit: appends its journal slice, applies structural
  /// create/drop events, then the per-region deltas. After apply(), the
  /// mirror's own dirty logs/versions describe exactly the window's
  /// writes, which is what the engine's collectDirty consumes.
  void apply(CheckUnit &U);

  GcContext &context() override { return Ctx; }
  LanguageLevel level() const override { return Lvl; }
  Memory &memory() override { return Mem; }
  const Memory &memory() const override { return Mem; }
  MemoryType &psi() override { return Psi; }
  const MemoryType &psi() const override { return Psi; }
  const Term *currentTerm() const override;
  bool typeTrackingOk() const override { return TtOk; }
  std::string typeTrackingError() const override { return TtErr; }
  void enableDeltaJournal() override {} // always on
  uint64_t journalEnd() const override { return JBase + J.size(); }
  const DeltaEvent &journalEvent(uint64_t AbsIdx) const override {
    return J[static_cast<size_t>(AbsIdx - JBase)];
  }
  void trimJournal(uint64_t UpToAbs) override;

private:
  void applyDelta(const RegionDelta &D);

  GcContext Ctx;
  LanguageLevel Lvl;
  Memory Mem;
  MemoryType Psi;
  bool TtOk = true;
  std::string TtErr;
  const Term *Cur = nullptr;
  Subst Env;
  std::deque<DeltaEvent> J;
  uint64_t JBase = 0;
};

/// One check outcome. Ok=false carries the diagnostic and where it applies.
struct AsyncVerdict {
  bool Ok = true;
  uint64_t UnitIndex = 0;
  uint64_t Steps = 0;
  std::string Error;

  bool initial() const { return UnitIndex == 0; }
};

struct AsyncCheckStats {
  uint64_t UnitsCaptured = 0;
  uint64_t UnitsChecked = 0;
  /// Units shipped as full-state snapshots (external mutation / lag).
  uint64_t Snapshots = 0;
  /// Push timeouts that fell back to a synchronous full checkState.
  uint64_t LagResyncs = 0;
  /// Queue depth percentiles over all successful pushes.
  uint64_t QueueDepthP50 = 0;
  uint64_t QueueDepthP99 = 0;
  uint64_t QueueDepthMax = 0;
  /// The engine's own counters (checker.* schema), from the mirror run.
  IncrementalCheckStats Engine;

  /// Publishes under "check.async.*" plus the engine's "checker.*".
  void exportTo(support::MetricsRegistry &Reg) const {
    Reg.setCounter("check.async.units", UnitsCaptured);
    Reg.setCounter("check.async.units_checked", UnitsChecked);
    Reg.setCounter("check.async.snapshots", Snapshots);
    Reg.setCounter("check.async.lag_resyncs", LagResyncs);
    Reg.setGauge("check.async.queue_depth_p50",
                 static_cast<double>(QueueDepthP50));
    Reg.setGauge("check.async.queue_depth_p99",
                 static_cast<double>(QueueDepthP99));
    Reg.setGauge("check.async.queue_depth_max",
                 static_cast<double>(QueueDepthMax));
    Engine.exportTo(Reg);
  }
};

/// Owns the queue, the checker thread, and the machine-side capture
/// cursors. One session per run; construct after Machine::start at the
/// point a synchronous checker would attach, then call capture() exactly
/// where the synchronous run would have called check().
class AsyncCheckSession {
public:
  struct Options {
    IncrementalCheckOptions Check;
    /// Units in flight before capture blocks (then the lag net fires).
    size_t QueueCapacity = 256;
    uint32_t PushTimeoutMs = 100;
  };

  AsyncCheckSession(Machine &M, Options Opts);
  ~AsyncCheckSession();

  AsyncCheckSession(const AsyncCheckSession &) = delete;
  AsyncCheckSession &operator=(const AsyncCheckSession &) = delete;

  /// Captures the current machine state as the next CheckUnit and ships
  /// it. Returns false once a failure verdict exists (the caller should
  /// stop stepping and call finish()); capture itself cannot fail.
  bool capture();

  /// True as soon as some checked unit failed (cheap; polled per step).
  bool failed() const;

  /// Closes the queue, drains the checker, joins the thread, and returns
  /// the final verdict: the *earliest* failing unit if any — which, by
  /// construction, is the verdict a synchronous checker would have stopped
  /// on — else Ok. Idempotent.
  AsyncVerdict finish();

  /// Valid after finish().
  const AsyncCheckStats &stats() const { return Stats; }

private:
  struct CaptureCursor {
    size_t MemCells = 0;
    size_t PsiCells = 0;
  };

  void buildUnit(CheckUnit &U);
  void recordFailure(AsyncVerdict V);
  void checkerLoop();

  Machine &M;
  Options Opts;
  AsyncCheckStats Stats;
  SpscQueue<CheckUnit> Queue;
  std::thread Checker;
  uint64_t NextIndex = 0;
  uint64_t CaptureJCursor = 0;
  bool PendingResync = false;
  bool Finished = false;
  std::unordered_map<Symbol, CaptureCursor, SymbolHash> Cursors;
  std::vector<uint64_t> DepthSamples;

  // Checker-thread state, joined back at finish().
  std::unique_ptr<MirrorSubject> Mirror;
  std::unique_ptr<IncrementalStateCheck> Engine;

  // Verdict slot (first failure wins; written by either thread under Mu —
  // the checker on a failed unit, the mutator on a failed lag-net check).
  mutable std::mutex Mu;
  std::optional<AsyncVerdict> Failure;
  std::atomic<bool> FailedFlag{false};
};

} // namespace scav::gc

#endif // SCAV_GC_ASYNCCHECK_H
