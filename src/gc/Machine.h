//===- gc/Machine.h - Small-step allocation semantics (Fig 5) --*- C++ -*-===//
///
/// \file
/// Executes machine states P = (M, e) by the small-step rules of Fig 5 plus
/// the λGC-forw (§7) and λGC-gen (§8) extensions. The machine additionally
/// maintains the memory-type witness Ψ (⊢ M : Ψ) incrementally:
///
///   * `put` records the inferred type of the stored value;
///   * `set` keeps the cell's type (the new value is re-checked against it
///     by the state checker via sum subsumption — this is what makes
///     installing forwarding pointers type-safe);
///   * `widen` rewrites Ψ with the T_{ν,ν'} iterator of Lemma C.8, turning
///     every mutator-view cell type into its collector (C) view;
///   * `only` restricts Ψ alongside M.
///
/// The paper's `ifgc ρ e1 e2` steps to e1 "if ρ is full": regions carry a
/// soft capacity (MachineConfig::DefaultRegionCapacity) that only drives
/// this test; allocation itself never fails.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_GC_MACHINE_H
#define SCAV_GC_MACHINE_H

#include "gc/Memory.h"
#include "gc/Ops.h"
#include "gc/TypeCheck.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace scav::vm {
class VmExec;
} // namespace scav::vm

namespace scav::gc {

class ExecBackend;

/// How the machine executes binding steps (App/Let/open/typecase/...).
enum class EvalMode {
  /// Fig 5 verbatim: build a substitution and rewrite the entire
  /// continuation term at every step — O(steps × term size).
  Subst,
  /// Environment machine: keep the continuation shared, thread a persistent
  /// environment of *closed* bindings (O(1) extend), and resolve variable
  /// occurrences at their use sites. Substitution is forced only where a
  /// closed term must escape the step loop: halt values, values stored by
  /// `put`/`set`, diagnostics, and the Ψ/state-check boundary
  /// (currentTerm()), so checkState still sees the paper's (M, e) states.
  Env,
  /// Bytecode VM: terms are lowered once to flat, enum-tagged instructions
  /// with environment slots resolved to frame indices at compile time
  /// (src/vm/), and steps are executed by a tight dispatch loop. Requires
  /// an attached ExecBackend (vm::VmExec does this in its constructor);
  /// region operations, Ψ maintenance, the delta journal, and both state
  /// checkers run unchanged — the backend calls back into the same Machine
  /// primitives the interpreted modes use.
  Vm,
};

inline const char *evalModeName(EvalMode M) {
  switch (M) {
  case EvalMode::Subst:
    return "subst";
  case EvalMode::Env:
    return "env";
  case EvalMode::Vm:
    return "vm";
  }
  return "unknown";
}

/// The one place an eval-mode name is parsed: drivers (certgc_run
/// --eval-mode / SCAV_EVAL_MODE), tests, and fuzz replay lines all go
/// through this. Returns nullopt for anything but "env" / "subst" / "vm".
inline std::optional<EvalMode> parseEvalMode(std::string_view S) {
  if (S == "env")
    return EvalMode::Env;
  if (S == "subst")
    return EvalMode::Subst;
  if (S == "vm")
    return EvalMode::Vm;
  return std::nullopt;
}

struct MachineConfig {
  /// Soft capacity (in cells) for regions created by `let region`;
  /// 0 = unlimited (ifgc never fires).
  uint32_t DefaultRegionCapacity = 0;
  /// Heap-growth policy (Appel-style semispace sizing): after an `only`
  /// step, each surviving data region's capacity becomes
  /// max(DefaultRegionCapacity, HeapGrowthFactor × live-cells). Without
  /// this, a live set ≥ capacity livelocks the mutator in back-to-back
  /// collections (made worse at the Base level, where every collection
  /// *grows* the heap by duplicating shared objects — E1). Set to 0 to
  /// disable growth (used by tests that want exact capacities).
  uint32_t HeapGrowthFactor = 2;
  /// Maintain Ψ (needed by the soundness harness; disable for raw
  /// throughput benchmarks).
  bool TrackTypes = true;
  /// Evaluation strategy. Env is the default; Subst is retained for
  /// differential testing (tests/gc_machine_env_diff_test) and as the
  /// baseline of bench/e11_steprate; Vm requires an attached backend
  /// (vm::VmExec) and is differential-tested three ways in
  /// tests/gc_machine_vm_diff_test.
  EvalMode Eval = EvalMode::Env;
};

/// One entry of the per-step delta journal (Machine::enableDeltaJournal):
/// the structural events a state-checking consumer cannot recover from the
/// memory / Ψ dirty logs alone — region lifecycle, whole-region Ψ rewrites,
/// and out-of-band mutation. Cell-granular writes are NOT journaled here;
/// they live in the per-region dirty logs (Memory.h).
enum class DeltaKind : uint8_t {
  /// R: a fresh data region came into existence (`let region` /
  /// createRegion). Monotone — nothing previously checked is affected —
  /// but consumers need it to start tracking the region's cursors.
  RegionCreated,
  /// R: a region was reclaimed by `only` (dropped from both M and Ψ).
  /// Every cached judgment that mentioned an address in R is poisoned.
  RegionDropped,
  /// R → R2: `widen` rewrote R's Ψ cell types (the T iterator of Lemma
  /// C.8, mutator view → collector view toward R2) and the type
  /// annotations embedded in R's values. Judgments *about* R's cells and
  /// judgments that looked R's addresses up through Ψ are both stale.
  RegionWidened,
  /// Ψ and/or M were rewritten outside the machine's own step rules (the
  /// native collector does this). Consumers must resynchronize from
  /// scratch; the machine cannot say what changed.
  ExternalMutation,
};

struct DeltaEvent {
  DeltaKind Kind;
  Symbol R{};  ///< Subject region (unset for ExternalMutation).
  Symbol R2{}; ///< RegionWidened only: the to-region.
};

struct MachineStats {
  uint64_t Steps = 0;
  uint64_t Puts = 0;
  uint64_t Gets = 0;
  uint64_t Sets = 0;
  uint64_t Projections = 0;
  uint64_t Applications = 0;
  uint64_t TypecaseSteps = 0;
  uint64_t Opens = 0;
  uint64_t RegionsCreated = 0;
  uint64_t RegionsReclaimed = 0;
  uint64_t OnlyOps = 0;
  /// Total regions examined across all `only` steps: the paper's claim
  /// (§6.4/E5) is that deallocation cost is proportional to this count.
  uint64_t OnlyRegionsScanned = 0;
  uint64_t Widens = 0;
  uint64_t IfGcTaken = 0;
  uint64_t IfGcSkipped = 0;
  /// recordPut served the Ψ cell type from the shape-keyed memo instead of
  /// re-running inference (see Machine::PutTypeCache). Every tracked put
  /// counts as exactly one hit or one miss — puts with no shape key
  /// included — so the sum is the number of tracked puts.
  uint64_t RecordPutCacheHits = 0;
  uint64_t RecordPutCacheMisses = 0;
  /// Environment-mode counters (all zero in Subst mode). EnvBindings counts
  /// bindings pushed into the environment; EnvLookups counts variable
  /// occurrences resolved through it *by the machine's own step rules*;
  /// EnvForces counts close-to-substituted traversals at the machine
  /// boundary (currentTerm) and EnvForceLookups the occurrences those
  /// forces resolved; EnvDepthPeak is the largest environment ever held.
  ///
  /// EnvLookups and EnvForceLookups are deliberately separate: currentTerm
  /// is called by external observers (checkState, diagnostics, tests), so
  /// folding its lookups into EnvLookups made the counter drift with the
  /// *observation* cadence — two identical runs reported different lookup
  /// totals merely because one was checked more often. EnvLookups is now a
  /// pure function of the executed program (see trace_metrics_test).
  uint64_t EnvBindings = 0;
  uint64_t EnvLookups = 0;
  uint64_t EnvForces = 0;
  uint64_t EnvForceLookups = 0;
  uint64_t EnvDepthPeak = 0;
  /// Delta-journal events emitted (zero unless a consumer enabled the
  /// journal; see Machine::enableDeltaJournal).
  uint64_t DeltaJournalEvents = 0;

  /// Registers every counter into \p Reg under "machine." names — the
  /// typed-registry view of this struct (DESIGN.md §3.9). All reporting
  /// surfaces (certgc_run --stats/--stats-json, BenchUtil, fuzz triage)
  /// render MachineStats through this, never ad hoc.
  void exportTo(support::MetricsRegistry &Reg) const {
    auto C = [&](const char *Name, uint64_t V) {
      Reg.setCounter(std::string("machine.") + Name, V);
    };
    C("steps", Steps);
    C("puts", Puts);
    C("gets", Gets);
    C("sets", Sets);
    C("projections", Projections);
    C("applications", Applications);
    C("typecase_steps", TypecaseSteps);
    C("opens", Opens);
    C("regions_created", RegionsCreated);
    C("regions_reclaimed", RegionsReclaimed);
    C("only_ops", OnlyOps);
    C("only_regions_scanned", OnlyRegionsScanned);
    C("widens", Widens);
    C("ifgc_taken", IfGcTaken);
    C("ifgc_skipped", IfGcSkipped);
    C("recordput_cache_hits", RecordPutCacheHits);
    C("recordput_cache_misses", RecordPutCacheMisses);
    C("env_bindings", EnvBindings);
    C("env_lookups", EnvLookups);
    C("env_forces", EnvForces);
    C("env_force_lookups", EnvForceLookups);
    C("env_depth_peak", EnvDepthPeak);
    C("delta_journal_events", DeltaJournalEvents);
  }
};

/// The λGC abstract machine.
class Machine {
public:
  enum class Status { Running, Halted, Stuck };

  Machine(GcContext &C, LanguageLevel Level, MachineConfig Config = {})
      : C(C), Level(Level), Config(Config),
        Mem(C.cd().sym(), C), Checker(C, Level, InferDiags) {
    Checker.setSkipCodeBodies(true);
    Checker.setTrustAddresses(true);
    Psi.addRegion(C.cd().sym());
  }

  GcContext &context() { return C; }
  LanguageLevel level() const { return Level; }
  const MachineConfig &config() const { return Config; }

  /// Reserves a code label in cd; the body is supplied by defineCode. This
  /// two-phase protocol lets mutually recursive code blocks reference each
  /// other by address.
  Address reserveCode(std::string_view Label);

  /// Installs \p Code at a reserved address and records its type in Ψ.
  void defineCode(Address A, const Value *Code);

  /// Convenience: reserve + define in one step.
  Address installCode(std::string_view Label, const Value *Code);

  /// Creates a fresh data region (as `let region` would) and returns it.
  /// Used by drivers to set up the initial mutator region.
  Region createRegion(std::string_view BaseName, uint32_t Capacity);

  /// Allocates \p V in region \p R exactly as a `put` step would (Ψ is
  /// maintained); returns the address value. Used by drivers and the heap
  /// forge to set up initial heaps.
  const Value *allocate(Region R, const Value *V);

  /// Sets the term to execute. Resets halt/stuck state but keeps memory.
  /// In Vm mode this also hands the term to the attached backend, which
  /// lowers it to bytecode (lazily for code bodies, eagerly for the main
  /// term).
  void start(const Term *E);

  /// Attaches (or detaches, with nullptr) the execution backend used by
  /// EvalMode::Vm. The backend is borrowed, not owned: vm::VmExec attaches
  /// itself on construction and detaches on destruction, so it must outlive
  /// every start/step/run in Vm mode.
  void attachBackend(ExecBackend *B) { Backend = B; }
  ExecBackend *backend() const { return Backend; }

  /// Attaches (or detaches, with nullptr) a collect-pause histogram: every
  /// certified collection — the collector-entry App through the closing
  /// `only` (the same bracket the "collect" trace scope uses) — records its
  /// wall-clock duration in *nanoseconds* into \p H. Independent of
  /// tracing: serve sessions report per-session p50/p99 pauses without
  /// paying for (or sharing) the global trace ring. The histogram is
  /// borrowed and single-writer (this machine's thread); it must outlive
  /// every run while attached.
  void attachPauseHistogram(support::Histogram *H) { PauseHist = H; }

  Status status() const { return St; }
  /// The current term as the paper's (M, e) state: in Env mode this forces
  /// the pending environment into the shared continuation (a fresh closed
  /// term per call — deliberately unmemoized, because callers like
  /// checkState run under a GcContext::Scope that reclaims the result).
  const Term *currentTerm() const;
  /// The raw (unforced) state pair behind currentTerm(): the pending term
  /// plus the environment substitution (empty in Subst mode). Both point at
  /// machine-arena nodes, which are immutable once built and never
  /// reclaimed during a run — so a captured copy of this pair stays valid
  /// while the machine keeps stepping, which is what the async checker's
  /// capture relies on (AsyncCheck.h): the expensive closeTerm forcing can
  /// then run on the checker thread, in the checker's own context.
  const Term *rawTerm() const { return Cur; }
  const Subst &rawEnv() const { return EnvS; }
  const Value *haltValue() const { return HaltVal; }
  const std::string &stuckReason() const { return StuckMsg; }

  /// Performs one small step (possibly fused with administrative tag
  /// normalization, as in Fig 5's first rule).
  Status step();

  /// Runs until halt, stuck, or \p MaxSteps more steps.
  Status run(uint64_t MaxSteps);

  Memory &memory() { return Mem; }
  const Memory &memory() const { return Mem; }
  MemoryType &psi() { return Psi; }
  const MemoryType &psi() const { return Psi; }
  MachineStats &stats() { return Stats; }
  const MachineStats &stats() const { return Stats; }

  /// Exports the machine's full observable state into \p Reg: MachineStats
  /// counters plus memory/Ψ gauges (regions, live cells, env depth), and —
  /// when a backend is attached — its "vm.*" compile/run metrics. The one
  /// registry every reporter shares. (Defined after ExecBackend below.)
  inline void exportMetrics(support::MetricsRegistry &Reg) const;

  /// Current environment size (Env mode; 0 in Subst mode).
  size_t envDepth() const {
    return EnvS.Tags.size() + EnvS.Regions.size() + EnvS.Types.size() +
           EnvS.Vals.size();
  }

  // -- Tracing --------------------------------------------------------------
  // The machine emits structured trace events (support/Trace.h) when the
  // global sink is enabled: per-step instants, region lifecycle, collector
  // phase entries, and periodic counter tracks. Collector phases are
  // *marked* cd labels: the certified collectors are λGC code, so the only
  // place their phase structure is visible is the App step into their code
  // addresses — installBasicCollector & friends mark their entry points,
  // and the machine brackets `gc`-entry … `only` as one "collect" scope.

  /// Marks \p A (a cd code address) as a collector phase for tracing; the
  /// traced name is the label passed to reserveCode. \p IsEntry marks the
  /// collection entry point that opens the per-collection trace scope.
  /// The label is interned into the global sink here: trace events outlive
  /// this machine, so they must not point into CdLabels' strings.
  void markCollectorPhase(Address A, bool IsEntry = false) {
    auto It = CdLabels.find(A.Offset);
    if (It == CdLabels.end())
      return;
    PhaseMarks[A.Offset] = IsEntry;
    TracePhaseNames[A.Offset] = support::TraceSink::get().intern(It->second);
  }

  /// The label a cd offset was reserved under ("" if unknown).
  const std::string &codeLabel(uint32_t Offset) const {
    static const std::string Empty;
    auto It = CdLabels.find(Offset);
    return It == CdLabels.end() ? Empty : It->second;
  }

  /// False if Ψ maintenance ever failed (a stored value did not infer);
  /// the reason is in typeTrackingError().
  bool typeTrackingOk() const { return TypeTrackingOkFlag; }
  const std::string &typeTrackingError() const { return TypeTrackingMsg; }

  /// The T_{ν,ν'} iterator of Lemma C.8: rewrites a mutator-view type into
  /// the collector view (M ↦ C, mutator cells gain the forwarding
  /// alternative). Exposed for tests.
  const Type *widenPsiType(const Type *T, Symbol FromRegion, Symbol ToRegion);

  /// Applies the T iterator to the *type annotations* embedded in a heap
  /// value (existential-package body types and witnesses). Values are
  /// otherwise unchanged — annotations are erased at runtime, so `widen`
  /// remains a no-op on data (§7.1). Without this, a package fetched from
  /// the widened heap would still claim the mutator view for its payload;
  /// the paper's pack rule is declarative in the annotation (Lemma C.8
  /// re-derives it), which this rewrite makes algorithmic.
  const Value *widenValueTypes(const Value *V, Symbol FromRegion,
                               Symbol ToRegion);

  /// Renames region name From to To everywhere in a type. Used by widen's
  /// Ψ transformation and by the native collector's Ψ refresh.
  const Type *renameRegionName(const Type *T, Symbol From, Symbol To);

  /// Drops every recordPut-memoized inferred type. Must be called by any
  /// code that rewrites or shrinks Ψ *without* going through the machine's
  /// own step rules (the native collector does); the machine itself
  /// invalidates on `only` and `widen`. The memo strictly needs this only
  /// when Dom(Ψ) shrinks (its keys carry the cell-type pointers they read),
  /// but the call doubles as the out-of-band mutation signal for
  /// delta-journal consumers, whose caches need it on every rewrite, so an
  /// ExternalMutation event is journaled here.
  void invalidatePutTypeCache() {
    PutTypeCache.clear();
    journal(DeltaKind::ExternalMutation);
  }

  // -- Delta journal --------------------------------------------------------
  // Off by default (zero cost beyond a branch); an incremental state
  // checker switches it on and consumes events by absolute index, trimming
  // its consumed prefix with trimJournal. Single-consumer contract: the
  // sole IncrementalStateCheck instance (see StateCheck.h) trims to its own
  // cursor unconditionally, so a second attached consumer would have
  // unconsumed events trimmed out from under it.

  void enableDeltaJournal() { JournalOn = true; }
  bool deltaJournalEnabled() const { return JournalOn; }
  /// Absolute index one past the last event ever journaled.
  uint64_t journalEnd() const { return JournalBase + Journal.size(); }
  /// Absolute index of the oldest retained event.
  uint64_t journalBegin() const { return JournalBase; }
  const DeltaEvent &journalEvent(uint64_t AbsIdx) const {
    assert(AbsIdx >= JournalBase && AbsIdx < journalEnd() &&
           "journal event already trimmed or not yet emitted");
    return Journal[AbsIdx - JournalBase];
  }
  /// Drops events below \p UpToAbs (the single consumer's own cursor).
  void trimJournal(uint64_t UpToAbs) {
    if (UpToAbs <= JournalBase)
      return;
    uint64_t N = std::min<uint64_t>(UpToAbs - JournalBase, Journal.size());
    Journal.erase(Journal.begin(), Journal.begin() + static_cast<size_t>(N));
    JournalBase += N;
  }

private:
  /// The bytecode backend executes the same region-operation semantics as
  /// the interpreted modes by calling back into the private step helpers,
  /// so Only/LetWiden journaling, tracing, and Ψ maintenance cannot drift
  /// between engines.
  friend class scav::vm::VmExec;

  void journal(DeltaKind K, Symbol R = {}, Symbol R2 = {}) {
    if (!JournalOn)
      return;
    Journal.push_back(DeltaEvent{K, R, R2});
    ++Stats.DeltaJournalEvents;
  }

  /// Internal form of invalidatePutTypeCache for the machine's own `only` /
  /// `widen` steps: those are journaled precisely (RegionDropped /
  /// RegionWidened), so no ExternalMutation event is emitted.
  void clearPutTypeCache() { PutTypeCache.clear(); }

  // Trace emission helpers (Machine.cpp); called only under
  // SCAV_TRACE_ENABLED(), so they cost nothing when tracing is disabled
  // and compile away entirely under SCAV_TRACE_OFF. Exception:
  // traceAppPhase is also called when a pause histogram is attached
  // (SCAV_TRACE_ENABLED() || PauseHist) — it runs the pause clock before
  // its tracing-only tail.
  void traceStep(const Term *E);
  void traceAppPhase(Address CodeAddr);
  void traceRegionCounters();
  const char *traceRegionName(Symbol S);

  Status stuck(std::string Msg) {
    St = Status::Stuck;
    StuckMsg = std::move(Msg);
    return St;
  }

  /// Infers the type of a closed runtime value under the current Ψ.
  const Type *inferRuntimeType(const Value *V);

  void recordPut(Address A, const Value *V);

  /// Appends the shape key of \p V (see PutTypeCache) to \p Key; false if
  /// \p V has none (a free variable, code, or an address outside Ψ).
  bool appendPutKey(const Value *V, std::vector<uint64_t> &Key) const;

  // -- Step bodies shared with the bytecode backend -------------------------

  /// Everything an `only` step does after its Keep set has been resolved
  /// and checked: journal + trace the drops, restrict M and Ψ, apply the
  /// heap-growth policy, bump the epoch, invalidate the put-type cache, and
  /// close an open "collect" trace scope. Callers are responsible for the
  /// OnlyOps/OnlyRegionsScanned counters (incremented before resolution,
  /// like the stat always was).
  void applyOnly(const RegionSet &Keep);

  /// Everything a `widen` step does after its operands have been resolved
  /// and checked: the Ψ/value-annotation T-iterator rewrite of \p From
  /// toward \p To, the RegionWidened journal event, and the trace instant.
  /// Callers bind the address value and advance.
  void applyWiden(Symbol From, Symbol To);

  // -- Environment-mode helpers (identity in Subst mode) -------------------

  bool envMode() const { return Config.Eval == EvalMode::Env; }

  /// Closes a syntactic operand against the environment. Operand values in
  /// terms are small (CPS code mentions variables, ints, and shallow
  /// constructors), so this is O(operand), never O(continuation).
  const Value *resolveValue(const Value *V) {
    if (!envMode() || EnvS.empty())
      return V;
    CloseCounters Ctr;
    const Value *Out = closeValue(C, V, EnvS, &Ctr);
    Stats.EnvLookups += Ctr.Lookups;
    return Out;
  }
  const Tag *resolveTag(const Tag *T) {
    if (!envMode() || EnvS.empty())
      return T;
    CloseCounters Ctr;
    const Tag *Out = closeTag(C, T, EnvS, &Ctr);
    Stats.EnvLookups += Ctr.Lookups;
    return Out;
  }
  Region resolveRegion(Region R) {
    if (!envMode())
      return R;
    CloseCounters Ctr;
    Region Out = closeRegion(R, EnvS, &Ctr);
    Stats.EnvLookups += Ctr.Lookups;
    return Out;
  }
  RegionSet resolveRegionSet(const RegionSet &RS) {
    if (!envMode() || EnvS.Regions.empty())
      return RS;
    CloseCounters Ctr;
    RegionSet Out = closeRegionSet(RS, EnvS, &Ctr);
    Stats.EnvLookups += Ctr.Lookups;
    return Out;
  }

  void noteEnvDepth() {
    uint64_t D = envDepth();
    if (D > Stats.EnvDepthPeak)
      Stats.EnvDepthPeak = D;
  }
  /// Shadowing-by-overwrite is sound: execution never re-enters an outer
  /// binder's scope except through App, which replaces the environment
  /// wholesale (code bodies are closed up to their parameters).
  void bindVal(Symbol X, const Value *V) {
    EnvS.Vals.insert_or_assign(X, V);
    ++Stats.EnvBindings;
    noteEnvDepth();
  }
  void bindTag(Symbol X, const Tag *T) {
    EnvS.Tags.insert_or_assign(X, T);
    ++Stats.EnvBindings;
    noteEnvDepth();
  }
  void bindType(Symbol X, const Type *T) {
    EnvS.Types.insert_or_assign(X, T);
    ++Stats.EnvBindings;
    noteEnvDepth();
  }
  void bindRegion(Symbol X, Region R) {
    EnvS.Regions.insert_or_assign(X, R);
    ++Stats.EnvBindings;
    noteEnvDepth();
  }

  /// Advances into \p Body with one value binding: O(1) environment extend
  /// in Env mode, whole-term substitution in Subst mode.
  void continueBindVal(Symbol X, const Value *V, const Term *Body) {
    if (envMode()) {
      bindVal(X, V);
      Cur = Body;
    } else {
      Subst S;
      S.Vals[X] = V;
      Cur = applySubst(C, Body, S);
    }
  }


  GcContext &C;
  LanguageLevel Level;
  MachineConfig Config;
  /// Borrowed execution backend for EvalMode::Vm (see attachBackend).
  ExecBackend *Backend = nullptr;
  Memory Mem;
  MemoryType Psi;
  /// Mutable so the const force boundary (currentTerm) can count its work.
  mutable MachineStats Stats;

  DiagEngine InferDiags;
  TypeChecker Checker;

  const Term *Cur = nullptr;
  /// Env-mode environment: the pending (closed-range) simultaneous
  /// substitution that Subst mode would already have applied to Cur.
  Subst EnvS;
  Status St = Status::Stuck;
  const Value *HaltVal = nullptr;
  std::string StuckMsg = "machine not started";

  bool TypeTrackingOkFlag = true;
  std::string TypeTrackingMsg;
  uint64_t OnlyEpoch = 0;

  /// Delta journal (see enableDeltaJournal). Journal[i] is the event with
  /// absolute index JournalBase + i.
  bool JournalOn = false;
  std::vector<DeltaEvent> Journal;
  uint64_t JournalBase = 0;

  /// cd offset → reserveCode label (small: one entry per installed code
  /// block) and the offsets marked as collector phases (value: is-entry).
  std::unordered_map<uint32_t, std::string> CdLabels;
  std::unordered_map<uint32_t, bool> PhaseMarks;
  /// Marked offset → sink-interned label (events outlive this machine).
  std::unordered_map<uint32_t, const char *> TracePhaseNames;
  /// A collector-entry App opened a "collect" trace scope that the next
  /// `only` step closes (collections end in gcend's `only`).
  bool TraceCollectOpen = false;
  /// Collect-pause clock (attachPauseHistogram): opened at a
  /// collector-entry App, recorded and closed by the `only` that ends the
  /// collection. Mirrors TraceCollectOpen but works with tracing off.
  support::Histogram *PauseHist = nullptr;
  bool PauseOpen = false;
  std::chrono::steady_clock::time_point PauseStart;
  /// Region symbol → interned "cells.<region>" counter-track name.
  std::unordered_map<Symbol, const char *, SymbolHash> TraceRegionNames;

  /// Ψ-tracking fast path: inferred cell types by value *shape* — exactly
  /// what inference reads. The key (appendPutKey) is the constructor tree
  /// in preorder with each embedded address replaced by its Ψ cell-type
  /// pointer and region, each pack by its binder, witness, ∆ contents and
  /// body-type pointer, each TransApp by its tag pointers and regions, and
  /// every int by one token. Under recordPut's empty Θ/Φ/Γ, inference reads
  /// nothing else but Dom(Ψ) (the ∆ membership tests of packs and
  /// TransApps), and it is monotone in Dom(Ψ): between the invalidation
  /// points — `only`, `widen`, invalidatePutTypeCache — Ψ only grows, so a
  /// success under the memoized Dom(Ψ) stays the same success. Collector
  /// copies are fresh values, so keying on shape is what lets copies of
  /// same-shaped cells share one inference. Values with no key and failed
  /// inferences are never memoized, so every diagnostic comes from a real
  /// inference.
  struct PutKeyHash {
    size_t operator()(const std::vector<uint64_t> &Key) const {
      uint64_t H = 0xcbf29ce484222325ULL;
      for (uint64_t W : Key) {
        H = (H ^ W) * 0x9e3779b97f4a7c15ULL;
        H ^= H >> 32;
      }
      return static_cast<size_t>(H);
    }
  };
  std::unordered_map<std::vector<uint64_t>, const Type *, PutKeyHash>
      PutTypeCache;
  /// recordPut's key buffer, reused across puts.
  std::vector<uint64_t> PutKey;
};

/// A pluggable execution engine behind MachineConfig::EvalMode::Vm. The
/// machine keeps ownership of all observable state (status, memory, Ψ,
/// stats, journal, halt value, stuck reason); the backend only drives the
/// step loop. Implemented by vm::VmExec (src/vm/Vm.h); defined here so the
/// gc layer needs no link-time dependency on the vm layer.
class ExecBackend {
public:
  virtual ~ExecBackend() = default;
  /// Machine::start(E) was called: (re)lower \p E and reset the program
  /// counter. The machine has already reset its status/halt/stuck state.
  virtual void onStart(const Term *E) = 0;
  /// Execute exactly one machine step (one bytecode instruction — the
  /// lowering is 1:1 with Fig 5 steps, so MachineStats::Steps agrees with
  /// the interpreted modes).
  virtual Machine::Status step() = 0;
  /// Execute until halt, stuck, or \p MaxSteps more steps. This is the
  /// tight dispatch loop; semantically identical to calling step() in a
  /// loop.
  virtual Machine::Status run(uint64_t MaxSteps) = 0;
  /// The paper's substituted (M, e) view of the backend's current program
  /// point — same contract as Machine::currentTerm in Env mode.
  virtual const Term *currentTerm() const = 0;
  /// Publish backend metrics ("vm.*") into the shared registry.
  virtual void exportMetrics(support::MetricsRegistry &Reg) const = 0;
};

inline void Machine::exportMetrics(support::MetricsRegistry &Reg) const {
  Stats.exportTo(Reg);
  Reg.setGauge("memory.regions", static_cast<double>(Mem.numRegions()));
  Reg.setGauge("memory.live_data_cells",
               static_cast<double>(Mem.liveDataCells()));
  const RegionData *Cd = Mem.region(Mem.cdSym());
  Reg.setGauge("memory.cd_cells",
               static_cast<double>(Cd ? Cd->Cells.size() : 0));
  Reg.setGauge("machine.env_depth", static_cast<double>(envDepth()));
  Reg.setGauge("machine.journal_len",
               static_cast<double>(journalEnd() - journalBegin()));
  if (Backend)
    Backend->exportMetrics(Reg);
}

/// Registers a collector library's entry points with the machine's tracer
/// so App steps into them emit collector-phase events: `Gc` opens the
/// per-collection trace scope, the other labels show up as instant phase
/// markers. Works for any of the Lib structs (Basic / Forward / Gen) —
/// they share the six-entry-point shape. No-op when tracing is compiled
/// out or disabled.
template <typename CollectorLibT>
void markCollectorPhases(Machine &M, const CollectorLibT &Lib) {
  M.markCollectorPhase(Lib.Gc, /*IsEntry=*/true);
  M.markCollectorPhase(Lib.GcEnd);
  M.markCollectorPhase(Lib.Copy);
  M.markCollectorPhase(Lib.CopyPair1);
  M.markCollectorPhase(Lib.CopyPair2);
  M.markCollectorPhase(Lib.CopyExist1);
}

} // namespace scav::gc

#endif // SCAV_GC_MACHINE_H
