//===- harness/Pipeline.h - Whole-pipeline driver ---------------*- C++ -*-===//
///
/// \file
/// Drives a source program through the full certified-GC pipeline:
///
///   STLC source ──cps──▶ CPS IR ──cc──▶ λCLOS ──Fig 3──▶ λGC machine
///                                                        + collector
///
/// and can evaluate the program at every stage, which is how the
/// differential-semantics tests (T4) and all the benchmarks are built.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_HARNESS_PIPELINE_H
#define SCAV_HARNESS_PIPELINE_H

#include "clos/Clos.h"
#include "gc/AsyncCheck.h"
#include "gc/CollectorBasic.h"
#include "gc/CollectorForward.h"
#include "gc/CollectorGen.h"
#include "gc/StateCheck.h"
#include "gc/Translate.h"
#include "vm/Vm.h"

#include <atomic>
#include <memory>
#include <optional>

namespace scav::harness {

struct PipelineOptions {
  gc::LanguageLevel Level = gc::LanguageLevel::Base;
  gc::MachineConfig Machine;
  /// Install the level's certified collector and wire ifgc to it. When
  /// false, translated functions have no collection point (baseline runs).
  bool InstallCollector = true;
  /// Generational level only: also install the certified *major* collector
  /// and trigger it when the old generation fills.
  bool InstallMajorCollector = false;
  /// Use the incremental checker (delta journal + cached cell judgments,
  /// StateCheck.h) for runMachine's per-N checks instead of re-running the
  /// full checkState each time. The full checker remains the oracle; see
  /// FullCheckEvery.
  bool IncrementalCheck = true;
  /// When nonzero (and IncrementalCheck is on), every N-th per-step check
  /// also runs the full checkState and requires verdict agreement — a
  /// configurable full-check cadence for paranoid runs. 0 = incremental
  /// only.
  uint32_t FullCheckEvery = 0;
  /// Run the per-N checks on a dedicated checker thread (gc/AsyncCheck.h):
  /// runMachine captures state deltas at every check point and keeps
  /// stepping while the checker validates them in order. Verdicts — the
  /// diagnostic text and the step they apply to — are byte-identical to a
  /// synchronous incremental run's. Requires IncrementalCheck; Vm eval
  /// mode falls back to synchronous checking (the bytecode backend does
  /// not maintain the raw term/environment pair captures ship).
  /// certgc_run and parseManifest reject both combinations up front.
  bool AsyncCheck = false;
  /// Async only: check units in flight before capture blocks; when the
  /// checker falls a full queue + timeout behind, the lag net certifies
  /// synchronously and resyncs (see AsyncCheckSession::Options).
  size_t AsyncQueueCapacity = 256;
  /// Layer this pipeline's GcContext over a *frozen* read-only shared base
  /// (GcContext's shared-base constructor): the base's interning tables
  /// serve the warm common vocabulary, session-local inserts stay local.
  /// The base must outlive the pipeline. nullptr = own a standalone
  /// context, as before.
  const gc::GcContext *SharedBase = nullptr;
  /// Fresh-name namespace for this pipeline's context (e.g. "s3." for
  /// serve session 3). Must end in a separator character so namespaces
  /// are prefix-free across sessions ("s3." vs "s31."). Empty = the
  /// default global namespace. Required non-empty when SharedBase is set —
  /// concurrent sessions over one base must mint disjoint spellings.
  std::string FreshNamespace;

  // Observability (DESIGN.md §3.14).

  /// When non-empty, a failed runMachine (checker rejection, stuck
  /// machine, watchdog abort) writes a dump bundle (harness/Dump.h) under
  /// this directory; RunResult::DumpPath names the bundle.
  std::string DumpDir;
  /// Replay command line recorded in dump-bundle manifests.
  std::string ReplayCmd;
  /// Metrics registry snapshotted into bundles (null = no metrics.json).
  const support::MetricsRegistry *DumpMetrics = nullptr;
  /// When set, the step loop publishes the machine's step count here after
  /// every step (relaxed) — the serve watchdog's per-session heartbeat.
  std::atomic<uint64_t> *Heartbeat = nullptr;
  /// When set and it becomes true, the step loop abandons the run with a
  /// stall diagnostic (and a "stall" dump bundle). The watchdog thread
  /// only ever *sets* this flag; the session thread itself notices it and
  /// writes the dump, so machine state is never touched cross-thread.
  std::atomic<bool> *AbortRequested = nullptr;
  /// Fault-injection knob (tests/CI): busy-wait before executing this
  /// 1-based step, polling AbortRequested — a deterministic wedged mutator
  /// for the watchdog path. Requires AbortRequested (a no-op otherwise);
  /// synchronous step loop only. 0 = off.
  uint64_t StallAtStep = 0;
  /// Fault-injection knob (tests/CI): corrupt the machine state right
  /// after this 1-based step (FuzzMutate taxonomy, kind CorruptKind mod 9,
  /// rng seed CorruptSeed) so a healthy program forces a checker rejection
  /// — and hence a dump bundle. Synchronous step loop only. 0 = off.
  uint64_t CorruptAtStep = 0;
  unsigned CorruptKind = 0;
  uint64_t CorruptSeed = 1;
};

struct RunResult {
  bool Ok = false;
  int64_t Value = 0;
  std::string Error;
  uint64_t Steps = 0;
  /// Dump-bundle directory for a failed run ("" when dumping is off, the
  /// run succeeded, or the bundle write itself failed).
  std::string DumpPath;
};

/// Resolves the per-step check cadence: the SCAV_CHECK_EVERY environment
/// variable when set to a valid unsigned integer, else \p Fallback —
/// malformed values are diagnosed on stderr before falling back
/// (support/ParseInt.h). Shared by the drivers so one env var steers every
/// harness entry point.
uint32_t checkEveryFromEnv(uint32_t Fallback);

/// Resolves the default evaluation mode: SCAV_EVAL_MODE when set to a valid
/// mode name (env|subst|vm), else \p Fallback; malformed values are
/// diagnosed on stderr before falling back. Drivers that prefer to
/// hard-fail on a bad value (certgc_run) parse the variable themselves.
gc::EvalMode evalModeFromEnv(gc::EvalMode Fallback);

/// Shared trace bootstrap for every driver: when the SCAV_TRACE environment
/// variable is set (and tracing is compiled in), enables the global trace
/// ring and returns the Chrome-JSON output path the caller should write at
/// exit — the variable's value, or the empty string for values like "1"
/// that just switch tracing on. Returns nullopt when unset (or compiled
/// out): tracing stays disabled.
std::optional<std::string> traceOutFromEnv();

/// Owns every context of one compilation pipeline.
class Pipeline {
public:
  explicit Pipeline(PipelineOptions Opts = {});

  /// Parses + typechecks + lowers \p Source all the way into the machine.
  bool compile(std::string_view Source, DiagEngine &Diags);

  /// Same, from an already-built source AST (must live in lambdaContext()).
  bool compileExpr(const lambda::Expr *E, DiagEngine &Diags);

  // Stage artifacts (valid after compile succeeds).
  const lambda::Expr *sourceExpr() const { return Src; }
  const cps::Exp *cpsExp() const { return Cps; }
  const clos::Program &closProgram() const { return Clos; }
  const gc::Term *mainTerm() const { return Translated.Main; }
  gc::Address gcEntry() const { return GcEntry; }
  gc::Address majorGcEntry() const { return MajorGcEntry; }

  // Contexts.
  gc::GcContext &gcContext() { return *GC; }
  lambda::LambdaContext &lambdaContext() { return *LC; }
  cps::CpsContext &cpsContext() { return *CC; }
  clos::ClosContext &closContext() { return *CL; }
  gc::Machine &machine() { return *M; }

  /// Reference evaluations at each stage.
  RunResult runSource(uint64_t Fuel = 10'000'000);
  RunResult runCps(uint64_t Fuel = 10'000'000);
  RunResult runClos(uint64_t Fuel = 10'000'000);

  /// Runs the translated program on the λGC machine. With CheckEveryN != 0,
  /// re-establishes ⊢ (M, e) every N steps (1 = per-step) and checks
  /// progress throughout.
  RunResult runMachine(uint64_t MaxSteps = 5'000'000,
                       uint32_t CheckEveryN = 0);

  /// Re-runs compile-time certification of the cd region (collector +
  /// translated mutator code).
  bool certify(DiagEngine &Diags);

  /// Publishes machine counters/gauges plus the last runMachine's checker
  /// stats into the shared registry ("machine.*", "memory.*", "checker.*").
  void exportMetrics(support::MetricsRegistry &Reg) const;

  /// Stats from the incremental checker of the most recent runMachine
  /// (all-zero if checking was off or ran the full checker). In async mode
  /// these are the mirror-side engine's counters.
  const gc::IncrementalCheckStats &checkerStats() const { return CheckStats; }

  /// Async-session stats of the most recent runMachine (all-zero unless
  /// Opts.AsyncCheck took effect).
  const gc::AsyncCheckStats &asyncCheckStats() const { return AsyncStats; }

private:
  PipelineOptions Opts;
  std::unique_ptr<gc::GcContext> GC;
  std::unique_ptr<lambda::LambdaContext> LC;
  std::unique_ptr<cps::CpsContext> CC;
  std::unique_ptr<clos::ClosContext> CL;
  std::unique_ptr<gc::Machine> M;
  /// Bytecode backend, constructed only when Opts.Machine.Eval == Vm.
  /// Declared after M so it detaches/destructs first.
  std::unique_ptr<vm::VmExec> Vm;

  const lambda::Expr *Src = nullptr;
  const cps::Exp *Cps = nullptr;
  clos::Program Clos;
  gc::TranslatedProgram Translated;
  gc::Address GcEntry = gc::noCollector();
  gc::Address MajorGcEntry = gc::noCollector();
  gc::IncrementalCheckStats CheckStats;
  gc::AsyncCheckStats AsyncStats;

  RunResult runMachineAsync(uint64_t MaxSteps, uint32_t CheckEveryN);

  /// Writes a dump bundle for the current machine state when Opts.DumpDir
  /// is set; fills \p R.DumpPath. \p Diagnostic is the raw checker/stuck
  /// text (no "preservation violation: " prefix — certgc_inspect compares
  /// it byte-for-byte against the offline re-check).
  void dumpFailure(RunResult &R, const char *Kind,
                   const std::string &Diagnostic, const char *Checker,
                   bool CheckCodeRegion);
};

} // namespace scav::harness

#endif // SCAV_HARNESS_PIPELINE_H
