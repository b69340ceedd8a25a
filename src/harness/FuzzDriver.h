//===- harness/FuzzDriver.h - Fuzzing and fault-injection modes -*- C++ -*-===//
///
/// \file
/// The three certgc_fuzz modes (DESIGN.md §3.8):
///
///  * fuzzStates     — fault injection into live λGC machine states; the
///                     differential oracle is full checkState vs the
///                     IncrementalStateCheck: both must reject every
///                     injected corruption, and always agree.
///  * fuzzGrammar    — byte/node mutations of valid corpus programs thrown
///                     at both S-expression frontends; the invariant is
///                     diagnostic-or-accept, never crash and never a silent
///                     failure (rejection without a diagnostic).
///  * fuzzPipeline   — ProgramGen programs run end-to-end under differing
///                     configurations (env vs subst evaluation, collector
///                     on/off) with value / step-count / verdict
///                     comparison against the source-level evaluator.
///
/// Every iteration derives its own Rng from BaseSeed + Index, and every
/// failure record starts with a replay line — rerunning with the printed
/// seed and --iters 1 reproduces the exact case.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_HARNESS_FUZZDRIVER_H
#define SCAV_HARNESS_FUZZDRIVER_H

#include "harness/FuzzMutate.h"

#include <array>
#include <string>
#include <vector>

namespace scav::harness {

struct FuzzOptions {
  uint64_t Seed = 1;
  uint64_t Iterations = 1000;
  /// When nonzero, run until the wall-clock budget is spent instead of a
  /// fixed iteration count (Iterations then only caps runaway loops).
  double TimeBudgetSeconds = 0;
  /// Restrict to one language level; fuzz all three when unset.
  bool AllLevels = true;
  gc::LanguageLevel Level = gc::LanguageLevel::Base;
  /// Extra corpus entries for the grammar fuzzer, as (is-gc?, text).
  std::vector<std::pair<bool, std::string>> ExtraCorpus;
  /// Print every applied mutation (triage spelunking).
  bool Verbose = false;
  /// Record into the global trace ring while fuzzing so every failure can
  /// capture its trailing event window (fuzzing is not latency-sensitive).
  /// No-op when tracing is compiled out (SCAV_TRACE_OFF).
  bool TraceRing = true;
  /// How many trailing trace events a failure record captures.
  size_t TraceTailEvents = 32;
  /// Deterministic self-test hook: record one synthetic failure before the
  /// first iteration, exercising the whole triage path (replay line, trace
  /// dump, exit code) without needing a real bug. Used by the smoke test.
  bool InjectSelfTestFailure = false;
  /// When non-empty, every failure with a live machine writes a dump
  /// bundle (harness/Dump.h) under this directory and its FuzzFailure
  /// carries the bundle path. Grammar-mode failures (no machine) and the
  /// self-test failure have no bundle.
  std::string DumpDir;
};

struct FuzzFailure {
  std::string Replay;     ///< Command-line fragment that reproduces.
  std::string What;       ///< Invariant that broke.
  std::string Input;      ///< Minimized input (grammar mode) or detail.
  std::string TraceTail;  ///< Last trace events at failure time (may be "").
  std::string BundlePath; ///< Dump bundle (see FuzzOptions::DumpDir).
};

struct FuzzReport {
  uint64_t Iterations = 0;
  uint64_t MutationsApplied = 0;
  uint64_t Skipped = 0; ///< No applicable victim / corpus for the draw.
  /// Healthy outcomes: corruptions rejected by both checkers, mutated
  /// programs cleanly diagnosed or (still well-formed) accepted.
  uint64_t Rejections = 0;
  uint64_t CleanAccepts = 0;
  // Failure outcomes.
  uint64_t FalseAccepts = 0;   ///< Both checkers accepted a corruption.
  uint64_t Disagreements = 0;  ///< Incremental vs full verdicts split.
  uint64_t InvariantViolations = 0;
  std::array<uint64_t, NumStateMutationKinds> PerKind{};
  std::vector<FuzzFailure> Failures;

  bool ok() const {
    return FalseAccepts == 0 && Disagreements == 0 &&
           InvariantViolations == 0;
  }
  /// Crash-triage summary table, one block per run.
  std::string summary(const char *Mode) const;
  void merge(const FuzzReport &Other);
};

FuzzReport fuzzStates(const FuzzOptions &Opts);
FuzzReport fuzzGrammar(const FuzzOptions &Opts);
FuzzReport fuzzPipeline(const FuzzOptions &Opts);

/// One-shot frontend run for certgc_fuzz --parse-one (and the re-exec
/// oracle behind --minimize): \returns 0 when the input is accepted or
/// cleanly diagnosed, 2 when it is rejected without a diagnostic. A crash
/// never returns — which is exactly what the re-exec oracle watches for.
int parseOneForFuzz(bool IsGcProgram, const std::string &Text);

} // namespace scav::harness

#endif // SCAV_HARNESS_FUZZDRIVER_H
