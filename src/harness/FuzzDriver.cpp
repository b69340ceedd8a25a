//===- harness/FuzzDriver.cpp - Fuzzing and fault-injection modes ---------===//

#include "harness/FuzzDriver.h"

#include "gc/Parse.h"
#include "harness/Dump.h"
#include "harness/HeapForge.h"
#include "harness/Minimize.h"
#include "harness/Pipeline.h"
#include "harness/ProgramGen.h"

#include <chrono>
#include <cstdio>

using namespace scav;
using namespace scav::gc;
using namespace scav::harness;

//===----------------------------------------------------------------------===//
// Shared plumbing
//===----------------------------------------------------------------------===//

namespace {

LanguageLevel pickLevel(const FuzzOptions &Opts, Rng &R) {
  if (!Opts.AllLevels)
    return Opts.Level;
  static constexpr LanguageLevel Levels[] = {LanguageLevel::Base,
                                             LanguageLevel::Forward,
                                             LanguageLevel::Generational};
  return Levels[R.below(3)];
}

std::string replayLine(const char *Mode, uint64_t IterSeed,
                       const FuzzOptions &Opts) {
  std::string Out = std::string("certgc_fuzz --mode ") + Mode + " --seed " +
                    std::to_string(IterSeed) + " --iters 1";
  if (!Opts.AllLevels)
    Out += std::string(" --level ") + languageLevelName(Opts.Level);
  return Out;
}

/// The trailing trace window a failure record carries ("" when tracing is
/// off). Captured at failure time, before the ring moves on.
std::string traceTail(const FuzzOptions &Opts) {
  if (!SCAV_TRACE_ENABLED())
    return std::string();
  return support::TraceSink::get().formatTail(Opts.TraceTailEvents);
}

/// Shared per-mode bootstrap: ring on (when asked), synthetic self-test
/// failure in (when asked). Returns through \p Rep.
void fuzzModeSetup(const char *Mode, const FuzzOptions &Opts,
                   FuzzReport &Rep) {
#if SCAV_TRACE_COMPILED_IN
  if (Opts.TraceRing)
    support::TraceSink::get().enable();
#endif
  if (Opts.InjectSelfTestFailure) {
    ++Rep.InvariantViolations;
    TRACE_INSTANT("fuzz", "selftest.failure");
    Rep.Failures.push_back({replayLine(Mode, Opts.Seed, Opts),
                            "injected self-test failure (not a real bug)",
                            std::string(), traceTail(Opts)});
  }
}

/// Runs \p Iter once per iteration seed until the iteration count (or the
/// wall-clock budget, when set) is exhausted.
template <typename Body>
void runLoop(const FuzzOptions &Opts, FuzzReport &Rep, Body Iter) {
  using Clock = std::chrono::steady_clock;
  auto Start = Clock::now();
  uint64_t MaxIters = Opts.TimeBudgetSeconds > 0
                          ? std::max<uint64_t>(Opts.Iterations, 1u << 30)
                          : Opts.Iterations;
  for (uint64_t I = 0; I != MaxIters; ++I) {
    if (Opts.TimeBudgetSeconds > 0 &&
        std::chrono::duration<double>(Clock::now() - Start).count() >=
            Opts.TimeBudgetSeconds)
      break;
    ++Rep.Iterations;
    Iter(Opts.Seed + I);
  }
}

} // namespace

std::string FuzzReport::summary(const char *Mode) const {
  std::string Out;
  auto Line = [&](const char *K, uint64_t V) {
    Out += "  ";
    Out += K;
    Out += ": ";
    Out += std::to_string(V);
    Out += "\n";
  };
  Out += std::string("[certgc_fuzz] mode=") + Mode + " " +
         (ok() ? "OK" : "FAILED") + "\n";
  Line("iterations", Iterations);
  Line("mutations-applied", MutationsApplied);
  Line("skipped", Skipped);
  Line("rejections", Rejections);
  Line("clean-accepts", CleanAccepts);
  Line("false-accepts", FalseAccepts);
  Line("verdict-disagreements", Disagreements);
  Line("invariant-violations", InvariantViolations);
  for (unsigned K = 0; K != NumStateMutationKinds; ++K)
    if (PerKind[K])
      Line(stateMutationName(static_cast<StateMutationKind>(K)), PerKind[K]);
  for (const FuzzFailure &F : Failures) {
    Out += "  FAILURE: " + F.What + "\n";
    Out += "    replay: " + F.Replay + "\n";
    if (!F.BundlePath.empty())
      Out += "    bundle: " + F.BundlePath + "\n";
    if (!F.Input.empty())
      Out += "    input: " + F.Input + "\n";
    if (!F.TraceTail.empty()) {
      Out += "    trace tail:\n";
      Out += F.TraceTail;
    }
  }
  return Out;
}

void FuzzReport::merge(const FuzzReport &Other) {
  Iterations += Other.Iterations;
  MutationsApplied += Other.MutationsApplied;
  Skipped += Other.Skipped;
  Rejections += Other.Rejections;
  CleanAccepts += Other.CleanAccepts;
  FalseAccepts += Other.FalseAccepts;
  Disagreements += Other.Disagreements;
  InvariantViolations += Other.InvariantViolations;
  for (unsigned K = 0; K != NumStateMutationKinds; ++K)
    PerKind[K] += Other.PerKind[K];
  Failures.insert(Failures.end(), Other.Failures.begin(),
                  Other.Failures.end());
}

//===----------------------------------------------------------------------===//
// State-mutation fuzzing
//===----------------------------------------------------------------------===//

namespace {

/// One state-fuzz iteration: forge a heap, start a real collection, attach
/// the incremental checker, run a random prefix, inject one corruption,
/// and demand that both checkers reject and agree.
void stateIteration(uint64_t IterSeed, const FuzzOptions &Opts,
                    FuzzReport &Rep) {
  Rng R(IterSeed);
  LanguageLevel Level = pickLevel(Opts, R);
  bool Restrict = Level == LanguageLevel::Forward;

  GcContext C;
  Machine M(C, Level);
  Address GcAddr{};
  switch (Level) {
  case LanguageLevel::Base:
    GcAddr = installBasicCollector(M).Gc;
    break;
  case LanguageLevel::Forward:
    GcAddr = installForwardCollector(M).Gc;
    break;
  case LanguageLevel::Generational:
    GcAddr = installGenCollector(M).Gc;
    break;
  }
  Region From = M.createRegion("from", 0);
  Region Old = Level == LanguageLevel::Generational
                   ? M.createRegion("old", 0)
                   : From;
  ForgedHeap H;
  switch (R.below(3)) {
  case 0:
    H = forgeList(M, From, Old, 1 + R.below(24));
    break;
  case 1:
    H = forgeTree(M, From, Old, 1 + static_cast<unsigned>(R.below(5)),
                  R.chance(1, 2));
    break;
  default:
    H = forgeRandom(M, From, Old, R, 4 + R.below(40));
    break;
  }
  Address Fin = installFinisher(M, H.Tag);
  M.start(collectOnceTerm(M, GcAddr, H, From, Old, Fin));

  IncrementalCheckOptions IOpts;
  IOpts.RestrictToReachable = Restrict;
  IncrementalStateCheck Inc(M, IOpts);
  StateCheckOptions FOpts;
  FOpts.CheckCodeRegion = false;
  FOpts.RestrictToReachable = Restrict;

  auto Fail = [&](const char *What, std::string Detail) {
    // Triage bundle: the machine is live at every state-mode failure site,
    // so each report carries a full post-mortem snapshot (harness/Dump.h).
    std::string Bundle;
    if (!Opts.DumpDir.empty()) {
      DumpInfo Info;
      Info.Kind = "fuzz";
      Info.Diagnostic = Detail;
      Info.RestrictToReachable = Restrict;
      Info.ReplayCmd = replayLine("state", IterSeed, Opts);
      Info.Step = M.stats().Steps;
      Bundle = writeDumpBundle(Opts.DumpDir, M, Info);
    }
    Rep.Failures.push_back(
        {replayLine("state", IterSeed, Opts),
         std::string(What) + " [level=" + languageLevelName(Level) + "]",
         std::move(Detail), traceTail(Opts), std::move(Bundle)});
  };

  if (StateCheckResult R0 = Inc.check(); !R0.Ok) {
    ++Rep.InvariantViolations;
    Fail("forged seed state rejected", R0.Error);
    return;
  }

  // Random prefix of the real collection, then the pre-mutation agreement
  // baseline: a healthy state both checkers accept.
  for (uint64_t Steps = R.below(80);
       Steps != 0 && M.status() == Machine::Status::Running; --Steps)
    M.step();
  if (M.status() == Machine::Status::Stuck) {
    ++Rep.InvariantViolations;
    Fail("healthy collection got stuck", M.stuckReason());
    return;
  }
  {
    StateCheckResult RI = Inc.check();
    StateCheckResult RF = checkState(M, FOpts);
    if (RI.Ok != RF.Ok) {
      ++Rep.Disagreements;
      Fail("pre-mutation verdicts disagree", RI.Error + " vs " + RF.Error);
      return;
    }
    if (!RI.Ok) {
      ++Rep.InvariantViolations;
      Fail("healthy state rejected", RI.Error);
      return;
    }
  }

  // Inject: cycle kinds from a random start until one applies.
  std::optional<AppliedMutation> Applied;
  unsigned KStart = static_cast<unsigned>(R.below(NumStateMutationKinds));
  for (unsigned J = 0; J != NumStateMutationKinds && !Applied; ++J)
    Applied = applyStateMutation(
        M, static_cast<StateMutationKind>((KStart + J) % NumStateMutationKinds),
        R, Restrict);
  if (!Applied) {
    ++Rep.Skipped;
    return;
  }
  ++Rep.MutationsApplied;
  ++Rep.PerKind[static_cast<unsigned>(Applied->Kind)];
  if (Opts.Verbose)
    std::fprintf(stderr, "[state seed=%llu level=%s] %s: %s\n",
                 static_cast<unsigned long long>(IterSeed),
                 languageLevelName(Level), stateMutationName(Applied->Kind),
                 Applied->Description.c_str());

  StateCheckResult RI = Inc.check();
  StateCheckResult RF = checkState(M, FOpts);
  std::string Tag =
      std::string(stateMutationName(Applied->Kind)) + ": " +
      Applied->Description;
  if (RI.Ok != RF.Ok) {
    ++Rep.Disagreements;
    Fail("post-mutation verdicts disagree",
         Tag + " | incremental: " + (RI.Ok ? "accept" : RI.Error) +
             " | full: " + (RF.Ok ? "accept" : RF.Error));
    return;
  }
  if (RI.Ok) {
    ++Rep.FalseAccepts;
    Fail("corruption accepted by both checkers", Tag);
    return;
  }
  ++Rep.Rejections;
}

} // namespace

FuzzReport scav::harness::fuzzStates(const FuzzOptions &Opts) {
  FuzzReport Rep;
  fuzzModeSetup("state", Opts, Rep);
  runLoop(Opts, Rep,
          [&](uint64_t Seed) { stateIteration(Seed, Opts, Rep); });
  return Rep;
}

//===----------------------------------------------------------------------===//
// Grammar fuzzing
//===----------------------------------------------------------------------===//

namespace {

enum class CorpusKind : uint8_t {
  LambdaExpr,
  LambdaType,
  GcProgram,
  GcTerm,
  GcType,
  GcTag,
};

struct CorpusEntry {
  CorpusKind Kind;
  std::string Text;
};

/// Valid seed programs covering both grammars; mutated, never run.
std::vector<CorpusEntry> builtinCorpus() {
  return {
      {CorpusKind::LambdaExpr,
       "(app (fix fact (n Int) Int (if0 n 1 (* n (app fact (- n 1))))) 6)"},
      {CorpusKind::LambdaExpr,
       "(app (app (fix build (n Int) (-> Int Int) (if0 n (lam (x Int) x) "
       "(let g (app build (- n 1)) (lam (x Int) (app g (+ x n)))))) 8) 0)"},
      {CorpusKind::LambdaExpr,
       "(let p (pair 1 (pair 2 3)) (+ (fst p) (snd (snd p))))"},
      {CorpusKind::LambdaExpr, "(if0 (<= 2 1) 10 (- 0 10))"},
      {CorpusKind::LambdaType, "(-> (* Int Int) (-> Int Int))"},
      {CorpusKind::GcProgram,
       "(program (fun mu () (r) ((x (M r (* Int Int)))) (ifgc r (app (fn gc) "
       "((* Int Int)) (r) ((fn mu) x)) (let g (get x) (let a (pi1 g) (let b "
       "(pi2 g) (let s (+ a b) (halt s))))))) (main (letregion r (let root "
       "(put r (pair 19 23)) (app (fn mu) () (r) (root))))))"},
      {CorpusKind::GcProgram,
       "(program (main (letregion r (let a (put r (pair 1 2)) (let g (get a) "
       "(let x (pi1 g) (only (r) (halt x))))))))"},
      {CorpusKind::GcTerm,
       "(letregion r (let a (put r (inl (pair 1 2))) (let g (get a) (halt "
       "0))))"},
      {CorpusKind::GcType, "(Er r (ro) (at (* int int) r))"},
      {CorpusKind::GcTag, "(E t (* t Int))"},
  };
}

enum class ParseOutcome { Accepted, Diagnosed, SilentReject };

/// Runs one frontend over \p Text. The never-crash half of the invariant
/// is implicit (a crash kills the fuzzer process); the
/// diagnostic-or-accept half is the SilentReject outcome.
ParseOutcome tryParse(CorpusKind K, const std::string &Text) {
  DiagEngine Diags;
  bool Ok = false;
  switch (K) {
  case CorpusKind::LambdaExpr: {
    SymbolTable Syms;
    lambda::LambdaContext LC{Syms};
    const lambda::Expr *E = lambda::parseExpr(LC, Text, Diags);
    if (E) {
      // Accepted parses continue into the typechecker, which must also
      // diagnose rather than crash.
      DiagEngine TypeDiags;
      (void)lambda::typeCheck(LC, E, TypeDiags);
    }
    Ok = E != nullptr;
    break;
  }
  case CorpusKind::LambdaType: {
    SymbolTable Syms;
    lambda::LambdaContext LC{Syms};
    Ok = lambda::parseType(LC, Text, Diags) != nullptr;
    break;
  }
  case CorpusKind::GcProgram: {
    GcContext C;
    Machine M(C, LanguageLevel::Generational);
    std::map<std::string, Address> Prelude;
    Prelude["gc"] = M.reserveCode("gc");
    Prelude["gcfull"] = M.reserveCode("gcfull");
    Ok = parseGcProgram(M, Text, Diags, Prelude).Ok;
    break;
  }
  case CorpusKind::GcTerm: {
    GcContext C;
    Ok = parseGcTerm(C, Text, Diags) != nullptr;
    break;
  }
  case CorpusKind::GcType: {
    GcContext C;
    Ok = parseGcType(C, Text, Diags) != nullptr;
    break;
  }
  case CorpusKind::GcTag: {
    GcContext C;
    Ok = parseGcTag(C, Text, Diags) != nullptr;
    break;
  }
  }
  if (Ok)
    return ParseOutcome::Accepted;
  return Diags.hasErrors() ? ParseOutcome::Diagnosed
                           : ParseOutcome::SilentReject;
}

void grammarIteration(uint64_t IterSeed, const FuzzOptions &Opts,
                      const std::vector<CorpusEntry> &Corpus,
                      FuzzReport &Rep) {
  Rng R(IterSeed);
  const CorpusEntry &Seed = Corpus[R.below(Corpus.size())];
  unsigned Rounds = 1 + static_cast<unsigned>(R.below(8));
  std::string Mutated = R.chance(1, 2)
                            ? mutateBytes(Seed.Text, R, Rounds)
                            : mutateNodes(Seed.Text, R, Rounds);

  switch (tryParse(Seed.Kind, Mutated)) {
  case ParseOutcome::Accepted:
    ++Rep.CleanAccepts;
    return;
  case ParseOutcome::Diagnosed:
    ++Rep.Rejections;
    return;
  case ParseOutcome::SilentReject: {
    ++Rep.InvariantViolations;
    CorpusKind K = Seed.Kind;
    std::string Minimized = minimizeSExpr(Mutated, [K](const std::string &T) {
      return tryParse(K, T) == ParseOutcome::SilentReject;
    });
    Rep.Failures.push_back({replayLine("grammar", IterSeed, Opts),
                            "parser rejected without a diagnostic",
                            std::move(Minimized), traceTail(Opts)});
    return;
  }
  }
}

} // namespace

int scav::harness::parseOneForFuzz(bool IsGcProgram,
                                   const std::string &Text) {
  ParseOutcome O = tryParse(
      IsGcProgram ? CorpusKind::GcProgram : CorpusKind::LambdaExpr, Text);
  return O == ParseOutcome::SilentReject ? 2 : 0;
}

FuzzReport scav::harness::fuzzGrammar(const FuzzOptions &Opts) {
  std::vector<CorpusEntry> Corpus = builtinCorpus();
  for (const auto &[IsGc, Text] : Opts.ExtraCorpus)
    Corpus.push_back(
        {IsGc ? CorpusKind::GcProgram : CorpusKind::LambdaExpr, Text});
  FuzzReport Rep;
  fuzzModeSetup("grammar", Opts, Rep);
  runLoop(Opts, Rep, [&](uint64_t Seed) {
    grammarIteration(Seed, Opts, Corpus, Rep);
  });
  return Rep;
}

//===----------------------------------------------------------------------===//
// Pipeline fuzzing
//===----------------------------------------------------------------------===//

namespace {

void pipelineIteration(uint64_t IterSeed, const FuzzOptions &Opts,
                       FuzzReport &Rep) {
  Rng R(IterSeed);
  LanguageLevel Level = pickLevel(Opts, R);

  auto Fail = [&](const char *What, std::string Detail,
                  std::string Bundle = std::string()) {
    ++Rep.InvariantViolations;
    Rep.Failures.push_back(
        {replayLine("pipeline", IterSeed, Opts),
         std::string(What) + " [level=" + languageLevelName(Level) + "]",
         std::move(Detail), traceTail(Opts), std::move(Bundle)});
  };

  GenOptions GO;
  GO.MaxDepth = 3 + static_cast<unsigned>(R.below(3));
  GO.MaxIterations = 4 + static_cast<int64_t>(R.below(9));

  // Reference configuration: env-mode machine, certified collector, small
  // regions so collections actually fire, incremental per-N checks.
  PipelineOptions PA;
  PA.Level = Level;
  PA.Machine.DefaultRegionCapacity = 8 + static_cast<uint32_t>(R.below(25));
  // Checker failures and stuck machines in any differential leg dump a
  // bundle themselves (PB/PD/PC copy these fields from PA).
  PA.DumpDir = Opts.DumpDir;
  PA.ReplayCmd = replayLine("pipeline", IterSeed, Opts);
  Pipeline A(PA);
  const lambda::Expr *E = genProgram(A.lambdaContext(), R, GO);
  std::string Text = lambda::printExpr(A.lambdaContext(), E);

  DiagEngine DA;
  if (!A.compileExpr(E, DA)) {
    Fail("generated program failed to compile", DA.str() + "\n" + Text);
    return;
  }
  RunResult Src = A.runSource();
  if (!Src.Ok) {
    Fail("source evaluation failed", Src.Error + "\n" + Text);
    return;
  }
  RunResult RA =
      A.runMachine(3'000'000, 1 + static_cast<uint32_t>(R.below(13)));

  // Differential configurations compile the *printed* program — the
  // round-trip is part of the surface under test.
  PipelineOptions PB = PA;
  PB.Machine.Eval = EvalMode::Subst;
  Pipeline B(PB);
  DiagEngine DB;
  if (!B.compile(Text, DB)) {
    Fail("printed program failed to recompile", DB.str() + "\n" + Text);
    return;
  }
  RunResult RB = B.runMachine(3'000'000, 0);

  // Bytecode VM leg: same collector configuration as the reference, only
  // the execution engine differs — steps, halt values, and stuck verdicts
  // must all be identical to the env machine.
  PipelineOptions PD = PA;
  PD.Machine.Eval = EvalMode::Vm;
  Pipeline D(PD);
  DiagEngine DD;
  if (!D.compile(Text, DD)) {
    Fail("vm-mode recompile failed", DD.str() + "\n" + Text);
    return;
  }
  RunResult RD = D.runMachine(3'000'000, 0);

  PipelineOptions PC = PA;
  PC.InstallCollector = false;
  PC.Machine.DefaultRegionCapacity = 0; // never "full", no collection point
  Pipeline Cp(PC);
  DiagEngine DC;
  if (!Cp.compile(Text, DC)) {
    Fail("collector-free recompile failed", DC.str() + "\n" + Text);
    return;
  }
  RunResult RC = Cp.runMachine(3'000'000, 0);

  auto Verdict = [](const RunResult &Run) {
    return Run.Ok ? "ok(" + std::to_string(Run.Value) + ")"
                  : "fail(" + Run.Error + ")";
  };
  if (!RA.Ok || !RB.Ok || !RD.Ok || !RC.Ok) {
    // The failing leg already wrote its bundle (if dumping is on); attach
    // the first one so the report points straight at it.
    std::string Bundle = !RA.DumpPath.empty()   ? RA.DumpPath
                         : !RB.DumpPath.empty() ? RB.DumpPath
                         : !RD.DumpPath.empty() ? RD.DumpPath
                                                : RC.DumpPath;
    Fail("machine run verdict differs from source",
         "src=" + Verdict(Src) + " env+gc=" + Verdict(RA) +
             " subst+gc=" + Verdict(RB) + " vm+gc=" + Verdict(RD) +
             " nogc=" + Verdict(RC) + "\n" + Text,
         std::move(Bundle));
    return;
  }
  if (RA.Value != Src.Value || RB.Value != Src.Value ||
      RD.Value != Src.Value || RC.Value != Src.Value) {
    Fail("machine value differs from source",
         "src=" + std::to_string(Src.Value) + " env+gc=" +
             std::to_string(RA.Value) + " subst+gc=" +
             std::to_string(RB.Value) + " vm+gc=" + std::to_string(RD.Value) +
             " nogc=" + std::to_string(RC.Value) + "\n" + Text);
    return;
  }
  if (RA.Steps != RB.Steps) {
    Fail("env vs subst step counts differ",
         std::to_string(RA.Steps) + " vs " + std::to_string(RB.Steps) +
             "\n" + Text);
    return;
  }
  if (RA.Steps != RD.Steps) {
    Fail("env vs vm step counts differ",
         std::to_string(RA.Steps) + " vs " + std::to_string(RD.Steps) +
             "\n" + Text);
    return;
  }
  ++Rep.CleanAccepts;
}

} // namespace

FuzzReport scav::harness::fuzzPipeline(const FuzzOptions &Opts) {
  FuzzReport Rep;
  fuzzModeSetup("pipeline", Opts, Rep);
  runLoop(Opts, Rep,
          [&](uint64_t Seed) { pipelineIteration(Seed, Opts, Rep); });
  return Rep;
}
