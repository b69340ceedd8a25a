//===- harness/Pipeline.cpp - Whole-pipeline driver ------------------------===//

#include "harness/Pipeline.h"

#include "harness/Dump.h"
#include "harness/FuzzMutate.h"
#include "support/ParseInt.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

using namespace scav;
using namespace scav::harness;

Pipeline::Pipeline(PipelineOptions O) : Opts(std::move(O)) {
  if (Opts.SharedBase) {
    assert(!Opts.FreshNamespace.empty() &&
           "sessions over a shared base need a disjoint fresh namespace");
    GC = std::make_unique<gc::GcContext>(*Opts.SharedBase,
                                         Opts.FreshNamespace);
  } else {
    GC = std::make_unique<gc::GcContext>();
    if (!Opts.FreshNamespace.empty())
      GC->setFreshNamespace(Opts.FreshNamespace);
  }
  LC = std::make_unique<lambda::LambdaContext>(GC->symbols());
  CC = std::make_unique<cps::CpsContext>(GC->symbols());
  CL = std::make_unique<clos::ClosContext>(*GC);
  M = std::make_unique<gc::Machine>(*GC, Opts.Level, Opts.Machine);
  if (Opts.Machine.Eval == gc::EvalMode::Vm)
    Vm = std::make_unique<vm::VmExec>(*M);

  if (Opts.InstallCollector) {
    switch (Opts.Level) {
    case gc::LanguageLevel::Base:
      GcEntry = gc::installBasicCollector(*M).Gc;
      break;
    case gc::LanguageLevel::Forward:
      GcEntry = gc::installForwardCollector(*M).Gc;
      break;
    case gc::LanguageLevel::Generational:
      GcEntry = gc::installGenCollector(*M).Gc;
      if (Opts.InstallMajorCollector)
        MajorGcEntry = gc::installGenFullCollector(*M).Gc;
      break;
    }
  }
}

bool Pipeline::compile(std::string_view Source, DiagEngine &Diags) {
  const lambda::Expr *E = lambda::parseExpr(*LC, Source, Diags);
  if (!E)
    return false;
  return compileExpr(E, Diags);
}

bool Pipeline::compileExpr(const lambda::Expr *E, DiagEngine &Diags) {
  Src = E;
  if (!lambda::typeCheck(*LC, Src, Diags))
    return false;
  Cps = cps::cpsConvert(*LC, *CC, Src, Diags);
  if (!Cps)
    return false;
  if (!clos::closureConvert(*CC, *CL, Cps, Clos, Diags))
    return false;
  if (!clos::typeCheckProgram(*CL, Clos, Diags)) {
    Diags.error("closure-converted program does not typecheck");
    return false;
  }
  Translated =
      gc::translateProgram(*M, *CL, Clos, GcEntry, Diags, MajorGcEntry);
  return Translated.Ok;
}

RunResult Pipeline::runSource(uint64_t Fuel) {
  RunResult R;
  lambda::EvalResult E = lambda::evaluate(Src, Fuel);
  R.Steps = E.Steps;
  if (!E.Value) {
    R.Error = E.Error;
    return R;
  }
  if (E.Value->K != lambda::EvalValue::Kind::Int) {
    R.Error = "source program did not produce an integer";
    return R;
  }
  R.Ok = true;
  R.Value = E.Value->N;
  return R;
}

RunResult Pipeline::runCps(uint64_t Fuel) {
  RunResult R;
  cps::CpsEvalResult E = cps::evaluate(Cps, Fuel);
  R.Ok = E.Ok;
  R.Value = E.Value;
  R.Error = E.Error;
  R.Steps = E.Steps;
  return R;
}

RunResult Pipeline::runClos(uint64_t Fuel) {
  RunResult R;
  clos::ClosEvalResult E = clos::evaluate(*CL, Clos, Fuel);
  R.Ok = E.Ok;
  R.Value = E.Value;
  R.Error = E.Error;
  R.Steps = E.Steps;
  return R;
}

uint32_t scav::harness::checkEveryFromEnv(uint32_t Fallback) {
  // Diagnosed fallback (support/ParseInt.h): a typo'd SCAV_CHECK_EVERY used
  // to silently disable the soak cadence it was meant to set.
  return static_cast<uint32_t>(
      envUnsignedOr("SCAV_CHECK_EVERY", Fallback, 0,
                    std::numeric_limits<uint32_t>::max()));
}

gc::EvalMode scav::harness::evalModeFromEnv(gc::EvalMode Fallback) {
  const char *Env = std::getenv("SCAV_EVAL_MODE");
  if (!Env || !*Env)
    return Fallback;
  std::optional<gc::EvalMode> Mode = gc::parseEvalMode(Env);
  if (!Mode) {
    std::fprintf(stderr,
                 "warning: SCAV_EVAL_MODE=\"%s\": unknown eval mode "
                 "(env|subst|vm); keeping the default\n",
                 Env);
    return Fallback;
  }
  return *Mode;
}

std::optional<std::string> scav::harness::traceOutFromEnv() {
#ifdef SCAV_TRACE_OFF
  return std::nullopt;
#else
  const char *Env = std::getenv("SCAV_TRACE");
  if (!Env || !*Env)
    return std::nullopt;
  support::TraceSink::get().enable();
  std::string V = Env;
  // "1"/"on"/"true" mean "trace, no file" — anything else is a path.
  if (V == "1" || V == "on" || V == "true")
    return std::string();
  return V;
#endif
}

void Pipeline::dumpFailure(RunResult &R, const char *Kind,
                           const std::string &Diagnostic, const char *Checker,
                           bool CheckCodeRegion) {
  if (Opts.DumpDir.empty())
    return;
  DumpInfo Info;
  Info.Kind = Kind;
  Info.Diagnostic = Diagnostic;
  Info.Checker = Checker;
  Info.RestrictToReachable = Opts.Level == gc::LanguageLevel::Forward;
  Info.CheckCodeRegion = CheckCodeRegion;
  Info.ReplayCmd = Opts.ReplayCmd;
  Info.Step = M->stats().Steps;
  Info.Metrics = Opts.DumpMetrics;
  R.DumpPath = writeDumpBundle(Opts.DumpDir, *M, Info);
}

RunResult Pipeline::runMachine(uint64_t MaxSteps, uint32_t CheckEveryN) {
  TRACE_SCOPE("pipeline", "run.machine");
  RunResult R;
  if (!Translated.Main) {
    R.Error = "no translated program";
    return R;
  }
  CheckStats = gc::IncrementalCheckStats{};
  AsyncStats = gc::AsyncCheckStats{};
  // Async checking needs the incremental engine and the raw term state;
  // the Vm backend maintains neither, so it degrades to the synchronous
  // path (same verdicts, just no pipelining). The CLIs and manifests
  // refuse these combinations; library callers still get the fallback.
  if (Opts.AsyncCheck && Opts.IncrementalCheck && CheckEveryN != 0 &&
      Opts.Machine.Eval != gc::EvalMode::Vm)
    return runMachineAsync(MaxSteps, CheckEveryN);
  M->start(Translated.Main);

  bool Restrict = Opts.Level == gc::LanguageLevel::Forward;
  gc::StateCheckOptions Check;
  Check.RestrictToReachable = Restrict;
  std::optional<gc::IncrementalStateCheck> Inc;
  uint64_t ChecksRun = 0;
  if (CheckEveryN != 0) {
    if (Opts.IncrementalCheck) {
      gc::IncrementalCheckOptions IncOpts;
      IncOpts.RestrictToReachable = Restrict;
      Inc.emplace(*M, IncOpts); // attach: first check() is the full one
      gc::StateCheckResult R0 = Inc->check();
      if (!R0.Ok) {
        dumpFailure(R, "check-failure", R0.Error, "incremental",
                    /*CheckCodeRegion=*/true);
        R.Error = "initial state ill-formed: " + R0.Error;
        return R;
      }
    } else {
      gc::StateCheckResult R0 = gc::checkState(*M, Check);
      if (!R0.Ok) {
        dumpFailure(R, "check-failure", R0.Error, "full",
                    /*CheckCodeRegion=*/true);
        R.Error = "initial state ill-formed: " + R0.Error;
        return R;
      }
    }
    Check.CheckCodeRegion = false;
  }

  // Keep the last checker stats visible after Inc dies with this frame.
  auto SaveStats = [&] {
    if (Inc)
      CheckStats = Inc->stats();
  };

  bool Corrupted = false;
  for (uint64_t I = 0; I != MaxSteps; ++I) {
    if (M->status() != gc::Machine::Status::Running)
      break;
    // Deterministic wedge for the serve watchdog: sit here polling the
    // abort flag instead of stepping, like a mutator that stopped making
    // progress.
    if (Opts.StallAtStep != 0 && Opts.AbortRequested &&
        I + 1 == Opts.StallAtStep)
      while (!Opts.AbortRequested->load(std::memory_order_relaxed))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (Opts.AbortRequested &&
        Opts.AbortRequested->load(std::memory_order_relaxed)) {
      std::string Diag =
          "watchdog stall at step " + std::to_string(M->stats().Steps);
      R.Steps = M->stats().Steps;
      SaveStats();
      dumpFailure(R, "stall", Diag, "", /*CheckCodeRegion=*/false);
      R.Error = "session aborted: " + Diag;
      return R;
    }
    gc::Machine::Status S = M->step();
    if (Opts.Heartbeat)
      Opts.Heartbeat->store(M->stats().Steps, std::memory_order_relaxed);
    if (S == gc::Machine::Status::Stuck) {
      R.Steps = M->stats().Steps;
      SaveStats();
      dumpFailure(R, "stuck", M->stuckReason(), "",
                  /*CheckCodeRegion=*/false);
      R.Error = "machine stuck (progress violation): " + M->stuckReason();
      return R;
    }
    // Forced-corruption knob: injected through the same logged mutation
    // paths the fuzzer uses, so the next check rejects with a genuine
    // diagnostic (the CI crash-dump fixture rides this).
    if (Opts.CorruptAtStep != 0 && !Corrupted && I + 1 >= Opts.CorruptAtStep) {
      Corrupted = true;
      Rng CorruptRng(Opts.CorruptSeed);
      for (unsigned J = 0; J != NumStateMutationKinds; ++J)
        if (applyStateMutation(*M,
                               static_cast<StateMutationKind>(
                                   (Opts.CorruptKind + J) %
                                   NumStateMutationKinds),
                               CorruptRng, Check.RestrictToReachable))
          break;
    }
    if (CheckEveryN != 0 && I % CheckEveryN == 0) {
      gc::StateCheckResult Rc = Inc ? Inc->check() : gc::checkState(*M, Check);
      ++ChecksRun;
      if (!Rc.Ok) {
        R.Steps = M->stats().Steps;
        SaveStats();
        dumpFailure(R, "check-failure", Rc.Error,
                    Inc ? "incremental" : "full", Check.CheckCodeRegion);
        R.Error = "preservation violation: " + Rc.Error;
        return R;
      }
      // Configurable oracle cadence: the incremental verdict must agree
      // with the full checker's on every state both see.
      if (Inc && Opts.FullCheckEvery != 0 &&
          ChecksRun % Opts.FullCheckEvery == 0) {
        gc::StateCheckResult Rf = gc::checkState(*M, Check);
        if (!Rf.Ok) {
          R.Steps = M->stats().Steps;
          SaveStats();
          dumpFailure(R, "check-failure", Rf.Error, "full",
                      Check.CheckCodeRegion);
          R.Error = "incremental checker missed a violation: " + Rf.Error;
          return R;
        }
      }
    }
  }
  SaveStats();
  R.Steps = M->stats().Steps;
  if (M->status() != gc::Machine::Status::Halted) {
    R.Error = M->status() == gc::Machine::Status::Running
                  ? "machine did not halt within the step budget"
                  : M->stuckReason();
    return R;
  }
  const gc::Value *V = M->haltValue();
  if (!V || !V->is(gc::ValueKind::Int)) {
    R.Error = "machine halted with a non-integer";
    return R;
  }
  R.Ok = true;
  R.Value = V->intValue();
  return R;
}

RunResult Pipeline::runMachineAsync(uint64_t MaxSteps, uint32_t CheckEveryN) {
  TRACE_SCOPE("pipeline", "run.machine.async");
  RunResult R;
  M->start(Translated.Main);

  bool Restrict = Opts.Level == gc::LanguageLevel::Forward;
  gc::AsyncCheckSession::Options SOpts;
  SOpts.Check.RestrictToReachable = Restrict;
  SOpts.QueueCapacity = Opts.AsyncQueueCapacity;
  gc::AsyncCheckSession Session(*M, SOpts);
  // Oracle cadence (FullCheckEvery) still runs synchronously inline — it
  // is a paranoia cross-check of the engine, not part of the pipeline.
  gc::StateCheckOptions Check;
  Check.RestrictToReachable = Restrict;
  Check.CheckCodeRegion = false;
  uint64_t ChecksRun = 0;

  auto SaveStats = [&](gc::AsyncVerdict &V) {
    AsyncStats = Session.stats();
    CheckStats = AsyncStats.Engine;
    if (!V.Ok) {
      R.Steps = V.Steps;
      // Async caveat: the machine has stepped past the verdict's state by
      // the time the verdict lands, so this bundle records the state at
      // dump time, not at V.Steps (the manifest keeps the verdict text).
      dumpFailure(R, "check-failure", V.Error, "incremental", V.initial());
      R.Error = (V.initial() ? "initial state ill-formed: "
                             : "preservation violation: ") +
                std::move(V.Error);
    }
  };

  Session.capture(); // unit 0: the attach / initial-state check

  for (uint64_t I = 0; I != MaxSteps; ++I) {
    if (M->status() != gc::Machine::Status::Running)
      break;
    if (Session.failed())
      break; // verdict resolved at finish() below
    if (Opts.AbortRequested &&
        Opts.AbortRequested->load(std::memory_order_relaxed)) {
      gc::AsyncVerdict V = Session.finish();
      SaveStats(V);
      if (V.Ok) {
        std::string Diag =
            "watchdog stall at step " + std::to_string(M->stats().Steps);
        R.Steps = M->stats().Steps;
        dumpFailure(R, "stall", Diag, "", /*CheckCodeRegion=*/false);
        R.Error = "session aborted: " + Diag;
      }
      return R;
    }
    gc::Machine::Status S = M->step();
    if (Opts.Heartbeat)
      Opts.Heartbeat->store(M->stats().Steps, std::memory_order_relaxed);
    if (S == gc::Machine::Status::Stuck) {
      // Pending units were captured at earlier steps: a failure among
      // them is what a synchronous run would have stopped on before ever
      // reaching this stuck state, so it takes precedence.
      gc::AsyncVerdict V = Session.finish();
      SaveStats(V);
      if (V.Ok) {
        R.Steps = M->stats().Steps;
        dumpFailure(R, "stuck", M->stuckReason(), "",
                    /*CheckCodeRegion=*/false);
        R.Error = "machine stuck (progress violation): " + M->stuckReason();
      }
      return R;
    }
    if (I % CheckEveryN == 0) {
      if (!Session.capture())
        break;
      ++ChecksRun;
      if (Opts.FullCheckEvery != 0 && ChecksRun % Opts.FullCheckEvery == 0) {
        gc::StateCheckResult Rf = gc::checkState(*M, Check);
        if (!Rf.Ok) {
          // A pending unit at an earlier step outranks the oracle miss,
          // exactly as its synchronous check would have.
          gc::AsyncVerdict V = Session.finish();
          SaveStats(V);
          if (V.Ok) {
            R.Steps = M->stats().Steps;
            dumpFailure(R, "check-failure", Rf.Error, "full",
                        Check.CheckCodeRegion);
            R.Error = "incremental checker missed a violation: " + Rf.Error;
          }
          return R;
        }
      }
    }
  }

  gc::AsyncVerdict V = Session.finish();
  SaveStats(V);
  if (!V.Ok)
    return R;
  R.Steps = M->stats().Steps;
  if (M->status() != gc::Machine::Status::Halted) {
    R.Error = M->status() == gc::Machine::Status::Running
                  ? "machine did not halt within the step budget"
                  : M->stuckReason();
    return R;
  }
  const gc::Value *Val = M->haltValue();
  if (!Val || !Val->is(gc::ValueKind::Int)) {
    R.Error = "machine halted with a non-integer";
    return R;
  }
  R.Ok = true;
  R.Value = Val->intValue();
  return R;
}

bool Pipeline::certify(DiagEngine &Diags) {
  return gc::certifyCodeRegion(*M, Diags);
}

void Pipeline::exportMetrics(support::MetricsRegistry &Reg) const {
  M->exportMetrics(Reg);
  CheckStats.exportTo(Reg);
  // Async-session counters only exist when a run actually pipelined; the
  // embedded engine stats re-export the same checker.* values CheckStats
  // just wrote (they are the same numbers in async mode).
  if (AsyncStats.UnitsCaptured)
    AsyncStats.exportTo(Reg);
}
