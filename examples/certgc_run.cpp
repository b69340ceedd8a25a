//===- examples/certgc_run.cpp - File-driven pipeline driver ---------------===//
//
// The workbench as a command-line tool: compile and run a source file (or
// an inline expression) under any of the three certified collectors.
//
//   certgc_run [options] (<file.scm> | -e '<expr>' | --gc <file.gc>)
//     --level base|forward|gen     collector / language level
//     --eval-mode env|subst|vm     machine evaluation mode (env machine,
//                                  reference substitution interpreter, or
//                                  the compiled bytecode VM); env
//                                  SCAV_EVAL_MODE sets the default
//     --capacity N                 young-region capacity in cells
//     --check-every N              re-check ⊢ (M,e) every N machine steps
//                                  (0 = never; incremental checker unless
//                                  --full-check; env SCAV_CHECK_EVERY sets
//                                  the default; --check is a synonym)
//     --full-check                 use the full O(heap) checker per check
//     --full-check-every N         with the incremental checker, also run
//                                  the full checker as an oracle every N-th
//                                  check (needs --check-every; rejected
//                                  with --full-check)
//     --async-check                run the per-N checks on a dedicated
//                                  checker thread (pipelined against the
//                                  mutator; verdicts byte-identical to the
//                                  synchronous checker's — DESIGN.md §3.11);
//                                  env SCAV_ASYNC_CHECK=1 sets the default;
//                                  needs per-N checks, the incremental
//                                  checker and the env or subst engine, so
//                                  it is rejected without --check-every and
//                                  with --full-check, --eval-mode vm,
//                                  --corrupt-at-step and --gc
//     --certify                    typecheck all cd code before running
//     --dump-clos                  print the λCLOS program
//     --stats                      print machine + checker statistics
//                                  (shared metrics text reporter)
//     --stats-json <file>          write the full metrics registry as
//                                  "scav-metrics-v1" JSON (DESIGN.md §3.9);
//                                  env SCAV_STATS_JSON sets the default
//     --trace-out <file>           record a trace and write it as
//                                  Chrome/Perfetto trace-event JSON; env
//                                  SCAV_TRACE=<file> sets the default
//     --dump-dir <dir>             write a post-mortem dump bundle under
//                                  <dir> on stuck machines and check
//                                  failures (DESIGN.md §3.14); inspect it
//                                  offline with certgc_inspect
//     --corrupt-at-step N          fault injection: forge a heap
//                                  corruption after machine step N so the
//                                  per-N check fails deterministically
//                                  (CI crash-dump fixture; needs
//                                  --check-every, synchronous checks only)
//     --corrupt-kind K             which StateMutationKind to start
//                                  cycling from (default 0; needs
//                                  --corrupt-at-step)
//     --corrupt-seed S             RNG seed for the forged corruption
//                                  (default 1; needs --corrupt-at-step)
//     --gc <file>                  run a raw λGC program (see gc/Parse.h);
//                                  `(fn gc)` refers to the installed
//                                  collector of the chosen --level. This
//                                  path reads the level, the machine
//                                  options, --certify, the check flags
//                                  and the report flags; it rejects the
//                                  pipeline-only --async-check,
//                                  --full-check-every, --dump-dir,
//                                  --dump-clos and the --corrupt-* flags
//
// Numeric values must be whole unsigned integers in the field's range; a
// malformed value prints usage and exits 2. So does an option combination
// that would run something other than what it asks for.
//
//===----------------------------------------------------------------------===//

#include "harness/Pipeline.h"

#include "gc/Parse.h"
#include "support/ParseInt.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

using namespace scav;
using namespace scav::harness;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: certgc_run [--level base|forward|gen]"
               " [--eval-mode env|subst|vm] [--capacity N]"
               " [--check-every N] [--full-check] [--full-check-every N]"
               " [--async-check]"
               " [--certify] [--dump-clos] [--stats] [--stats-json FILE]"
               " [--trace-out FILE] [--dump-dir DIR] [--corrupt-at-step N]"
               " [--corrupt-kind K] [--corrupt-seed S]"
               " (<file> | -e '<expr>' | --gc <file>)\n");
  return 2;
}

/// End-of-run reporting shared by the raw-λGC and pipeline paths: optional
/// trace export, optional metrics JSON, optional metrics text on stderr.
void report(const support::MetricsRegistry &Reg, bool Stats,
            const std::string &StatsJson, const std::string &TraceOut) {
  if (!TraceOut.empty()) {
    if (!support::TraceSink::get().writeChromeJson(TraceOut))
      std::fprintf(stderr, "cannot write %s\n", TraceOut.c_str());
  }
  if (!StatsJson.empty())
    support::writeFile(StatsJson, support::writeMetricsJson(Reg));
  if (Stats)
    std::fputs(support::writeMetricsText(Reg).c_str(), stderr);
}

} // namespace

int main(int argc, char **argv) {
  PipelineOptions Opts;
  Opts.Machine.DefaultRegionCapacity = 64;
  // SCAV_EVAL_MODE seeds the default evaluation mode; --eval-mode wins.
  if (const char *Env = std::getenv("SCAV_EVAL_MODE"); Env && *Env) {
    std::optional<gc::EvalMode> Mode = gc::parseEvalMode(Env);
    if (!Mode) {
      std::fprintf(stderr, "SCAV_EVAL_MODE: unknown eval mode '%s'\n", Env);
      return 2;
    }
    Opts.Machine.Eval = *Mode;
  }
  // SCAV_ASYNC_CHECK=1 pipelines the checker by default; --async-check wins.
  if (const char *Env = std::getenv("SCAV_ASYNC_CHECK"); Env && *Env)
    Opts.AsyncCheck = std::strcmp(Env, "0") != 0;
  // Soak runs steer the cadence with SCAV_CHECK_EVERY; explicit flags win.
  uint32_t CheckEveryN = checkEveryFromEnv(0);
  bool Certify = false, DumpClos = false, Stats = false;
  bool RawGc = false;
  // The last pipeline-only flag given (the --gc path refuses them), and
  // whether fault injection was tuned (--corrupt-kind/--corrupt-seed).
  const char *PipelineOnly = nullptr;
  bool CorruptTuned = false;
  std::string Source;
  std::string TraceOut, StatsJson;

  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    auto NextArg = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    // The next argument as a whole unsigned integer no larger than Max.
    auto NumArg = [&](uint64_t Max) -> std::optional<uint64_t> {
      const char *N = NextArg();
      if (!N)
        return std::nullopt;
      std::optional<uint64_t> V = parseUint64Upto(N, Max);
      if (!V)
        std::fprintf(stderr, "%s %s: expected an unsigned integer <= %llu\n",
                     argv[I - 1], N, (unsigned long long)Max);
      return V;
    };
    if (A == "--level") {
      const char *L = NextArg();
      if (!L)
        return usage();
      if (!std::strcmp(L, "base"))
        Opts.Level = gc::LanguageLevel::Base;
      else if (!std::strcmp(L, "forward"))
        Opts.Level = gc::LanguageLevel::Forward;
      else if (!std::strcmp(L, "gen"))
        Opts.Level = gc::LanguageLevel::Generational;
      else
        return usage();
    } else if (A == "--eval-mode") {
      const char *E = NextArg();
      if (!E)
        return usage();
      std::optional<gc::EvalMode> Mode = gc::parseEvalMode(E);
      if (!Mode)
        return usage();
      Opts.Machine.Eval = *Mode;
    } else if (A == "--capacity") {
      std::optional<uint64_t> N = NumArg(UINT32_MAX);
      if (!N)
        return usage();
      Opts.Machine.DefaultRegionCapacity = static_cast<uint32_t>(*N);
    } else if (A == "--check" || A == "--check-every") {
      std::optional<uint64_t> N = NumArg(UINT32_MAX);
      if (!N)
        return usage();
      CheckEveryN = static_cast<uint32_t>(*N);
    } else if (A == "--full-check") {
      Opts.IncrementalCheck = false;
    } else if (A == "--full-check-every") {
      std::optional<uint64_t> N = NumArg(UINT32_MAX);
      if (!N)
        return usage();
      Opts.FullCheckEvery = static_cast<uint32_t>(*N);
      PipelineOnly = "--full-check-every";
    } else if (A == "--async-check") {
      Opts.AsyncCheck = true;
    } else if (A == "--certify") {
      Certify = true;
    } else if (A == "--dump-clos") {
      DumpClos = true;
      PipelineOnly = "--dump-clos";
    } else if (A == "--stats") {
      Stats = true;
    } else if (A == "--stats-json") {
      const char *F = NextArg();
      if (!F)
        return usage();
      StatsJson = F;
    } else if (A == "--trace-out") {
      const char *F = NextArg();
      if (!F)
        return usage();
      TraceOut = F;
    } else if (A == "--dump-dir") {
      const char *F = NextArg();
      if (!F)
        return usage();
      Opts.DumpDir = F;
      PipelineOnly = "--dump-dir";
    } else if (A == "--corrupt-at-step") {
      std::optional<uint64_t> N = NumArg(UINT64_MAX);
      if (!N)
        return usage();
      Opts.CorruptAtStep = *N;
      PipelineOnly = "--corrupt-at-step";
    } else if (A == "--corrupt-kind") {
      std::optional<uint64_t> N = NumArg(UINT32_MAX);
      if (!N)
        return usage();
      Opts.CorruptKind = static_cast<unsigned>(*N);
      PipelineOnly = "--corrupt-kind";
      CorruptTuned = true;
    } else if (A == "--corrupt-seed") {
      std::optional<uint64_t> N = NumArg(UINT64_MAX);
      if (!N)
        return usage();
      Opts.CorruptSeed = *N;
      PipelineOnly = "--corrupt-seed";
      CorruptTuned = true;
    } else if (A == "-e") {
      const char *E = NextArg();
      if (!E)
        return usage();
      Source = E;
    } else if (A == "--gc") {
      const char *F = NextArg();
      if (!F)
        return usage();
      std::ifstream In{F};
      if (!In) {
        std::fprintf(stderr, "cannot open %s\n", F);
        return 1;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Source = Buf.str();
      RawGc = true;
    } else if (!A.empty() && A[0] != '-') {
      std::ifstream In{std::string(A)};
      if (!In) {
        std::fprintf(stderr, "cannot open %s\n", argv[I]);
        return 1;
      }
      std::ostringstream Buf;
      Buf << In.rdbuf();
      Source = Buf.str();
    } else {
      return usage();
    }
  }
  if (Source.empty())
    return usage();
  // Combinations the run would not honour are refused, not dropped.
  auto Reject = [](const std::string &Msg) {
    std::fprintf(stderr, "certgc_run: %s\n", Msg.c_str());
    return 2;
  };
  if (RawGc && PipelineOnly)
    return Reject(std::string(PipelineOnly) +
                  " needs the compile pipeline; --gc runs a raw lambda-GC "
                  "program");
  if (RawGc && Opts.AsyncCheck)
    return Reject("--gc checks synchronously; drop --async-check (or "
                  "SCAV_ASYNC_CHECK)");
  if (CorruptTuned && Opts.CorruptAtStep == 0)
    return Reject("--corrupt-kind and --corrupt-seed need --corrupt-at-step");
  // The async step loop has no fault-injection hook: the corruption would
  // silently never happen.
  if (Opts.AsyncCheck && Opts.CorruptAtStep != 0)
    return Reject("--corrupt-at-step needs synchronous checks; drop "
                  "--async-check (or SCAV_ASYNC_CHECK)");
  // Pipeline::runMachine pipelines only the incremental checker, and only
  // over the env or subst engine's term state.
  if (Opts.AsyncCheck && !Opts.IncrementalCheck)
    return Reject("--async-check pipelines the incremental checker; drop "
                  "--full-check or --async-check (or SCAV_ASYNC_CHECK)");
  if (Opts.AsyncCheck && Opts.Machine.Eval == gc::EvalMode::Vm)
    return Reject("--async-check needs --eval-mode env or subst; the VM "
                  "checks synchronously (check SCAV_ASYNC_CHECK and "
                  "SCAV_EVAL_MODE)");
  // Fault injection, async checking and the full-check oracle act only at
  // the per-N checks (the resolved cadence, SCAV_CHECK_EVERY included).
  if (Opts.CorruptAtStep != 0 && CheckEveryN == 0)
    return Reject("--corrupt-at-step needs per-N checks to catch the "
                  "corruption; add --check-every N (or SCAV_CHECK_EVERY)");
  if (Opts.AsyncCheck && CheckEveryN == 0)
    return Reject("--async-check pipelines the per-N checks; add "
                  "--check-every N (or SCAV_CHECK_EVERY), or drop "
                  "--async-check (or SCAV_ASYNC_CHECK)");
  if (Opts.FullCheckEvery != 0 && (CheckEveryN == 0 || !Opts.IncrementalCheck))
    return Reject("--full-check-every checks the per-N incremental checks; "
                  "add --check-every N (or SCAV_CHECK_EVERY) and drop "
                  "--full-check");

  // Dump bundles record how to rerun this exact invocation.
  if (!Opts.DumpDir.empty())
    for (int I = 0; I < argc; ++I) {
      if (I)
        Opts.ReplayCmd += ' ';
      Opts.ReplayCmd += argv[I];
    }

  // Trace bootstrap: the explicit flag wins; SCAV_TRACE=<file> is the env
  // fallback (shared with every other driver via traceOutFromEnv).
  if (!TraceOut.empty()) {
#if SCAV_TRACE_COMPILED_IN
    support::TraceSink::get().enable();
#else
    std::fprintf(stderr,
                 "--trace-out: tracing compiled out (SCAV_TRACE_OFF); "
                 "writing an empty trace\n");
#endif
  } else if (std::optional<std::string> EnvOut = traceOutFromEnv()) {
    TraceOut = *EnvOut;
  }
  if (StatsJson.empty())
    if (const char *Env = std::getenv("SCAV_STATS_JSON"); Env && *Env)
      StatsJson = Env;

  if (RawGc) {
    // Raw λGC mode: install the collector, parse, certify, run.
    gc::GcContext C;
    gc::Machine M(C, Opts.Level, Opts.Machine);
    std::unique_ptr<vm::VmExec> Vm;
    if (Opts.Machine.Eval == gc::EvalMode::Vm)
      Vm = std::make_unique<vm::VmExec>(M);
    std::map<std::string, gc::Address> Prelude;
    switch (Opts.Level) {
    case gc::LanguageLevel::Base:
      Prelude["gc"] = gc::installBasicCollector(M).Gc;
      break;
    case gc::LanguageLevel::Forward:
      Prelude["gc"] = gc::installForwardCollector(M).Gc;
      break;
    case gc::LanguageLevel::Generational: {
      gc::GenCollectorLib Lib = gc::installGenCollector(M);
      Prelude["gc"] = Lib.Gc;
      Prelude["gcfull"] = gc::installGenFullCollector(M).Gc;
      break;
    }
    }
    DiagEngine Diags;
    gc::ParsedGcProgram P = gc::parseGcProgram(M, Source, Diags, Prelude);
    if (!P.Ok || !P.Main) {
      std::fprintf(stderr, "lambda-GC parse failed:\n%s", Diags.str().c_str());
      return 1;
    }
    if (Certify) {
      if (!gc::certifyCodeRegion(M, Diags)) {
        std::fprintf(stderr, "certification FAILED:\n%s",
                     Diags.str().c_str());
        return 1;
      }
      std::printf("certified: all cd code blocks typecheck at %s\n",
                  gc::languageLevelName(Opts.Level));
    }
    M.start(P.Main);
    std::optional<gc::IncrementalStateCheck> Inc;
    if (CheckEveryN != 0 && Opts.IncrementalCheck)
      Inc.emplace(M);
    auto Report = [&] {
      support::MetricsRegistry Reg;
      M.exportMetrics(Reg);
      if (Inc)
        Inc->stats().exportTo(Reg);
      report(Reg, Stats, StatsJson, TraceOut);
    };
    for (uint64_t I = 0; I != 500000000 &&
                         M.status() == gc::Machine::Status::Running;
         ++I) {
      M.step();
      if (CheckEveryN != 0 && I % CheckEveryN == 0) {
        gc::StateCheckResult R = Inc ? Inc->check() : gc::checkState(M);
        if (!R.Ok) {
          std::fprintf(stderr, "preservation violation: %s\n",
                       R.Error.c_str());
          Report();
          return 1;
        }
      }
    }
    if (M.status() != gc::Machine::Status::Halted) {
      std::fprintf(stderr, "run failed: %s\n", M.stuckReason().c_str());
      Report();
      return 1;
    }
    std::printf("%lld\n", (long long)M.haltValue()->intValue());
    Report();
    return 0;
  }

  Pipeline Pipe(Opts);
  DiagEngine Diags;
  if (!Pipe.compile(Source, Diags)) {
    std::fprintf(stderr, "compilation failed:\n%s", Diags.str().c_str());
    return 1;
  }

  if (DumpClos)
    std::printf("%s\n",
                clos::printProgram(Pipe.closContext(), Pipe.closProgram())
                    .c_str());

  if (Certify) {
    if (!Pipe.certify(Diags)) {
      std::fprintf(stderr, "certification FAILED:\n%s", Diags.str().c_str());
      return 1;
    }
    std::printf("certified: all cd code blocks typecheck at %s\n",
                gc::languageLevelName(Opts.Level));
  }

  RunResult R = Pipe.runMachine(500'000'000, CheckEveryN);
  support::MetricsRegistry Reg;
  Pipe.exportMetrics(Reg);
  if (!R.Ok) {
    std::fprintf(stderr, "run failed: %s\n", R.Error.c_str());
    if (!R.DumpPath.empty())
      std::fprintf(stderr, "dump bundle: %s\n", R.DumpPath.c_str());
    report(Reg, Stats, StatsJson, TraceOut);
    return 1;
  }
  std::printf("%lld\n", (long long)R.Value);
  report(Reg, Stats, StatsJson, TraceOut);
  return 0;
}
