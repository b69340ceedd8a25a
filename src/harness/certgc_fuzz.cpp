//===- harness/certgc_fuzz.cpp - Fuzzing and fault-injection driver -------===//
//
// The certgc_fuzz binary (DESIGN.md §3.8). Three seed-deterministic modes:
//
//   certgc_fuzz --mode state    --iters 10000 --level forward
//   certgc_fuzz --mode grammar  --time-budget 120
//   certgc_fuzz --mode pipeline --seed 42
//
// Every failure prints a replay line (same binary, --seed N --iters 1) and
// the full triage report is written to --repro-out on failure, which is
// what the nightly CI job uploads.
//
// Offline tools for crash-class inputs (the parser kills the process, so
// minimization must re-exec):
//
//   certgc_fuzz --parse-one bad.scm            # exit 0 ok/diagnosed, 2 silent
//   certgc_fuzz --minimize bad.scm             # greedy shrink, same failure
//
//===----------------------------------------------------------------------===//

#include "harness/FuzzDriver.h"
#include "harness/Minimize.h"
#include "harness/Pipeline.h"
#include "support/ParseInt.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace scav;
using namespace scav::harness;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--mode state|grammar|pipeline|all] [--seed N] [--iters N]\n"
      "          [--time-budget SECS] [--level base|forward|gen]\n"
      "          [--corpus FILE]... [--repro-out FILE] [--verbose]\n"
      "          [--trace-out FILE] [--no-trace] [--inject-failure]\n"
      "          [--dump-dir DIR]\n"
      "       %s --parse-one FILE [--gc]\n"
      "       %s --minimize FILE [--gc]\n",
      Argv0, Argv0, Argv0);
  return 2;
}

std::optional<std::string> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::nullopt;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  return Ss.str();
}

bool looksLikeGc(const std::string &Path, const std::string &Text) {
  if (Path.size() > 3 && Path.compare(Path.size() - 3, 3, ".gc") == 0)
    return true;
  return Text.find("(program") != std::string::npos;
}

/// Re-exec oracle for --minimize: a candidate "still fails" when a child
/// --parse-one run reproduces the baseline's raw exit status (which keeps
/// crash signals and silent-reject exits distinct).
int parseOneStatus(const std::string &Self, bool IsGc,
                   const std::string &Text) {
  std::string Tmp = "certgc_fuzz.minimize.tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    Out << Text;
  }
  std::string Cmd = "'" + Self + "' --parse-one '" + Tmp + "'" +
                    (IsGc ? " --gc" : "") + " >/dev/null 2>&1";
  return std::system(Cmd.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzOptions Opts;
  std::string Mode = "all";
  std::string ReproOut = "fuzz-repro.txt";
  std::string TraceOut;
  std::string OneShot, MinimizeFile;
  bool ForceGc = false;
  bool ItersSet = false;

  auto NextArg = [&](int &I) -> const char * {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "missing value for %s\n", Argv[I]);
      std::exit(2);
    }
    return Argv[++I];
  };
  // Numeric values parse as whole strings; "pony" is a usage error, not 0.
  auto BadNumber = [&](int I) {
    std::fprintf(stderr, "%s %s: malformed or out of range\n", Argv[I - 1],
                 Argv[I]);
    return usage(Argv[0]);
  };

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (!std::strcmp(A, "--mode")) {
      Mode = NextArg(I);
    } else if (!std::strcmp(A, "--seed")) {
      std::optional<uint64_t> N = parseUint64(NextArg(I));
      if (!N)
        return BadNumber(I);
      Opts.Seed = *N;
    } else if (!std::strcmp(A, "--iters")) {
      std::optional<uint64_t> N = parseUint64(NextArg(I));
      if (!N)
        return BadNumber(I);
      Opts.Iterations = *N;
      ItersSet = true;
    } else if (!std::strcmp(A, "--time-budget")) {
      std::optional<double> S = parseSeconds(NextArg(I));
      if (!S)
        return BadNumber(I);
      Opts.TimeBudgetSeconds = *S;
    } else if (!std::strcmp(A, "--level")) {
      std::string L = NextArg(I);
      Opts.AllLevels = false;
      if (L == "base")
        Opts.Level = gc::LanguageLevel::Base;
      else if (L == "forward" || L == "forw")
        Opts.Level = gc::LanguageLevel::Forward;
      else if (L == "gen" || L == "generational")
        Opts.Level = gc::LanguageLevel::Generational;
      else
        return usage(Argv[0]);
    } else if (!std::strcmp(A, "--corpus")) {
      std::string Path = NextArg(I);
      auto Text = readFile(Path);
      if (!Text) {
        std::fprintf(stderr, "cannot read corpus file %s\n", Path.c_str());
        return 2;
      }
      Opts.ExtraCorpus.emplace_back(looksLikeGc(Path, *Text), *Text);
    } else if (!std::strcmp(A, "--repro-out")) {
      ReproOut = NextArg(I);
    } else if (!std::strcmp(A, "--verbose")) {
      Opts.Verbose = true;
    } else if (!std::strcmp(A, "--trace-out")) {
      TraceOut = NextArg(I);
    } else if (!std::strcmp(A, "--no-trace")) {
      Opts.TraceRing = false;
    } else if (!std::strcmp(A, "--inject-failure")) {
      Opts.InjectSelfTestFailure = true;
    } else if (!std::strcmp(A, "--dump-dir")) {
      Opts.DumpDir = NextArg(I);
    } else if (!std::strcmp(A, "--parse-one")) {
      OneShot = NextArg(I);
    } else if (!std::strcmp(A, "--minimize")) {
      MinimizeFile = NextArg(I);
    } else if (!std::strcmp(A, "--gc")) {
      ForceGc = true;
    } else {
      return usage(Argv[0]);
    }
  }

  if (!OneShot.empty()) {
    auto Text = readFile(OneShot);
    if (!Text) {
      std::fprintf(stderr, "cannot read %s\n", OneShot.c_str());
      return 2;
    }
    return parseOneForFuzz(ForceGc || looksLikeGc(OneShot, *Text), *Text);
  }

  if (!MinimizeFile.empty()) {
    auto Text = readFile(MinimizeFile);
    if (!Text) {
      std::fprintf(stderr, "cannot read %s\n", MinimizeFile.c_str());
      return 2;
    }
    bool IsGc = ForceGc || looksLikeGc(MinimizeFile, *Text);
    std::string Self = Argv[0];
    int Baseline = parseOneStatus(Self, IsGc, *Text);
    if (Baseline == 0) {
      std::fprintf(stderr,
                   "%s parses cleanly (or with a diagnostic) — nothing to "
                   "minimize\n",
                   MinimizeFile.c_str());
      return 1;
    }
    std::string Min =
        minimizeSExpr(*Text, [&](const std::string &Candidate) {
          return parseOneStatus(Self, IsGc, Candidate) == Baseline;
        });
    std::remove("certgc_fuzz.minimize.tmp");
    std::string OutPath = MinimizeFile + ".min";
    std::ofstream Out(OutPath, std::ios::binary | std::ios::trunc);
    Out << Min;
    std::printf("%s\n", Min.c_str());
    std::fprintf(stderr, "minimized %zu -> %zu bytes, written to %s\n",
                 Text->size(), Min.size(), OutPath.c_str());
    return 0;
  }

  bool RunState = Mode == "state" || Mode == "all";
  bool RunGrammar = Mode == "grammar" || Mode == "all";
  bool RunPipeline = Mode == "pipeline" || Mode == "all";
  if (!RunState && !RunGrammar && !RunPipeline)
    return usage(Argv[0]);

  // SCAV_TRACE=<file> is the env fallback for --trace-out (the fuzz modes
  // enable the ring themselves unless --no-trace).
  if (TraceOut.empty())
    if (std::optional<std::string> EnvOut = traceOutFromEnv())
      TraceOut = *EnvOut;

  // Per-mode default workloads (state/grammar iterations are cheap; every
  // pipeline iteration compiles and runs four full configurations).
  auto WithIters = [&](uint64_t Default) {
    FuzzOptions O = Opts;
    if (!ItersSet)
      O.Iterations = Default;
    return O;
  };

  FuzzReport Total;
  std::string Reports;
  if (RunState) {
    FuzzReport R = fuzzStates(WithIters(3000));
    Reports += R.summary("state");
    Total.merge(R);
  }
  if (RunGrammar) {
    FuzzReport R = fuzzGrammar(WithIters(5000));
    Reports += R.summary("grammar");
    Total.merge(R);
  }
  if (RunPipeline) {
    FuzzReport R = fuzzPipeline(WithIters(30));
    Reports += R.summary("pipeline");
    Total.merge(R);
  }

  std::fputs(Reports.c_str(), stdout);
  if (!TraceOut.empty() &&
      !support::TraceSink::get().writeChromeJson(TraceOut))
    std::fprintf(stderr, "cannot write %s\n", TraceOut.c_str());
  if (!Total.ok()) {
    std::ofstream Out(ReproOut, std::ios::binary | std::ios::trunc);
    Out << Reports;
    std::fprintf(stderr, "certgc_fuzz: FAILURES — triage report written to %s\n",
                 ReproOut.c_str());
    return 1;
  }
  return 0;
}
