//===- certbench/src/main.cpp - Certified-session benchmark ---------------===//
//
//   certbench --workload churn|retain|startup --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// Generates the workload's sources and manifest from the seed under DIR,
// computes every expected value with the source interpreter, then either
// measures serve::runSessions for about S seconds (--trace 0: end-to-end
// metrics) or runs one untraced pass and one traced replica of it
// (--trace 1: per-layer metrics). Prints a report and, as its last line,
// one JSON object with the metrics. Exits 1 if any session fails its
// verdict or disagrees with the source interpreter, or if the replica
// disagrees with the untraced run.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Traced.h"
#include "Untraced.h"
#include "Workloads.h"

#include "support/ParseInt.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace certbench;
using namespace scav;

namespace {

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note; ///< Printed beside the value (bases, percentiles).
};

void usage() {
  std::fprintf(stderr,
               "usage: certbench --workload churn|retain|startup --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\n");
}

std::string fmt(const char *F, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), F, V);
  return Buf;
}

double peakRssMb() {
  struct rusage RU;
  std::memset(&RU, 0, sizeof(RU));
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // Linux: KiB
}

/// The end-to-end metrics, each the median over passes of its per-pass
/// value (set-up: over every call).
std::vector<Metric> endToEnd(Workload W, const UntracedRun &U) {
  std::vector<double> Sps, Steps, SessP50, SessTail, PauseP50, PauseTail,
      PauseMean, Setup;
  // A workload with too few sessions for any tail reports its slowest.
  double STail = sessionTailPct(W), PTail = pauseTailPct(W);
  double STailOrMax = STail == 0 ? 100 : STail;
  for (const Pass &P : U.Passes) {
    Sps.push_back(P.SessionMs.size() / P.WallS);
    Steps.push_back(P.Steps / P.WallS);
    SessP50.push_back(percentile(P.SessionMs, 50));
    SessTail.push_back(percentile(P.SessionMs, STailOrMax));
    PauseP50.push_back(P.PausesNs.percentile(50) / 1e6);
    PauseTail.push_back(P.PausesNs.percentile(PTail) / 1e6);
    PauseMean.push_back(P.PausesNs.mean() / 1e6);
    Setup.insert(Setup.end(), P.SetupS.begin(), P.SetupS.end());
  }
  const Pass &P0 = U.Passes.front();
  uint64_t Sessions = P0.SessionMs.size(), Pauses = P0.PausesNs.count();
  auto Tail = [](double Pct, uint64_t N) {
    if (Pct == 0)
      return "max of " + std::to_string(N) + " (no percentile has 10 beyond)";
    std::string S = "p" + fmt("%g", Pct) + " of " + std::to_string(N);
    if (tailPercentile(N) < Pct)
      S += " (fewer than 10 beyond: unresolved)";
    return S;
  };
  std::string Passes = std::to_string(U.Passes.size()) + " passes";
  return {
      {"sessions_per_s", median(Sps), "1/s", Passes},
      {"steps_per_s", median(Steps), "1/s", Passes},
      {"session_p50_ms", median(SessP50), "ms",
       std::to_string(Sessions) + " sessions"},
      {"session_tail_ms", median(SessTail), "ms", Tail(STail, Sessions)},
      {"pause_p50_ms", median(PauseP50), "ms",
       std::to_string(Pauses) + " pauses"},
      {"pause_tail_ms", median(PauseTail), "ms", Tail(PTail, Pauses)},
      {"pause_mean_ms", median(PauseMean), "ms", "exact sum/count"},
      {"fail_frac", static_cast<double>(U.Failed) / U.Attempted, "ratio",
       std::to_string(U.Failed) + "/" + std::to_string(U.Attempted)},
      {"setup_s", median(U.EmptySetupS), "s",
       std::to_string(U.EmptySetupS.size()) + " calls on an empty manifest"},
      {"batch_setup_s", median(Setup), "s",
       std::to_string(Setup.size()) +
           " batch calls (frees the batch's symbols too)"},
      {"peak_rss_mb", peakRssMb(), "MB", "getrusage max RSS"},
  };
}

/// Per-layer metrics of a traced replica, against the untraced passes run
/// before and after it.
std::vector<Metric> perLayer(const TracedRun &T, const Pass &Before,
                             const Pass &After) {
  auto Ms = [&](const char *K) {
    auto It = T.SelfMs.find(K);
    return It == T.SelfMs.end() ? 0.0 : It->second;
  };
  auto N = [&](const char *K) {
    auto It = T.Counts.find(K);
    return It == T.Counts.end() ? uint64_t(0) : It->second;
  };
  double WallMs = T.WallS * 1e3;
  double Attributed = 0;
  for (const auto &[K, V] : T.SelfMs)
    Attributed += V;
  std::vector<Metric> Out;
  for (const char *K :
       {"serve.base", "serve.read", "harness.ctor", "harness.teardown",
        "lambda.parse", "lambda.typecheck", "cps.convert", "clos.convert",
        "clos.typecheck", "gc.translate", "vm.lower", "machine.mutator",
        "machine.collector", "check.initial", "check.incremental"})
    Out.push_back({std::string(K) + "_ms", Ms(K), "ms",
                   fmt("%5.1f%% of wall", WallMs > 0 ? 100 * Ms(K) / WallMs
                                                     : 0)});
  // Ψ upkeep is part of the mutator and collector step times above.
  double PsiMut = T.PsiMs.count("mutator") ? T.PsiMs.at("mutator") : 0;
  double PsiGc = T.PsiMs.count("collector") ? T.PsiMs.at("collector") : 0;
  Out.push_back({"machine.psi_ms", PsiMut + PsiGc, "ms",
                 fmt("inside steps: %.1f ms mutator", PsiMut) +
                     fmt(", %.1f ms collector", PsiGc)});
  auto Count = [&](const char *K) {
    Out.push_back({K, static_cast<double>(N(K)), "count", ""});
  };
  auto Rat = [&](const char *K, Ratio R) {
    Out.push_back({K, R.value(), "ratio", R.text()});
  };
  Count("machine.steps");
  Count("machine.collections");
  Count("machine.puts");
  Rat("machine.putcache_hit_ratio",
      hitRatio(N("machine.putcache_hits"), N("machine.putcache_misses")));
  Count("machine.widens");
  Count("check.calls");
  Count("check.cells_validated");
  Rat("check.judgment_hit_ratio",
      hitRatio(N("check.judgment_hits"), N("check.cells_validated")));
  Rat("vm.tpl_hit_ratio", hitRatio(N("vm.tpl_hits"), N("vm.tpl_misses")));
  Rat("gc.type_intern_hit_ratio",
      hitRatio(N("gc.type_intern_hits"), N("gc.type_intern_misses")));
  Rat("gc.base_hit_ratio", Ratio{N("gc.base_hits"), N("gc.intern_hits")});
  Count("memory.cd_cells");
  Out.push_back({"memory.live_cells_peak",
                 static_cast<double>(T.LiveCellsPeak), "count", ""});
  Out.push_back({"trace.attributed_frac", WallMs > 0 ? Attributed / WallMs : 0,
                 "ratio", fmt("%.1f ms", Attributed) + " of " +
                              fmt("%.1f ms", WallMs)});
  double UntracedS = 0;
  for (const Pass *P : {&Before, &After}) {
    UntracedS += P->WallS / 2;
    for (double S : P->SetupS)
      UntracedS += S / 2;
  }
  Out.push_back({"trace.overhead_frac", T.WallS / UntracedS - 1, "ratio",
                 fmt("%.3f s", T.WallS) + " traced vs " +
                     fmt("%.3f s", UntracedS) + " untraced"});
  return Out;
}

void printTable(const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-28s %16.6f %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
}

std::string resultJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Ms,
                       const std::vector<std::string> &Keep) {
  std::string S = std::string("{\"correct\": ") + (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  bool First = true;
  for (const std::string &K : Keep)
    for (const Metric &M : Ms)
      if (M.Name == K) {
        S += (First ? "\"" : ", \"") + M.Name + "\": {\"value\": " +
             fmt("%.17g", M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
        First = false;
      }
  return S + "}}";
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkloadArg, WorkDir;
  std::optional<uint64_t> Seed, Seconds, Trace;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string K = argv[I], V = argv[I + 1];
    if (K == "--workload")
      WorkloadArg = V;
    else if (K == "--seed")
      Seed = parseUint64(V);
    else if (K == "--seconds")
      Seconds = parseUint64(V);
    else if (K == "--trace")
      Trace = parseUint64(V);
    else if (K == "--work-dir")
      WorkDir = V;
    else {
      usage();
      return 2;
    }
  }
  std::optional<Workload> W = parseWorkload(WorkloadArg);
  if (argc % 2 != 1 || !W || !Seed || !Seconds || *Seconds == 0 || !Trace ||
      *Trace > 1 || WorkDir.empty()) {
    usage();
    return 2;
  }

  Inputs In;
  std::string Error;
  if (!makeInputs(*W, *Seed, In, Error)) {
    std::fprintf(stderr, "certbench: %s\n", Error.c_str());
    return 1;
  }
  std::string ManifestPath = writeInputs(In, WorkDir, Error);
  serve::Manifest M;
  if (ManifestPath.empty() || !serve::loadManifest(ManifestPath, M, Error)) {
    std::fprintf(stderr, "certbench: %s\n", Error.c_str());
    return 1;
  }
  if (M.Sessions.size() != In.Sessions.size()) {
    std::fprintf(stderr, "certbench: manifest has %zu sessions, expected %zu\n",
                 M.Sessions.size(), In.Sessions.size());
    return 1;
  }
  std::vector<serve::Manifest> Batches = splitBatches(M, batchSize(*W));
  std::printf("certbench %s seed=%llu: %zu sessions in %zu runSessions "
              "calls of %zu, 1 worker\n",
              workloadName(*W), static_cast<unsigned long long>(*Seed),
              M.Sessions.size(), Batches.size(), batchSize(*W));

  // The untraced run: every end-to-end metric, or (traced mode) the one
  // pass the replica must reproduce.
  UntracedRun U =
      runUntraced(Batches, In, *Trace ? 0.0 : static_cast<double>(*Seconds));
  const Pass &P0 = U.Passes.front();
  uint64_t Collections = 0;
  for (const SessionOutcome &O : P0.Outcomes)
    Collections += O.Collections;
  std::printf("identity: digest=%s sessions=%zu skipped=%llu steps=%llu "
              "collections=%llu\n",
              inputsDigest(In).c_str(), In.Sessions.size(),
              static_cast<unsigned long long>(In.Skipped),
              static_cast<unsigned long long>(P0.Steps),
              static_cast<unsigned long long>(Collections));
  std::printf("passes:");
  for (const Pass &P : U.Passes)
    std::printf(" %.3fs", P.WallS);
  std::printf(" (session wall time per pass)\n");
  bool Correct = U.Failed == 0 && !U.Diverged;
  std::vector<std::string> Problems = U.Problems;

  std::vector<Metric> Ms;
  std::vector<std::string> Keep;
  if (*Trace == 0) {
    Ms = endToEnd(*W, U);
    // The metrics BENCHMARK.json bounds. The rest are printed above but
    // move too much from seed to seed to bound (NOTES.md), and fail_frac
    // is carried by the failed/attempted fields.
    Keep = {"steps_per_s", "pause_mean_ms", "setup_s"};
    std::printf("end-to-end (untraced):\n");
  } else {
    // Untraced, traced, untraced again: the overhead is taken against the
    // mean of the two untraced passes, so neither side runs only cold.
    TracedRun T = runTraced(Batches);
    UntracedRun U2 = runUntraced(Batches, In, 0.0);
    U.Attempted += U2.Attempted;
    U.Failed += U2.Failed;
    Problems.insert(Problems.end(), U2.Problems.begin(), U2.Problems.end());
    Correct = Correct && U2.Failed == 0;
    for (size_t I = 0; I != P0.Outcomes.size(); ++I)
      if (!sameOutcome(U2.Passes.front().Outcomes[I], P0.Outcomes[I])) {
        Correct = false;
        Problems.push_back("session " + std::to_string(I) +
                           ": second untraced pass differs from the first");
      }
    for (size_t I = 0; I != T.Outcomes.size(); ++I) {
      const SessionOutcome &A = T.Outcomes[I], &B = P0.Outcomes[I];
      if (!sameOutcome(A, B)) {
        Correct = false;
        if (Problems.size() < 8)
          Problems.push_back(
              "replica session " + std::to_string(I) + ": steps " +
              std::to_string(A.Steps) + " vs " + std::to_string(B.Steps) +
              ", collections " + std::to_string(A.Collections) + " vs " +
              std::to_string(B.Collections) + ", value " +
              std::to_string(A.Value) + " vs " + std::to_string(B.Value) +
              (A.Error.empty() ? "" : " (" + A.Error + ")"));
      }
    }
    Ms = perLayer(T, P0, U2.Passes.front());
    for (const Metric &X : Ms) {
      Keep.push_back(X.Name);
      if (X.Name == "trace.attributed_frac" && X.Value < 0.95) {
        Correct = false;
        Problems.push_back("replica attributes less than 95% of its wall "
                           "time to named layers");
      }
    }
    writeSpans(T, WorkDir + "/spans.json");
    std::printf("per-layer (traced replica, self times; spans in %s):\n",
                (WorkDir + "/spans.json").c_str());
  }
  printTable(Ms);
  for (const std::string &P : Problems)
    std::printf("problem: %s\n", P.c_str());
  std::printf("%s\n",
              resultJson(Correct, U.Attempted, U.Failed, Ms, Keep).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
