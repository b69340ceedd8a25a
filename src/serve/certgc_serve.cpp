//===- serve/certgc_serve.cpp - Multi-session service front-end ------------===//
//
// Batch service driver: runs a manifest of pipeline sessions (serve/
// Manifest.h — one `key=value` line per session) across a pool of worker
// threads and reports per-session verdicts plus aggregate throughput.
//
//   certgc_serve --manifest FILE [options]
//     --manifest FILE        session manifest (required)
//     --workers N            worker threads (0 = hardware concurrency;
//                            default 1)
//     --no-shared-base       give every session a fully private GcContext
//                            instead of layering over one frozen warm base
//     --stats                print the aggregate metrics registry to stderr
//     --stats-json FILE      write the aggregate registry as
//                            "scav-metrics-v1" JSON (includes the merged
//                            collect-pause histogram and serve.* gauges)
//     --trace-out FILE       record a merged Chrome/Perfetto trace; each
//                            worker thread gets its own track (tid)
//     --dump-dir DIR         write post-mortem dump bundles for failed
//                            sessions under DIR/s<index>/ (harness/Dump.h)
//     --stall-seconds S      arm the per-session watchdog: abort (and
//                            dump) any session whose heartbeat stops for
//                            S wall-clock seconds; required by a manifest
//                            line with stall-at-step=N
//
// Exit status is 0 iff every session halted with a passing verdict, and 2
// on a malformed option or manifest.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "harness/Pipeline.h"
#include "support/ParseInt.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace scav;
using namespace scav::serve;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: certgc_serve --manifest FILE [--workers N]"
               " [--no-shared-base] [--stats] [--stats-json FILE]"
               " [--trace-out FILE] [--dump-dir DIR] [--stall-seconds S]\n");
  return 2;
}

/// Manifest-key spelling, for a compact table (languageLevelName is the
/// λGC-calculus name, too wide for a column).
const char *levelName(gc::LanguageLevel L) {
  switch (L) {
  case gc::LanguageLevel::Base:
    return "base";
  case gc::LanguageLevel::Forward:
    return "forward";
  case gc::LanguageLevel::Generational:
    return "gen";
  }
  return "?";
}

} // namespace

int main(int argc, char **argv) {
  std::string ManifestPath, StatsJson, TraceOut;
  ServeOptions Opts;
  bool Stats = false;
  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    auto NextArg = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (A == "--manifest") {
      const char *F = NextArg();
      if (!F)
        return usage();
      ManifestPath = F;
    } else if (A == "--workers") {
      const char *N = NextArg();
      if (!N)
        return usage();
      std::optional<uint64_t> W = parseUint64Upto(N, UINT32_MAX);
      if (!W) {
        std::fprintf(stderr, "--workers %s: expected an unsigned integer\n",
                     N);
        return usage();
      }
      Opts.Workers = static_cast<unsigned>(*W);
      if (Opts.Workers == 0) {
        Opts.Workers = std::thread::hardware_concurrency();
        if (Opts.Workers == 0)
          Opts.Workers = 1;
      }
    } else if (A == "--no-shared-base") {
      Opts.SharedBase = false;
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
    } else if (A == "--stall-seconds") {
      const char *S = NextArg();
      if (!S)
        return usage();
      std::optional<double> Secs = parseSeconds(S);
      if (!Secs || *Secs == 0) {
        std::fprintf(stderr, "--stall-seconds %s: expected a positive "
                             "number of seconds\n",
                     S);
        return usage();
      }
      Opts.StallSeconds = *Secs;
    } else {
      return usage();
    }
  }
  if (ManifestPath.empty())
    return usage();

  // Bundle manifests record how to rerun this exact service invocation.
  for (int I = 0; I < argc; ++I) {
    if (I)
      Opts.ReplayBase += ' ';
    Opts.ReplayBase += argv[I];
  }

  if (!TraceOut.empty()) {
#if SCAV_TRACE_COMPILED_IN
    support::TraceSink::get().enable();
#else
    std::fprintf(stderr,
                 "--trace-out: tracing compiled out (SCAV_TRACE_OFF); "
                 "writing an empty trace\n");
#endif
  } else if (std::optional<std::string> EnvOut = harness::traceOutFromEnv()) {
    TraceOut = *EnvOut;
  }

  Manifest M;
  std::string Error;
  if (!loadManifest(ManifestPath, M, Error)) {
    std::fprintf(stderr, "certgc_serve: %s: %s\n", ManifestPath.c_str(),
                 Error.c_str());
    return 2;
  }
  // The stall hook is wired only to an armed watchdog (Serve.cpp): without
  // one the session would run to completion as if the key were absent.
  if (Opts.StallSeconds == 0)
    for (size_t I = 0; I != M.Sessions.size(); ++I)
      if (M.Sessions[I].StallAtStep != 0) {
        std::fprintf(stderr,
                     "certgc_serve: session %zu: stall-at-step=N needs "
                     "--stall-seconds S, the watchdog that aborts it\n",
                     I);
        return 2;
      }

  ServeReport Rep = runSessions(M, Opts);

  std::printf("%-4s %-8s %-6s %-7s %12s %10s %9s %12s\n", "#", "level",
              "eval", "result", "value", "steps", "secs", "p99-pause-us");
  for (const SessionResult &S : Rep.Sessions) {
    const SessionSpec &Spec = M.Sessions[S.Index];
    const auto &Hists = S.Metrics.histograms();
    auto HIt = Hists.find("machine.collect_pause_ns");
    double P99Us = HIt != Hists.end() && HIt->second.count()
                       ? HIt->second.percentile(99) / 1000.0
                       : 0;
    std::printf("%-4zu %-8s %-6s %-7s %12lld %10llu %9.3f %12.1f\n", S.Index,
                levelName(Spec.Level), gc::evalModeName(Spec.Eval),
                S.Ok ? "ok" : "FAIL", static_cast<long long>(S.Value),
                static_cast<unsigned long long>(S.Steps), S.Seconds, P99Us);
    if (!S.Ok)
      std::printf("     error: %s\n", S.Error.c_str());
    if (!S.DumpPath.empty())
      std::printf("     dump: %s\n", S.DumpPath.c_str());
  }
  std::printf("%zu sessions on %u workers in %.3fs: %.1f sessions/sec, "
              "%.3g steps/sec aggregate%s\n",
              Rep.Sessions.size(), Rep.Workers, Rep.WallSeconds,
              Rep.WallSeconds > 0 ? Rep.Sessions.size() / Rep.WallSeconds : 0,
              Rep.WallSeconds > 0
                  ? Rep.Aggregate.gauge("serve.steps_per_sec")
                  : 0,
              Opts.SharedBase ? "" : " (private contexts)");

  if (!TraceOut.empty() &&
      !support::TraceSink::get().writeChromeJson(TraceOut))
    std::fprintf(stderr, "cannot write %s\n", TraceOut.c_str());
  if (!StatsJson.empty())
    support::writeFile(StatsJson, support::writeMetricsJson(Rep.Aggregate));
  if (Stats)
    std::fputs(support::writeMetricsText(Rep.Aggregate).c_str(), stderr);

  return Rep.AllOk ? 0 : 1;
}
