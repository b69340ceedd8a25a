//===- harness/Dump.cpp - Post-mortem dump bundles ------------------------===//

#include "harness/Dump.h"

#include "support/Trace.h"

#include <cstdio>
#include <filesystem>
#include <system_error>

using namespace scav;
using namespace scav::harness;

namespace fs = std::filesystem;

std::string scav::harness::writeDumpBundle(const std::string &DumpDir,
                                           gc::Machine &M,
                                           const DumpInfo &Info) {
  std::error_code EC;
  fs::create_directories(DumpDir, EC);
  if (EC) {
    std::fprintf(stderr, "dump: cannot create %s: %s\n", DumpDir.c_str(),
                 EC.message().c_str());
    return "";
  }

  std::string Base = "dump-" + (Info.Kind.empty() ? "manual" : Info.Kind) +
                     "-step" + std::to_string(Info.Step);
  fs::path Bundle = fs::path(DumpDir) / Base;
  for (int Suffix = 2; fs::exists(Bundle, EC); ++Suffix)
    Bundle = fs::path(DumpDir) / (Base + "-" + std::to_string(Suffix));
  fs::create_directories(Bundle, EC);
  if (EC) {
    std::fprintf(stderr, "dump: cannot create %s: %s\n",
                 Bundle.string().c_str(), EC.message().c_str());
    return "";
  }

  gc::SnapshotMeta Meta;
  Meta.Kind = Info.Kind;
  Meta.Diagnostic = Info.Diagnostic;
  Meta.Checker = Info.Checker;
  Meta.RestrictToReachable = Info.RestrictToReachable;
  Meta.CheckCodeRegion = Info.CheckCodeRegion;

  std::string Error;
  std::string SnapPath = (Bundle / "snapshot.scavsnap").string();
  if (!gc::saveSnapshot(M, Meta, SnapPath, Error)) {
    std::fprintf(stderr, "dump: %s\n", Error.c_str());
    return "";
  }

  std::string Manifest;
  Manifest += "kind: " + Info.Kind + "\n";
  Manifest += "diagnostic: " + Info.Diagnostic + "\n";
  Manifest += "checker: " + Info.Checker + "\n";
  Manifest += std::string("level: ") + gc::languageLevelName(M.level()) + "\n";
  Manifest += "step: " + std::to_string(Info.Step) + "\n";
  Manifest += std::string("restrict-to-reachable: ") +
              (Info.RestrictToReachable ? "1" : "0") + "\n";
  Manifest += std::string("check-code-region: ") +
              (Info.CheckCodeRegion ? "1" : "0") + "\n";
  Manifest += "replay: " + Info.ReplayCmd + "\n";
  support::writeFile((Bundle / "MANIFEST.txt").string(), Manifest);

  if (!Info.ReplayCmd.empty())
    support::writeFile((Bundle / "replay.txt").string(),
                       Info.ReplayCmd + "\n");

  if (support::TraceSink::enabled())
    support::writeFile((Bundle / "trace_tail.txt").string(),
                       support::TraceSink::get().formatTail(256));

  if (Info.Metrics)
    support::writeFile((Bundle / "metrics.json").string(),
                       support::writeMetricsJson(*Info.Metrics));

  TRACE_INSTANT("dump", support::TraceSink::enabled()
                            ? support::TraceSink::get().intern(
                                  "dump." + Info.Kind)
                            : "dump");
  return Bundle.string();
}
