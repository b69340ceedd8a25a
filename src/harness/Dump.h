//===- harness/Dump.h - Post-mortem dump bundles ----------------*- C++ -*-===//
///
/// \file
/// Crash-dump bundles (DESIGN.md §3.14). When a run fails — a state-checker
/// rejection, a stuck machine, or a serve-session stall — the harness
/// captures everything a post-mortem needs into one directory:
///
///   dump-<kind>-step<N>/
///     snapshot.scavsnap   versioned machine snapshot (gc/Snapshot.h)
///     MANIFEST.txt        kind, diagnostic, checker, level, step, check
///                         options, replay command
///     trace_tail.txt      last trace-ring events (when tracing is on)
///     metrics.json        metrics registry at dump time (when provided)
///     replay.txt          the replay command line, alone, for scripting
///
/// `certgc_inspect` consumes these bundles offline.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_HARNESS_DUMP_H
#define SCAV_HARNESS_DUMP_H

#include "gc/Snapshot.h"
#include "support/Metrics.h"

#include <string>

namespace scav::harness {

/// What to record alongside the snapshot.
struct DumpInfo {
  /// Failure class: "check-failure", "stuck", "stall", "manual".
  std::string Kind;
  /// The live verdict/diagnostic text (empty for healthy snapshots).
  std::string Diagnostic;
  /// Which checker produced Diagnostic ("full", "incremental", "").
  std::string Checker;
  /// The live run's StateCheckOptions (recorded so the offline re-check
  /// runs under identical options).
  bool RestrictToReachable = false;
  bool CheckCodeRegion = false;
  /// Command line that reproduces the failing run (empty to omit).
  std::string ReplayCmd;
  /// Step count at dump time.
  uint64_t Step = 0;
  /// Metrics to dump as metrics.json (null to omit the file).
  const support::MetricsRegistry *Metrics = nullptr;
};

/// Writes a dump bundle for \p M under \p DumpDir (created if needed; the
/// bundle name is uniquified with a -2/-3... suffix on collision). Emits a
/// `dump` instant trace event. \returns the bundle directory path, or ""
/// on I/O failure (dumping is best-effort: failures are reported on stderr
/// but never abort the failing run's own error path).
std::string writeDumpBundle(const std::string &DumpDir, gc::Machine &M,
                            const DumpInfo &Info);

} // namespace scav::harness

#endif // SCAV_HARNESS_DUMP_H
