//===- certbench/src/Untraced.h - The measured run --------------*- C++ -*-===//
///
/// \file
/// Drives the manifest through serve::runSessions on one worker, batch by
/// batch, with nothing of the benchmark's own inside the timed calls. Every
/// end-to-end metric comes from here.
///
//===----------------------------------------------------------------------===//

#ifndef CERTBENCH_UNTRACED_H
#define CERTBENCH_UNTRACED_H

#include "Workloads.h"

#include "serve/Manifest.h"
#include "support/Metrics.h"

#include <string>
#include <vector>

namespace certbench {

/// What one session produced; every pass must reproduce it exactly.
struct SessionOutcome {
  bool Ok = false;
  int64_t Value = 0;
  uint64_t Steps = 0;
  uint64_t Collections = 0;
  std::string Error;
};

/// True when two runs of a session agree on verdict, value, steps and
/// collections.
bool sameOutcome(const SessionOutcome &A, const SessionOutcome &B);

/// One pass: every batch of the manifest run once, in order.
struct Pass {
  double WallS = 0;  ///< Sum of ServeReport::WallSeconds over the batches.
  uint64_t Steps = 0;
  std::vector<double> SessionMs;
  /// Merged machine.collect_pause_ns histograms of every batch.
  scav::support::Histogram PausesNs;
  /// Per batch: runSessions duration minus ServeReport::WallSeconds. Also
  /// holds freeing the batch's shared symbol table, so it grows with the
  /// sessions the batch ran.
  std::vector<double> SetupS;
  std::vector<SessionOutcome> Outcomes;
};

struct UntracedRun {
  std::vector<Pass> Passes;
  /// runSessions duration minus ServeReport::WallSeconds on an empty
  /// manifest, sampled after every pass: serve's fixed set-up cost, free
  /// of the per-batch teardown that varies with the sessions run.
  std::vector<double> EmptySetupS;
  uint64_t Attempted = 0;
  /// Sessions that failed their verdict or halted with a value other than
  /// the source interpreter's.
  uint64_t Failed = 0;
  /// A later pass disagreed with the first on some session's steps,
  /// collections, verdict or value.
  bool Diverged = false;
  std::vector<std::string> Problems; ///< First few, for the report.
};

/// Slices \p M into runSessions calls of \p Batch sessions.
std::vector<scav::serve::Manifest> splitBatches(const scav::serve::Manifest &M,
                                                size_t Batch);

/// Runs whole passes over \p Batches, at least one, while the next is
/// expected to end within \p Seconds, checking each session against
/// \p In's expected values.
UntracedRun runUntraced(const std::vector<scav::serve::Manifest> &Batches,
                        const Inputs &In, double Seconds);

} // namespace certbench

#endif // CERTBENCH_UNTRACED_H
