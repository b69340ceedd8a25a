//===- certbench/src/Traced.h - The traced replica --------------*- C++ -*-===//
///
/// \file
/// Replays serve::runSessions' per-session work through each layer's public
/// calls, in the order runOne makes them, and times every call from here:
///
///   frozen base build, Pipeline construction, the source read,
///   lambda::parseExpr, lambda::typeCheck, cps::cpsConvert,
///   clos::closureConvert, clos::typeCheckProgram, gc::translateProgram,
///   Machine::start, Machine::step (split into mutator and collector steps
///   by the IfGcTaken/OnlyOps counters), IncrementalStateCheck::check, and
///   the pipeline's teardown.
///
/// VM lowering time comes from VmExec::lowerNs() and is taken out of the
/// Machine::start or Machine::step call that contains it, so every layer
/// time is a self time. Ψ typework inside steps (GcContext::Stats'
/// typework clock; checks excluded) is reported as a breakdown of the
/// mutator and collector step times. Spans stay in memory until the run
/// ends.
///
//===----------------------------------------------------------------------===//

#ifndef CERTBENCH_TRACED_H
#define CERTBENCH_TRACED_H

#include "Untraced.h"

#include <map>
#include <string>
#include <vector>

namespace certbench {

/// One timed call: which session (or base build) it belongs to, the layer
/// name, and its interval in microseconds from the start of the run.
struct Span {
  uint32_t Session;
  const char *Name;
  double StartUs;
  double EndUs;
};

struct TracedRun {
  std::vector<SessionOutcome> Outcomes; ///< Manifest order.
  double WallS = 0;
  /// Self time per layer, in milliseconds (keys are layer names). The
  /// layers are disjoint: together they cover the run's wall time.
  std::map<std::string, double> SelfMs;
  /// Ψ typework (GcContext's typework clock) inside mutator and inside
  /// collector steps, in milliseconds: a breakdown of those two layers.
  std::map<std::string, double> PsiMs;
  /// Work counts summed over sessions (keys are metric names).
  std::map<std::string, uint64_t> Counts;
  /// Spans at collection, check and stage granularity.
  std::vector<Span> Spans;
  uint64_t LiveCellsPeak = 0;
};

TracedRun runTraced(const std::vector<scav::serve::Manifest> &Batches);

/// Writes \p Run's spans as a Chrome trace (chrome://tracing, Perfetto).
bool writeSpans(const TracedRun &Run, const std::string &Path);

} // namespace certbench

#endif // CERTBENCH_TRACED_H
