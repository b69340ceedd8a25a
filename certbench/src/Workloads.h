//===- certbench/src/Workloads.h - Seeded session inputs --------*- C++ -*-===//
///
/// \file
/// Generates each workload's inputs from a seed: one lambda source file per
/// session plus the manifest that names them. The program under test only
/// ever sees these files; the expected value of every session comes from
/// lambda::evaluate, the source interpreter, which is independent of the
/// compiler and machine being measured. NOTES.md says why each workload
/// exists.
///
//===----------------------------------------------------------------------===//

#ifndef CERTBENCH_WORKLOADS_H
#define CERTBENCH_WORKLOADS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace certbench {

enum class Workload { Churn, Retain, Startup };

std::optional<Workload> parseWorkload(std::string_view Name);
const char *workloadName(Workload W);

/// Manifest sessions per runSessions call. A run executes every batch of
/// the manifest at least once, so each pass yields several set-up samples.
size_t batchSize(Workload W);

/// Highest percentile reported for session times and collect pauses: the
/// tail rule (Stats.h) applied to the smallest per-pass count the workload
/// produces, fixed here so the metric means the same thing on every seed.
double sessionTailPct(Workload W);
double pauseTailPct(Workload W);

/// One session: its source text and the value the source interpreter
/// gives it.
struct SessionInput {
  std::string File; ///< Name relative to the manifest's directory.
  std::string Source;
  int64_t Expected = 0;
};

struct Inputs {
  std::vector<SessionInput> Sessions;
  std::string Manifest; ///< One line per session, in session order.
  /// Drawn churn programs left out because the source interpreter needed
  /// more than the reference fuel (NOTES.md, "Workloads").
  uint64_t Skipped = 0;
};

/// Builds the inputs of \p W for \p Seed, including every expected value.
/// Deterministic: the same (workload, seed) gives byte-identical inputs.
/// Returns false and sets \p Error if a generated source fails to parse or
/// to evaluate to an integer.
bool makeInputs(Workload W, uint64_t Seed, Inputs &Out, std::string &Error);

/// Digest over the manifest and every source, in session order.
std::string inputsDigest(const Inputs &In);

/// Writes the sources and `manifest.txt` under \p Dir (created if
/// missing). \returns the manifest path, or "" with \p Error set.
std::string writeInputs(const Inputs &In, const std::string &Dir,
                        std::string &Error);

} // namespace certbench

#endif // CERTBENCH_WORKLOADS_H
