//===- serve/Manifest.h - Session manifest for certgc_serve -----*- C++ -*-===//
///
/// \file
/// Parses the manifest format driving certgc_serve: one session per line,
/// whitespace-separated `key=value` options, `#` comments. Example:
///
///   # level × eval-mode sweep over generated programs
///   level=base    eval=env  gen-seed=1
///   level=gen     eval=vm   gen-seed=2 capacity=128 check-every=64
///   level=forward eval=subst program=progs/sum.scm max-steps=100000
///
/// Exactly one of `gen-seed=N` (a ProgramGen seed) or `program=PATH` (a
/// source file, resolved relative to the manifest's directory) selects the
/// session's program. Everything else mirrors a certgc_run flag; see
/// parseManifest for the full key list and defaults. As in certgc_run, a
/// combination the session would not honour is an error rather than a
/// silent fallback: `async-check=1` with `stall-at-step=N` or with
/// `eval=vm`, and `async-check=1` or `full-check-every=N` without
/// `check-every=N`. Diagnostics carry the 1-based line number. (certgc_serve
/// also refuses `stall-at-step=N` without its `--stall-seconds` watchdog.)
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_SERVE_MANIFEST_H
#define SCAV_SERVE_MANIFEST_H

#include "gc/Machine.h"

#include <string>
#include <string_view>
#include <vector>

namespace scav::serve {

/// One session line, fully resolved (paths absolute-ized against the
/// manifest directory, defaults applied).
struct SessionSpec {
  gc::LanguageLevel Level = gc::LanguageLevel::Base;
  gc::EvalMode Eval = gc::EvalMode::Env;
  /// Program selection: HasGenSeed picks ProgramGen(GenSeed), else
  /// ProgramPath names a source file.
  bool HasGenSeed = false;
  uint64_t GenSeed = 0;
  std::string ProgramPath;
  uint32_t Capacity = 64;
  uint32_t CheckEvery = 0;
  /// Full-checker oracle cadence over the per-N checks; needs CheckEvery.
  uint32_t FullCheckEvery = 0;
  /// Pipelined checks (PipelineOptions::AsyncCheck); needs CheckEvery and
  /// is rejected together with eval=vm, whose step loop checks
  /// synchronously.
  bool AsyncCheck = false;
  uint64_t MaxSteps = 5'000'000;
  /// Fault-injection knob (tests/CI): wedge the session's step loop at
  /// this 1-based step until the watchdog aborts it
  /// (PipelineOptions::StallAtStep). 0 = off; rejected together with
  /// AsyncCheck, whose step loop has no stall hook, and by certgc_serve
  /// without --stall-seconds, which arms the watchdog.
  uint64_t StallAtStep = 0;
};

struct Manifest {
  std::vector<SessionSpec> Sessions;
};

/// Parses manifest \p Text. Relative `program=` paths are prefixed with
/// \p BaseDir (pass "" to leave them as-is). On failure returns false and
/// sets \p Error to a "line N: ..." diagnostic.
bool parseManifest(std::string_view Text, std::string_view BaseDir,
                   Manifest &Out, std::string &Error);

/// Reads and parses the manifest at \p Path; BaseDir is Path's directory.
bool loadManifest(const std::string &Path, Manifest &Out, std::string &Error);

} // namespace scav::serve

#endif // SCAV_SERVE_MANIFEST_H
