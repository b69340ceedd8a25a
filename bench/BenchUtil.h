//===- bench/BenchUtil.h - Shared benchmark scaffolding ---------*- C++ -*-===//
///
/// \file
/// Small helpers shared by the experiment binaries: level setup with an
/// installed certified collector, a run-to-halt driver, and fixed-width
/// table printing. Each experiment binary prints the paper claim it
/// reproduces, the measured series, and a PASS/FAIL verdict on the claim's
/// *shape* (EXPERIMENTS.md records the outputs).
///
/// Machine-readable output (BENCH_e*.json) goes through the shared metrics
/// registry (support/Metrics.h): JsonReport is a thin wrapper that adds the
/// experiment header (name, pass flag, eval mode, git sha) on top of the
/// "scav-metrics-v1" schema, so every bench record has the same shape as
/// `certgc_run --stats-json` and gains histogram percentiles for free.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_BENCH_BENCHUTIL_H
#define SCAV_BENCH_BENCHUTIL_H

#include "gc/CollectorBasic.h"
#include "gc/CollectorForward.h"
#include "gc/CollectorGen.h"
#include "harness/HeapForge.h"
#include "vm/Vm.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace scav::bench {

using namespace scav::gc;
using namespace scav::harness;

inline double secondsSince(
    const std::chrono::steady_clock::time_point &T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

inline void verdict(bool Ok, const char *Claim) {
  std::printf("%s: %s\n", Ok ? "PASS" : "FAIL", Claim);
}

/// The build's git revision, baked in at CMake configure time (see
/// bench/CMakeLists.txt); "unknown" outside a git checkout. Configure-time,
/// so it can lag uncommitted edits — good enough to trace a BENCH record
/// back to the code that produced it.
inline const char *gitSha() {
#ifdef SCAV_GIT_SHA
  return SCAV_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Machine-readable experiment record. Every bench binary accepts
/// `--json <path>`; when present, the binary writes one "scav-metrics-v1"
/// object (DESIGN.md §3.9) with the experiment name, a pass flag, and its
/// key metrics, so EXPERIMENTS.md numbers can be regenerated mechanically.
/// Every record also carries the machine's evaluation mode (the mode a
/// Setup with the default config would use, unless the binary overrides it
/// via evalMode) and the git revision, so BENCH files from different builds
/// stay comparable.
class JsonReport {
public:
  explicit JsonReport(std::string Name) : Name(std::move(Name)) {}

  /// Point metrics: doubles land in the gauges section, integers in the
  /// counters section.
  void metric(const std::string &Key, double V) { Reg.setGauge(Key, V); }
  void metric(const std::string &Key, uint64_t V) { Reg.setCounter(Key, V); }

  /// One sample into the named histogram (default exponential nanosecond
  /// buckets) — the record then reports count/mean/p50/p90/p99/max.
  void sample(const std::string &Key, double V) {
    Reg.histogram(Key).record(V);
  }

  void pass(bool Ok) { Pass = Ok; }
  /// Overrides the recorded eval mode (binaries that run a non-default
  /// or mixed-mode machine, like e11).
  void evalMode(const std::string &Mode) { Mode_ = Mode; }

  /// Direct access for callers that export whole subsystems
  /// (Machine::exportMetrics, IncrementalCheckStats::exportTo).
  support::MetricsRegistry &registry() { return Reg; }

  /// Writes the report to \p Path; no-op when Path is empty.
  bool write(const std::string &Path) const {
    if (Path.empty())
      return true;
    auto Quoted = [](const std::string &S) {
      std::string Out;
      support::detail::appendJsonString(Out, S);
      return Out;
    };
    std::vector<std::pair<std::string, std::string>> Extra;
    Extra.emplace_back("experiment", Quoted(Name));
    Extra.emplace_back("pass", Pass ? "true" : "false");
    Extra.emplace_back("eval_mode", Quoted(Mode_));
    Extra.emplace_back("git_sha", Quoted(gitSha()));
    if (!support::writeFile(Path, support::writeMetricsJson(Reg, Extra)))
      return false;
    std::printf("wrote %s\n", Path.c_str());
    return true;
  }

private:
  std::string Name;
  bool Pass = false;
  std::string Mode_ = evalModeName(MachineConfig{}.Eval);
  support::MetricsRegistry Reg;
};

/// A machine with the level's certified collector installed and a data
/// region (plus an old region at the Generational level).
struct Setup {
  std::unique_ptr<GcContext> C;
  std::unique_ptr<Machine> M;
  /// Bytecode backend, constructed when Cfg.Eval == Vm. Declared after M so
  /// it detaches before the machine is destroyed.
  std::unique_ptr<vm::VmExec> Vm;
  Address GcAddr{};
  Region R, Old;
  /// When attached, collectOnce records each pause into the report's
  /// "collect_pause_ns" histogram.
  JsonReport *Report = nullptr;

  explicit Setup(LanguageLevel Level, MachineConfig Cfg = {}) {
    C = std::make_unique<GcContext>();
    M = std::make_unique<Machine>(*C, Level, Cfg);
    if (Cfg.Eval == EvalMode::Vm)
      Vm = std::make_unique<vm::VmExec>(*M);
    switch (Level) {
    case LanguageLevel::Base:
      GcAddr = installBasicCollector(*M).Gc;
      break;
    case LanguageLevel::Forward:
      GcAddr = installForwardCollector(*M).Gc;
      break;
    case LanguageLevel::Generational:
      GcAddr = installGenCollector(*M).Gc;
      break;
    }
    R = M->createRegion("from", 0);
    Old = Level == LanguageLevel::Generational
              ? M->createRegion("old", 0)
              : R;
  }

  void attachReport(JsonReport &Rep) { Report = &Rep; }

  /// Runs one certified collection of \p H; returns false on failure.
  bool collectOnce(const ForgedHeap &H, uint64_t MaxSteps = 50'000'000) {
    Address Fin = installFinisher(*M, H.Tag);
    const Term *E = collectOnceTerm(*M, GcAddr, H, R, Old, Fin);
    auto T0 = std::chrono::steady_clock::now();
    M->start(E);
    M->run(MaxSteps);
    if (Report)
      Report->sample(
          "collect_pause_ns",
          std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - T0)
              .count());
    if (M->status() != Machine::Status::Halted) {
      std::fprintf(stderr, "collection failed: %s\n",
                   M->stuckReason().c_str());
      return false;
    }
    return true;
  }
};

/// Extracts `--json <path>` from argv (removing both tokens so libraries
/// like google-benchmark never see them); returns the path or "".
inline std::string consumeJsonArg(int &Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0 && I + 1 < Argc) {
      std::string Path = Argv[I + 1];
      for (int J = I; J + 2 < Argc; ++J)
        Argv[J] = Argv[J + 2];
      Argc -= 2;
      return Path;
    }
  }
  return {};
}

/// Argument parsing for the experiment binaries that do not hand argv on to
/// Google Benchmark: `--json <path>` is the only argument they accept.
/// Anything else (an unknown flag, a stray operand, `--json` without a
/// path) prints usage and exits with status 2, so a mistyped flag cannot
/// quietly run the default experiment.
inline std::string parseBenchArgs(int Argc, char **Argv) {
  std::string Path = consumeJsonArg(Argc, Argv);
  if (Argc > 1) {
    std::fprintf(stderr,
                 "%s: unexpected argument '%s'\n"
                 "usage: %s [--json <path>]\n",
                 Argv[0], Argv[1], Argv[0]);
    std::exit(2);
  }
  return Path;
}

} // namespace scav::bench

#endif // SCAV_BENCH_BENCHUTIL_H
