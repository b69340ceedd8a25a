//===- bench/e14_serve.cpp - E14: multi-session serving throughput --------===//
//
// certgc_serve's scaling claim: a manifest of independent pipeline sessions
// (ProgramGen programs across all three language levels) served over a
// frozen shared GcContext base scales with worker threads — sessions/sec at
// 4 workers >= 2.5x the 1-worker baseline on a box with >= 4 cores (the
// gate is reported but not enforced on smaller boxes), with *identical*
// per-session verdicts, halt values, and step counts at every worker count
// (that parity gate always holds, it is what makes the speedup claimable).
//
// Sessions are embarrassingly parallel by design — the point of the
// measurement is that the shared substrate (frozen base, symbol table,
// trace sink, metrics merging) does not serialize them in practice.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "serve/Serve.h"

#include <thread>

using namespace scav;
using namespace scav::bench;
using namespace scav::serve;

namespace {

/// The workload: a level × eval-mode sweep of generated programs, sized so
/// one session takes milliseconds (enough collections to matter, small
/// enough that a 1-worker sweep stays in bench-smoke budget).
Manifest makeManifest(size_t Sessions) {
  Manifest M;
  const LanguageLevel Levels[] = {LanguageLevel::Base, LanguageLevel::Forward,
                                  LanguageLevel::Generational};
  const EvalMode Modes[] = {EvalMode::Env, EvalMode::Vm};
  for (size_t I = 0; I != Sessions; ++I) {
    SessionSpec S;
    S.Level = Levels[I % 3];
    S.Eval = Modes[(I / 3) % 2];
    S.HasGenSeed = true;
    S.GenSeed = 1000 + I;
    S.Capacity = 64;
    // A light certification cadence so the checker is part of what scales.
    S.CheckEvery = 256;
    M.Sessions.push_back(S);
  }
  return M;
}

bool sameResults(const ServeReport &A, const ServeReport &B,
                 const char *Label) {
  if (A.Sessions.size() != B.Sessions.size())
    return false;
  bool Ok = true;
  for (size_t I = 0; I != A.Sessions.size(); ++I) {
    const SessionResult &X = A.Sessions[I];
    const SessionResult &Y = B.Sessions[I];
    if (X.Ok != Y.Ok || X.Value != Y.Value || X.Steps != Y.Steps) {
      std::fprintf(stderr,
                   "%s: session %zu diverged: ok %d/%d value %lld/%lld "
                   "steps %llu/%llu\n",
                   Label, I, X.Ok, Y.Ok, (long long)X.Value,
                   (long long)Y.Value, (unsigned long long)X.Steps,
                   (unsigned long long)Y.Steps);
      Ok = false;
    }
  }
  return Ok;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = parseBenchArgs(argc, argv);
  JsonReport Report("e14_serve");
  unsigned Cores = std::thread::hardware_concurrency();
  std::printf("E14: multi-session serving throughput (cores here: %u)\n",
              Cores);
  std::printf("claim: sessions/sec at 4 workers >= 2.5x 1 worker (gated on "
              ">= 4 cores);\nverdict/value/step parity across worker counts "
              "(always gated)\n\n");

  const size_t NumSessions = 24;
  Manifest M = makeManifest(NumSessions);
  Report.metric("sessions", uint64_t(NumSessions));

  bool Ok = true;
  double Base = 0;
  std::printf("%8s %9s %14s %14s %8s\n", "workers", "all-ok", "wall ms",
              "sessions/sec", "speedup");
  ServeReport Serial;
  for (unsigned W : {1u, 2u, 4u}) {
    ServeOptions Opts;
    Opts.Workers = W;
    ServeReport Rep = runSessions(M, Opts);
    double PerSec =
        Rep.WallSeconds > 0 ? NumSessions / Rep.WallSeconds : 0;
    if (W == 1) {
      Base = PerSec;
      Serial = std::move(Rep);
      // The parity reference also feeds the record's merged pause
      // histogram and aggregate counters.
      for (const auto &[K, H] : Serial.Aggregate.histograms())
        Report.registry().histogram(K, H.bounds()).mergeFrom(H);
      Report.metric("serial_steps",
                    uint64_t(Serial.Aggregate.counters().count(
                                 "machine.steps")
                                 ? Serial.Aggregate.counters().at(
                                       "machine.steps")
                                 : 0));
    } else {
      Ok = sameResults(Serial, Rep, "parity") && Ok;
    }
    double Speedup = Base > 0 ? PerSec / Base : 0;
    const ServeReport &R = W == 1 ? Serial : Rep;
    std::printf("%8u %9s %14.2f %14.1f %7.2fx\n", W,
                R.AllOk ? "yes" : "NO", R.WallSeconds * 1e3, PerSec,
                Speedup);
    Ok = Ok && R.AllOk;
    std::string P = "w" + std::to_string(W);
    Report.metric(P + "_wall_seconds", R.WallSeconds);
    Report.metric(P + "_sessions_per_sec", PerSec);
    if (W == 4) {
      Report.metric("scaling_4v1_speedup", Speedup);
      if (Cores >= 4)
        Ok = Ok && Speedup >= 2.5;
      else
        std::printf("  (< 4 cores: the 2.5x gate is reported but not "
                    "enforced)\n");
    }
  }

  Report.pass(Ok);
  verdict(Ok, "serving scales with workers, session results unchanged");
  if (!Report.write(JsonPath))
    std::fprintf(stderr, "cannot write %s\n", JsonPath.c_str());
  return Ok ? 0 : 1;
}
