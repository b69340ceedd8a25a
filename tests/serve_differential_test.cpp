//===- tests/serve_differential_test.cpp - certgc_serve determinism -------===//
//
// The serving front-end's core claim: session results are a function of the
// manifest alone — not of the worker count, and not of whether sessions
// share a frozen context base. Per-session verdicts, halt values, and step
// counts must be identical between a 1-worker (inline, serial) run and a
// 4-worker run of the same manifest, and between shared-base and
// private-context runs. Plus unit coverage of the manifest parser's
// diagnostics (same strictness class as the env-knob parser).
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include <gtest/gtest.h>

using namespace scav;
using namespace scav::serve;

namespace {

//===----------------------------------------------------------------------===//
// Manifest parsing
//===----------------------------------------------------------------------===//

TEST(Manifest, ParsesFullLine) {
  Manifest M;
  std::string Err;
  ASSERT_TRUE(parseManifest("# header comment\n"
                            "\n"
                            "level=gen eval=env gen-seed=7 capacity=128 "
                            "check-every=64 full-check-every=4 "
                            "async-check=1 "
                            "max-steps=1000 # trailing\n",
                            "", M, Err))
      << Err;
  ASSERT_EQ(M.Sessions.size(), 1u);
  const SessionSpec &S = M.Sessions[0];
  EXPECT_EQ(S.Level, gc::LanguageLevel::Generational);
  EXPECT_EQ(S.Eval, gc::EvalMode::Env);
  EXPECT_TRUE(S.HasGenSeed);
  EXPECT_EQ(S.GenSeed, 7u);
  EXPECT_EQ(S.Capacity, 128u);
  EXPECT_EQ(S.CheckEvery, 64u);
  EXPECT_EQ(S.FullCheckEvery, 4u);
  EXPECT_TRUE(S.AsyncCheck);
  EXPECT_EQ(S.MaxSteps, 1000u);
}

TEST(Manifest, DefaultsApply) {
  Manifest M;
  std::string Err;
  ASSERT_TRUE(parseManifest("gen-seed=1\n", "", M, Err)) << Err;
  const SessionSpec &S = M.Sessions[0];
  EXPECT_EQ(S.Level, gc::LanguageLevel::Base);
  EXPECT_EQ(S.Eval, gc::EvalMode::Env);
  EXPECT_EQ(S.Capacity, 64u);
  EXPECT_EQ(S.MaxSteps, 5'000'000u);
  EXPECT_FALSE(S.AsyncCheck);
}

TEST(Manifest, ProgramPathsResolveAgainstManifestDir) {
  Manifest M;
  std::string Err;
  ASSERT_TRUE(parseManifest("program=progs/a.scm\nprogram=/abs/b.scm\n",
                            "/root/dir", M, Err))
      << Err;
  EXPECT_EQ(M.Sessions[0].ProgramPath, "/root/dir/progs/a.scm");
  EXPECT_EQ(M.Sessions[1].ProgramPath, "/abs/b.scm");
}

TEST(Manifest, DiagnosticsCarryLineNumbers) {
  struct Case {
    const char *Text;
    const char *Needle;
  } Cases[] = {
      {"gen-seed=1\nlevel=medium gen-seed=2\n", "line 2"},
      {"level=base\n", "exactly one of gen-seed"},
      {"gen-seed=1 program=x.scm\n", "exactly one of"},
      {"gen-seed=zap\n", "not an unsigned integer"},
      {"gen-seed=1 capacity=99999999999\n", "capacity=99999999999"},
      {"gen-seed=1 bogus=3\n", "unknown key"},
      // No session code reads a native-copy thread count any more.
      {"gen-seed=1 threads=2\n", "unknown key 'threads'"},
      // The heap has one layout; the key that chose between two is gone.
      {"gen-seed=1 layout=compact\n", "unknown key 'layout'"},
      // The async step loop has no stall hook: refused in either key order.
      {"gen-seed=1\ngen-seed=2 async-check=1 stall-at-step=5\n", "line 2"},
      {"gen-seed=1 stall-at-step=5 async-check=1\n",
       "stall-at-step=N needs the synchronous step loop"},
      // The VM's step loop checks synchronously: refused in either order.
      {"gen-seed=1\ngen-seed=2 eval=vm async-check=1 check-every=8\n",
       "line 2: async-check=1 needs eval=env or eval=subst"},
      {"gen-seed=1 async-check=1 eval=vm\n", "async-check=1 needs eval="},
      // Async checking and the full-check oracle ride the per-N checks.
      {"gen-seed=1\ngen-seed=2 async-check=1\n",
       "line 2: async-check=1 pipelines the per-N checks"},
      {"gen-seed=1 full-check-every=4 check-every=0\n",
       "line 1: full-check-every=N checks the per-N incremental checks"},
      {"gen-seed=1 eval\n", "expected key=value"},
      {"", "no sessions"},
  };
  for (const Case &C : Cases) {
    Manifest M;
    std::string Err;
    EXPECT_FALSE(parseManifest(C.Text, "", M, Err)) << C.Text;
    EXPECT_NE(Err.find(C.Needle), std::string::npos)
        << "text: " << C.Text << "\ndiag: " << Err;
  }
}

//===----------------------------------------------------------------------===//
// Worker-count and shared-base differentials
//===----------------------------------------------------------------------===//

/// A small level × eval sweep; seeds picked arbitrarily, sizes kept small
/// so the 3 full sweeps below stay in unit-test budget.
Manifest sweepManifest() {
  Manifest M;
  std::string Err;
  EXPECT_TRUE(parseManifest(
      "level=base    eval=env gen-seed=11 check-every=128\n"
      "level=forward eval=env gen-seed=12\n"
      "level=gen     eval=env gen-seed=13 check-every=64\n"
      "level=base    eval=vm  gen-seed=14\n"
      "level=forward eval=vm  gen-seed=15 check-every=256\n"
      "level=gen     eval=vm  gen-seed=16\n"
      "level=forward eval=env gen-seed=17 async-check=1 check-every=32\n"
      "level=base    eval=subst gen-seed=18\n",
      "", M, Err))
      << Err;
  return M;
}

void expectSameSessionResults(const ServeReport &A, const ServeReport &B) {
  ASSERT_EQ(A.Sessions.size(), B.Sessions.size());
  for (size_t I = 0; I != A.Sessions.size(); ++I) {
    const SessionResult &X = A.Sessions[I];
    const SessionResult &Y = B.Sessions[I];
    EXPECT_EQ(X.Ok, Y.Ok) << "session " << I << ": " << X.Error << " / "
                          << Y.Error;
    EXPECT_EQ(X.Value, Y.Value) << "session " << I;
    EXPECT_EQ(X.Steps, Y.Steps) << "session " << I;
    EXPECT_EQ(X.Error, Y.Error) << "session " << I;
  }
}

TEST(ServeDifferential, WorkerCountDoesNotChangeResults) {
  Manifest M = sweepManifest();
  ServeOptions Serial;
  Serial.Workers = 1;
  ServeReport A = runSessions(M, Serial);
  EXPECT_TRUE(A.AllOk) << "serial baseline must pass";

  ServeOptions Pooled;
  Pooled.Workers = 4;
  ServeReport B = runSessions(M, Pooled);
  expectSameSessionResults(A, B);

  // The aggregate step counters (additive merges) agree too.
  EXPECT_EQ(A.Aggregate.counters().at("machine.steps"),
            B.Aggregate.counters().at("machine.steps"));
}

TEST(ServeDifferential, SharedBaseDoesNotChangeResults) {
  Manifest M = sweepManifest();
  ServeOptions Shared; // default: shared base, 1 worker
  ServeOptions Private;
  Private.SharedBase = false;
  Private.Workers = 4;
  expectSameSessionResults(runSessions(M, Shared),
                           runSessions(M, Private));
}

TEST(ServeDifferential, SessionsRecordCollectPauses) {
  // The pause histogram rides the PhaseMarks bracket, so any session that
  // actually collected has samples; and a session failure is reported, not
  // thrown.
  Manifest M;
  std::string Err;
  ASSERT_TRUE(parseManifest("level=forward gen-seed=12\n"
                            "program=/nonexistent/p.scm\n",
                            "", M, Err))
      << Err;
  ServeReport R = runSessions(M, ServeOptions{});
  ASSERT_EQ(R.Sessions.size(), 2u);
  EXPECT_FALSE(R.AllOk);
  EXPECT_TRUE(R.Sessions[0].Ok) << R.Sessions[0].Error;
  const auto &Hists = R.Sessions[0].Metrics.histograms();
  auto It = Hists.find("machine.collect_pause_ns");
  ASSERT_NE(It, Hists.end());
  if (R.Sessions[0].Metrics.counters().at("machine.only_ops") > 0)
    EXPECT_GT(It->second.count(), 0u);
  EXPECT_FALSE(R.Sessions[1].Ok);
  EXPECT_NE(R.Sessions[1].Error.find("cannot open"), std::string::npos);
}

} // namespace
