//===- serve/Serve.cpp - Concurrent multi-session pipeline runner ----------===//

#include "serve/Serve.h"

#include "gc/CollectorBasic.h"
#include "gc/CollectorForward.h"
#include "gc/CollectorGen.h"
#include "harness/Pipeline.h"
#include "harness/ProgramGen.h"
#include "support/Diag.h"
#include "support/Rng.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

using namespace scav;
using namespace scav::serve;

namespace {

double secondsSince(const std::chrono::steady_clock::time_point &T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Builds the frozen shared base: one context warmed with all three
/// collector vocabularies (throwaway machines install the code regions;
/// the tags/types/kinds they intern are what sessions share), then frozen
/// so every later mutation attempt is a session-local write by
/// construction.
std::unique_ptr<gc::GcContext> makeFrozenBase() {
  auto Base = std::make_unique<gc::GcContext>();
  for (gc::LanguageLevel L :
       {gc::LanguageLevel::Base, gc::LanguageLevel::Forward,
        gc::LanguageLevel::Generational}) {
    gc::Machine Warm(*Base, L);
    switch (L) {
    case gc::LanguageLevel::Base:
      gc::installBasicCollector(Warm);
      break;
    case gc::LanguageLevel::Forward:
      gc::installForwardCollector(Warm);
      break;
    case gc::LanguageLevel::Generational:
      gc::installGenCollector(Warm);
      gc::installGenFullCollector(Warm);
      break;
    }
  }
  Base->freeze();
  return Base;
}

/// Per-session channel between a worker thread and the watchdog. The
/// worker publishes its step count into Beat and polls Abort; the watchdog
/// reads Beat/State and sets Abort. Nothing else crosses the threads.
struct SessionWatch {
  std::atomic<uint64_t> Beat{0};
  std::atomic<bool> Abort{false};
  /// 0 = not started, 1 = running, 2 = finished.
  std::atomic<uint8_t> State{0};
};

/// Runs one manifest line to completion on the calling thread. Everything
/// the session touches is private except the (frozen) base, the symbol
/// table, and the trace sink — see the file comment in Serve.h.
SessionResult runOne(const SessionSpec &Spec, size_t Index,
                     const gc::GcContext *Base, const ServeOptions &Opts,
                     SessionWatch *Watch) {
  SessionResult Res;
  Res.Index = Index;
  auto T0 = std::chrono::steady_clock::now();

  harness::PipelineOptions PO;
  PO.Level = Spec.Level;
  PO.Machine.Eval = Spec.Eval;
  PO.Machine.DefaultRegionCapacity = Spec.Capacity;
  PO.FullCheckEvery = Spec.FullCheckEvery;
  PO.AsyncCheck = Spec.AsyncCheck;
  PO.SharedBase = Base;
  PO.FreshNamespace = "s" + std::to_string(Index) + ".";
  if (!Opts.DumpDir.empty()) {
    // Per-session subdirectory: concurrent sessions must not race on one
    // bundle name.
    PO.DumpDir = Opts.DumpDir + "/s" + std::to_string(Index);
    PO.DumpMetrics = &Res.Metrics;
    PO.ReplayCmd = Opts.ReplayBase.empty()
                       ? "session " + std::to_string(Index)
                       : Opts.ReplayBase + "  # session " +
                             std::to_string(Index);
  }
  if (Watch) {
    PO.Heartbeat = &Watch->Beat;
    PO.AbortRequested = &Watch->Abort;
    PO.StallAtStep = Spec.StallAtStep;
  }

  harness::Pipeline P(PO);
  support::Histogram &Pauses =
      Res.Metrics.histogram("machine.collect_pause_ns");
  P.machine().attachPauseHistogram(&Pauses);

  DiagEngine Diags;
  bool Compiled = false;
  if (Spec.HasGenSeed) {
    Rng R(Spec.GenSeed);
    const lambda::Expr *E = harness::genProgram(P.lambdaContext(), R);
    Compiled = E && P.compileExpr(E, Diags);
  } else {
    std::ifstream In{Spec.ProgramPath};
    if (!In) {
      Res.Error = "cannot open " + Spec.ProgramPath;
      Res.Seconds = secondsSince(T0);
      return Res;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Compiled = P.compile(Buf.str(), Diags);
  }
  if (!Compiled) {
    Res.Error = "compile failed: " + Diags.str();
    Res.Seconds = secondsSince(T0);
    return Res;
  }

  harness::RunResult R = P.runMachine(Spec.MaxSteps, Spec.CheckEvery);
  Res.Ok = R.Ok;
  Res.Value = R.Value;
  Res.Steps = R.Steps;
  Res.Error = R.Error;
  Res.DumpPath = R.DumpPath;
  Res.Stalled = Watch && Watch->Abort.load(std::memory_order_relaxed);
  Res.Seconds = secondsSince(T0);
  P.exportMetrics(Res.Metrics);
  return Res;
}

} // namespace

ServeReport scav::serve::runSessions(const Manifest &M,
                                     const ServeOptions &Opts) {
  ServeReport Rep;
  Rep.Workers = std::max(1u, Opts.Workers);

  std::unique_ptr<gc::GcContext> Base;
  if (Opts.SharedBase)
    Base = makeFrozenBase();

  auto T0 = std::chrono::steady_clock::now();
  Rep.Sessions.resize(M.Sessions.size());

  // Watchdog plumbing: one channel per session, allocated only when the
  // watchdog is armed (the heartbeat store in the step loop is relaxed and
  // cheap, but the no-watchdog fast path should stay byte-for-byte the
  // same run it always was).
  bool Watchdogged = Opts.StallSeconds > 0;
  std::vector<std::unique_ptr<SessionWatch>> Watches;
  if (Watchdogged) {
    Watches.resize(M.Sessions.size());
    for (auto &W : Watches)
      W = std::make_unique<SessionWatch>();
  }

  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I = Next.fetch_add(1); I < M.Sessions.size();
         I = Next.fetch_add(1)) {
      SessionWatch *W = Watchdogged ? Watches[I].get() : nullptr;
      if (W)
        W->State.store(1, std::memory_order_release);
      Rep.Sessions[I] =
          runOne(M.Sessions[I], I, Base.get(), Opts, W);
      if (W)
        W->State.store(2, std::memory_order_release);
    }
  };

  // The watchdog samples heartbeats on the (injectable) clock and flags
  // sessions whose beat stopped moving; the flagged session's own thread
  // dumps and fails. The trace track it emits ("serve.heartbeat") is the
  // sum of all session beats — monotone while everything makes progress.
  std::atomic<bool> PoolDone{false};
  uint64_t StallsFired = 0;
  std::thread Watchdog;
  if (Watchdogged) {
    std::function<double()> Clock = Opts.Clock;
    if (!Clock) {
      auto W0 = std::chrono::steady_clock::now();
      Clock = [W0] { return secondsSince(W0); };
    }
    Watchdog = std::thread([&, Clock] {
      struct Watched {
        uint64_t LastBeat = 0;
        double LastChange = -1; ///< -1: not seen running yet.
        bool Fired = false;
      };
      std::vector<Watched> WS(Watches.size());
      while (!PoolDone.load(std::memory_order_acquire)) {
        double Now = Clock();
        uint64_t TotalBeats = 0;
        for (size_t I = 0; I != Watches.size(); ++I) {
          SessionWatch &W = *Watches[I];
          uint64_t Beat = W.Beat.load(std::memory_order_relaxed);
          TotalBeats += Beat;
          if (W.State.load(std::memory_order_acquire) != 1)
            continue;
          Watched &S = WS[I];
          if (S.LastChange < 0 || Beat != S.LastBeat) {
            S.LastBeat = Beat;
            S.LastChange = Now;
            continue;
          }
          if (!S.Fired && Now - S.LastChange > Opts.StallSeconds) {
            S.Fired = true;
            ++StallsFired;
            TRACE_INSTANT("serve", "watchdog.stall");
            W.Abort.store(true, std::memory_order_release);
          }
        }
        TRACE_COUNTER("serve.heartbeat", TotalBeats);
        std::this_thread::sleep_for(std::chrono::duration<double>(
            std::max(0.0, Opts.WatchdogPollSeconds)));
      }
    });
  }

  if (Rep.Workers == 1) {
    // Inline: the serial baseline the differential test compares against.
    Work();
  } else {
    std::vector<std::thread> Pool;
    Pool.reserve(Rep.Workers);
    for (unsigned W = 0; W != Rep.Workers; ++W)
      Pool.emplace_back(Work);
    for (std::thread &T : Pool)
      T.join();
  }
  PoolDone.store(true, std::memory_order_release);
  if (Watchdog.joinable())
    Watchdog.join();
  Rep.WallSeconds = secondsSince(T0);

  // Aggregation is single-threaded (the registry thread model): sum every
  // per-session registry, then stamp the service-level gauges.
  Rep.AllOk = !Rep.Sessions.empty();
  uint64_t TotalSteps = 0;
  for (const SessionResult &S : Rep.Sessions) {
    Rep.AllOk = Rep.AllOk && S.Ok;
    TotalSteps += S.Steps;
    Rep.Aggregate.mergeFrom(S.Metrics);
  }
  Rep.Aggregate.setGauge("serve.sessions",
                         static_cast<double>(Rep.Sessions.size()));
  Rep.Aggregate.setGauge("serve.workers", Rep.Workers);
  if (Watchdogged) {
    // One writer (this thread, after the join): the counter totals
    // watchdog aborts; per-session heartbeat gauges record each final
    // step count.
    Rep.Aggregate.counter("serve.stalled") += StallsFired;
    for (size_t I = 0; I != Watches.size(); ++I)
      Rep.Aggregate.setGauge("serve.heartbeat.s" + std::to_string(I),
                             static_cast<double>(Watches[I]->Beat.load(
                                 std::memory_order_relaxed)));
  }
  Rep.Aggregate.setGauge("serve.wall_seconds", Rep.WallSeconds);
  if (Rep.WallSeconds > 0) {
    Rep.Aggregate.setGauge("serve.sessions_per_sec",
                           Rep.Sessions.size() / Rep.WallSeconds);
    Rep.Aggregate.setGauge("serve.steps_per_sec",
                           static_cast<double>(TotalSteps) / Rep.WallSeconds);
  }
  return Rep;
}
