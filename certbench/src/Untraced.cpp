//===- certbench/src/Untraced.cpp - The measured run ----------------------===//

#include "Untraced.h"

#include "serve/Serve.h"

#include <algorithm>
#include <chrono>

using namespace scav;

namespace certbench {

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

uint64_t counterOr0(const support::MetricsRegistry &Reg,
                    const std::string &Name) {
  auto It = Reg.counters().find(Name);
  return It == Reg.counters().end() ? 0 : It->second;
}

/// Runs \p M on one worker; \p SetupS gets the call's duration minus the
/// report's session wall time.
serve::ServeReport runTimed(const serve::Manifest &M, double &SetupS) {
  serve::ServeOptions Opts;
  Opts.Workers = 1;
  auto T0 = std::chrono::steady_clock::now();
  serve::ServeReport Rep = serve::runSessions(M, Opts);
  SetupS = secondsSince(T0) - Rep.WallSeconds;
  return Rep;
}

Pass runPass(const std::vector<serve::Manifest> &Batches) {
  Pass P;
  for (const serve::Manifest &B : Batches) {
    double SetupS = 0;
    serve::ServeReport Rep = runTimed(B, SetupS);
    P.WallS += Rep.WallSeconds;
    P.SetupS.push_back(SetupS);
    auto H = Rep.Aggregate.histograms().find("machine.collect_pause_ns");
    if (H != Rep.Aggregate.histograms().end())
      P.PausesNs.mergeFrom(H->second);
    for (const serve::SessionResult &S : Rep.Sessions) {
      P.Steps += S.Steps;
      P.SessionMs.push_back(S.Seconds * 1e3);
      P.Outcomes.push_back(SessionOutcome{
          S.Ok, S.Value, S.Steps, counterOr0(S.Metrics, "machine.ifgc_taken"),
          S.Error});
    }
  }
  return P;
}

} // namespace

bool sameOutcome(const SessionOutcome &A, const SessionOutcome &B) {
  return A.Ok == B.Ok && A.Value == B.Value && A.Steps == B.Steps &&
         A.Collections == B.Collections;
}

std::vector<serve::Manifest> splitBatches(const serve::Manifest &M,
                                          size_t Batch) {
  std::vector<serve::Manifest> Out;
  for (size_t I = 0; I < M.Sessions.size(); I += Batch) {
    serve::Manifest B;
    for (size_t J = I; J != std::min(M.Sessions.size(), I + Batch); ++J)
      B.Sessions.push_back(M.Sessions[J]);
    Out.push_back(std::move(B));
  }
  return Out;
}

UntracedRun runUntraced(const std::vector<serve::Manifest> &Batches,
                        const Inputs &In, double Seconds) {
  UntracedRun Run;
  auto Note = [&](std::string Msg) {
    if (Run.Problems.size() < 8)
      Run.Problems.push_back(std::move(Msg));
  };
  auto T0 = std::chrono::steady_clock::now();
  // Start another pass only if it is expected to end within the budget.
  while (Run.Passes.empty() ||
         secondsSince(T0) * (Run.Passes.size() + 1) / Run.Passes.size() <=
             Seconds) {
    Pass P = runPass(Batches);
    // After the pass, so that every sample meets the allocator in the
    // state sessions leave it in, however many passes the run makes.
    for (int I = 0; I != 10; ++I)
      runTimed(serve::Manifest{}, Run.EmptySetupS.emplace_back());
    for (size_t I = 0; I != P.Outcomes.size(); ++I) {
      const SessionOutcome &O = P.Outcomes[I];
      ++Run.Attempted;
      if (!O.Ok || I >= In.Sessions.size() ||
          O.Value != In.Sessions[I].Expected) {
        ++Run.Failed;
        Note("session " + std::to_string(I) + ": " +
             (O.Ok ? "halted with " + std::to_string(O.Value) +
                         ", source interpreter gives " +
                         std::to_string(I < In.Sessions.size()
                                            ? In.Sessions[I].Expected
                                            : 0)
                   : O.Error));
      }
      if (!Run.Passes.empty() &&
          !sameOutcome(O, Run.Passes.front().Outcomes[I])) {
        Run.Diverged = true;
        Note("session " + std::to_string(I) +
             ": differs from the first pass (steps " +
             std::to_string(O.Steps) + " vs " +
             std::to_string(Run.Passes.front().Outcomes[I].Steps) + ")");
      }
    }
    Run.Passes.push_back(std::move(P));
  }
  return Run;
}

} // namespace certbench
