//===- certbench/src/Traced.cpp - The traced replica ----------------------===//

#include "Traced.h"

#include "harness/Pipeline.h"
#include "lambda/Lambda.h"
#include "vm/Vm.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <type_traits>

using namespace scav;

namespace certbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Accumulates one replica run: spans, self times and counts.
class Recorder {
public:
  explicit Recorder(TracedRun &Out) : Out(Out), T0(Clock::now()) {}

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - T0)
        .count();
  }

  /// Times \p Fn as a span of layer \p Name and charges its duration.
  template <typename F> auto span(const char *Name, F &&Fn) {
    double S = nowUs();
    if constexpr (std::is_void_v<decltype(Fn())>) {
      Fn();
      close(Name, S);
    } else {
      auto R = Fn();
      close(Name, S);
      return R;
    }
  }

  void close(const char *Name, double StartUs) {
    double E = nowUs();
    Out.Spans.push_back(Span{Session, Name, StartUs, E});
    charge(Name, E - StartUs);
  }

  void charge(const char *Name, double Us) { Out.SelfMs[Name] += Us / 1e3; }
  void count(const char *Name, uint64_t N) { Out.Counts[Name] += N; }

  uint32_t Session = 0;
  TracedRun &Out;

private:
  Clock::time_point T0;
};

/// serve's frozen base, built from the same public calls makeFrozenBase
/// makes: one context warmed with all three collector vocabularies.
std::unique_ptr<gc::GcContext> buildFrozenBase() {
  auto Base = std::make_unique<gc::GcContext>();
  {
    gc::Machine Warm(*Base, gc::LanguageLevel::Base);
    gc::installBasicCollector(Warm);
  }
  {
    gc::Machine Warm(*Base, gc::LanguageLevel::Forward);
    gc::installForwardCollector(Warm);
  }
  {
    gc::Machine Warm(*Base, gc::LanguageLevel::Generational);
    gc::installGenCollector(Warm);
    gc::installGenFullCollector(Warm);
  }
  Base->freeze();
  return Base;
}

/// Replays one session as serve's runOne would run it.
SessionOutcome replaySession(const serve::SessionSpec &Spec, size_t Index,
                             const gc::GcContext *Base, Recorder &Rec) {
  SessionOutcome O;
  auto Fail = [&](std::string Msg) {
    O.Error = std::move(Msg);
    return O;
  };

  harness::PipelineOptions PO;
  PO.Level = Spec.Level;
  PO.Machine.Eval = Spec.Eval;
  PO.Machine.DefaultRegionCapacity = Spec.Capacity;
  PO.SharedBase = Base;
  PO.FreshNamespace = "s" + std::to_string(Index) + ".";

  std::optional<harness::Pipeline> P;
  support::MetricsRegistry Reg;
  Rec.span("harness.ctor", [&] { P.emplace(PO); });
  support::Histogram &Pauses = Reg.histogram("machine.collect_pause_ns");
  P->machine().attachPauseHistogram(&Pauses);

  std::string Source = Rec.span("serve.read", [&] {
    std::ifstream In{Spec.ProgramPath};
    std::ostringstream Buf;
    Buf << In.rdbuf();
    return Buf.str();
  });

  DiagEngine Diags;
  clos::Program Prog;
  gc::TranslatedProgram Translated;
  const lambda::Expr *E = Rec.span(
      "lambda.parse",
      [&] { return lambda::parseExpr(P->lambdaContext(), Source, Diags); });
  if (!E || !Rec.span("lambda.typecheck", [&] {
        return lambda::typeCheck(P->lambdaContext(), E, Diags) != nullptr;
      }))
    return Fail("compile failed: " + Diags.str());
  const cps::Exp *Cps = Rec.span("cps.convert", [&] {
    return cps::cpsConvert(P->lambdaContext(), P->cpsContext(), E, Diags);
  });
  if (!Cps || !Rec.span("clos.convert", [&] {
        return clos::closureConvert(P->cpsContext(), P->closContext(), Cps,
                                    Prog, Diags);
      }))
    return Fail("compile failed: " + Diags.str());
  if (!Rec.span("clos.typecheck", [&] {
        return clos::typeCheckProgram(P->closContext(), Prog, Diags);
      }))
    return Fail("closure-converted program does not typecheck");
  Translated = Rec.span("gc.translate", [&] {
    return gc::translateProgram(P->machine(), P->closContext(), Prog,
                                P->gcEntry(), Diags, P->majorGcEntry());
  });
  if (!Translated.Ok)
    return Fail("compile failed: " + Diags.str());

  gc::Machine &M = P->machine();
  gc::GcContext::Stats &GS = P->gcContext().stats();
  const gc::MachineStats &MS = M.stats();
  auto *Vm = dynamic_cast<vm::VmExec *>(M.backend());
  auto LowerNs = [&] { return Vm ? Vm->lowerNs() : 0; };
  GS.TimingEnabled = true;

  // Machine::start lowers the main term under the VM; the rest of it is
  // charged to the mutator.
  {
    uint64_t L0 = LowerNs();
    double S = Rec.nowUs();
    M.start(Translated.Main);
    double Us = Rec.nowUs() - S;
    double LowerUs = (LowerNs() - L0) / 1e3;
    Rec.charge("vm.lower", LowerUs);
    Rec.charge("machine.mutator", Us - LowerUs);
  }

  // Typework inside a check stays in the check's time: only typework
  // inside steps is charged to Ψ upkeep.
  std::optional<gc::IncrementalStateCheck> Inc;
  auto Check = [&](const char *Name) {
    return Rec.span(Name, [&] { return Inc->check(); });
  };
  if (Spec.CheckEvery != 0) {
    gc::IncrementalCheckOptions IO;
    IO.RestrictToReachable = Spec.Level == gc::LanguageLevel::Forward;
    Rec.span("check.initial", [&] { Inc.emplace(M, IO); });
    gc::StateCheckResult R0 = Check("check.initial");
    if (!R0.Ok)
      return Fail("initial state ill-formed: " + R0.Error);
  }

  // The step loop of Pipeline::runMachine, one timed step at a time.
  // Ψ typework stays inside the step time it happened in (it is part of
  // Machine::step); it is also reported on its own, split by where it ran.
  double MutUs = 0, GcUs = 0, MutPsiUs = 0, GcPsiUs = 0, LowUs = 0;
  bool Collecting = false;
  double GcStartUs = 0;
  uint64_t LivePeak = 0;
  for (uint64_t I = 0; I != Spec.MaxSteps; ++I) {
    if (M.status() != gc::Machine::Status::Running)
      break;
    uint64_t Taken0 = MS.IfGcTaken, Only0 = MS.OnlyOps, L0 = LowerNs();
    double Tw0 = GS.TypeworkSeconds;
    double S = Rec.nowUs();
    gc::Machine::Status St = M.step();
    double End = Rec.nowUs();
    double Psi = (GS.TypeworkSeconds - Tw0) * 1e6;
    double Low = (LowerNs() - L0) / 1e3;
    if (MS.IfGcTaken != Taken0) {
      Collecting = true;
      GcStartUs = S;
    }
    (Collecting ? GcUs : MutUs) += End - S - Low;
    (Collecting ? GcPsiUs : MutPsiUs) += Psi;
    LowUs += Low;
    LivePeak = std::max<uint64_t>(LivePeak, M.memory().liveDataCells());
    if (Collecting && MS.OnlyOps != Only0) {
      Collecting = false;
      Rec.Out.Spans.push_back(Span{Rec.Session, "collect", GcStartUs, End});
    }
    if (St == gc::Machine::Status::Stuck)
      return Fail("machine stuck (progress violation): " + M.stuckReason());
    if (Spec.CheckEvery != 0 && I % Spec.CheckEvery == 0) {
      gc::StateCheckResult R = Check("check.incremental");
      if (!R.Ok)
        return Fail("preservation violation: " + R.Error);
    }
  }
  Rec.charge("machine.mutator", MutUs);
  Rec.charge("machine.collector", GcUs);
  Rec.Out.PsiMs["mutator"] += MutPsiUs / 1e3;
  Rec.Out.PsiMs["collector"] += GcPsiUs / 1e3;
  Rec.charge("vm.lower", LowUs);
  Rec.Out.LiveCellsPeak = std::max(Rec.Out.LiveCellsPeak, LivePeak);

  if (Inc) {
    const gc::IncrementalCheckStats &CS = Inc->stats();
    Rec.count("check.calls", CS.Checks);
    Rec.count("check.cells_validated", CS.CellsValidated);
    Rec.count("check.judgment_hits", CS.CellJudgmentCacheHits);
    Rec.span("check.incremental", [&] { Inc.reset(); });
  }

  O.Steps = MS.Steps;
  O.Collections = MS.IfGcTaken;
  if (M.status() == gc::Machine::Status::Halted && M.haltValue() &&
      M.haltValue()->is(gc::ValueKind::Int)) {
    O.Ok = true;
    O.Value = M.haltValue()->intValue();
  } else {
    O.Error = "machine did not halt with an integer";
  }

  Rec.count("machine.steps", MS.Steps);
  Rec.count("machine.collections", MS.IfGcTaken);
  Rec.count("machine.puts", MS.Puts);
  Rec.count("machine.putcache_hits", MS.RecordPutCacheHits);
  Rec.count("machine.putcache_misses", MS.RecordPutCacheMisses);
  Rec.count("machine.widens", MS.Widens);
  Rec.count("gc.type_intern_hits", GS.TypeInternHits);
  Rec.count("gc.type_intern_misses", GS.TypeInternMisses);
  Rec.count("gc.intern_hits",
            GS.TagInternHits + GS.TypeInternHits + GS.KindInternHits);
  Rec.count("gc.base_hits", GS.TagBaseHits + GS.TypeBaseHits + GS.KindBaseHits);

  // runOne exports the session's metrics, then destroys the pipeline.
  Rec.span("harness.teardown", [&] {
    P->exportMetrics(Reg);
    Prog = clos::Program{};
    Translated = gc::TranslatedProgram{};
    P.reset();
  });
  auto C = [&](const char *K) {
    auto It = Reg.counters().find(K);
    return It == Reg.counters().end() ? uint64_t(0) : It->second;
  };
  auto G = [&](const char *K) {
    auto It = Reg.gauges().find(K);
    return It == Reg.gauges().end() ? uint64_t(0)
                                    : static_cast<uint64_t>(It->second);
  };
  Rec.count("vm.tpl_hits", C("vm.tpl_hits"));
  Rec.count("vm.tpl_misses", C("vm.tpl_misses"));
  Rec.count("memory.cd_cells", G("memory.cd_cells"));
  return O;
}

} // namespace

TracedRun runTraced(const std::vector<serve::Manifest> &Batches) {
  TracedRun Run;
  Recorder Rec(Run);
  for (const serve::Manifest &B : Batches) {
    Rec.Session = UINT32_MAX; // base-build spans belong to no session
    std::unique_ptr<gc::GcContext> Base =
        Rec.span("serve.base", [] { return buildFrozenBase(); });
    for (size_t I = 0; I != B.Sessions.size(); ++I) {
      Rec.Session = static_cast<uint32_t>(Run.Outcomes.size());
      Run.Outcomes.push_back(replaySession(B.Sessions[I], I, Base.get(), Rec));
    }
    Rec.Session = UINT32_MAX;
    Rec.span("serve.base", [&] { Base.reset(); });
  }
  Run.WallS = Rec.nowUs() / 1e6;
  return Run;
}

bool writeSpans(const TracedRun &Run, const std::string &Path) {
  std::ofstream F(Path, std::ios::trunc);
  F << "{\"traceEvents\":[\n";
  bool First = true;
  for (const Span &S : Run.Spans) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"session\":%d}}",
                  First ? "" : ",\n", S.Name, S.StartUs, S.EndUs - S.StartUs,
                  S.Session == UINT32_MAX ? -1 : static_cast<int>(S.Session));
    F << Buf;
    First = false;
  }
  F << "\n]}\n";
  F.close();
  return static_cast<bool>(F);
}

} // namespace certbench
