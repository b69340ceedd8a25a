//===- tests/integration_pipeline_test.cpp - T4: differential semantics ---===//
//
// Whole-pipeline differential tests: every source program must evaluate to
// the same integer at every stage (source, CPS, λCLOS, λGC machine), at
// every language level, with collections actually firing when the region
// capacity is small.
//
//===----------------------------------------------------------------------===//

#include "harness/Pipeline.h"

#include <gtest/gtest.h>

using namespace scav;
using namespace scav::harness;

namespace {

struct ProgramCase {
  const char *Name;
  const char *Src;
  int64_t Want;
};

const ProgramCase Programs[] = {
    {"const", "42", 42},
    {"arith", "(+ (* 6 7) (- 0 0))", 42},
    {"apply", "(app (lam (x Int) (+ x 1)) 41)", 42},
    {"pairs", "(let p (pair (pair 1 2) 3) (+ (snd (fst p)) (snd p)))", 5},
    {"factorial",
     "(app (fix f (n Int) Int (if0 n 1 (* n (app f (- n 1))))) 6)", 720},
    {"sum", "(app (fix f (n Int) Int (if0 n 0 (+ n (app f (- n 1))))) 25)",
     325},
    {"chain",
     "(app (app (fix b (n Int) (-> Int Int)"
     "  (if0 n (lam (x Int) x)"
     "    (let g (app b (- n 1)) (lam (x Int) (app g (+ x n))))))"
     " 8) 100)",
     136},
    {"shared-tree",
     // build(d) = λx. s (s x) with s = build(d-1): a DAG of closures.
     "(app (app (fix t (d Int) (-> Int Int)"
     "  (if0 d (lam (x Int) (+ x 1))"
     "    (let s (app t (- d 1)) (lam (x Int) (app s (app s x))))))"
     " 4) 0)",
     16},
    {"higher-order",
     "(let twice (lam (f (-> Int Int)) (lam (x Int) (app f (app f x))))"
     " (app (app twice (lam (y Int) (* y 3))) 2))",
     18},
};

class PipelineLevels
    : public ::testing::TestWithParam<std::tuple<gc::LanguageLevel, int>> {};

TEST_P(PipelineLevels, DifferentialSemantics) {
  auto [Level, Idx] = GetParam();
  const ProgramCase &P = Programs[Idx];

  PipelineOptions Opts;
  Opts.Level = Level;
  // Small regions force collections mid-run.
  Opts.Machine.DefaultRegionCapacity = 16;

  Pipeline Pipe(Opts);
  DiagEngine Diags;
  ASSERT_TRUE(Pipe.compile(P.Src, Diags)) << Diags.str();

  RunResult Rs = Pipe.runSource();
  ASSERT_TRUE(Rs.Ok) << Rs.Error;
  EXPECT_EQ(Rs.Value, P.Want);

  RunResult Rc = Pipe.runCps();
  ASSERT_TRUE(Rc.Ok) << Rc.Error;
  EXPECT_EQ(Rc.Value, P.Want);

  RunResult Rl = Pipe.runClos();
  ASSERT_TRUE(Rl.Ok) << Rl.Error;
  EXPECT_EQ(Rl.Value, P.Want);

  RunResult Rm = Pipe.runMachine();
  ASSERT_TRUE(Rm.Ok) << Rm.Error;
  EXPECT_EQ(Rm.Value, P.Want) << "machine disagrees for " << P.Name;
}

std::string pipelineCaseName(
    const ::testing::TestParamInfo<std::tuple<gc::LanguageLevel, int>>
        &Info) {
  gc::LanguageLevel Level = std::get<0>(Info.param);
  int Idx = std::get<1>(Info.param);
  std::string Name = Programs[Idx].Name;
  for (char &Ch : Name)
    if (Ch == '-')
      Ch = '_';
  // Skip the "lambda-" prefix and sanitize.
  std::string LevelName = gc::languageLevelName(Level) + 7;
  for (char &Ch : LevelName)
    if (Ch == '-')
      Ch = '_';
  return LevelName + "_" + Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllLevels, PipelineLevels,
    ::testing::Combine(::testing::Values(gc::LanguageLevel::Base,
                                         gc::LanguageLevel::Forward,
                                         gc::LanguageLevel::Generational),
                       ::testing::Range(0, 9)),
    pipelineCaseName);

static_assert(std::size(Programs) == 9, "update the Range above");

TEST(PipelineIntegration, CollectionsActuallyFire) {
  // The chain program allocates ~3 closures per iteration; a capacity of 12
  // forces several collections at every level.
  const char *Src =
      "(app (app (fix b (n Int) (-> Int Int)"
      "  (if0 n (lam (x Int) x)"
      "    (let g (app b (- n 1)) (lam (x Int) (app g (+ x n))))))"
      " 12) 1000)";
  for (gc::LanguageLevel Level :
       {gc::LanguageLevel::Base, gc::LanguageLevel::Forward,
        gc::LanguageLevel::Generational}) {
    PipelineOptions Opts;
    Opts.Level = Level;
    Opts.Machine.DefaultRegionCapacity = 12;
    Pipeline Pipe(Opts);
    DiagEngine Diags;
    ASSERT_TRUE(Pipe.compile(Src, Diags))
        << gc::languageLevelName(Level) << ": " << Diags.str();
    RunResult R = Pipe.runMachine(20'000'000);
    ASSERT_TRUE(R.Ok) << gc::languageLevelName(Level) << ": " << R.Error;
    EXPECT_EQ(R.Value, 1000 + 12 * 13 / 2);
    EXPECT_GE(Pipe.machine().stats().IfGcTaken, 1u)
        << gc::languageLevelName(Level) << ": no collection fired";
    EXPECT_GE(Pipe.machine().stats().RegionsReclaimed, 1u);
  }
}

TEST(PipelineIntegration, OverflowingArithmeticWrapsAtEveryStage) {
  // 25! overflows int64 in `*`, then `+` and `-` overflow it again. Every
  // evaluator wraps modulo 2^64 (support/WrapArith.h), so the source
  // interpreter, CPS, λCLOS and the machine under all three engines agree
  // on one defined result; an evaluator with a plain signed operator is
  // undefined behaviour here, which the UBSan build turns into a failure.
  const char *Src =
      "(- (+ (app (fix f (n Int) Int (if0 n 1 (* n (app f (- n 1))))) 25)"
      "      9223372036854775807)"
      "   (- 0 9223372036854775807))";
  uint64_t Fact = 1;
  for (uint64_t I = 2; I <= 25; ++I)
    Fact *= I;
  const uint64_t Max = static_cast<uint64_t>(INT64_MAX);
  const int64_t Want = static_cast<int64_t>(Fact + Max - (0 - Max));

  for (gc::LanguageLevel Level :
       {gc::LanguageLevel::Base, gc::LanguageLevel::Forward,
        gc::LanguageLevel::Generational}) {
    for (gc::EvalMode Mode :
         {gc::EvalMode::Subst, gc::EvalMode::Env, gc::EvalMode::Vm}) {
      std::string What = std::string(gc::languageLevelName(Level)) + "/" +
                         gc::evalModeName(Mode);
      PipelineOptions Opts;
      Opts.Level = Level;
      Opts.Machine.Eval = Mode;
      Opts.Machine.DefaultRegionCapacity = 16;
      Pipeline Pipe(Opts);
      DiagEngine Diags;
      ASSERT_TRUE(Pipe.compile(Src, Diags)) << What << ": " << Diags.str();
      for (RunResult R : {Pipe.runSource(), Pipe.runCps(), Pipe.runClos(),
                          Pipe.runMachine()}) {
        ASSERT_TRUE(R.Ok) << What << ": " << R.Error;
        EXPECT_EQ(R.Value, Want) << What;
      }
    }
  }
}

TEST(PipelineIntegration, MutatorCodeCertifies) {
  // The translated mutator + collector must jointly pass certification —
  // this is the paper's separate-compilation story: the collector is a
  // library, the mutator is compiled against M's contract only.
  const char *Src =
      "(app (fix f (n Int) Int (if0 n 0 (+ n (app f (- n 1))))) 5)";
  for (gc::LanguageLevel Level :
       {gc::LanguageLevel::Base, gc::LanguageLevel::Forward,
        gc::LanguageLevel::Generational}) {
    PipelineOptions Opts;
    Opts.Level = Level;
    Pipeline Pipe(Opts);
    DiagEngine Diags;
    ASSERT_TRUE(Pipe.compile(Src, Diags)) << Diags.str();
    EXPECT_TRUE(Pipe.certify(Diags))
        << gc::languageLevelName(Level) << ":\n"
        << Diags.str();
  }
}

TEST(PipelineIntegration, PerStepSoundnessDuringCollections) {
  // T1 on a real translated program: preservation re-checked at every
  // machine step through several full collections, at every level.
  const char *Src =
      "(app (app (fix b (n Int) (-> Int Int)"
      "  (if0 n (lam (x Int) x)"
      "    (let g (app b (- n 1)) (lam (x Int) (app g (+ x n))))))"
      " 3) 10)";
  for (gc::LanguageLevel Level :
       {gc::LanguageLevel::Base, gc::LanguageLevel::Forward,
        gc::LanguageLevel::Generational}) {
    PipelineOptions Opts;
    Opts.Level = Level;
    Opts.Machine.DefaultRegionCapacity = 10;
    Pipeline Pipe(Opts);
    DiagEngine Diags;
    ASSERT_TRUE(Pipe.compile(Src, Diags)) << Diags.str();
    RunResult R = Pipe.runMachine(2'000'000, /*CheckEveryN=*/1);
    ASSERT_TRUE(R.Ok) << gc::languageLevelName(Level) << ": " << R.Error;
    EXPECT_EQ(R.Value, 10 + 3 + 2 + 1);
    EXPECT_GE(Pipe.machine().stats().IfGcTaken, 1u)
        << gc::languageLevelName(Level);
  }
}

TEST(PipelineIntegration, MajorCollectionsKeepOldGenerationBounded) {
  // With only minor collections the old generation grows without bound
  // (every survivor is promoted forever); wiring the certified major
  // collector (ifgc ro) keeps it bounded and preserves the result.
  const char *Src =
      "(app (app (fix b (n Int) (-> Int Int)"
      "  (if0 n (lam (x Int) x)"
      "    (let g (app b (- n 1)) (lam (x Int) (app g (+ x n))))))"
      " 16) 100)";
  int64_t Want = 100 + 16 * 17 / 2;

  auto OldGenPeak = [&](bool Major, int64_t &Value) -> size_t {
    PipelineOptions Opts;
    Opts.Level = gc::LanguageLevel::Generational;
    Opts.InstallMajorCollector = Major;
    Opts.Machine.DefaultRegionCapacity = 8;
    Pipeline Pipe(Opts);
    DiagEngine Diags;
    EXPECT_TRUE(Pipe.compile(Src, Diags)) << Diags.str();
    EXPECT_TRUE(Pipe.certify(Diags)) << Diags.str();
    gc::Machine &M = Pipe.machine();
    M.start(Pipe.mainTerm());
    size_t Peak = 0;
    while (M.status() == gc::Machine::Status::Running) {
      M.step();
      for (const auto &[S, R] : M.memory().Regions) {
        std::string_view Name = M.context().name(S);
        if (Name.substr(0, 2) == "ro" || Name.substr(0, 2) == "rn")
          Peak = std::max(Peak, R.Cells.size());
      }
    }
    EXPECT_EQ(M.status(), gc::Machine::Status::Halted) << M.stuckReason();
    Value = M.status() == gc::Machine::Status::Halted
                ? M.haltValue()->intValue()
                : -1;
    if (Major) {
      EXPECT_GT(M.stats().RegionsReclaimed, 0u);
    }
    return Peak;
  };

  int64_t V1 = 0, V2 = 0;
  size_t PeakWithout = OldGenPeak(false, V1);
  size_t PeakWith = OldGenPeak(true, V2);
  EXPECT_EQ(V1, Want);
  EXPECT_EQ(V2, Want);
  // The major collector compacts the old space below the unbounded run.
  EXPECT_LT(PeakWith, PeakWithout)
      << "major collections should bound the old generation";
}

TEST(PipelineIntegration, NoCollectorBaselineRuns) {
  PipelineOptions Opts;
  Opts.InstallCollector = false;
  Pipeline Pipe(Opts);
  DiagEngine Diags;
  ASSERT_TRUE(
      Pipe.compile("(app (lam (x Int) (* x 2)) 21)", Diags))
      << Diags.str();
  RunResult R = Pipe.runMachine();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value, 42);
  EXPECT_EQ(Pipe.machine().stats().IfGcTaken, 0u);
}

} // namespace
