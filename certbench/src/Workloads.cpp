//===- certbench/src/Workloads.cpp - Seeded session inputs ----------------===//

#include "Workloads.h"

#include "Stats.h"

#include "harness/ProgramGen.h"
#include "lambda/Lambda.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

using namespace scav;

namespace certbench {

namespace {

/// Every workload runs the certified configuration: capacity-64 regions,
/// the compact heap (the process default) and Ψ tracking (on by default).
constexpr unsigned Capacity = 64;
/// The incremental-check cadence of churn and startup (the ROADMAP's
/// certified configuration). Retain runs with per-step checks off.
constexpr unsigned ChurnCheckEvery = 256;

/// Per-workload shape. Session counts are sized so one pass over the
/// manifest takes a few seconds on a 4-core x86 container; the tail
/// percentiles follow from the smallest per-pass counts (tailPercentile).
struct Shape {
  size_t Sessions;
  size_t Batch;
  double SessionTail;
  double PauseTail;
};

Shape shapeOf(Workload W) {
  switch (W) {
  case Workload::Churn:
    return {72, 9, 75, 95};
  case Workload::Retain:
    return {12, 3, 0, 90};
  case Workload::Startup:
    return {600, 75, 95, 95};
  }
  return {1, 1, 0, 0};
}

/// Churn draws ProgramGen programs unfiltered except for this bound on the
/// source interpreter's step count. Without it a seed now and then draws a
/// program that needs millions of source steps (tens of millions of
/// machine steps), which no run could finish; see NOTES.md.
constexpr uint64_t ChurnRefFuel = 4096;
/// Fuel for every other reference evaluation; generated inputs stay far
/// below it.
constexpr uint64_t RefFuel = 50'000'000;

const char *levelName(unsigned I) {
  static const char *Names[] = {"base", "forward", "gen"};
  return Names[I % 3];
}

/// E14's rotation: levels cycle fastest, engines alternate every three.
const char *evalName(unsigned I) { return (I / 3) % 2 ? "vm" : "env"; }

/// Parses \p Source in a fresh context and evaluates it with the source
/// interpreter. \returns false (with \p Error) unless it yields an integer.
bool referenceValue(const std::string &Source, uint64_t Fuel, int64_t &Out,
                    uint64_t &Steps, std::string &Error) {
  SymbolTable Syms;
  lambda::LambdaContext LC(Syms);
  DiagEngine Diags;
  const lambda::Expr *E = lambda::parseExpr(LC, Source, Diags);
  if (!E) {
    Error = "generated source does not parse: " + Diags.str();
    return false;
  }
  lambda::EvalResult R = lambda::evaluate(E, Fuel);
  Steps = R.Steps;
  if (!R.Value || R.Value->K != lambda::EvalValue::Kind::Int) {
    Error = R.Value ? "generated source is not an Int" : R.Error;
    return false;
  }
  Out = R.Value->N;
  return true;
}

std::string genSource(uint64_t GenSeed, int64_t MaxIterations) {
  SymbolTable Syms;
  lambda::LambdaContext LC(Syms);
  Rng R(GenSeed);
  harness::GenOptions Opts;
  Opts.MaxIterations = MaxIterations;
  return lambda::printExpr(LC, harness::genProgram(LC, R, Opts));
}

/// A chain of \p N closures, each capturing the one built before it. The
/// chain is walked twice, so all of it stays live through the first walk.
std::string chainSource(int64_t N, int64_t K) {
  std::string Ks = std::to_string(K);
  return "(let chain (app (fix build (n Int) (-> Int Int)\n"
         "  (if0 n (lam (x Int) x)\n"
         "    (let g (app build (- n 1))\n"
         "      (lam (x Int) (app g (+ x " + Ks + "))))))\n"
         "  " + std::to_string(N) + ")\n"
         "  (+ (app chain 1) (app chain 2)))\n";
}

/// A DAG of \p N levels: level n holds two closures, both reaching level
/// n-1, so every node below the top is shared. Walked twice like the chain.
std::string dagSource(int64_t N, int64_t K) {
  std::string Ks = std::to_string(K);
  return "(let top (app (fix build (n Int) (-> Int Int)\n"
         "  (if0 n (lam (x Int) (+ x 1))\n"
         "    (let s (app build (- n 1))\n"
         "      (let t (lam (x Int) (app s (+ x " + Ks + ")))\n"
         "        (lam (x Int) (if0 x (app s x) (app t (- x 1))))))))\n"
         "  " + std::to_string(N) + ")\n"
         "  (+ (app top 0) (app top 1)))\n";
}

/// Fisher-Yates with the benchmark's own RNG (std::shuffle's output is
/// implementation-defined).
template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

/// Sessions rotate through this many (level, engine) pairs: levelName and
/// evalName of index I depend only on I % Rotation.
constexpr size_t Rotation = 6;

/// Stratified draw of \p N ProgramGen programs (N a multiple of Rotation):
/// draw Oversample x N programs the source interpreter finishes within
/// \p Fuel steps, order them by that step count, and keep every
/// Oversample-th from a seeded offset. Each run of Rotation consecutive
/// kept programs then fills one block of Rotation sessions, one program per
/// (level, engine) pair in seeded order, and the blocks are laid out in
/// seeded order. Every seed thus carries the same spread of session
/// lengths, long tail included, on every level and engine, instead of
/// whatever one small draw happens to contain.
bool drawGenerated(size_t N, int64_t MaxIterations, uint64_t Fuel, Rng &R,
                   std::vector<SessionInput> &Out, uint64_t &Skipped,
                   std::string &Error) {
  constexpr size_t Oversample = 8;
  if (N % Rotation != 0) {
    Error = "session count is not a multiple of the level/engine rotation";
    return false;
  }
  struct Drawn {
    uint64_t Steps;
    size_t Order;
    SessionInput In;
  };
  std::vector<Drawn> Pool;
  while (Pool.size() != Oversample * N) {
    Drawn D{0, Pool.size(), {}};
    D.In.Source = genSource(R.next(), MaxIterations);
    if (referenceValue(D.In.Source, Fuel, D.In.Expected, D.Steps, Error))
      Pool.push_back(std::move(D));
    else if (D.Steps > Fuel)
      ++Skipped; // out of fuel: too long to run
    else
      return false;
  }
  Error.clear();
  std::sort(Pool.begin(), Pool.end(), [](const Drawn &A, const Drawn &B) {
    return A.Steps != B.Steps ? A.Steps < B.Steps : A.Order < B.Order;
  });
  std::vector<SessionInput> Kept;
  for (size_t I = R.below(Oversample); I < Pool.size(); I += Oversample)
    Kept.push_back(std::move(Pool[I].In));
  std::vector<size_t> Blocks(N / Rotation);
  for (size_t B = 0; B != Blocks.size(); ++B)
    Blocks[B] = B;
  shuffle(Blocks, R);
  Out.resize(N);
  for (size_t G = 0; G != Blocks.size(); ++G) {
    std::vector<size_t> Pair(Rotation);
    for (size_t C = 0; C != Rotation; ++C)
      Pair[C] = C;
    shuffle(Pair, R);
    for (size_t C = 0; C != Rotation; ++C)
      Out[Rotation * Blocks[G] + Pair[C]] = std::move(Kept[Rotation * G + C]);
  }
  return true;
}

/// The retain program kinds: chains on every level, sharing DAGs on
/// forward and gen (base copies a shared node once per path, E1). Gen gets
/// smaller DAGs: without a major collector its old generation only grows.
struct RetainKind {
  bool Dag;
  int64_t Lo, Hi;
};
constexpr RetainKind RetainKinds[] = {
    {false, 56, 60}, {true, 44, 48}, {true, 13, 14}};

/// Index into RetainKinds of session \p I.
size_t retainKind(unsigned I) {
  unsigned Level = I % 3;
  if (Level == 0 || (I / 6) % 2 == 0)
    return 0;
  return Level == 1 ? 1 : 2;
}

/// Retain sessions. Each kind's sizes are an evenly spaced grid over its
/// range with a seeded offset, dealt to its sessions in seeded order.
void drawRetain(size_t N, Rng &R, std::vector<SessionInput> &Out) {
  Out.resize(N);
  for (size_t Kind = 0; Kind != std::size(RetainKinds); ++Kind) {
    const RetainKind &K = RetainKinds[Kind];
    std::vector<unsigned> Slots;
    for (unsigned I = 0; I != N; ++I)
      if (retainKind(I) == Kind)
        Slots.push_back(I);
    if (Slots.empty())
      continue;
    double Offset = static_cast<double>(R.below(1024)) / 1024.0;
    std::vector<int64_t> Sizes;
    for (size_t J = 0; J != Slots.size(); ++J)
      Sizes.push_back(K.Lo + static_cast<int64_t>(
                                 (J + Offset) * (K.Hi - K.Lo + 1) /
                                 static_cast<double>(Slots.size())));
    shuffle(Sizes, R);
    for (size_t J = 0; J != Slots.size(); ++J) {
      int64_t Step = R.range(1, 9);
      Out[Slots[J]].Source = K.Dag ? dagSource(Sizes[J], Step)
                                   : chainSource(Sizes[J], Step);
    }
  }
}

} // namespace

std::optional<Workload> parseWorkload(std::string_view Name) {
  if (Name == "churn")
    return Workload::Churn;
  if (Name == "retain")
    return Workload::Retain;
  if (Name == "startup")
    return Workload::Startup;
  return std::nullopt;
}

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::Churn:
    return "churn";
  case Workload::Retain:
    return "retain";
  case Workload::Startup:
    return "startup";
  }
  return "?";
}

size_t batchSize(Workload W) { return shapeOf(W).Batch; }
double sessionTailPct(Workload W) { return shapeOf(W).SessionTail; }
double pauseTailPct(Workload W) { return shapeOf(W).PauseTail; }

bool makeInputs(Workload W, uint64_t Seed, Inputs &Out, std::string &Error) {
  Out = Inputs{};
  // One stream per workload, so equal seeds do not give two workloads
  // correlated draws.
  Rng R(Seed * 3 + static_cast<uint64_t>(W) + 1);
  size_t N = shapeOf(W).Sessions;
  switch (W) {
  case Workload::Churn:
    if (!drawGenerated(N, harness::GenOptions{}.MaxIterations, ChurnRefFuel,
                       R, Out.Sessions, Out.Skipped, Error))
      return false;
    break;
  case Workload::Startup:
    if (!drawGenerated(N, 2, RefFuel, R, Out.Sessions, Out.Skipped, Error))
      return false;
    break;
  case Workload::Retain:
    drawRetain(N, R, Out.Sessions);
    for (SessionInput &In : Out.Sessions) {
      uint64_t Steps = 0;
      if (!referenceValue(In.Source, RefFuel, In.Expected, Steps, Error))
        return false;
    }
    break;
  }
  for (unsigned I = 0; I != Out.Sessions.size(); ++I) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "p%04u.lam", I);
    Out.Sessions[I].File = Name;
    Out.Manifest += std::string("level=") + levelName(I) +
                    " eval=" + evalName(I) + " program=" + Name +
                    " capacity=" + std::to_string(Capacity) +
                    " check-every=" +
                    std::to_string(W == Workload::Retain ? 0
                                                         : ChurnCheckEvery) +
                    "\n";
  }
  return true;
}

std::string inputsDigest(const Inputs &In) {
  Digest D;
  D.add(In.Manifest);
  for (const SessionInput &S : In.Sessions) {
    D.add(S.File);
    D.add(S.Source);
  }
  return D.hex();
}

std::string writeInputs(const Inputs &In, const std::string &Dir,
                        std::string &Error) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    Error = "cannot create " + Dir + ": " + EC.message();
    return "";
  }
  auto Write = [&](const std::string &Path, const std::string &Text) {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F << Text;
    F.close();
    if (!F)
      Error = "cannot write " + Path;
    return static_cast<bool>(F);
  };
  for (const SessionInput &S : In.Sessions)
    if (!Write(Dir + "/" + S.File, S.Source))
      return "";
  std::string Path = Dir + "/manifest.txt";
  return Write(Path, In.Manifest) ? Path : "";
}

} // namespace certbench
