//===- inspect/certgc_inspect.cpp - Post-mortem bundle inspector -----------===//
//
// Offline inspector for dump bundles and raw snapshots (DESIGN.md §3.14):
//
//   certgc_inspect BUNDLE-DIR-OR-SNAPSHOT [command]
//     (no command)        print the snapshot summary header + region table
//     --regions           region table only
//     --cells REGION      print every cell of REGION (decoded values)
//     --psi REGION        print every Ψ entry of REGION
//     --verdict           re-run both state checkers offline under the
//                         recorded options and compare against the
//                         recorded live diagnostic; exit 0 iff the
//                         matching checker reproduces it byte-for-byte
//     --diff OTHER        structural diff against a second bundle/snapshot
//                         (exit 0 when equal, 1 when different)
//
// A BUNDLE argument may be a dump-bundle directory (harness/Dump.h) — the
// snapshot is read from <dir>/snapshot.scavsnap — or a .scavsnap path.
//
//===----------------------------------------------------------------------===//

#include "gc/Ops.h"
#include "gc/Snapshot.h"

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

using namespace scav;
using namespace scav::gc;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: certgc_inspect BUNDLE [--regions | --cells REGION |"
               " --psi REGION | --verdict | --diff OTHER]\n");
  return 2;
}

/// A bundle directory resolves to its snapshot file; anything else is
/// treated as a snapshot path directly.
std::string resolveSnapshotPath(const std::string &Arg) {
  std::error_code EC;
  if (std::filesystem::is_directory(Arg, EC))
    return (std::filesystem::path(Arg) / "snapshot.scavsnap").string();
  return Arg;
}

std::unique_ptr<Snapshot> load(const std::string &Arg) {
  std::string Error;
  std::unique_ptr<Snapshot> S = loadSnapshot(resolveSnapshotPath(Arg), Error);
  if (!S)
    std::fprintf(stderr, "certgc_inspect: %s: %s\n", Arg.c_str(),
                 Error.c_str());
  return S;
}

Symbol findRegion(const Snapshot &S, const std::string &Name) {
  for (const auto &KV : S.Mem->Regions)
    if (S.Ctx->name(KV.first) == Name)
      return KV.first;
  for (const auto &KV : S.Psi.Regions)
    if (S.Ctx->name(KV.first) == Name)
      return KV.first;
  return Symbol();
}

int printCells(const Snapshot &S, const std::string &RegionName) {
  Symbol Sym = findRegion(S, RegionName);
  if (!Sym.isValid() || !S.Mem->hasRegion(Sym)) {
    std::fprintf(stderr, "certgc_inspect: no region named '%s'\n",
                 RegionName.c_str());
    return 2;
  }
  const RegionData &RD = *S.Mem->region(Sym);
  for (size_t Off = 0; Off != RD.Cells.size(); ++Off) {
    Address A{Region::name(Sym), static_cast<uint32_t>(Off)};
    const Value *V = S.Mem->get(A);
    std::printf("%s.%zu: %s\n", RegionName.c_str(), Off,
                V ? printValue(*S.Ctx, V).c_str() : "<null>");
  }
  return 0;
}

int printPsi(const Snapshot &S, const std::string &RegionName) {
  Symbol Sym = findRegion(S, RegionName);
  const RegionType *PT = Sym.isValid() ? S.Psi.region(Sym) : nullptr;
  if (!PT) {
    std::fprintf(stderr, "certgc_inspect: no Psi region named '%s'\n",
                 RegionName.c_str());
    return 2;
  }
  for (size_t Off = 0; Off != PT->Cells.size(); ++Off)
    std::printf("%s.%zu: %s\n", RegionName.c_str(), Off,
                PT->Cells[Off] ? printType(*S.Ctx, PT->Cells[Off]).c_str()
                               : "<null>");
  return 0;
}

/// Re-runs both checkers offline and compares against the recorded
/// verdict. The bundle records which checker produced the live diagnostic
/// (full vs incremental — their texts may legitimately differ); byte
/// equality is demanded of that one.
int verdict(Snapshot &S) {
  StateCheckResult Full = recheckSnapshot(S);
  StateCheckResult Inc = recheckSnapshotIncremental(S);
  std::printf("recorded:    [%s] %s\n",
              S.Meta.Checker.empty() ? "none" : S.Meta.Checker.c_str(),
              S.Meta.Diagnostic.empty() ? "<accept>"
                                        : S.Meta.Diagnostic.c_str());
  std::printf("full:        %s\n", Full.Ok ? "<accept>" : Full.Error.c_str());
  std::printf("incremental: %s\n", Inc.Ok ? "<accept>" : Inc.Error.c_str());

  if (S.Meta.Checker.empty()) {
    // No checker produced the recorded diagnostic (stuck/stall/manual
    // dumps record the stuck or stall reason instead): the live run's
    // checkers never rejected this state, so offline reproduction means
    // both still accept it.
    bool Match = Full.Ok && Inc.Ok;
    std::printf("verdict: %s\n", Match ? "REPRODUCED" : "MISMATCH");
    return Match ? 0 : 1;
  }
  const StateCheckResult &Matching =
      S.Meta.Checker == "incremental" ? Inc : Full;
  bool Match = !Matching.Ok && Matching.Error == S.Meta.Diagnostic;
  std::printf("verdict: %s\n", Match ? "REPRODUCED" : "MISMATCH");
  return Match ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  std::string Bundle, CellsRegion, PsiRegion, DiffOther;
  bool Regions = false, Verdict = false;

  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    auto NextArg = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (A == "--regions") {
      Regions = true;
    } else if (A == "--cells") {
      const char *R = NextArg();
      if (!R)
        return usage();
      CellsRegion = R;
    } else if (A == "--psi") {
      const char *R = NextArg();
      if (!R)
        return usage();
      PsiRegion = R;
    } else if (A == "--verdict") {
      Verdict = true;
    } else if (A == "--diff") {
      const char *O = NextArg();
      if (!O)
        return usage();
      DiffOther = O;
    } else if (!A.empty() && A.front() == '-') {
      return usage();
    } else if (Bundle.empty()) {
      Bundle = A;
    } else {
      return usage();
    }
  }
  if (Bundle.empty())
    return usage();

  std::unique_ptr<Snapshot> S = load(Bundle);
  if (!S)
    return 2;

  if (!DiffOther.empty()) {
    std::unique_ptr<Snapshot> O = load(DiffOther);
    if (!O)
      return 2;
    std::string D = diffSnapshots(*S, *O);
    if (D.empty()) {
      std::printf("snapshots are equal\n");
      return 0;
    }
    std::fputs(D.c_str(), stdout);
    return 1;
  }
  if (Verdict)
    return verdict(*S);
  if (!CellsRegion.empty())
    return printCells(*S, CellsRegion);
  if (!PsiRegion.empty())
    return printPsi(*S, PsiRegion);

  // Default and --regions: the summary (header + region table).
  std::fputs(describeSnapshot(*S).c_str(), stdout);
  (void)Regions;
  return 0;
}
