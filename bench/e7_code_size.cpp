//===- bench/e7_code_size.cpp - E7: monomorphization blowup (§2.1) --------===//
//
// Paper claim (§2.1, against Wang–Appel's earlier approach): relying on
// "monomorphization and defunctionalization... can introduce a significant
// code size increase and forces the use of separate specialized GC and
// copy functions for each type appearing in the program", and requires
// whole-program analysis. The ITA approach ships ONE collector as a
// library.
//
// Measured: size of the generated per-type copy family as the number of
// distinct heap types in the program grows, against the (constant) size of
// the certified ITA library collector.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gc/SpecializeCopy.h"

#include <cstdio>

using namespace scav;
using namespace scav::gc;

namespace {

/// A synthetic "program" with K distinct closure environment types: K
/// existentials, each with its own witness, plus assorted pair types.
void programTypes(GcContext &C, size_t K, std::vector<const Tag *> &Roots,
                  std::vector<ExistsInstantiations> &Insts) {
  const Tag *Base = C.tagProd(C.tagInt(), C.tagInt());
  Symbol U = C.fresh("u");
  // One closure type (as after closure conversion) ...
  const Tag *Ex =
      C.tagExists(U, C.tagProd(C.tagVar(U), C.tagArrow({Base})));
  Roots.push_back(Ex);
  ExistsInstantiations Inst{Ex, {}};
  // ... with K distinct environment witnesses (one per source λ): a
  // whole-program analysis must specialize the copy code for each.
  const Tag *W = C.tagInt();
  for (size_t I = 0; I != K; ++I) {
    W = C.tagProd(W, C.tagInt());
    Inst.Witnesses.push_back(W);
  }
  Insts.push_back(std::move(Inst));
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = scav::bench::parseBenchArgs(argc, argv);
  scav::bench::JsonReport Report("e7_code_size");
  std::printf("E7: collector code size — per-type specialization vs ITA "
              "library (section 2.1)\n");
  std::printf("claim: the monomorphized (Wang-Appel style) collector "
              "duplicates copy code per type; the ITA collector is one "
              "fixed-size library\n\n");

  size_t LibBase = libraryCollectorSize(LanguageLevel::Base);
  std::printf("certified ITA library collector size (AST nodes): %zu "
              "(Base), %zu (Forward), %zu (Generational)\n\n",
              LibBase, libraryCollectorSize(LanguageLevel::Forward),
              libraryCollectorSize(LanguageLevel::Generational));

  std::printf("%8s %12s %14s %14s %10s\n", "types", "spec-funcs",
              "spec-size", "library-size", "ratio");

  bool Ok = true;
  size_t PrevSize = 0;
  for (size_t K : {1, 4, 16, 64, 256}) {
    GcContext C;
    std::vector<const Tag *> Roots;
    std::vector<ExistsInstantiations> Insts;
    programTypes(C, K, Roots, Insts);
    auto T0 = std::chrono::steady_clock::now();
    SpecializeStats St = specializeCopyFamily(C, Roots, Insts);
    Report.sample("specialize_ns",
                  std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - T0)
                      .count());
    std::printf("%8zu %12zu %14zu %14zu %9.2fx\n", K, St.NumFunctions,
                St.TotalTermSize, LibBase,
                double(St.TotalTermSize) / double(LibBase));
    Ok = Ok && St.TotalTermSize > PrevSize;
    PrevSize = St.TotalTermSize;
    if (K == 256) {
      Report.metric("types", uint64_t(K));
      Report.metric("spec_size", uint64_t(St.TotalTermSize));
      Report.metric("library_size", uint64_t(LibBase));
    }
  }

  std::printf("\nnote: specialized bodies use a simplified direct-style "
              "calling convention — this is a code-size model of the "
              "rejected design, not a runnable collector (see DESIGN.md)\n\n");
  std::printf("%s: specialized collector size grows with the number of "
              "program types; the ITA library does not\n",
              Ok ? "PASS" : "FAIL");
  Report.pass(Ok);
  Report.write(JsonPath);
  return Ok ? 0 : 1;
}
