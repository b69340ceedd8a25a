//===- serve/Manifest.cpp - Session manifest parsing -----------------------===//

#include "serve/Manifest.h"

#include "support/ParseInt.h"

#include <fstream>
#include <sstream>

using namespace scav;
using namespace scav::serve;

namespace {

/// Splits a line into whitespace-separated tokens, dropping a trailing
/// `# comment`.
std::vector<std::string_view> tokenize(std::string_view Line) {
  std::vector<std::string_view> Out;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && (Line[I] == ' ' || Line[I] == '\t'))
      ++I;
    if (I >= Line.size() || Line[I] == '#')
      break;
    size_t J = I;
    while (J < Line.size() && Line[J] != ' ' && Line[J] != '\t')
      ++J;
    Out.push_back(Line.substr(I, J - I));
    I = J;
  }
  return Out;
}

bool fail(std::string &Error, size_t LineNo, const std::string &Msg) {
  Error = "line " + std::to_string(LineNo) + ": " + Msg;
  return false;
}

/// `key=value` unsigned fields go through the same strict parser as the
/// environment knobs (support/ParseInt.h): no silent garbage acceptance.
bool parseNum(std::string_view Key, std::string_view Val, uint64_t Max,
              uint64_t &Out, size_t LineNo, std::string &Error) {
  std::optional<uint64_t> N = parseUint64(Val);
  if (!N || *N > Max)
    return fail(Error, LineNo,
                std::string(Key) + "=" + std::string(Val) +
                    ": not an unsigned integer in range");
  Out = *N;
  return true;
}

} // namespace

bool scav::serve::parseManifest(std::string_view Text, std::string_view BaseDir,
                                Manifest &Out, std::string &Error) {
  Out.Sessions.clear();
  size_t LineNo = 0;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    std::string_view Line = Text.substr(
        Pos, Nl == std::string_view::npos ? std::string_view::npos
                                          : Nl - Pos);
    ++LineNo;
    Pos = Nl == std::string_view::npos ? Text.size() + 1 : Nl + 1;

    std::vector<std::string_view> Toks = tokenize(Line);
    if (Toks.empty())
      continue;
    SessionSpec S;
    bool HasProgram = false;
    for (std::string_view Tok : Toks) {
      size_t Eq = Tok.find('=');
      if (Eq == std::string_view::npos)
        return fail(Error, LineNo,
                    "expected key=value, got '" + std::string(Tok) + "'");
      std::string_view Key = Tok.substr(0, Eq);
      std::string_view Val = Tok.substr(Eq + 1);
      uint64_t N = 0;
      if (Key == "level") {
        if (Val == "base")
          S.Level = gc::LanguageLevel::Base;
        else if (Val == "forward")
          S.Level = gc::LanguageLevel::Forward;
        else if (Val == "gen")
          S.Level = gc::LanguageLevel::Generational;
        else
          return fail(Error, LineNo,
                      "level=" + std::string(Val) +
                          ": expected base|forward|gen");
      } else if (Key == "eval") {
        std::optional<gc::EvalMode> M = gc::parseEvalMode(Val);
        if (!M)
          return fail(Error, LineNo,
                      "eval=" + std::string(Val) +
                          ": expected env|subst|vm");
        S.Eval = *M;
      } else if (Key == "gen-seed") {
        if (!parseNum(Key, Val, UINT64_MAX, N, LineNo, Error))
          return false;
        S.HasGenSeed = true;
        S.GenSeed = N;
      } else if (Key == "program") {
        if (Val.empty())
          return fail(Error, LineNo, "program=: empty path");
        S.ProgramPath = std::string(Val);
        if (!BaseDir.empty() && Val.front() != '/')
          S.ProgramPath = std::string(BaseDir) + "/" + S.ProgramPath;
        HasProgram = true;
      } else if (Key == "capacity") {
        if (!parseNum(Key, Val, UINT32_MAX, N, LineNo, Error))
          return false;
        S.Capacity = static_cast<uint32_t>(N);
      } else if (Key == "check-every") {
        if (!parseNum(Key, Val, UINT32_MAX, N, LineNo, Error))
          return false;
        S.CheckEvery = static_cast<uint32_t>(N);
      } else if (Key == "full-check-every") {
        if (!parseNum(Key, Val, UINT32_MAX, N, LineNo, Error))
          return false;
        S.FullCheckEvery = static_cast<uint32_t>(N);
      } else if (Key == "async-check") {
        if (!parseNum(Key, Val, 1, N, LineNo, Error))
          return false;
        S.AsyncCheck = N != 0;
      } else if (Key == "max-steps") {
        if (!parseNum(Key, Val, UINT64_MAX, N, LineNo, Error))
          return false;
        S.MaxSteps = N;
      } else if (Key == "stall-at-step") {
        if (!parseNum(Key, Val, UINT64_MAX, N, LineNo, Error))
          return false;
        S.StallAtStep = N;
      } else {
        return fail(Error, LineNo, "unknown key '" + std::string(Key) + "'");
      }
    }
    if (S.HasGenSeed == HasProgram)
      return fail(Error, LineNo,
                  "exactly one of gen-seed=N or program=PATH is required");
    if (S.AsyncCheck && S.StallAtStep != 0)
      return fail(Error, LineNo,
                  "stall-at-step=N needs the synchronous step loop; drop "
                  "async-check=1");
    if (S.AsyncCheck && S.Eval == gc::EvalMode::Vm)
      return fail(Error, LineNo,
                  "async-check=1 needs eval=env or eval=subst; the VM "
                  "checks synchronously");
    // Both act only at the per-N checks.
    if (S.AsyncCheck && S.CheckEvery == 0)
      return fail(Error, LineNo,
                  "async-check=1 pipelines the per-N checks; set "
                  "check-every=N");
    if (S.FullCheckEvery != 0 && S.CheckEvery == 0)
      return fail(Error, LineNo,
                  "full-check-every=N checks the per-N incremental checks; "
                  "set check-every=N");
    Out.Sessions.push_back(std::move(S));
  }
  if (Out.Sessions.empty()) {
    Error = "manifest has no sessions";
    return false;
  }
  return true;
}

bool scav::serve::loadManifest(const std::string &Path, Manifest &Out,
                               std::string &Error) {
  std::ifstream In{Path};
  if (!In) {
    Error = "cannot open " + Path;
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  size_t Slash = Path.rfind('/');
  std::string BaseDir =
      Slash == std::string::npos ? std::string() : Path.substr(0, Slash);
  return parseManifest(Buf.str(), BaseDir, Out, Error);
}
