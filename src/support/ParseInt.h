//===- support/ParseInt.h - Checked integer-literal parsing -----*- C++ -*-===//
///
/// \file
/// One checked int64 parser shared by both S-expression frontends. The
/// parsers originally called std::stoll, whose failure mode is an exception
/// — an atom like `-x` (std::invalid_argument) or `99999999999999999999`
/// (std::out_of_range) aborted the process instead of producing a parse
/// diagnostic. std::from_chars reports both failures as values, so callers
/// can turn them into diagnostics.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_SUPPORT_PARSEINT_H
#define SCAV_SUPPORT_PARSEINT_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace scav {

/// Parses the *entire* string as a base-10 int64_t (optional leading '-').
/// \returns nullopt when the string is not an integer or does not fit.
inline std::optional<int64_t> parseInt64(std::string_view S) {
  if (S.empty())
    return std::nullopt;
  int64_t V = 0;
  auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), V, 10);
  if (Ec != std::errc() || Ptr != S.data() + S.size())
    return std::nullopt;
  return V;
}

/// Parses the *entire* string as a base-10 uint64_t.
inline std::optional<uint64_t> parseUint64(std::string_view S) {
  if (S.empty())
    return std::nullopt;
  uint64_t V = 0;
  auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), V, 10);
  if (Ec != std::errc() || Ptr != S.data() + S.size())
    return std::nullopt;
  return V;
}

/// parseUint64 bounded by \p Max: the whole-string parse every numeric
/// command-line flag goes through (atoi/strtoull read "pony" as 0 and let a
/// 64-bit value wrap into a 32-bit field).
inline std::optional<uint64_t> parseUint64Upto(std::string_view S,
                                               uint64_t Max) {
  std::optional<uint64_t> V = parseUint64(S);
  if (!V || *V > Max)
    return std::nullopt;
  return V;
}

/// Parses the *entire* string as a finite, non-negative decimal number of
/// seconds (strtod plus an end-pointer check).
inline std::optional<double> parseSeconds(std::string_view S) {
  std::string Text(S);
  if (Text.empty())
    return std::nullopt;
  char *End = nullptr;
  double V = std::strtod(Text.c_str(), &End);
  if (End != Text.c_str() + Text.size() || !std::isfinite(V) || V < 0)
    return std::nullopt;
  return V;
}

/// Result of interpreting an environment knob: the value to use plus a
/// non-empty diagnostic when the raw text was malformed and \p Fallback was
/// substituted.
struct EnvUnsigned {
  uint64_t Value = 0;
  std::string Diag; ///< empty = clean parse (or variable unset)
};

/// Interprets environment-variable text as an unsigned integer in
/// [\p Min, \p Max]. Unset (\p Raw == nullptr) or empty picks \p Fallback
/// silently — the knob simply isn't set. Anything else that fails to parse
/// completely, overflows, or lands outside the range also picks \p Fallback
/// but reports a one-line diagnostic naming the variable and the offending
/// text. This is the same bug class as the frontend's stoll food (see
/// parseInt64 above): strtoul-with-no-endptr-check turned a knob set to
/// `4x` into a silent default. Pure (no getenv, no I/O) so tests
/// can drive raw strings through it; envUnsignedOr below is the effectful
/// wrapper the runtime knobs use.
inline EnvUnsigned parseEnvUnsigned(std::string_view Name, const char *Raw,
                                    uint64_t Fallback, uint64_t Min,
                                    uint64_t Max) {
  EnvUnsigned R{Fallback, {}};
  if (!Raw || !*Raw)
    return R;
  std::string_view S(Raw);
  std::optional<uint64_t> V = parseUint64(S);
  std::string Msg;
  if (!V) {
    Msg = "not an unsigned integer";
  } else if (*V < Min || *V > Max) {
    Msg = "out of range [" + std::to_string(Min) + ", " +
          std::to_string(Max) + "]";
  } else {
    R.Value = *V;
    return R;
  }
  R.Diag = std::string(Name) + "=\"" + std::string(S) + "\": " + Msg +
           "; using " + std::to_string(Fallback);
  return R;
}

/// getenv + parseEnvUnsigned, printing the diagnostic (if any) to stderr.
inline uint64_t envUnsignedOr(const char *Name, uint64_t Fallback,
                              uint64_t Min, uint64_t Max) {
  EnvUnsigned R =
      parseEnvUnsigned(Name, std::getenv(Name), Fallback, Min, Max);
  if (!R.Diag.empty())
    std::fprintf(stderr, "warning: %s\n", R.Diag.c_str());
  return R.Value;
}

} // namespace scav

#endif // SCAV_SUPPORT_PARSEINT_H
