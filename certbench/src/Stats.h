//===- certbench/src/Stats.h - The benchmark's own arithmetic ---*- C++ -*-===//
///
/// \file
/// Percentiles, the tail-percentile rule, ratios with their bases, and the
/// workload digest. Kept header-only and free of the library so that
/// selftest.cpp can pin every formula the report relies on.
///
//===----------------------------------------------------------------------===//

#ifndef CERTBENCH_STATS_H
#define CERTBENCH_STATS_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace certbench {

/// Percentile \p P (0..100) of \p V with linear interpolation between
/// closest ranks (the "linear" rule of numpy and of Python's
/// statistics.quantiles(method="inclusive")). 0 for an empty sample.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  if (Lo + 1 >= V.size())
    return V.back();
  double Frac = Rank - static_cast<double>(Lo);
  return V[Lo] + (V[Lo + 1] - V[Lo]) * Frac;
}

inline double median(std::vector<double> V) { return percentile(std::move(V), 50); }

/// The candidate tail percentiles, highest first.
inline constexpr double TailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0};

/// The tail rule: the highest percentile of TailLadder that still leaves at
/// least ten samples beyond it when \p Count samples are drawn. 0 when even
/// p75 leaves fewer than ten (the sample has no resolvable tail).
inline double tailPercentile(uint64_t Count) {
  for (double P : TailLadder)
    if (static_cast<double>(Count) * (100.0 - P) / 100.0 >= 10.0 - 1e-9)
      return P;
  return 0;
}

/// A ratio reported together with its base counts, so a reader can tell a
/// 0.5 of 2 from a 0.5 of 2 million.
struct Ratio {
  uint64_t Num = 0;
  uint64_t Den = 0;
  double value() const {
    return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0;
  }
  std::string text() const {
    return std::to_string(Num) + "/" + std::to_string(Den);
  }
};

/// Hit ratio from hit and miss counts: hits / (hits + misses).
inline Ratio hitRatio(uint64_t Hits, uint64_t Misses) {
  return Ratio{Hits, Hits + Misses};
}

/// 64-bit FNV-1a, streamed. Each part is length-prefixed so that moving a
/// byte across a part boundary changes the digest.
class Digest {
public:
  void add(std::string_view S) {
    uint64_t N = S.size();
    for (int I = 0; I != 8; ++I)
      byte(static_cast<unsigned char>(N >> (8 * I)));
    for (char C : S)
      byte(static_cast<unsigned char>(C));
  }
  uint64_t value() const { return H; }
  std::string hex() const {
    static const char *Digits = "0123456789abcdef";
    std::string Out(16, '0');
    for (int I = 0; I != 16; ++I)
      Out[15 - I] = Digits[(H >> (4 * I)) & 0xf];
    return Out;
  }

private:
  void byte(unsigned char B) {
    H ^= B;
    H *= 0x100000001b3ULL;
  }
  uint64_t H = 0xcbf29ce484222325ULL;
};

} // namespace certbench

#endif // CERTBENCH_STATS_H
