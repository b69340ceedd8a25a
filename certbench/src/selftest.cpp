//===- certbench/src/selftest.cpp - Checks of the benchmark's arithmetic --===//
//
// Pins the formulas the report relies on: percentiles and the tail rule,
// ratio bases, and the stability of the workload digest. Exits nonzero on
// the first failed check. Run through `python3 certbench/run.py --selftest`.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Workloads.h"

#include <cmath>
#include <cstdio>

using namespace certbench;

namespace {

int Failures = 0;

void expect(bool Cond, const char *What) {
  if (!Cond) {
    std::printf("FAIL: %s\n", What);
    ++Failures;
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

void testPercentile() {
  expect(percentile({}, 50) == 0, "empty sample has percentile 0");
  expect(near(percentile({7}, 99), 7), "single sample is every percentile");
  // statistics.quantiles([1, 2, 3, 4], n=4, method="inclusive")
  //   == [1.75, 2.5, 3.25]
  expect(near(percentile({4, 1, 3, 2}, 25), 1.75), "p25 interpolates");
  expect(near(percentile({4, 1, 3, 2}, 50), 2.5), "p50 interpolates");
  expect(near(percentile({4, 1, 3, 2}, 75), 3.25), "p75 interpolates");
  expect(near(percentile({1, 2, 3, 4}, 100), 4), "p100 is the maximum");
  expect(near(median({5, 1, 3}), 3), "odd-length median");
}

void testTailRule() {
  // At least ten samples must lie beyond the reported percentile.
  expect(tailPercentile(10000) == 99.9, "10000 samples resolve p99.9");
  expect(tailPercentile(9999) == 99.0, "9999 samples fall back to p99");
  expect(tailPercentile(1000) == 99.0, "1000 samples resolve p99");
  expect(tailPercentile(999) == 95.0, "999 samples fall back to p95");
  expect(tailPercentile(200) == 95.0, "200 samples resolve p95");
  expect(tailPercentile(100) == 90.0, "100 samples resolve p90");
  expect(tailPercentile(40) == 75.0, "40 samples resolve p75");
  expect(tailPercentile(39) == 0, "39 samples resolve no tail");
  for (uint64_t N = 1; N != 20000; ++N) {
    double P = tailPercentile(N);
    if (P > 0 && N * (100 - P) / 100 < 10 - 1e-9) {
      expect(false, "tail rule leaves fewer than ten beyond");
      break;
    }
  }
}

void testRatios() {
  Ratio R = hitRatio(3, 1);
  expect(R.Num == 3 && R.Den == 4, "hit ratio base is hits + misses");
  expect(near(R.value(), 0.75), "hit ratio value");
  expect(R.text() == "3/4", "hit ratio prints its base");
  expect(hitRatio(0, 0).value() == 0, "empty ratio reads 0, not NaN");
  expect(Ratio{5, 0}.text() == "5/0", "a zero base still prints");
}

void testDigest() {
  Digest A, B, C;
  A.add("ab");
  A.add("c");
  B.add("a");
  B.add("bc");
  C.add("ab");
  C.add("c");
  expect(A.value() == C.value(), "digest is deterministic");
  expect(A.value() != B.value(), "digest sees part boundaries");
  Digest Empty;
  expect(Empty.hex() == "cbf29ce484222325", "FNV-1a offset basis");
  expect(A.hex().size() == 16, "digest prints 16 hex digits");

  for (Workload W : {Workload::Churn, Workload::Retain, Workload::Startup}) {
    Inputs X, Y, Z;
    std::string Err;
    bool Ok = makeInputs(W, 7, X, Err) && makeInputs(W, 7, Y, Err) &&
              makeInputs(W, 8, Z, Err);
    expect(Ok, "inputs generate");
    if (!Ok)
      continue;
    expect(inputsDigest(X) == inputsDigest(Y), "same seed, same digest");
    expect(inputsDigest(X) != inputsDigest(Z), "new seed, new digest");
    Y.Sessions.back().Source += " ";
    expect(inputsDigest(X) != inputsDigest(Y), "digest covers every source");
  }
}

} // namespace

int main() {
  testPercentile();
  testTailRule();
  testRatios();
  testDigest();
  std::printf("%s: %d failure(s)\n", Failures ? "FAIL" : "ok", Failures);
  return Failures ? 1 : 0;
}
