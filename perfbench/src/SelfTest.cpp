//===- perfbench/src/SelfTest.cpp - Tests of the benchmark's own code -----===//
//
// Part of the SMAT reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Checks the statistics helpers, the metric-name rule, the span recorder,
// and that workload inputs are a pure function of the seed: the same seed
// reproduces identical matrices and plan fingerprints, another seed changes
// them. Run with `python3 perfbench/run.py --self-test`; exits non-zero on
// any failure.
//
//===----------------------------------------------------------------------===//

#include "BenchCore.h"
#include "Inputs.h"

#include "core/PlanCache.h"
#include "features/FeatureExtractor.h"

#include <cmath>
#include <cstdio>
#include <set>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  if (!Ok) {
    ++Failures;
    std::printf("FAIL: %s\n", What);
  }
}

void testPercentiles() {
  std::vector<double> Xs = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  check(percentile(Xs, 0.5) == 5, "p50 of 1..10 is 5 (lower middle)");
  check(percentile(Xs, 0.9) == 9, "p90 of 1..10 is 9");
  check(percentile(Xs, 1.0) == 10, "p100 is the maximum");
  check(percentile(Xs, 0.0) == 1, "p0 is the minimum");
  check(percentile({42}, 0.9) == 42, "one sample is every percentile");
  check(std::isnan(percentile({}, 0.5)), "no samples give NaN");
  check(median({3, 1, 2}) == 2, "median of three");
  check(samplesBeyond(100, 0.9) == 10, "100 samples: 10 beyond p90");
  check(samplesBeyond(99, 0.9) == 9, "99 samples: 9 beyond p90");
  check(highestSupportedPercentile(100) == 90, "100 samples support p90");
  check(highestSupportedPercentile(112) == 91, "112 samples support p91");
  check(highestSupportedPercentile(15) == 0, "15 samples support no p50+");
}

void testGeomean() {
  check(std::fabs(geomean({1, 4}) - 2.0) < 1e-12, "geomean(1, 4) = 2");
  check(std::fabs(geomean({2, 2, 2}) - 2.0) < 1e-12, "geomean of equal");
  check(std::isnan(geomean({1, 0})), "a zero makes the geomean NaN");
  check(std::isnan(geomean({})), "empty geomean is NaN");
  check(meanOf({1, 2, 3}) == 2, "mean of 1, 2, 3");
}

void testMetricNames() {
  for (const char *Ok : {"tune_ms.p50", "convert.ms_per_mnnz.COO",
                         "trace.overhead.served_gflops", "setup_s", "9a-b"})
    check(validMetricName(Ok), Ok);
  for (const char *Bad : {"", ".p50", "_x", "a b", "a/b", "tune\"ms", "é"})
    check(!validMetricName(Bad), "rejects an invalid name");
  check(!validMetricName(std::string(65, 'a')), "rejects 65 characters");
  check(validMetricName(std::string(64, 'a')), "accepts 64 characters");

  MetricSet M;
  bool Threw = false;
  try {
    M.set("bad name", 1.0, "s");
  } catch (const std::invalid_argument &) {
    Threw = true;
  }
  check(Threw, "MetricSet rejects an invalid name");
  M.set("a.b", 1.5, "ms");
  M.set("a.b", 2.5, "ms");
  check(M.entries().size() == 1 && M.value("a.b") == 2.5,
        "setting a name twice overwrites");
  check(M.toJson() == "{\"a.b\": {\"value\": 2.5, \"unit\": \"ms\"}}",
        "JSON rendering");
}

void testTracer() {
  Tracer T;
  { Tracer::Span Off(T, "off"); }
  check(T.spans().empty(), "a disabled tracer records nothing");
  T.enable(true);
  {
    Tracer::Span Outer(T, "outer");
    Tracer::Span Inner(T, "inner");
  }
  check(T.spans().size() == 2, "two spans recorded");
  const auto &S = T.spans();
  check(S[0].Parent == S[1].Id, "inner span's parent is the outer span");
  check(T.durations("outer").size() == 1, "durations by name");
  check(S[1].Start <= S[0].Start && S[0].End <= S[1].End,
        "the inner span lies inside the outer one");
}

/// FNV-1a over the pattern and the values' bit patterns.
std::uint64_t contentHash(const smat::CsrMatrix<double> &A) {
  std::uint64_t H = structureHash(A);
  const auto *Bytes = reinterpret_cast<const unsigned char *>(A.Values.data());
  for (std::size_t I = 0; I != A.Values.size() * sizeof(double); ++I)
    H = (H ^ Bytes[I]) * 1099511628211ULL;
  return H;
}

/// Order-sensitive digest of a workload's matrices and plan fingerprints.
struct Digest {
  std::vector<std::uint64_t> Content;
  std::vector<std::size_t> Fingerprints;
  bool operator==(const Digest &) const = default;
};

Digest digest(const std::vector<Operand> &Ops) {
  Digest D;
  for (const Operand &Op : Ops) {
    D.Content.push_back(contentHash(Op.A));
    smat::PlanFingerprint Fp =
        smat::fingerprintFeatures(smat::extractStructureFeatures(Op.A));
    D.Fingerprints.push_back(smat::PlanFingerprintHash()(Fp));
  }
  return D;
}

void testSeeds() {
  Digest F1 = digest(fig8Inputs(11, false));
  Digest F1Again = digest(fig8Inputs(11, false));
  Digest F2 = digest(fig8Inputs(12, false));
  check(F1.Content.size() == 16, "fig8 has 16 matrices");
  check(F1 == F1Again, "fig8: the same seed reproduces matrices and plans");
  check(F1.Content != F2.Content, "fig8: another seed changes the matrices");
  check(F1.Fingerprints != F2.Fingerprints,
        "fig8: another seed changes the plan fingerprint sequence");

  Digest R1 = digest(retuneInputs(11, false, 2, 2));
  Digest R1Again = digest(retuneInputs(11, false, 2, 2));
  Digest R2 = digest(retuneInputs(12, false, 2, 2));
  check(R1 == R1Again, "retune: the same seed reproduces matrices and plans");
  check(R1.Content != R2.Content, "retune: another seed changes matrices");
  check(R1.Fingerprints != R2.Fingerprints,
        "retune: another seed changes the plan fingerprints");
  check(RetuneCorpusSeed != 20130616, "retune never uses the training seed");

  std::vector<Operand> Stream = retuneInputs(11, false, 2, 3);
  std::set<std::uint64_t> Structures;
  for (const Operand &Op : Stream)
    Structures.insert(structureHash(Op.A));
  check(Stream.size() == 3 * Structures.size(),
        "retune: every structure comes back three times");
  bool ValuesFresh = true;
  for (std::size_t I = 0; I != Stream.size(); ++I)
    if (Stream[I].StructureOf != I)
      ValuesFresh = ValuesFresh &&
                    contentHash(Stream[I].A) !=
                        contentHash(Stream[Stream[I].StructureOf].A) &&
                    structureHash(Stream[I].A) ==
                        structureHash(Stream[Stream[I].StructureOf].A);
  check(ValuesFresh, "retune: a repeat shares the pattern, not the values");

  check(seededVector(8, 5) == seededVector(8, 5), "seeded vector repeats");
  check(seededVector(8, 5) != seededVector(8, 6), "seeded vector varies");
}

} // namespace

int main() {
  testPercentiles();
  testGeomean();
  testMetricNames();
  testTracer();
  testSeeds();
  std::printf("perfbench self-test: %s (%d failure%s)\n",
              Failures ? "FAILED" : "passed", Failures,
              Failures == 1 ? "" : "s");
  return Failures ? 1 : 0;
}
