//===- perfbench/tests/selftest.cpp - Tests of the benchmark's arithmetic ---===//
//
// Pins the arithmetic every perfbench metric rests on: the nearest-rank
// percentile and the tail-percentile rule, the quiet-half selection, the
// traced/untraced segment split, the geometric mean, span self time, and
// the closed-form oracles the workloads check outputs against.
// Self-contained (no test framework); exits non-zero on the first
// failing check. perfbench/run.py runs it after every build.
//
//===----------------------------------------------------------------------===//

#include "harness.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace pb;

namespace {

int Checks = 0;

#define CHECK(Cond)                                                           \
  do {                                                                        \
    ++Checks;                                                                 \
    if (!(Cond)) {                                                            \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__,  \
                   #Cond);                                                    \
      std::exit(1);                                                           \
    }                                                                         \
  } while (0)

std::vector<double> iota(size_t N) {
  std::vector<double> V(N);
  for (size_t I = 0; I != N; ++I)
    V[I] = static_cast<double>(N - I); // reversed: the functions must sort
  return V;
}

void testPercentiles() {
  CHECK(median({}) == 0.0);
  CHECK(median({3, 1, 2}) == 2.0);
  CHECK(median({4, 1, 3, 2}) == 2.5);
  // Nearest rank over 1..100: p50 is 50, p99 is 99, p100 is the max.
  std::vector<double> V = iota(100);
  CHECK(percentile(V, 50) == 50.0);
  CHECK(percentile(V, 99) == 99.0);
  CHECK(percentile(V, 100) == 100.0);
  CHECK(percentile({7}, 99) == 7.0);
  // 1..1000: p99 is 990 with exactly 10 samples beyond it.
  std::vector<double> W = iota(1000);
  CHECK(percentile(W, 99) == 990.0);
  CHECK(samplesBeyond(1000, 99) == 10);
  CHECK(samplesBeyond(999, 99) == 9);
}

void testTailRule() {
  // The highest customary percentile with >= 10 samples beyond it.
  CHECK(tailPercentile(10000) == 99.9);
  CHECK(tailPercentile(9999) == 99.0);
  CHECK(tailPercentile(1000) == 99.0);
  CHECK(tailPercentile(999) == 95.0);
  CHECK(tailPercentile(200) == 95.0);
  CHECK(tailPercentile(100) == 90.0);
  CHECK(tailPercentile(40) == 75.0);
  CHECK(tailPercentile(20) == 50.0);
  CHECK(tailPercentile(19) == 0.0);
  CHECK(tailPercentile(100, 5) == 95.0);
}

void testQuietHalf() {
  // Six segments of 10 operations, 1 ms each, except segments 1, 3 and 4,
  // which run at half speed (2 ms): the quiet half is segments 0, 2, 5.
  std::vector<double> Lat;
  std::vector<int64_t> Done;
  int64_t T = 1000;
  const int64_t Start = T;
  for (int S = 0; S != 6; ++S)
    for (int I = 0; I != 10; ++I) {
      double Ms = (S == 1 || S == 3 || S == 4) ? 2.0 : 1.0;
      T += static_cast<int64_t>(Ms * 1e6);
      Lat.push_back(Ms + (I == 9 ? 5.0 : 0.0)); // one tail sample each
      Done.push_back(T);
    }
  std::vector<size_t> Keep = quietSegments(Done, Start, 10);
  CHECK((Keep == std::vector<size_t>{0, 2, 5}));
  LoopStats L = quietStats(Lat, Done, Start, 10);
  CHECK(L.Segments == 6 && L.Kept == 3 && L.Samples == 30);
  CHECK(std::abs(L.ReqPerS - 1000.0) < 1e-9); // 30 ops in 30 ms
  CHECK(L.P50 == 1.0);
  CHECK(L.P99 == 6.0); // the pooled tail samples survive selection
  // Fewer than two whole segments: the whole run, every sample.
  LoopStats W = quietStats(Lat, Done, Start, 40);
  CHECK(W.Segments == 1 && W.Kept == 1 && W.Samples == 60);
  CHECK(std::abs(W.ReqPerS - 60.0 / 0.09) < 1e-6);
  // A trailing partial segment is left out of the statistics.
  std::vector<double> Lat7(Lat.begin(), Lat.begin() + 57);
  std::vector<int64_t> Done7(Done.begin(), Done.begin() + 57);
  CHECK(quietStats(Lat7, Done7, Start, 10).Segments == 5);
  CHECK(quietSegments({}, 0, 10).empty());
}

void testTraceOverhead() {
  // Segments of two: requests 2, 3, 6, 7 run traced.
  CHECK(!tracedSegment(1, 2) && tracedSegment(2, 2) && tracedSegment(3, 2));
  CHECK(!tracedSegment(4, 2) && tracedSegment(7, 2));
  Loop L;
  L.SegLen = 2;
  for (double Ms : {1.0, 1.0, 1.5, 1.5, 1.0, 1.0, 1.0, 1.0})
    L.add(Ms);
  std::array<double, 2> M = segmentMeansMs(L);
  CHECK(M[0] == 1.0 && M[1] == 1.25);
  CHECK(std::abs(traceOverheadPct(L) - 25.0) < 1e-12);
  // No traced segment: no overhead figure.
  Loop U;
  U.SegLen = 10;
  U.add(1.0);
  CHECK(traceOverheadPct(U) == 0.0);
}

void testGeomean() {
  CHECK(geomean({}) == 0.0);
  CHECK(std::abs(geomean({2.0, 8.0}) - 4.0) < 1e-12);
  CHECK(std::abs(geomean({1.27, 1.0 / 1.27}) - 1.0) < 1e-12);
  CHECK(std::abs(geomean({1.0, 1.0, 1.0, 0.5}) - std::pow(0.5, 0.25)) <
        1e-12);
  CHECK(geomean({1.0, 0.0}) == 0.0);
  CHECK(geomean({1.0, -2.0}) == 0.0);
}

void testSelfTime() {
  // No children: the whole span is self time.
  CHECK(selfNs(0, 100, {}) == 100);
  // Disjoint children subtract.
  CHECK(selfNs(0, 100, {{10, 20}, {50, 80}}) == 60);
  // Overlapping children count once.
  CHECK(selfNs(0, 100, {{10, 40}, {30, 60}}) == 50);
  // Nested and identical intervals count once.
  CHECK(selfNs(0, 100, {{10, 90}, {20, 30}, {10, 90}}) == 20);
  // Children are clipped to the parent.
  CHECK(selfNs(50, 100, {{0, 60}, {90, 200}}) == 30);
  // Touching intervals merge without a gap.
  CHECK(coveredNs(0, 100, {{0, 50}, {50, 100}}) == 100);
  // Empty and inverted children cover nothing.
  CHECK(coveredNs(0, 100, {{40, 40}, {70, 60}}) == 0);

  // The recorder computes the same from real nested spans.
  Recorder R;
  R.reserve(8);
  R.setEnabled(true);
  int64_t A = R.begin("request", 0);
  int64_t B = R.begin("service.compile", 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  R.end(B);
  int64_t C = R.begin("vm.run_host", 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  R.end(C);
  R.end(A);
  const auto &Sp = R.spans();
  CHECK(Sp.size() == 3);
  CHECK(Sp[B].Parent == A && Sp[C].Parent == A && Sp[A].Parent == -1);
  std::vector<int64_t> Self = R.selfTimes();
  CHECK(Self[B] == Sp[B].End - Sp[B].Start);
  CHECK(Self[A] == (Sp[A].End - Sp[A].Start) - (Sp[B].End - Sp[B].Start) -
                       (Sp[C].End - Sp[C].Start));
  auto ByName = selfMsByName(R, 0, 1);
  double Sum = ByName["request"] + ByName["service.compile"] +
               ByName["vm.run_host"];
  CHECK(std::abs(Sum - (Sp[A].End - Sp[A].Start) / 1e6) < 1e-9);
}

void testOracles() {
  Rng G(42);
  for (int Trial = 0; Trial != 200; ++Trial) {
    double F = exactFill(G);
    CHECK(F >= 1.0 / 8 && F <= 8.0);
    CHECK(F * 8 == std::floor(F * 8)); // dyadic k/8
    // quickstart: tripling every element of an nb*256 vector.
    for (long long NB : {1, 2, 4, 8}) {
      std::vector<double> V(NB * 256, 3.0 * F);
      CHECK(digestOf(V.data(), V.size()) == scaledDigest(F, NB * 256));
    }
    // reduction: a tree sum over 256-element blocks, then a sequential
    // sum of the partials, equals F * 256 * nb exactly.
    for (long long NB : {1, 2, 4, 8}) {
      double Total = 0;
      for (long long B = 0; B != NB; ++B) {
        std::vector<double> T(256, F);
        for (int S = 128; S >= 1; S /= 2)
          for (int I = 0; I != S; ++I)
            T[I] += T[I + S];
        CHECK(T[0] == 256 * F);
        Total += T[0];
      }
      CHECK(Total == reductionTotal(F, NB));
    }
    // matmul: a dot product of 16 * nt terms X * Y.
    double Y = exactFill(G);
    for (long long NT : {1, 2}) {
      double Acc = 0;
      for (long long K = 0; K != 16 * NT; ++K)
        Acc = Acc + F * Y;
      CHECK(Acc == matmulElement(F, Y, NT));
    }
  }
  CHECK(uniformDigest(4, 0.5) == (Digest{4, 2.0, 0.5, 0.5}));
  CHECK(nearlyEqual(1.0, 1.0 + 1e-7));
  CHECK(!nearlyEqual(1.0, 1.0 + 1e-5));
  CHECK(nearlyEqual(0.0, 5e-7));
}

void testRng() {
  Rng A(7), B(7), C(8);
  bool Differs = false;
  for (int I = 0; I != 100; ++I) {
    uint64_t X = A.next();
    CHECK(X == B.next());
    Differs |= X != C.next();
  }
  CHECK(Differs);
  Rng D(1);
  for (int I = 0; I != 1000; ++I)
    CHECK(D.below(10) < 10);
}

} // namespace

int main() {
  testPercentiles();
  testTailRule();
  testQuietHalf();
  testTraceOverhead();
  testGeomean();
  testSelfTime();
  testOracles();
  testRng();
  std::printf("perfbench selftest: %d checks passed\n", Checks);
  return 0;
}
