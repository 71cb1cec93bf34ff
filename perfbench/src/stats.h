//===- perfbench/src/stats.h - The benchmark's own arithmetic ---*- C++ -*-===//
//
// Everything the harness computes from raw samples lives here, free of any
// Descend dependency so tests/selftest.cpp can pin it: quantiles and the
// tail-percentile rule, the geometric mean, span self time, the
// closed-form output oracles and the seeded generator. Header-only.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace pb {

//===----------------------------------------------------------------------===//
// Quantiles
//===----------------------------------------------------------------------===//

/// Median of \p V (mean of the two middle values for even sizes); 0 when
/// empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile \p P (0 < P <= 100) of \p V: the smallest value
/// with at least ceil(P/100 * N) samples at or below it. 0 when empty.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()) - 1e-9);
  size_t R = Rank < 1 ? 1 : static_cast<size_t>(Rank);
  return V[std::min(R, V.size()) - 1];
}

/// Samples that lie strictly beyond the nearest-rank percentile \p P of
/// \p N samples.
inline size_t samplesBeyond(size_t N, double P) {
  double Rank = std::ceil(P / 100.0 * static_cast<double>(N) - 1e-9);
  size_t R = Rank < 1 ? 1 : static_cast<size_t>(Rank);
  return N > R ? N - R : 0;
}

/// The reporting rule for timings: the highest of the customary
/// percentiles that still has at least \p MinBeyond samples beyond it.
/// Returns 0 when even the median has fewer (N < 2 * MinBeyond).
inline double tailPercentile(size_t N, size_t MinBeyond = 10) {
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (samplesBeyond(N, P) >= MinBeyond)
      return P;
  return 0.0;
}

/// Geometric mean of positive values; 0 when empty or any value <= 0.
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V) {
    if (!(X > 0.0))
      return 0.0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// The quiet half of a closed-loop run. The shared host this benchmark
/// runs on has periods, a second or two long, in which even a pure CPU
/// loop runs up to 1.5x slower; a run that straddles them would report
/// a mix of two machines. The run is cut into segments of \p SegLen
/// consecutive operations (the workloads make every segment the same mix),
/// and the faster half of the segments by wall time is kept. Returns the
/// kept segment indices in run order; one segment when the run holds fewer
/// than two full ones. A slowdown of the program itself slows every
/// segment alike and still shows.
inline std::vector<size_t> quietSegments(const std::vector<int64_t> &DoneNs,
                                         int64_t StartNs, size_t SegLen) {
  size_t N = DoneNs.size();
  size_t S = SegLen ? N / SegLen : 0;
  if (S < 2)
    return N ? std::vector<size_t>{0} : std::vector<size_t>{};
  std::vector<std::pair<int64_t, size_t>> Wall;
  for (size_t I = 0; I != S; ++I) {
    int64_t T0 = I == 0 ? StartNs : DoneNs[I * SegLen - 1];
    Wall.push_back({DoneNs[(I + 1) * SegLen - 1] - T0, I});
  }
  std::stable_sort(Wall.begin(), Wall.end());
  std::vector<size_t> Keep;
  for (size_t I = 0; I != (S + 1) / 2; ++I)
    Keep.push_back(Wall[I].second);
  std::sort(Keep.begin(), Keep.end());
  return Keep;
}

struct LoopStats {
  double ReqPerS = 0.0, P50 = 0.0, P99 = 0.0;
  size_t Kept = 0, Segments = 0, Samples = 0;
};

/// Throughput and pooled latency percentiles over the quiet half of a run
/// (quietSegments). With a single segment, the whole run.
inline LoopStats quietStats(const std::vector<double> &LatMs,
                            const std::vector<int64_t> &DoneNs,
                            int64_t StartNs, size_t SegLen) {
  LoopStats L;
  size_t N = std::min(LatMs.size(), DoneNs.size());
  if (N == 0)
    return L;
  std::vector<int64_t> Done(DoneNs.begin(), DoneNs.begin() + N);
  std::vector<size_t> Keep = quietSegments(Done, StartNs, SegLen);
  bool Whole = SegLen == 0 || N / SegLen < 2;
  size_t Len = Whole ? N : SegLen;
  L.Segments = Whole ? 1 : N / SegLen;
  L.Kept = Keep.size();
  std::vector<double> Pool;
  int64_t WallNs = 0;
  for (size_t I : Keep) {
    size_t Lo = I * Len, Hi = Lo + Len;
    Pool.insert(Pool.end(), LatMs.begin() + Lo, LatMs.begin() + Hi);
    WallNs += Done[Hi - 1] - (Lo == 0 ? StartNs : Done[Lo - 1]);
  }
  L.Samples = Pool.size();
  L.ReqPerS = WallNs > 0 ? static_cast<double>(Pool.size()) * 1e9 / WallNs
                         : 0.0;
  L.P50 = percentile(Pool, 50);
  L.P99 = percentile(Pool, 99);
  return L;
}

//===----------------------------------------------------------------------===//
// Span self time
//===----------------------------------------------------------------------===//

/// Length of the part of [Lo, Hi) covered by the union of \p Children
/// (each clipped to [Lo, Hi)); overlapping children count once.
inline int64_t coveredNs(int64_t Lo, int64_t Hi,
                         std::vector<std::pair<int64_t, int64_t>> Children) {
  for (auto &[S, E] : Children) {
    S = std::clamp(S, Lo, Hi);
    E = std::clamp(E, Lo, Hi);
  }
  std::sort(Children.begin(), Children.end());
  int64_t Covered = 0, CurS = 0, CurE = 0;
  bool Open = false;
  for (auto [S, E] : Children) {
    if (E <= S)
      continue;
    if (Open && S <= CurE) {
      CurE = std::max(CurE, E);
      continue;
    }
    if (Open)
      Covered += CurE - CurS;
    CurS = S;
    CurE = E;
    Open = true;
  }
  if (Open)
    Covered += CurE - CurS;
  return Covered;
}

/// A span's self time: its duration minus what its children cover.
inline int64_t selfNs(int64_t Start, int64_t End,
                      const std::vector<std::pair<int64_t, int64_t>> &Kids) {
  return (End - Start) - coveredNs(Start, End, Kids);
}

//===----------------------------------------------------------------------===//
// Output oracles (closed forms, independent of the compiler under test)
//===----------------------------------------------------------------------===//

/// Count / sum / first / last of one host array — the shape of the
/// `RESULT` line Session::executeMain prints.
struct Digest {
  size_t Count = 0;
  double Sum = 0.0, First = 0.0, Last = 0.0;
  friend bool operator==(const Digest &, const Digest &) = default;
};

inline Digest digestOf(const double *Data, size_t N) {
  Digest D;
  D.Count = N;
  for (size_t I = 0; I != N; ++I)
    D.Sum += Data[I];
  if (N) {
    D.First = Data[0];
    D.Last = Data[N - 1];
  }
  return D;
}

inline Digest uniformDigest(size_t N, double V) {
  return Digest{N, V * static_cast<double>(N), V, V};
}

/// quickstart_host / scale2: every element of the fill-\p F vector of
/// \p N elements is tripled, so sum = 3 * F * N.
inline Digest scaledDigest(double F, size_t N) {
  return uniformDigest(N, 3.0 * F);
}

/// reduction_host: total = F * 256 * nb (each partial is 256 * F).
inline double reductionTotal(double F, long long NB) {
  return F * 256.0 * static_cast<double>(NB);
}

/// matmul_host with constant A = X and B = Y: every C element is the dot
/// product of 16 * nt equal terms.
inline double matmulElement(double X, double Y, long long NT) {
  return 16.0 * static_cast<double>(NT) * X * Y;
}

/// bench_fig8's elementwise agreement rule.
inline bool nearlyEqual(double A, double B) {
  return std::abs(A - B) <= 1e-6 * (1.0 + std::abs(A));
}

//===----------------------------------------------------------------------===//
// Seeded generation
//===----------------------------------------------------------------------===//

/// SplitMix64: small, fast and identical on every platform, so one seed
/// gives one input set everywhere.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  template <typename T> const T &pick(const std::vector<T> &V) {
    return V[below(V.size())];
  }
  /// Fisher-Yates.
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t S;
};

/// A fill value k/8 with k in [1, 64]: dyadic with a short mantissa, so
/// every closed-form oracle above is exact in double arithmetic (sums of
/// up to 2^40 such terms stay exact).
inline double exactFill(Rng &R) {
  return static_cast<double>(R.below(64) + 1) / 8.0;
}

} // namespace pb

#endif // PERFBENCH_STATS_H
