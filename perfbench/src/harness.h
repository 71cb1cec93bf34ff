//===- perfbench/src/harness.h - Workload interface --------------*- C++ -*-===//
//
// What main.cpp hands a workload (its options) and what a workload hands
// back (named metrics with units, the operation tally and the human
// report). Workloads live in workloads.cpp (serve_warm, compile_cold) and
// kernels.cpp (kernels_large).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "stats.h"
#include "trace.h"

#include <sched.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  std::string Root = "."; ///< checkout root: kernels/ and programs/ live here
  std::string OutDir;     ///< span files go here (empty: not written)
  unsigned Workers = 3;   ///< pinned device worker count
  int64_t StartNs = 0;    ///< process start (main entry)
};

struct Metric {
  double Value = 0.0;
  std::string Unit;
};

struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0; ///< failed, wrong-output or wrong-verdict operations
  std::map<std::string, Metric> Metrics;
  void set(const std::string &Name, double V, const char *Unit) {
    Metrics[Name] = Metric{V, Unit};
  }
};

/// Pins the calling thread to CPU \p K mod nproc for its lifetime, then
/// restores the previous mask. The client thread rotates over the CPUs
/// with it: on a shared host the CPUs' speeds differ for minutes at a
/// time, and an unpinned thread tends to stay on whichever CPU it started
/// on, so a run would measure that CPU. Threads inherit the mask of the
/// thread that creates them: create device worker pools before pinning.
class CpuPin {
public:
  explicit CpuPin(size_t K);
  ~CpuPin();
  CpuPin(const CpuPin &) = delete;
  CpuPin &operator=(const CpuPin &) = delete;

private:
  cpu_set_t Saved;
  bool Active = false;
};

/// Reports one operation that failed its oracle: counted by the caller,
/// printed here (at most a few per run, so a systematic failure does not
/// flood the output).
void reportFailure(const std::string &What);

/// Current and peak resident set size of this process, in kB.
long rssKb();
long peakRssKb();

/// Reads a file under the checkout root; aborts the run when missing.
std::string readSource(const Options &O, const std::string &Rel);

/// One closed-loop pass: a latency sample and a completion time per
/// operation. SegLen is the workload's segment: a run of operations with
/// the same mix in every segment (see quietSegments).
struct Loop {
  size_t SegLen = 0;
  int64_t StartNs = nowNs();
  std::vector<double> LatMs;
  std::vector<int64_t> DoneNs;
  void add(double Ms) {
    LatMs.push_back(Ms);
    DoneNs.push_back(nowNs());
  }
};

/// A traced run makes one pass in which the odd segments are traced and
/// the even ones run with the recorder off, so the tracing overhead is
/// measured under the same machine conditions as its baseline.
inline bool tracedSegment(size_t I, size_t SegLen) {
  return (I / SegLen) % 2 == 1;
}

/// Mean latency of a pass's untraced [0] and traced [1] segments
/// (tracedSegment); 0 for a kind the pass has none of.
inline std::array<double, 2> segmentMeansMs(const Loop &L) {
  double Sum[2] = {0, 0};
  size_t N[2] = {0, 0};
  for (size_t I = 0; I != L.LatMs.size(); ++I) {
    bool T = tracedSegment(I, L.SegLen);
    Sum[T] += L.LatMs[I];
    ++N[T];
  }
  return {N[0] ? Sum[0] / N[0] : 0.0, N[1] ? Sum[1] / N[1] : 0.0};
}

/// Mean latency of the traced segments over the untraced ones, as a
/// percentage above 1.
inline double traceOverheadPct(const Loop &L) {
  std::array<double, 2> M = segmentMeansMs(L);
  return M[0] > 0 && M[1] > 0 ? (M[1] / M[0] - 1.0) * 100.0 : 0.0;
}

/// The generic end-to-end metrics of one timed pass, over its quiet half
/// (quietStats): every workload is a closed loop of operations.
void setLoopMetrics(Result &R, const Loop &L);

/// Median of the per-rep set-up times, in seconds.
void setSetupMetric(Result &R, const std::vector<double> &SetupS);

/// Set every per-layer metric of the request-serving layers (resp. the
/// Fig. 8 kernel layers) to 0. Each workload reports every per-layer
/// metric; a layer it bypasses reads 0.
void zeroServingLayers(Result &R);
void zeroKernelLayers(Result &R);

Result runServeWarm(const Options &O);
Result runCompileCold(const Options &O);
Result runKernelsLarge(const Options &O);

} // namespace pb

#endif // PERFBENCH_HARNESS_H
