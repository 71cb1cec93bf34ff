//===- perfbench/src/main.cpp - Benchmark harness entry point ---------------===//
//
// Usage:
//   perfbench --workload serve_warm|compile_cold|kernels_large --seed N
//             --seconds S --trace 0|1 [--root DIR] [--out DIR] [--sha SHA]
//
// One process runs one workload with one client thread. --trace 0 is the
// timed run (end-to-end metrics, tracing and counters off); --trace 1 runs
// the same fixed work with every other segment traced, and reports the
// per-layer metrics plus the tracing overhead. The last stdout line is
// `PBRESULT {json}` with every metric, its unit and the provenance.
//
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unistd.h>

#ifndef PB_COMPILER
#define PB_COMPILER "unknown"
#endif
#ifndef PB_BUILD_TYPE
#define PB_BUILD_TYPE "unknown"
#endif

namespace pb {

namespace {
unsigned FailuresPrinted = 0;

long statusKb(const char *Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0)
      return std::strtol(Line.c_str() + Len, nullptr, 10);
  return 0;
}
} // namespace

void reportFailure(const std::string &What) {
  if (FailuresPrinted++ < 20)
    std::printf("FAILED %s\n", What.c_str());
}

CpuPin::CpuPin(size_t K) {
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  if (N < 2 || sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(static_cast<int>(K % static_cast<size_t>(N)), &One);
  Active = sched_setaffinity(0, sizeof(One), &One) == 0; // best effort
}

CpuPin::~CpuPin() {
  if (Active)
    sched_setaffinity(0, sizeof(Saved), &Saved);
}

long rssKb() { return statusKb("VmRSS:"); }
long peakRssKb() { return statusKb("VmHWM:"); }

std::string readSource(const Options &O, const std::string &Rel) {
  std::ifstream In(O.Root + "/" + Rel);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read %s/%s\n", O.Root.c_str(),
                 Rel.c_str());
    std::exit(2);
  }
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void setLoopMetrics(Result &R, const Loop &L) {
  LoopStats S = quietStats(L.LatMs, L.DoneNs, L.StartNs, L.SegLen);
  R.set("req_per_s", S.ReqPerS, "1/s");
  R.set("latency_ms_p50", S.P50, "ms");
  R.set("latency_ms_p99", S.P99, "ms");
  R.set("latency_samples", static_cast<double>(S.Samples), "count");
  R.set("latency_tail_pct", tailPercentile(S.Samples), "%");
  R.set("segments_kept", static_cast<double>(S.Kept), "count");
  R.set("segments", static_cast<double>(S.Segments), "count");
}

void setSetupMetric(Result &R, const std::vector<double> &SetupS) {
  R.set("setup_s", median(SetupS), "s");
  R.set("setup_reps", static_cast<double>(SetupS.size()), "count");
}

} // namespace pb

using namespace pb;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_warm|compile_cold|kernels_large --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--out DIR] [--sha SHA]\n",
               Msg);
  std::exit(2);
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.StartNs = nowNs();
  std::string Sha = "unknown";
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !V.empty();
    } else if (A == "--seconds") {
      long S = std::strtol(V.c_str(), &End, 10);
      if (!End || *End || S < 1 || S > 60)
        usage("--seconds wants 1..60");
      O.Seconds = static_cast<unsigned>(S);
      HaveSeconds = true;
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        usage("--trace wants 0 or 1");
      O.Trace = V == "1";
      HaveTrace = true;
    } else if (A == "--root") {
      O.Root = V;
    } else if (A == "--out") {
      O.OutDir = V;
    } else if (A == "--sha") {
      Sha = V;
    } else {
      usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || O.Workload.empty())
    usage("--workload, --seed, --seconds and --trace are required");

  // Environment guard: fault injection, watchdogs and the library's own
  // tracer change what is measured, so a run under them is refused.
  for (const char *Var : {"DESCEND_FAULTS", "DESCEND_WATCHDOG",
                          "DESCEND_TRACE"})
    if (std::getenv(Var)) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", Var);
      return 2;
    }

  // One client thread plus the device workers fit in nproc. The count is
  // pinned per device (GpuDevice::setWorkers), which takes precedence over
  // DESCEND_WORKERS.
  long Nproc = sysconf(_SC_NPROCESSORS_ONLN);
  if (Nproc < 1)
    Nproc = 1;
  O.Workers = static_cast<unsigned>(std::clamp(Nproc - 1, 1L, 3L));
  if (std::getenv("DESCEND_WORKERS"))
    std::printf("note: DESCEND_WORKERS ignored; workers pinned to %u\n",
                O.Workers);

  std::string Prov =
      "{\"git_sha\":\"" + jsonEscape(Sha) + "\",\"nproc\":" +
      std::to_string(Nproc) + ",\"client_threads\":1,\"workers\":" +
      std::to_string(O.Workers) + ",\"compiler\":\"" +
      jsonEscape(PB_COMPILER) + "\",\"build_type\":\"" +
      jsonEscape(PB_BUILD_TYPE) + "\"}";
  std::printf("PROVENANCE %s\n", Prov.c_str());
  std::fflush(stdout);

  Result R;
  if (O.Workload == "serve_warm")
    R = runServeWarm(O);
  else if (O.Workload == "compile_cold")
    R = runCompileCold(O);
  else if (O.Workload == "kernels_large")
    R = runKernelsLarge(O);
  else
    usage(("unknown workload " + O.Workload).c_str());

  if (R.Attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }
  R.set("peak_rss_mb", static_cast<double>(peakRssKb()) / 1024.0, "MB");
  double FailedFrac =
      static_cast<double>(R.Failed) / static_cast<double>(R.Attempted);
  R.set("failed_frac", FailedFrac, "fraction");
  R.set("ok_frac", 1.0 - FailedFrac, "fraction");

  std::printf("%-34s %16s  %s\n", "metric", "value", "unit");
  for (const auto &[Name, M] : R.Metrics)
    std::printf("%-34s %16.6g  %s\n", Name.c_str(), M.Value, M.Unit.c_str());

  std::string J = "{\"workload\":\"" + O.Workload + "\",\"seed\":" +
                  std::to_string(O.Seed) + ",\"trace\":" +
                  (O.Trace ? "1" : "0") + ",\"correct\":" +
                  (R.Failed == 0 ? "true" : "false") + ",\"attempted\":" +
                  std::to_string(R.Attempted) + ",\"failed\":" +
                  std::to_string(R.Failed) + ",\"metrics\":{";
  bool First = true;
  char Buf[64];
  for (const auto &[Name, M] : R.Metrics) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    J += (First ? "\"" : ",\"") + Name + "\":{\"value\":" + Buf +
         ",\"unit\":\"" + M.Unit + "\"}";
    First = false;
  }
  J += "},\"provenance\":" + Prov + "}";
  std::printf("PBRESULT %s\n", J.c_str());
  return 0;
}
