//===- perfbench/src/trace.h - In-memory spans around layer calls -*- C++ -*-===//
//
// The traced run records one span around every public call the harness
// makes into a layer: name, start, end, parent span and request id. Spans
// stay in memory (a reserved vector, no I/O on the measured path) and are
// written out as JSON lines when the run ends. With the recorder disabled
// a Scope costs one branch, and the timed runs keep it disabled.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "stats.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pb {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char *Name = ""; ///< static string: "<layer>.<what>"
  int64_t Start = 0, End = 0;
  int64_t Parent = -1; ///< index of the enclosing span, -1 for a root
  int64_t Req = -1;    ///< request id shared by a request's spans
};

class Recorder {
public:
  bool enabled() const { return On; }
  void setEnabled(bool Enable) { On = Enable; }
  /// Reserves and touches room for \p N spans, so recording allocates
  /// nothing and the pages are resident before any RSS reading.
  void reserve(size_t N) {
    Spans.resize(N);
    Spans.clear();
  }

  int64_t begin(const char *Name, int64_t Req) {
    Span S;
    S.Name = Name;
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Req = Req;
    Spans.push_back(S);
    int64_t Id = static_cast<int64_t>(Spans.size()) - 1;
    Stack.push_back(Id);
    Spans.back().Start = nowNs();
    return Id;
  }
  void end(int64_t Id) {
    Spans[Id].End = nowNs();
    Stack.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time of every span, in span order.
  std::vector<int64_t> selfTimes() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(Spans.size());
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Kids[S.Parent].push_back({S.Start, S.End});
    std::vector<int64_t> Out(Spans.size());
    for (size_t I = 0; I != Spans.size(); ++I)
      Out[I] = selfNs(Spans[I].Start, Spans[I].End, Kids[I]);
    return Out;
  }

  /// Writes one JSON object per span to \p Path; false on I/O failure.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    for (const Span &S : Spans)
      std::fprintf(F,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%lld,\"req\":%lld}\n",
                   S.Name, (long long)S.Start, (long long)S.End,
                   (long long)S.Parent, (long long)S.Req);
    return std::fclose(F) == 0;
  }

private:
  bool On = false;
  std::vector<Span> Spans;
  std::vector<int64_t> Stack;
};

/// The process-wide recorder (one client thread per run).
inline Recorder &recorder() {
  static Recorder R;
  return R;
}

/// RAII span; inert while the recorder is disabled.
class Scope {
public:
  Scope(const char *Name, int64_t Req) {
    if (recorder().enabled()) [[unlikely]]
      Id = recorder().begin(Name, Req);
  }
  ~Scope() {
    if (Id >= 0)
      recorder().end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  int64_t Id = -1;
};

/// Sum of self time per span name, over spans whose request id is in
/// [ReqLo, ReqHi) — the layer breakdown of a batch of requests.
inline std::map<std::string, double>
selfMsByName(const Recorder &R, int64_t ReqLo, int64_t ReqHi) {
  std::map<std::string, double> Out;
  std::vector<int64_t> Self = R.selfTimes();
  const std::vector<Span> &Sp = R.spans();
  for (size_t I = 0; I != Sp.size(); ++I)
    if (Sp[I].Req >= ReqLo && Sp[I].Req < ReqHi)
      Out[Sp[I].Name] += static_cast<double>(Self[I]) / 1e6;
  return Out;
}

} // namespace pb

#endif // PERFBENCH_TRACE_H
