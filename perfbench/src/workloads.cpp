//===- perfbench/src/workloads.cpp - serve_warm and compile_cold ------------===//
//
// The two request-serving workloads. Both are closed loops with one client
// thread: a request is CompileService::compile followed, when the program
// has a host `main` and the artifact is executable, by vm::runHostFn on a
// long-lived device. Request inputs (source text, -D bindings, host
// arrays) are generated from the seed before a request's clock starts;
// outputs are checked against closed-form oracles after it stops.
//
//   serve_warm    every key is compiled during set-up, so every timed
//                 request is a cache hit: service probe + vm host IR +
//                 per-launch validation + sim worker-pool wake-ups.
//   compile_cold  every request carries a distinct cache key, so every
//                 request is a miss: parser, instantiation, typeck,
//                 vm::compile and the codegen printers.
//
// Traced runs additionally replay, outside each request's span, the
// stages CompileService::compile runs internally on a miss (the Session
// stages and vm::compile) and, for serve_warm, the per-launch
// validateKernel / launchKernel pair runHostFn runs internally.
//
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "trace.h"

#include "driver/Pipeline.h"
#include "service/CompileService.h"
#include "vm/Interp.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

using namespace descend;

namespace pb {
namespace {

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

using ArrayList = std::vector<std::shared_ptr<vm::HostArray>>;

std::vector<double> doublesOf(const vm::HostArray &A) {
  std::vector<double> Out(A.Count);
  if (A.Elem == ScalarKind::F64 && A.Bytes.size() == A.Count * 8)
    std::memcpy(Out.data(), A.Bytes.data(), A.Count * 8);
  return Out;
}

Digest digestArr(const vm::HostArray &A) {
  std::vector<double> V = doublesOf(A);
  return digestOf(V.data(), V.size());
}

std::string digestStr(const Digest &D) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "n=%zu sum=%.17g first=%.17g last=%.17g",
                D.Count, D.Sum, D.First, D.Last);
  return Buf;
}

/// Kernels a host function body launches, in launch order with loop
/// multiplicity (the static launch count of one call).
void launchedKernels(const vm::CompiledProgram &P,
                     const std::vector<vm::HostStmt> &Body,
                     std::vector<unsigned> &Out, unsigned Depth = 0) {
  if (Depth > 8)
    return;
  for (const vm::HostStmt &S : Body) {
    if (S.K == vm::HostStmt::Launch) {
      Out.push_back(S.KernelIdx);
    } else if (S.K == vm::HostStmt::ForNat) {
      for (long long I = S.Lo; I < S.Hi; ++I)
        launchedKernels(P, S.Body, Out, Depth + 1);
    } else if (S.K == vm::HostStmt::Call && S.CalleeIdx < P.HostFns.size()) {
      launchedKernels(P, P.HostFns[S.CalleeIdx].Body, Out, Depth + 1);
    }
  }
}

uint64_t codeInstrs(const std::vector<vm::VmNode> &Nodes) {
  uint64_t N = 0;
  for (const vm::VmNode &Nd : Nodes)
    N += Nd.Body.Instrs.size() + Nd.Lo.Instrs.size() + Nd.Hi.Instrs.size() +
         codeInstrs(Nd.Children);
  return N;
}

/// Static bytecode instruction count of a compiled program's kernels.
uint64_t bytecodeInstrs(const vm::CompiledProgram &P) {
  uint64_t N = 0;
  for (const vm::VmKernel &K : P.Kernels)
    N += codeInstrs(K.Nodes);
  return N;
}

std::vector<vm::HostVal> hostArgs(const ArrayList &Arrs) {
  std::vector<vm::HostVal> Args;
  for (const auto &A : Arrs)
    Args.push_back(vm::HostVal::array(A));
  return Args;
}

double msSince(int64_t T0) { return static_cast<double>(nowNs() - T0) / 1e6; }

/// The host programs with a closed-form oracle. Sizes are the `-D` value
/// of the program's single nat (nb or nt).
enum class HostProg { Quickstart, Reduction, Matmul, Scale2 };

/// Host-array arguments of `main`, shaped from the closed form (not from
/// the compiled parameter schema, which runHostFn checks against them).
ArrayList makeProgArgs(HostProg P, long long Size, const double F[3]) {
  auto Arr = [](size_t N, double Fill) {
    return vm::makeHostArray(ScalarKind::F64, N, Fill);
  };
  switch (P) {
  case HostProg::Quickstart:
    return {Arr(Size * 256, F[0])};
  case HostProg::Scale2:
    return {Arr(Size * 512, F[0])};
  case HostProg::Reduction:
    return {Arr(Size * 256, F[0]), Arr(Size, F[1]), Arr(1, F[2])};
  case HostProg::Matmul: {
    size_t N = static_cast<size_t>(Size * 16) * (Size * 16);
    return {Arr(N, F[0]), Arr(N, F[1]), Arr(N, F[2])};
  }
  }
  return {};
}

/// Checks `main`'s outputs against the closed forms; "" when they agree.
std::string checkProg(HostProg P, long long Size, const double F[3],
                      const ArrayList &A) {
  std::vector<Digest> Want;
  switch (P) {
  case HostProg::Quickstart:
    Want = {scaledDigest(F[0], Size * 256)};
    break;
  case HostProg::Scale2:
    Want = {scaledDigest(F[0], Size * 512)};
    break;
  case HostProg::Reduction: {
    double T = reductionTotal(F[0], Size);
    Want = {uniformDigest(Size * 256, F[0]), uniformDigest(Size, 256 * F[0]),
            Digest{1, T, T, T}};
    break;
  }
  case HostProg::Matmul: {
    size_t N = static_cast<size_t>(Size * 16) * (Size * 16);
    Want = {uniformDigest(N, F[0]), uniformDigest(N, F[1]),
            uniformDigest(N, matmulElement(F[0], F[1], Size))};
    break;
  }
  }
  if (A.size() != Want.size())
    return "wrong argument count";
  for (size_t I = 0; I != Want.size(); ++I) {
    Digest Got = digestArr(*A[I]);
    if (!(Got == Want[I]))
      return "arg " + std::to_string(I) + ": got " + digestStr(Got) +
             ", want " + digestStr(Want[I]);
  }
  return "";
}

/// What one request produced, for the client's checks.
struct Served {
  service::CompileReply Rep;
  vm::RunStatus Run;
  bool Ran = false;
  double LatMs = 0.0;
};

/// One request: compile through the service, then run `main` when asked
/// and the artifact has one. The latency clock covers exactly these two
/// calls.
Served serveRequest(service::CompileService &Svc, sim::GpuDevice &Dev,
                    const service::CompileRequest &CR, bool Run,
                    const ArrayList &Arrs, int64_t Id) {
  Served S;
  std::vector<vm::HostVal> Args = hostArgs(Arrs);
  int64_t T0 = nowNs();
  {
    Scope Req("request", Id);
    {
      Scope C("service.compile", Id);
      S.Rep = Svc.compile(CR);
    }
    const vm::HostFnIR *Main =
        Run && S.Rep.Ok && S.Rep.Program ? S.Rep.Program->findHostFn("main")
                                         : nullptr;
    if (Main) {
      Scope H("vm.run_host", Id);
      S.Run = vm::runHostFn(Dev, *S.Rep.Program, *Main, std::move(Args));
      S.Ran = true;
    }
  }
  S.LatMs = msSince(T0);
  return S;
}

/// Mean over \p N requests of the summed self time of span \p Name.
double meanMs(const std::map<std::string, double> &Self, const char *Name,
              size_t N) {
  auto It = Self.find(Name);
  return It == Self.end() || N == 0 ? 0.0 : It->second / N;
}

/// Prints how the request spans' layer self-times account for the mean
/// request latency, and the uncovered remainder.
void printAccounting(const char *Workload,
                     const std::map<std::string, double> &Self, size_t N,
                     double MeanLatMs,
                     const std::vector<std::pair<std::string, double>> &Split) {
  std::printf("layer accounting (%s, traced pass, mean per request, %zu "
              "requests):\n",
              Workload, N);
  double Sum = 0;
  for (const auto &[Name, Ms] : Split) {
    std::printf("  %-28s %10.4f ms\n", Name.c_str(), Ms);
    Sum += Ms;
  }
  std::printf("  %-28s %10.4f ms (request span self time)\n", "uncovered",
              meanMs(Self, "request", N));
  std::printf("  %-28s %10.4f ms  vs  measured latency %.4f ms\n",
              "layers + uncovered", Sum + meanMs(Self, "request", N),
              MeanLatMs);
}

void setServiceDeltas(Result &R, const service::ServiceStats &A,
                      const service::ServiceStats &B) {
  uint64_t Hits = B.Hits - A.Hits;
  uint64_t Served = Hits + (B.Misses - A.Misses) + (B.Failures - A.Failures);
  R.set("service.hit_ratio", Served ? double(Hits) / Served : 0.0, "ratio");
  R.set("service.evictions", double(B.Evictions - A.Evictions), "count");
  R.set("service.failures", double(B.Failures - A.Failures), "count");
}

//===----------------------------------------------------------------------===//
// serve_warm
//===----------------------------------------------------------------------===//

struct ServeKey {
  HostProg Prog;
  const char *File;
  const char *Nat;
  long long Size;
};

const std::vector<ServeKey> &serveKeys() {
  static const std::vector<ServeKey> Keys = [] {
    std::vector<ServeKey> K;
    for (long long NB : {1, 2, 4, 8})
      K.push_back({HostProg::Quickstart, "programs/quickstart_host.descend",
                   "nb", NB});
    for (long long NB : {1, 2, 4, 8})
      K.push_back({HostProg::Reduction, "programs/reduction_host.descend",
                   "nb", NB});
    for (long long NT : {1, 2})
      K.push_back(
          {HostProg::Matmul, "programs/matmul_host.descend", "nt", NT});
    return K;
  }();
  return Keys;
}

struct ServeReq {
  unsigned Key = 0;
  double F[3] = {};
};

/// The seeded request stream, stratified so that every seed has the same
/// composition: each block of 12 requests holds every program four times
/// (quickstart and reduction once per nb, matmul twice per nt), in a
/// seeded order, with seeded exact dyadic fills.
std::vector<ServeReq> genServe(uint64_t Seed, size_t N) {
  Rng R(Seed);
  const std::vector<unsigned> Block = {0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 9, 9};
  std::vector<ServeReq> Out(N);
  std::vector<unsigned> Order;
  for (size_t I = 0; I != N; ++I) {
    if (I % Block.size() == 0) {
      Order = Block;
      R.shuffle(Order);
    }
    ServeReq &Q = Out[I];
    Q.Key = Order[I % Block.size()];
    for (double &F : Q.F)
      F = exactFill(R);
  }
  return Out;
}

struct ServeCtx {
  std::unique_ptr<sim::GpuDevice> Dev;
  std::unique_ptr<service::CompileService> Svc;
  std::vector<service::CompileRequest> KeyReqs;
  /// Traced replays: one device buffer set per (key, kernel).
  std::map<std::pair<unsigned, unsigned>, std::vector<vm::DevBuf>> ReplayBufs;
};

/// Checks one served request; "" when the reply, the run and the outputs
/// are all as the oracle says.
std::string checkServed(const ServeKey &K, const Served &S, const double F[3],
                        const ArrayList &Arrs) {
  if (!S.Rep.Ok)
    return "compile failed: " + S.Rep.Diagnostics;
  if (!S.Ran)
    return "artifact has no executable main";
  if (!S.Run.Ok)
    return "run failed: " + S.Run.Error;
  return checkProg(K.Prog, K.Size, F, Arrs);
}

/// One set-up: a fresh device and service, every key compiled once (the
/// cold misses a server pays at start) and served once (warm-up).
std::unique_ptr<ServeCtx> setupServe(const Options &O, Result &R,
                                     size_t Rep) {
  auto C = std::make_unique<ServeCtx>();
  C->Dev = std::make_unique<sim::GpuDevice>();
  C->Dev->setWorkers(O.Workers);
  C->Dev->pool(); // workers start unpinned
  CpuPin Pin(Rep);
  C->Svc = std::make_unique<service::CompileService>(64);
  std::map<std::string, std::string> Text;
  for (const ServeKey &K : serveKeys()) {
    if (!Text.count(K.File))
      Text[K.File] = readSource(O, K.File);
    service::CompileRequest CR;
    CR.Source = Text[K.File];
    CR.Defines[K.Nat] = K.Size;
    CR.Backend = "vm";
    CR.BufferName = K.File;
    C->KeyReqs.push_back(CR);
  }
  const double F[3] = {1.0, 1.0, 1.0};
  for (unsigned I = 0; I != serveKeys().size(); ++I) {
    const ServeKey &K = serveKeys()[I];
    ArrayList Arrs = makeProgArgs(K.Prog, K.Size, F);
    Served S = serveRequest(*C->Svc, *C->Dev, C->KeyReqs[I], true, Arrs, 0);
    std::string Err = checkServed(K, S, F, Arrs);
    ++R.Attempted;
    if (!Err.empty()) {
      ++R.Failed;
      reportFailure(std::string("serve_warm warm-up ") + K.File + ": " + Err);
    }
  }
  return C;
}

/// The timed pass. With \p ValidateMs and \p LaunchMs set it is the
/// traced pass instead (tracedSegment), and they collect the replayed
/// validateKernel / launchKernel times of the traced requests.
Loop servePass(const Options &O, ServeCtx &C,
               const std::vector<ServeReq> &Reqs, Result &R,
               std::vector<double> *ValidateMs,
               std::vector<double> *LaunchMs) {
  Loop P;
  P.SegLen = 600; // 50 blocks of the stratified stream
  const int64_t Deadline = O.StartNs + 150'000'000'000LL;
  for (size_t I = 0; I != Reqs.size(); ++I) {
    if (nowNs() > Deadline) {
      std::printf("warning: deadline reached after %zu requests\n", I);
      break;
    }
    const bool Traced = ValidateMs && tracedSegment(I, P.SegLen);
    recorder().setEnabled(Traced);
    const ServeReq &Q = Reqs[I];
    const ServeKey &K = serveKeys()[Q.Key];
    int64_t Id = static_cast<int64_t>(I);
    ArrayList Arrs = makeProgArgs(K.Prog, K.Size, Q.F);
    Served S =
        serveRequest(*C.Svc, *C.Dev, C.KeyReqs[Q.Key], true, Arrs, Id);
    P.add(S.LatMs);
    ++R.Attempted;
    std::string Err = checkServed(K, S, Q.F, Arrs);
    if (!Err.empty()) {
      ++R.Failed;
      reportFailure("serve_warm request " + std::to_string(I) + " (" +
                    K.File + "): " + Err);
    }
    if (!Traced || !S.Rep.Program)
      continue;
    // Replay, outside the request span, the validateKernel +
    // launchKernel pair runHostFn performs for each launch.
    const vm::CompiledProgram &Prog = *S.Rep.Program;
    std::vector<unsigned> Launched;
    if (const vm::HostFnIR *Main = Prog.findHostFn("main"))
      launchedKernels(Prog, Main->Body, Launched);
    Scope Rp("replay", Id);
    for (unsigned KI : Launched) {
      const vm::VmKernel &VK = Prog.Kernels[KI];
      auto &Bufs = C.ReplayBufs[{Q.Key, KI}];
      if (Bufs.empty())
        for (const auto &Prm : VK.Params)
          Bufs.push_back(vm::allocDev(*C.Dev, Prm.Elem, Prm.Count));
      int64_t V0 = nowNs();
      {
        Scope V("vm.validate", Id);
        vm::validateKernel(VK);
      }
      int64_t L0 = nowNs();
      {
        Scope L("vm.launch", Id);
        vm::launchKernel(*C.Dev, VK, Bufs);
      }
      ValidateMs->push_back(static_cast<double>(L0 - V0) / 1e6);
      LaunchMs->push_back(msSince(L0));
    }
  }
  recorder().setEnabled(false);
  return P;
}

/// Requests of \p L that ran traced.
size_t tracedCount(const Loop &L) {
  size_t N = 0;
  for (size_t I = 0; I != L.LatMs.size(); ++I)
    N += tracedSegment(I, L.SegLen);
  return N;
}

} // namespace

/// Every per-layer metric of the request-serving layers, zero-filled: a
/// workload reports 0 for a layer it bypasses.
void zeroServingLayers(Result &R) {
  for (const char *Ms : {"parser.ms", "driver.instantiate_ms", "typeck.ms",
                         "typeck.ms_p99", "vm.compile_ms", "codegen.emit_ms",
                         "service.miss_ms", "service.own_ms",
                         "service.hit_ms", "vm.validate_ms", "vm.run_host_ms",
                         "trace.uncovered_ms"})
    R.set(Ms, 0.0, "ms");
  R.set("vm.bytecode_instrs", 0.0, "count");
  R.set("codegen.artifact_bytes", 0.0, "bytes");
  R.set("typeck.rejects", 0.0, "count");
  R.set("typeck.verdicts_wrong", 0.0, "count");
  R.set("service.hit_ratio", 0.0, "ratio");
  R.set("service.evictions", 0.0, "count");
  R.set("service.failures", 0.0, "count");
  R.set("vm.validate_share", 0.0, "ratio");
  R.set("sim.launches_per_req", 0.0, "count");
  R.set("sim.rss_kb_per_req", 0.0, "kB");
  R.set("trace.overhead_pct", 0.0, "%");
}

Result runServeWarm(const Options &O) {
  Result R;
  zeroServingLayers(R);
  zeroKernelLayers(R);
  std::vector<double> SetupS;
  std::unique_ptr<ServeCtx> C;
  for (size_t Rep = 0; Rep != 9; ++Rep) {
    C.reset(); // the previous set-up's device and service go first
    int64_t T0 = nowNs();
    C = setupServe(O, R, Rep);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  setSetupMetric(R, SetupS);

  const size_t N = 1000 * static_cast<size_t>(O.Seconds);
  std::vector<ServeReq> Reqs = genServe(O.Seed, N);
  std::vector<double> ValMs, LaunchMs;
  if (O.Trace)
    recorder().reserve(N * 8);
  service::ServiceStats S0 = C->Svc->stats();
  long Rss0 = rssKb();
  Loop P = servePass(O, *C, Reqs, R, O.Trace ? &ValMs : nullptr,
                     O.Trace ? &LaunchMs : nullptr);
  long Rss1 = rssKb();
  setServiceDeltas(R, S0, C->Svc->stats());
  setLoopMetrics(R, P);
  R.set("sim.rss_kb_per_req",
        static_cast<double>(Rss1 - Rss0) / static_cast<double>(N), "kB");

  // Static launches per request, averaged over the request stream.
  std::vector<double> KeyLaunches;
  for (const service::CompileRequest &CR : C->KeyReqs) {
    service::CompileReply Rep = C->Svc->compile(CR);
    std::vector<unsigned> L;
    if (Rep.Program)
      if (const vm::HostFnIR *Main = Rep.Program->findHostFn("main"))
        launchedKernels(*Rep.Program, Main->Body, L);
    KeyLaunches.push_back(static_cast<double>(L.size()));
  }
  double Launches = 0;
  for (const ServeReq &Q : Reqs)
    Launches += KeyLaunches[Q.Key];
  R.set("sim.launches_per_req", Launches / N, "count");

  if (!O.Trace)
    return R;

  size_t NT = tracedCount(P);
  auto Self = selfMsByName(recorder(), 0, static_cast<int64_t>(N));
  double SumVal = 0, SumLaunch = 0;
  for (double V : ValMs)
    SumVal += V;
  for (double V : LaunchMs)
    SumLaunch += V;
  R.set("service.hit_ms", meanMs(Self, "service.compile", NT), "ms");
  R.set("vm.run_host_ms", meanMs(Self, "vm.run_host", NT), "ms");
  R.set("vm.validate_ms", NT ? SumVal / NT : 0.0, "ms");
  R.set("vm.validate_share", SumLaunch > 0 ? SumVal / SumLaunch : 0.0,
        "ratio");
  R.set("trace.uncovered_ms", meanMs(Self, "request", NT), "ms");
  R.set("trace.overhead_pct", traceOverheadPct(P), "%");
  printAccounting("serve_warm", Self, NT, segmentMeansMs(P)[1],
                  {{"service.compile (hit)", meanMs(Self, "service.compile",
                                                    NT)},
                   {"vm.run_host", meanMs(Self, "vm.run_host", NT)}});
  if (!O.OutDir.empty())
    recorder().write(O.OutDir + "/spans-serve_warm-" +
                     std::to_string(O.Seed) + ".jsonl");
  return R;
}

//===----------------------------------------------------------------------===//
// compile_cold
//===----------------------------------------------------------------------===//

namespace {

struct ColdSource {
  enum Kind { Good, Bad } K = Good;
  const char *File = "";
  const char *Nat = nullptr; ///< the nat -D binds (null: none)
  std::vector<long long> Sizes;
  bool HasMain = false;
  HostProg Prog = HostProg::Quickstart; ///< oracle when HasMain
  const char *Expect = nullptr;         ///< Bad: expected diagnostic
};

const std::vector<ColdSource> &coldSources() {
  static const std::vector<ColdSource> S = {
      {ColdSource::Good, "kernels/matmul.descend", "nt", {1, 2, 4}},
      {ColdSource::Good, "kernels/reduce.descend", "nb", {1, 2, 4, 8, 16}},
      {ColdSource::Good, "kernels/scale2.descend", "nb", {1, 2, 4, 8},
       true, HostProg::Scale2},
      {ColdSource::Good, "kernels/scale_vec.descend", "nb", {1, 2, 4, 8}},
      {ColdSource::Good, "kernels/scan.descend", "nb", {1, 2, 4, 8}},
      {ColdSource::Good, "kernels/transpose.descend", "n", {32, 64, 128}},
      {ColdSource::Good, "programs/matmul_host.descend", "nt", {1, 2},
       true, HostProg::Matmul},
      {ColdSource::Good, "programs/quickstart_host.descend", "nb",
       {1, 2, 4, 8}, true, HostProg::Quickstart},
      {ColdSource::Good, "programs/reduction_host.descend", "nb",
       {1, 2, 4, 8}, true, HostProg::Reduction},
      {ColdSource::Bad, "programs/bad_host_deref.descend", nullptr, {},
       false, HostProg::Quickstart, "cannot dereference"},
      {ColdSource::Bad, "programs/bad_launch_config.descend", nullptr, {},
       false, HostProg::Quickstart, "mismatched launch configuration"},
      {ColdSource::Bad, "programs/bad_size_mismatch.descend", nullptr, {},
       false, HostProg::Quickstart, "cannot transfer"},
      {ColdSource::Bad, "programs/bad_swapped_copy.descend", nullptr, {},
       false, HostProg::Quickstart, "are swapped"},
  };
  return S;
}

/// BM_TypecheckScaling's shape: K independent assignments in one kernel.
std::string syntheticSource(int K) {
  std::string S = "fn k(a: &uniq gpu.global [f64; " + std::to_string(256 * K) +
                  "])\n-[grid: gpu.grid<X<1>, X<256>>]-> () {\n"
                  "  sched(X) block in grid {\n    sched(X) thread in block "
                  "{\n";
  for (int I = 0; I != K; ++I)
    S += "      a.group::<" + std::to_string(K) + ">[[thread]][" +
         std::to_string(I) + "] = " + std::to_string(I) + ".0;\n";
  S += "    }\n  }\n}\n";
  return S;
}

struct ColdReq {
  int Src = -1; ///< index into coldSources(); -1 for synthetic
  service::CompileRequest CR;
  bool Run = false;
  double F[3] = {};
};

/// The seeded request stream. Every request's source starts with a
/// unique salt comment, so every cache key is distinct. Stratified so that
/// every seed has the same composition: each block of 14 requests holds
/// each of the 9 well-typed sources once, 3 synthetic modules (one K from
/// each third of [16, 128]) and 2 ill-typed fixtures; the 12 well-typed
/// requests take 8 vm, 2 sim and 2 cuda backends. The seed picks the
/// order, the backend of each source, the fixtures, the sizes, K and the
/// fills.
std::vector<ColdReq> genCold(uint64_t Seed, size_t N, const char *SaltTag,
                             const std::map<std::string, std::string> &Text) {
  Rng R(Seed ^ 0xC01DC01Dull);
  const auto &Srcs = coldSources();
  std::vector<int> Good, Bad;
  for (int I = 0; I != static_cast<int>(Srcs.size()); ++I)
    (Srcs[I].K == ColdSource::Bad ? Bad : Good).push_back(I);
  // One block: a source index per slot (-1 - bin for a synthetic module)
  // and its backend.
  struct Slot {
    int Src;
    const char *Backend;
  };
  constexpr size_t BlockLen = 14;
  std::vector<Slot> Block;
  std::vector<ColdReq> Out(N);
  for (size_t I = 0; I != N; ++I) {
    if (I % BlockLen == 0) {
      std::vector<const char *> Backends(8, "vm");
      Backends.insert(Backends.end(), {"sim", "sim", "cuda", "cuda"});
      R.shuffle(Backends);
      std::vector<int> WellTyped = Good;
      for (int Bin = 0; Bin != 3; ++Bin)
        WellTyped.push_back(-1 - Bin);
      Block.clear();
      for (size_t J = 0; J != WellTyped.size(); ++J)
        Block.push_back({WellTyped[J], Backends[J]});
      for (int J = 0; J != 2; ++J)
        Block.push_back({R.pick(Bad), "vm"});
      R.shuffle(Block);
    }
    const Slot &Sl = Block[I % BlockLen];
    ColdReq &Q = Out[I];
    std::string Salt = "// perfbench " + std::string(SaltTag) + " " +
                       std::to_string(Seed) + ":" + std::to_string(I) + "\n";
    std::string Body;
    Q.CR.Backend = Sl.Backend;
    if (Sl.Src < 0) {
      int Bin = -1 - Sl.Src; // K in [16, 128], one third per bin
      Body = syntheticSource(16 + 37 * Bin +
                             static_cast<int>(R.below(Bin == 2 ? 39 : 37)));
      Q.CR.BufferName = "synthetic.descend";
    } else {
      Q.Src = Sl.Src;
      const ColdSource &S = Srcs[Q.Src];
      Body = Text.at(S.File);
      Q.CR.BufferName = S.File;
      // Programs with main run once, at their minimal size, on vm.
      Q.Run = S.HasMain && Q.CR.Backend == "vm";
      if (S.Nat)
        Q.CR.Defines[S.Nat] = Q.Run ? S.Sizes.front() : R.pick(S.Sizes);
    }
    for (double &F : Q.F)
      F = exactFill(R);
    Q.CR.Source = Salt + Body;
  }
  return Out;
}

struct ColdCtx {
  std::unique_ptr<sim::GpuDevice> Dev;
  std::unique_ptr<service::CompileService> Svc;
  std::map<std::string, std::string> Text;
};

/// Per-request facts the metrics are built from.
struct ColdTally {
  uint64_t Rejects = 0, VerdictsWrong = 0, VmReqs = 0, OkReqs = 0;
  double Instrs = 0, ArtifactBytes = 0;
};

std::string checkCold(const ColdReq &Q, const Served &S,
                      const ArrayList &Arrs, ColdTally &T) {
  const ColdSource *Src = Q.Src >= 0 ? &coldSources()[Q.Src] : nullptr;
  if (S.Rep.CacheHit)
    return "cache hit on a distinct key";
  if (!S.Rep.Ok)
    ++T.Rejects;
  if (Src && Src->K == ColdSource::Bad) {
    if (S.Rep.Ok) {
      ++T.VerdictsWrong;
      return "ill-typed program accepted";
    }
    if (S.Rep.Diagnostics.find(Src->Expect) == std::string::npos) {
      ++T.VerdictsWrong;
      return std::string("rejected without the expected diagnostic `") +
             Src->Expect + "`: " + S.Rep.Diagnostics.substr(0, 200);
    }
    return "";
  }
  if (!S.Rep.Ok) {
    ++T.VerdictsWrong;
    return "well-typed program rejected: " + S.Rep.Diagnostics.substr(0, 300);
  }
  ++T.OkReqs;
  T.ArtifactBytes += S.Rep.Artifact.size();
  if (S.Rep.Artifact.empty())
    return "empty artifact";
  if (Q.CR.Backend == "vm") {
    if (!S.Rep.Program)
      return "vm reply without a program";
    ++T.VmReqs;
    T.Instrs += bytecodeInstrs(*S.Rep.Program);
  }
  if (!Q.Run)
    return "";
  if (!S.Ran)
    return "artifact has no executable main";
  if (!S.Run.Ok)
    return "run failed: " + S.Run.Error;
  return checkProg(Src->Prog, Q.CR.Defines.begin()->second, Q.F, Arrs);
}

/// The timed pass. With \p TypeckMs set it is the traced pass instead
/// (tracedSegment): traced requests are replayed stage by stage, and the
/// replayed typecheck times collect in \p TypeckMs. \p CpuBase offsets
/// the CPU rotation.
Loop coldPass(const Options &O, ColdCtx &C, const std::vector<ColdReq> &Reqs,
              Result &R, ColdTally &T, std::vector<double> *TypeckMs,
              size_t CpuBase) {
  std::optional<CpuPin> Pin;
  Loop P;
  P.SegLen = 280; // 20 blocks of the stratified stream
  const int64_t Deadline = O.StartNs + 150'000'000'000LL;
  for (size_t I = 0; I != Reqs.size(); ++I) {
    if (nowNs() > Deadline) {
      std::printf("warning: deadline reached after %zu requests\n", I);
      break;
    }
    if (I % 70 == 0) { // rotate the client over the CPUs (CpuPin)
      Pin.reset();
      Pin.emplace(CpuBase + I / 70);
    }
    const bool Traced = TypeckMs && tracedSegment(I, P.SegLen);
    recorder().setEnabled(Traced);
    const ColdReq &Q = Reqs[I];
    int64_t Id = static_cast<int64_t>(I);
    ArrayList Arrs;
    if (Q.Run)
      Arrs = makeProgArgs(coldSources()[Q.Src].Prog,
                          Q.CR.Defines.begin()->second, Q.F);
    Served S = serveRequest(*C.Svc, *C.Dev, Q.CR, Q.Run, Arrs, Id);
    P.add(S.LatMs);
    ++R.Attempted;
    std::string Err = checkCold(Q, S, Arrs, T);
    if (!Err.empty()) {
      ++R.Failed;
      reportFailure("compile_cold request " + std::to_string(I) + " (" +
                    Q.CR.BufferName + ", " + Q.CR.Backend + "): " + Err);
    }
    if (!Traced)
      continue;
    // Replay, outside the request span, the stages the service ran
    // inside its miss: the Session stages, then vm::compile + the
    // disassembly printer (vm) or Session::emit (the C++ printers).
    Scope Rp("replay", Id);
    CompilerInvocation Inv;
    Inv.BufferName = Q.CR.BufferName;
    Inv.Defines = Q.CR.Defines;
    Inv.BackendName = Q.CR.Backend;
    Session Sess(Inv);
    bool Ok;
    {
      Scope Sp("parser.parse", Id);
      Ok = Sess.parse(Q.CR.Source);
    }
    if (Ok) {
      Scope Sp("driver.instantiate", Id);
      Ok = Sess.instantiate();
    }
    if (Ok) {
      int64_t C0 = nowNs();
      {
        Scope Sp("typeck.check", Id);
        Ok = Sess.typecheck();
      }
      TypeckMs->push_back(msSince(C0));
    }
    if (!Ok)
      continue;
    if (Q.CR.Backend == "vm") {
      vm::CompileVmResult VC;
      {
        Scope Sp("vm.compile", Id);
        VC = vm::compile(*Sess.module(), Q.CR.Passes);
      }
      if (VC.Ok) {
        Scope Sp("codegen.emit", Id);
        std::string Listing = vm::disassemble(*VC.Program);
        if (Listing.empty())
          reportFailure("compile_cold replay: empty vm listing");
      }
    } else {
      Scope Sp("codegen.emit", Id);
      Sess.emit();
    }
  }
  recorder().setEnabled(false);
  return P;
}

std::unique_ptr<ColdCtx> setupCold(const Options &O, Result &R, size_t Rep) {
  auto C = std::make_unique<ColdCtx>();
  C->Dev = std::make_unique<sim::GpuDevice>();
  C->Dev->setWorkers(O.Workers);
  C->Dev->pool(); // workers start unpinned
  CpuPin Pin(Rep);
  for (const ColdSource &S : coldSources())
    C->Text[S.File] = readSource(O, S.File);
  C->Svc = std::make_unique<service::CompileService>(64);
  // Warm-up: three blocks of the stream with their own salts (no key
  // overlaps the timed stream) and a fixed seed, so set-up is the same
  // work for every seed.
  std::vector<ColdReq> Warm = genCold(0, 42, "warmup", C->Text);
  ColdTally T;
  coldPass(O, *C, Warm, R, T, nullptr, Rep);
  return C;
}

void setColdTally(Result &R, const ColdTally &T) {
  R.set("typeck.rejects", double(T.Rejects), "count");
  R.set("typeck.verdicts_wrong", double(T.VerdictsWrong), "count");
  R.set("vm.bytecode_instrs", T.VmReqs ? T.Instrs / T.VmReqs : 0.0, "count");
  R.set("codegen.artifact_bytes",
        T.OkReqs ? T.ArtifactBytes / T.OkReqs : 0.0, "bytes");
}

} // namespace

Result runCompileCold(const Options &O) {
  Result R;
  zeroServingLayers(R);
  zeroKernelLayers(R);
  std::vector<double> SetupS;
  std::unique_ptr<ColdCtx> C;
  for (size_t Rep = 0; Rep != 9; ++Rep) {
    C.reset();
    int64_t T0 = nowNs();
    C = setupCold(O, R, Rep);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  setSetupMetric(R, SetupS);

  const size_t N = std::max<size_t>(1000, 800 * O.Seconds);
  std::vector<ColdReq> Reqs = genCold(O.Seed, N, "timed", C->Text);
  std::vector<double> TypeckMs;
  if (O.Trace)
    recorder().reserve(N * 12);
  service::ServiceStats S0 = C->Svc->stats();
  ColdTally T;
  Loop P = coldPass(O, *C, Reqs, R, T, O.Trace ? &TypeckMs : nullptr, 0);
  setServiceDeltas(R, S0, C->Svc->stats());
  setColdTally(R, T);
  setLoopMetrics(R, P);
  if (!O.Trace)
    return R;

  size_t NT = tracedCount(P);
  auto Self = selfMsByName(recorder(), 0, static_cast<int64_t>(N));
  double Parse = meanMs(Self, "parser.parse", NT);
  double Inst = meanMs(Self, "driver.instantiate", NT);
  double Tc = meanMs(Self, "typeck.check", NT);
  double VmC = meanMs(Self, "vm.compile", NT);
  double Emit = meanMs(Self, "codegen.emit", NT);
  double Svc = meanMs(Self, "service.compile", NT);
  double Own = Svc - (Parse + Inst + Tc + VmC + Emit);
  R.set("parser.ms", Parse, "ms");
  R.set("driver.instantiate_ms", Inst, "ms");
  R.set("typeck.ms", Tc, "ms");
  R.set("typeck.ms_p99", percentile(TypeckMs, 99), "ms");
  R.set("vm.compile_ms", VmC, "ms");
  R.set("codegen.emit_ms", Emit, "ms");
  R.set("service.miss_ms", Svc, "ms");
  R.set("service.own_ms", Own, "ms");
  R.set("vm.run_host_ms", meanMs(Self, "vm.run_host", NT), "ms");
  R.set("trace.uncovered_ms", meanMs(Self, "request", NT), "ms");
  R.set("trace.overhead_pct", traceOverheadPct(P), "%");
  printAccounting("compile_cold", Self, NT, segmentMeansMs(P)[1],
                  {{"parser (replayed)", Parse},
                   {"driver.instantiate (replayed)", Inst},
                   {"typeck (replayed)", Tc},
                   {"vm.compile (replayed)", VmC},
                   {"codegen.emit (replayed)", Emit},
                   {"service own share", Own},
                   {"vm.run_host", meanMs(Self, "vm.run_host", NT)}});
  if (!O.OutDir.empty())
    recorder().write(O.OutDir + "/spans-compile_cold-" +
                     std::to_string(O.Seed) + ".jsonl");
  return R;
}

} // namespace pb
