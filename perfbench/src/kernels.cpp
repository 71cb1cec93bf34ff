//===- perfbench/src/kernels.cpp - kernels_large: the Fig. 8 set ------------===//
//
// Each Fig. 8 kernel at one size (reduce nb=16384, transpose n=1024, scan
// nb=4096, mm nt=16) runs three ways on one device, in interleaved rounds
// whose executor order rotates: the handwritten sim kernel
// (bench/handwritten.h), the generated sim kernel (descendc --emit=sim at
// build time) and the vm (artifact compiled from kernels/*.descend during
// set-up). Neither the front end nor the compile service runs in the
// timed loop.
//
// Oracles: the handwritten output must equal a plain CPU reference
// exactly (the seeded inputs are small dyadics, so every sum is exact);
// gen and vm must agree elementwise with the handwritten output under
// bench_fig8's 1e-6 relative tolerance; gen and vm must be bit-identical
// and, in one counted run each, report equal LaunchStats.
//
//===----------------------------------------------------------------------===//

#include "harness.h"
#include "trace.h"

#include "bench/handwritten.h"
#include "driver/Pipeline.h"
#include "vm/Interp.h"

#include "pb_matmul.h"
#include "pb_reduce.h"
#include "pb_scan.h"
#include "pb_transpose.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

using namespace descend;

namespace pb {
namespace {

using Buf = sim::GpuDevice::Buffer<double>;

constexpr unsigned ReduceNB = 16384, TransposeN = 1024, ScanNB = 4096,
                   MatmulNT = 16;
constexpr int NumKernels = 4, NumExecs = 3;
const char *const KernelName[NumKernels] = {"reduce", "transpose", "scan",
                                            "mm"};
enum Exec { Hand, Gen, Vm };
const char *const ExecName[NumExecs] = {"hand", "gen", "vm"};
/// Span names per executor (static strings for the recorder).
const char *const ExecSpan[NumExecs] = {"sim.hand", "sim.gen", "vm.launch"};

vm::DevBuf devBuf(Buf B) {
  vm::DevBuf D;
  D.Elem = ScalarKind::F64;
  D.Data = reinterpret_cast<std::byte *>(B.data());
  D.Count = B.size();
  D.Id = B.id();
  return D;
}

/// The device, buffers and vm artifacts of one set-up.
struct KCtx {
  std::unique_ptr<sim::GpuDevice> Dev;
  // reduce
  Buf RIn, ROut[NumExecs];
  // transpose
  Buf TIn, TOut[NumExecs];
  // scan
  Buf SIn, SOut[NumExecs], SSums[NumExecs], SOffs[NumExecs];
  // matmul
  Buf MA, MB, MC[NumExecs];
  std::shared_ptr<const vm::CompiledProgram> VmProg[NumKernels];

  /// The buffer each executor's result of kernel \p K lands in.
  Buf &out(int K, int E) {
    switch (K) {
    case 0:
      return ROut[E];
    case 1:
      return TOut[E];
    case 2:
      return SOut[E];
    default:
      return MC[E];
    }
  }
};

/// Seeded inputs and their exact CPU reference outputs.
struct Inputs {
  std::vector<double> Reduce, Transpose, Scan, A, B;
  std::vector<double> Ref[NumKernels];
};

Inputs makeInputs(uint64_t Seed) {
  Rng R(Seed ^ 0xF16F16ull);
  Inputs In;
  auto Fill = [&R](std::vector<double> &V, size_t N, uint64_t Mod,
                   double Scale, double Shift) {
    V.resize(N);
    for (double &X : V)
      X = static_cast<double>(R.below(Mod)) * Scale + Shift;
  };
  Fill(In.Reduce, size_t(ReduceNB) * 256, 89, 0.5, 0.0);
  Fill(In.Transpose, size_t(TransposeN) * TransposeN, 1013, 1.0, 0.0);
  Fill(In.Scan, size_t(ScanNB) * 256, 31, 0.25, 0.0);
  const size_t N = MatmulNT * 16;
  Fill(In.A, N * N, 13, 1.0, -6.0);
  Fill(In.B, N * N, 9, 1.0, -4.0);

  In.Ref[0].assign(ReduceNB, 0.0);
  for (size_t I = 0; I != In.Reduce.size(); ++I)
    In.Ref[0][I / 256] += In.Reduce[I];
  In.Ref[1].resize(In.Transpose.size());
  for (size_t Y = 0; Y != TransposeN; ++Y)
    for (size_t X = 0; X != TransposeN; ++X)
      In.Ref[1][X * TransposeN + Y] = In.Transpose[Y * TransposeN + X];
  In.Ref[2].resize(In.Scan.size());
  double Acc = 0.0;
  for (size_t I = 0; I != In.Scan.size(); ++I)
    In.Ref[2][I] = Acc += In.Scan[I];
  In.Ref[3].assign(N * N, 0.0);
  for (size_t I = 0; I != N; ++I)
    for (size_t K = 0; K != N; ++K)
      for (size_t J = 0; J != N; ++J)
        In.Ref[3][I * N + J] += In.A[I * N + K] * In.B[K * N + J];
  return In;
}

Buf upload(sim::GpuDevice &Dev, const std::vector<double> &V) {
  Buf B = Dev.alloc<double>(V.size());
  std::memcpy(B.data(), V.data(), V.size() * sizeof(double));
  return B;
}

/// Front end + vm::compile of one kernel file (set-up only).
std::shared_ptr<const vm::CompiledProgram>
compileVm(const Options &O, const char *File, const char *Nat,
          long long Size) {
  CompilerInvocation Inv;
  Inv.BufferName = File;
  Inv.Defines[Nat] = Size;
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  if (!S.run(readSource(O, File)).Ok) {
    std::fprintf(stderr, "perfbench: %s failed to compile:\n%s\n", File,
                 S.renderDiagnostics().c_str());
    std::exit(1);
  }
  vm::CompileVmResult C = vm::compile(*S.module());
  if (!C.Ok) {
    std::fprintf(stderr, "perfbench: vm::compile(%s): %s\n", File,
                 C.Error.c_str());
    std::exit(1);
  }
  return C.Program;
}

std::unique_ptr<KCtx> setupKernels(const Options &O, const Inputs &In,
                                   size_t Rep) {
  auto C = std::make_unique<KCtx>();
  C->Dev = std::make_unique<sim::GpuDevice>();
  C->Dev->setWorkers(O.Workers);
  C->Dev->pool(); // workers start unpinned
  CpuPin Pin(Rep);
  sim::GpuDevice &D = *C->Dev;
  C->RIn = upload(D, In.Reduce);
  C->TIn = upload(D, In.Transpose);
  C->SIn = upload(D, In.Scan);
  C->MA = upload(D, In.A);
  C->MB = upload(D, In.B);
  for (int E = 0; E != NumExecs; ++E) {
    C->ROut[E] = D.alloc<double>(ReduceNB);
    C->TOut[E] = D.alloc<double>(In.Transpose.size());
    C->SOut[E] = D.alloc<double>(In.Scan.size());
    C->SSums[E] = D.alloc<double>(ScanNB);
    C->SOffs[E] = D.alloc<double>(ScanNB);
    C->MC[E] = D.alloc<double>(In.A.size());
  }
  C->VmProg[0] = compileVm(O, "kernels/reduce.descend", "nb", ReduceNB);
  C->VmProg[1] = compileVm(O, "kernels/transpose.descend", "n", TransposeN);
  C->VmProg[2] = compileVm(O, "kernels/scan.descend", "nb", ScanNB);
  C->VmProg[3] = compileVm(O, "kernels/matmul.descend", "nt", MatmulNT);
  return C;
}

/// The host step of scan between its two launches (the paper times from
/// the start of the first launch to the end of the second).
void hostPrefix(Buf Sums, Buf Offs) {
  double Acc = 0;
  for (unsigned B = 0; B != ScanNB; ++B) {
    Acc += Sums.data()[B];
    Offs.data()[B] = Acc;
  }
}

/// One vm launch under its span; "" or the interpreter's error.
std::string vmLaunch(sim::GpuDevice &Dev, const vm::CompiledProgram &P,
                     const char *Kernel, std::vector<vm::DevBuf> Args,
                     int64_t Id) {
  const vm::VmKernel *K = P.findKernel(Kernel);
  if (!K)
    return std::string("vm artifact lacks kernel ") + Kernel;
  vm::RunStatus St;
  {
    Scope S(ExecSpan[Vm], Id);
    St = vm::launchKernel(Dev, *K, Args);
  }
  return St.Ok ? "" : St.Error;
}

/// Runs kernel \p K on executor \p E once; "" or an error.
std::string runOnce(KCtx &C, int K, int E, int64_t Id) {
  sim::GpuDevice &D = *C.Dev;
  std::optional<Scope> SimSpan;
  if (E != Vm)
    SimSpan.emplace(ExecSpan[E], Id);
  switch (K) {
  case 0:
    if (E == Hand)
      hand::reduce(D, C.RIn, C.ROut[E], ReduceNB);
    else if (E == Gen)
      gen::reduce_pb(D, C.RIn, C.ROut[E]);
    else
      return vmLaunch(D, *C.VmProg[K], "reduce",
                      {devBuf(C.RIn), devBuf(C.ROut[E])}, Id);
    return "";
  case 1:
    if (E == Hand)
      hand::transpose(D, C.TIn, C.TOut[E], TransposeN);
    else if (E == Gen)
      gen::transpose_pb(D, C.TIn, C.TOut[E]);
    else
      return vmLaunch(D, *C.VmProg[K], "transpose",
                      {devBuf(C.TIn), devBuf(C.TOut[E])}, Id);
    return "";
  case 2: {
    std::string Err;
    if (E == Hand)
      hand::scanBlocks(D, C.SIn, C.SOut[E], C.SSums[E], ScanNB);
    else if (E == Gen)
      gen::scan_blocks_pb(D, C.SIn, C.SOut[E], C.SSums[E]);
    else
      Err = vmLaunch(D, *C.VmProg[K], "scan_blocks",
                     {devBuf(C.SIn), devBuf(C.SOut[E]), devBuf(C.SSums[E])},
                     Id);
    SimSpan.reset(); // the host prefix is client work, not a layer's
    hostPrefix(C.SSums[E], C.SOffs[E]);
    if (E != Vm)
      SimSpan.emplace(ExecSpan[E], Id);
    if (E == Hand)
      hand::addSums(D, C.SOut[E], C.SOffs[E], ScanNB);
    else if (E == Gen)
      gen::add_sums_pb(D, C.SOut[E], C.SOffs[E]);
    else if (Err.empty())
      Err = vmLaunch(D, *C.VmProg[K], "add_sums",
                     {devBuf(C.SOut[E]), devBuf(C.SOffs[E])}, Id);
    return Err;
  }
  default:
    if (E == Hand)
      hand::matmul(D, C.MA, C.MB, C.MC[E], MatmulNT);
    else if (E == Gen)
      gen::matmul_pb(D, C.MA, C.MB, C.MC[E]);
    else
      return vmLaunch(D, *C.VmProg[K], "matmul",
                      {devBuf(C.MA), devBuf(C.MB), devBuf(C.MC[E])}, Id);
    return "";
  }
}

void clearOut(KCtx &C, int K, int E) {
  Buf &B = C.out(K, E);
  std::memset(B.data(), 0, B.size() * sizeof(double));
  if (K == 2) {
    std::memset(C.SSums[E].data(), 0, ScanNB * sizeof(double));
    std::memset(C.SOffs[E].data(), 0, ScanNB * sizeof(double));
  }
}

/// The oracles of one kernel's three outputs; one message per failing
/// executor (empty when all agree).
std::vector<std::pair<int, std::string>> verify(KCtx &C, int K,
                                                const Inputs &In) {
  std::vector<std::pair<int, std::string>> Bad;
  const std::vector<double> &Ref = In.Ref[K];
  const double *H = C.out(K, Hand).data();
  const double *G = C.out(K, Gen).data();
  const double *V = C.out(K, Vm).data();
  auto Where = [](size_t I, double Got, double Want) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), " at %zu: %.17g vs %.17g", I, Got, Want);
    return std::string(Buf);
  };
  for (size_t I = 0; I != Ref.size(); ++I)
    if (H[I] != Ref[I]) {
      Bad.push_back({Hand, "hand != CPU reference" + Where(I, H[I], Ref[I])});
      break;
    }
  for (size_t I = 0; I != Ref.size(); ++I)
    if (!nearlyEqual(H[I], G[I])) {
      Bad.push_back({Gen, "gen != hand" + Where(I, G[I], H[I])});
      break;
    }
  for (size_t I = 0; I != Ref.size(); ++I)
    if (!nearlyEqual(H[I], V[I])) {
      Bad.push_back({Vm, "vm != hand" + Where(I, V[I], H[I])});
      break;
    }
  if (std::memcmp(G, V, Ref.size() * sizeof(double)) != 0)
    Bad.push_back({Vm, "vm output not bit-identical to gen"});
  return Bad;
}

/// Times per (kernel, executor), one entry per round. The workload's
/// operation is one round: the whole Fig. 8 set on all three executors.
/// (Per-execution latencies form twelve clusters, and a percentile of
/// their pool jumps between clusters from run to run.)
struct Times {
  std::vector<double> Ms[NumKernels][NumExecs];
  std::vector<double> ExecMs; ///< every execution, in request-id order
  Loop All;                   ///< one operation per round
};

/// \p Rounds interleaved rounds; the executor order rotates per round and
/// kernel so no executor always runs first (or after the same one). With
/// \p Trace, the odd rounds are traced (tracedSegment with one round per
/// segment).
Times runRounds(const Options &O, KCtx &C, const Inputs &In, unsigned Rounds,
                Result &R, bool Trace) {
  Times T;
  T.All.SegLen = 1; // one round
  const int64_t Deadline = O.StartNs + 150'000'000'000LL;
  int64_t Id = 0;
  for (unsigned Rd = 0; Rd != Rounds; ++Rd) {
    if (nowNs() > Deadline) {
      std::printf("warning: deadline reached after %u rounds\n", Rd);
      break;
    }
    recorder().setEnabled(Trace && tracedSegment(Rd, T.All.SegLen));
    double RoundMs = 0.0;
    for (int K = 0; K != NumKernels; ++K) {
      std::string Err[NumExecs];
      for (int Step = 0; Step != NumExecs; ++Step) {
        int E = static_cast<int>((Rd + K + Step) % NumExecs);
        clearOut(C, K, E);
        int64_t T0 = nowNs();
        {
          Scope Req("request", Id++);
          Err[E] = runOnce(C, K, E, Id - 1);
        }
        double Ms = static_cast<double>(nowNs() - T0) / 1e6;
        T.Ms[K][E].push_back(Ms);
        T.ExecMs.push_back(Ms);
        RoundMs += Ms;
      }
      R.Attempted += NumExecs;
      bool FailedExec[NumExecs] = {};
      for (int E = 0; E != NumExecs; ++E)
        if (!Err[E].empty()) {
          FailedExec[E] = true;
          reportFailure(std::string("kernels_large ") + KernelName[K] + "/" +
                        ExecName[E] + ": " + Err[E]);
        }
      for (auto &[E, Msg] : verify(C, K, In)) {
        if (!FailedExec[E])
          reportFailure(std::string("kernels_large ") + KernelName[K] +
                        " round " + std::to_string(Rd) + ": " + Msg);
        FailedExec[E] = true;
      }
      for (bool F : FailedExec)
        R.Failed += F;
    }
    T.All.add(RoundMs);
  }
  recorder().setEnabled(false);
  return T;
}

/// One counted (untimed) run per kernel and executor; gen and vm must
/// report equal deterministic counters.
void countedRuns(KCtx &C, Result &R) {
  sim::GpuDevice &D = *C.Dev;
  for (int K = 0; K != NumKernels; ++K) {
    obs::LaunchStats LS[NumExecs];
    for (int E = 0; E != NumExecs; ++E) {
      D.resetStats();
      D.setCounters(true);
      std::string Err = runOnce(C, K, E, -1);
      LS[E] = D.totalStats();
      D.setCounters(false);
      D.resetStats();
      ++R.Attempted;
      if (!Err.empty()) {
        ++R.Failed;
        reportFailure(std::string("kernels_large counted ") + KernelName[K] +
                      "/" + ExecName[E] + ": " + Err);
      }
    }
    ++R.Attempted;
    if (!(LS[Gen] == LS[Vm])) {
      ++R.Failed;
      reportFailure(std::string("kernels_large ") + KernelName[K] +
                    ": gen and vm LaunchStats differ: gen " + LS[Gen].json() +
                    " vm " + LS[Vm].json());
    }
    for (int E : {Hand, Gen}) {
      std::string Sfx = std::string(".") + ExecName[E] + "." + KernelName[K];
      R.set("sim.global_loads" + Sfx, double(LS[E].globalLoads()), "count");
      R.set("sim.global_stores" + Sfx, double(LS[E].globalStores()), "count");
      R.set("sim.shared_transactions" + Sfx,
            double(LS[E].sharedTransactions()), "count");
      R.set("sim.bank_conflicts" + Sfx, double(LS[E].bankConflicts()),
            "count");
      R.set("sim.barriers" + Sfx, double(LS[E].barriers()), "count");
    }
  }
}

/// Median over the quiet rounds (quietSegments) of \p Cell, which holds
/// one value per round.
double quietMedian(const std::vector<double> &Cell, const Loop &L) {
  std::vector<double> Kept;
  for (size_t Rd : quietSegments(L.DoneNs, L.StartNs, L.SegLen))
    if (Rd < Cell.size())
      Kept.push_back(Cell[Rd]);
  return median(Kept);
}

} // namespace

void zeroKernelLayers(Result &R) {
  for (const char *K : KernelName) {
    std::string Sfx = std::string(".") + K;
    R.set("sim.hand_ms" + Sfx, 0.0, "ms");
    R.set("sim.gen_ms" + Sfx, 0.0, "ms");
    R.set("vm.launch_ms" + Sfx, 0.0, "ms");
    for (const char *E : {"hand", "gen"})
      for (const char *C : {"sim.global_loads", "sim.global_stores",
                            "sim.shared_transactions", "sim.bank_conflicts",
                            "sim.barriers"})
        R.set(std::string(C) + "." + E + Sfx, 0.0, "count");
  }
  R.set("sim.fig8_relative", 0.0, "ratio");
  R.set("vm.over_gen", 0.0, "ratio");
}

Result runKernelsLarge(const Options &O) {
  Result R;
  zeroServingLayers(R);
  zeroKernelLayers(R);
  Inputs In = makeInputs(O.Seed);

  std::vector<double> SetupS;
  std::unique_ptr<KCtx> C;
  for (size_t Rep = 0; Rep != 5; ++Rep) {
    C.reset();
    int64_t T0 = nowNs();
    C = setupKernels(O, In, Rep);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  setSetupMetric(R, SetupS);

  // Warm-up round (verified, untimed), then the timed rounds.
  Result Warm;
  runRounds(O, *C, In, 1, Warm, false);
  R.Attempted += Warm.Attempted;
  R.Failed += Warm.Failed;
  const unsigned Rounds = std::max(3u, O.Seconds * 3 / 4);
  if (O.Trace)
    recorder().reserve(size_t(Rounds) * NumKernels * NumExecs * 4);
  Times T = runRounds(O, *C, In, Rounds, R, O.Trace);
  setLoopMetrics(R, T.All);
  countedRuns(*C, R);

  std::vector<double> Rel;
  std::printf("%-10s %10s %10s %10s %10s %8s\n", "kernel", "hand [ms]",
              "gen [ms]", "vm [ms]", "hand/gen", "vm/gen");
  for (int K = 0; K != NumKernels; ++K) {
    double H = quietMedian(T.Ms[K][Hand], T.All),
           G = quietMedian(T.Ms[K][Gen], T.All),
           V = quietMedian(T.Ms[K][Vm], T.All);
    Rel.push_back(H / G);
    std::printf("%-10s %10.3f %10.3f %10.3f %9.3fx %7.2fx\n", KernelName[K],
                H, G, V, H / G, V / G);
    R.set(std::string("hand_ms.") + KernelName[K], H, "ms");
    R.set(std::string("gen_ms.") + KernelName[K], G, "ms");
    R.set(std::string("vm_ms.") + KernelName[K], V, "ms");
  }
  R.set("fig8_relative", geomean(Rel), "ratio");
  std::printf("fig8_relative (geomean hand/gen, quiet half of %u rounds): "
              "%.4f\n",
              Rounds, geomean(Rel));
  if (!O.Trace)
    return R;

  // The odd rounds were traced: a request span per kernel execution and a
  // span per layer call. Per request, the summed self time of the layer
  // spans and of the request span.
  std::vector<int64_t> Self = recorder().selfTimes();
  const auto &Sp = recorder().spans();
  int64_t NReq = static_cast<int64_t>(T.ExecMs.size());
  std::vector<double> LayerMs(NReq, 0.0), ReqSelfMs(NReq, 0.0);
  for (size_t I = 0; I != Sp.size(); ++I) {
    if (Sp[I].Req < 0 || Sp[I].Req >= NReq)
      continue;
    double Ms = static_cast<double>(Self[I]) / 1e6;
    if (std::string(Sp[I].Name) == "request")
      ReqSelfMs[Sp[I].Req] += Ms;
    else
      LayerMs[Sp[I].Req] += Ms;
  }
  // Request ids run kernel-major within a round, executor by step; map
  // each traced one back to its (kernel, executor) cell.
  std::vector<double> Cell[NumKernels][NumExecs];
  double Lat = 0, Layer = 0, Uncovered = 0;
  size_t NT = 0;
  int64_t Id = 0;
  for (unsigned Rd = 0; Id < NReq; ++Rd)
    for (int K = 0; K != NumKernels; ++K)
      for (int Step = 0; Step != NumExecs && Id < NReq; ++Step, ++Id) {
        if (!tracedSegment(Rd, T.All.SegLen))
          continue;
        Cell[K][(Rd + K + Step) % NumExecs].push_back(LayerMs[Id]);
        Lat += T.ExecMs[Id];
        Layer += LayerMs[Id];
        Uncovered += ReqSelfMs[Id];
        ++NT;
      }
  std::vector<double> TRel, VmRel;
  for (int K = 0; K != NumKernels; ++K) {
    std::string Sfx = std::string(".") + KernelName[K];
    double H = median(Cell[K][Hand]), G = median(Cell[K][Gen]),
           V = median(Cell[K][Vm]);
    R.set("sim.hand_ms" + Sfx, H, "ms");
    R.set("sim.gen_ms" + Sfx, G, "ms");
    R.set("vm.launch_ms" + Sfx, V, "ms");
    TRel.push_back(G > 0 ? H / G : 0.0);
    VmRel.push_back(G > 0 ? V / G : 0.0);
  }
  R.set("sim.fig8_relative", geomean(TRel), "ratio");
  R.set("vm.over_gen", geomean(VmRel), "ratio");
  NT = std::max<size_t>(NT, 1);
  R.set("trace.uncovered_ms", Uncovered / NT, "ms");
  R.set("trace.overhead_pct", traceOverheadPct(T.All), "%");
  std::printf("layer accounting (kernels_large, traced rounds, mean per "
              "kernel execution, %zu executions):\n"
              "  sim/vm layer spans %10.4f ms\n"
              "  uncovered          %10.4f ms (request span self time)\n"
              "  layers + uncovered %10.4f ms  vs  measured latency %.4f ms\n",
              NT, Layer / NT, Uncovered / NT, (Layer + Uncovered) / NT,
              Lat / NT);
  if (!O.OutDir.empty())
    recorder().write(O.OutDir + "/spans-kernels_large-" +
                     std::to_string(O.Seed) + ".jsonl");
  return R;
}

} // namespace pb
