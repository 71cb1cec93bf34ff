//===- tests/hostgen_test.cpp - Host-program subsystem tests ----------------===//
//
// Exercises the host-program compilation subsystem end to end at the
// artifact level: the programs/*.descend fixtures typecheck (or are
// rejected with the targeted host diagnostics), the sim backend emits a
// runnable host driver against runtime/HostRuntime.h, and the cuda
// backend's host output matches the checked-in golden .cu.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "hostgen/HostGen.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace descend;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string programPath(const std::string &Name) {
  return std::string(DESCEND_PROGRAM_DIR) + "/" + Name;
}

struct Outcome {
  bool Ok = false;
  std::string Artifact;
  std::string Rendered;
  std::unique_ptr<Session> S;
};

Outcome compileProgram(const std::string &FileName,
                       const std::string &Backend,
                       std::map<std::string, long long> Defines = {},
                       const std::string &FnSuffix = "") {
  Outcome O;
  CompilerInvocation Inv;
  Inv.BufferName = FileName;
  Inv.Defines = std::move(Defines);
  Inv.FnSuffix = FnSuffix;
  if (Backend.empty())
    Inv.RunUntil = Stage::Typecheck;
  else
    Inv.BackendName = Backend;
  O.S = std::make_unique<Session>(Inv);
  CompileResult R = O.S->run(readFile(programPath(FileName)));
  O.Ok = R.Ok;
  O.Artifact = R.Artifact;
  O.Rendered = O.S->renderDiagnostics();
  return O;
}

//===----------------------------------------------------------------------===//
// Positive programs: typecheck and emit a sim host driver
//===----------------------------------------------------------------------===//

TEST(HostGen, QuickstartSimDriver) {
  Outcome O = compileProgram("quickstart_host.descend", "sim", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  // The generated header drives the host runtime...
  EXPECT_NE(O.Artifact.find("#include \"runtime/HostRuntime.h\""),
            std::string::npos)
      << O.Artifact;
  // ...with `main` emitted as the `run` entry point...
  EXPECT_NE(O.Artifact.find(
                "inline void run(descend::sim::GpuDevice &_dev"),
            std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("descend::rt::HostBuffer<double> &host_vec"),
            std::string::npos)
      << O.Artifact;
  // ...performing the statically checked transfer/launch sequence.
  EXPECT_NE(O.Artifact.find(
                "auto d_vec = descend::rt::allocCopy(_dev, host_vec);"),
            std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("scale_vec(_dev, d_vec);"), std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("descend::rt::copyToHost(host_vec, d_vec, "
                            "\"host_vec\", \"d_vec\");"),
            std::string::npos)
      << O.Artifact;
  // Synchronous launches are followed by a device check so sticky errors
  // surface as structured rt::Errors at the failing step.
  EXPECT_NE(O.Artifact.find("descend::rt::checkDevice(_dev, \"launch "
                            "scale_vec\");"),
            std::string::npos)
      << O.Artifact;
}

TEST(HostGen, ReductionSimDriverLowersHostLoop) {
  Outcome O = compileProgram("reduction_host.descend", "sim", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  // The sequential CPU finish compiles to a real host loop.
  EXPECT_NE(O.Artifact.find("for (long long i = 0; i != 8; ++i)"),
            std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("total[0] = (total[0] + partials[i]);"),
            std::string::npos)
      << O.Artifact;
  // Two transfers in, one out.
  EXPECT_NE(O.Artifact.find("allocCopy(_dev, data)"), std::string::npos);
  EXPECT_NE(O.Artifact.find("allocCopy(_dev, partials)"), std::string::npos);
  EXPECT_NE(O.Artifact.find(
                "copyToHost(partials, d_out, \"partials\", \"d_out\")"),
            std::string::npos);
}

TEST(HostGen, FnSuffixAppliesToDriverAndLaunches) {
  Outcome O = compileProgram("quickstart_host.descend", "sim", {{"nb", 8}},
                             "_tiny");
  ASSERT_TRUE(O.Ok) << O.Rendered;
  EXPECT_NE(O.Artifact.find("inline void run_tiny("), std::string::npos)
      << O.Artifact;
  // The launch resolves against the suffixed kernel in the same header.
  EXPECT_NE(O.Artifact.find("scale_vec_tiny(_dev, d_vec);"),
            std::string::npos)
      << O.Artifact;
}

TEST(HostGen, SymbolicHostProgramTypechecks) {
  // Without -D the whole program stays polymorphic in nb; the transfer
  // and launch checks go through the Nat solver.
  Outcome O = compileProgram("reduction_host.descend", "");
  EXPECT_TRUE(O.Ok) << O.Rendered;
}

TEST(HostGen, KernelOnlyModulesStayRuntimeFree) {
  CompilerInvocation Inv;
  Inv.BufferName = "k.descend";
  Inv.Defines["nb"] = 2;
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn scale_vec<nb: nat>(vec: &uniq gpu.global [f64; nb*256])
-[grid: gpu.grid<X<nb>, X<256>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
)");
  ASSERT_TRUE(R.Ok) << S.renderDiagnostics();
  EXPECT_EQ(R.Artifact.find("HostRuntime"), std::string::npos)
      << "kernel-only headers must not pull in the host runtime";
}

//===----------------------------------------------------------------------===//
// One synchronous driver per host function
//===----------------------------------------------------------------------===//

size_t countOf(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Hay.find(Needle); At != std::string::npos;
       At = Hay.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

TEST(HostGen, SimEmitsOneSyncDriverPerHostFunction) {
  const std::pair<const char *, std::map<std::string, long long>> Programs[] =
      {{"quickstart_host.descend", {{"nb", 8}}},
       {"reduction_host.descend", {{"nb", 8}}},
       {"matmul_host.descend", {{"nt", 4}}}};
  for (const auto &[File, Defines] : Programs) {
    Outcome O = compileProgram(File, "sim", Defines);
    ASSERT_TRUE(O.Ok) << File << "\n" << O.Rendered;
    EXPECT_EQ(countOf(O.Artifact, "inline void run"), 1u)
        << File << "\n" << O.Artifact;
    EXPECT_EQ(countOf(O.Artifact,
                      "inline void run(descend::sim::GpuDevice &_dev"),
              1u)
        << File;
    // No asynchronous or captured variant rides along.
    for (const char *Absent : {"sim::Stream", "Graph", "Capture"})
      EXPECT_EQ(O.Artifact.find(Absent), std::string::npos)
          << File << " mentions " << Absent << "\n"
          << O.Artifact;
  }
}

//===----------------------------------------------------------------------===//
// The cuda host golden
//===----------------------------------------------------------------------===//

TEST(HostGen, CudaDriverMatchesGolden) {
  Outcome O = compileProgram("quickstart_host.descend", "cuda", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  std::string Golden =
      readFile(std::string(DESCEND_GOLDEN_DIR) + "/quickstart_host.cu");
  EXPECT_EQ(O.Artifact, Golden)
      << "regenerate with: descendc programs/quickstart_host.descend "
         "--emit=cuda -D nb=8 -o tests/goldens/quickstart_host.cu";
}

TEST(HostGen, CudaLaunchKeepsAxisSlots) {
  // A Y-leading grid must land in dim3's .y slot, not be packed into .x.
  CompilerInvocation Inv;
  Inv.BufferName = "ygrid.descend";
  Inv.BackendName = "cuda";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn scale_y(vec: &uniq gpu.global [f64; 2048])
-[grid: gpu.grid<Y<8>, X<256>>]-> () {
  sched(Y) block in grid {
    sched(X) thread in block {
      vec.group::<256>[[block]][[thread]] =
        vec.group::<256>[[block]][[thread]] * 3.0
    }
  }
}
fn main() -[t: cpu.thread]-> () {
  let h = CpuHeap::new([0.0; 2048]);
  let d = GpuGlobal::alloc_copy(&h);
  scale_y::<<<Y<8>, X<256>>>>(&uniq d)
}
)");
  ASSERT_TRUE(R.Ok) << S.renderDiagnostics();
  EXPECT_NE(R.Artifact.find(
                "scale_y<<<dim3(1, 8, 1), dim3(256, 1, 1)>>>(d);"),
            std::string::npos)
      << R.Artifact;
}

TEST(HostGen, CudaDriverFreesDeviceBuffers) {
  Outcome O = compileProgram("reduction_host.descend", "cuda", {{"nb", 8}});
  ASSERT_TRUE(O.Ok) << O.Rendered;
  EXPECT_NE(O.Artifact.find("cudaFree(d_in);"), std::string::npos)
      << O.Artifact;
  EXPECT_NE(O.Artifact.find("cudaFree(d_out);"), std::string::npos)
      << O.Artifact;
  // Byte counts are computed from the statically proven element counts.
  EXPECT_NE(O.Artifact.find("sizeof(double) * (2048)"), std::string::npos)
      << O.Artifact;
}

//===----------------------------------------------------------------------===//
// Negative programs: compile-time rejection with targeted diagnostics
//===----------------------------------------------------------------------===//

TEST(HostGenDiagnostics, SwappedCopyDirectionRejected) {
  Outcome O = compileProgram("bad_swapped_copy.descend", "");
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(
      O.S->diagnostics().contains(DiagCode::TransferDirectionMismatch))
      << O.Rendered;
}

TEST(HostGenDiagnostics, SizeMismatchedTransferRejected) {
  Outcome O = compileProgram("bad_size_mismatch.descend", "");
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(O.S->diagnostics().contains(DiagCode::TransferSizeMismatch))
      << O.Rendered;
}

TEST(HostGenDiagnostics, WrongLaunchConfigRejected) {
  Outcome O = compileProgram("bad_launch_config.descend", "");
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(O.S->diagnostics().contains(DiagCode::LaunchConfigMismatch))
      << O.Rendered;
}

TEST(HostGenDiagnostics, DevicePointerDerefOnHostRejected) {
  Outcome O = compileProgram("bad_host_deref.descend", "");
  EXPECT_FALSE(O.Ok);
  EXPECT_TRUE(O.S->diagnostics().contains(DiagCode::CannotDereference))
      << O.Rendered;
}

TEST(HostGenDiagnostics, MultiDimensionalHostIndexRejectedByEveryBackend) {
  // Host buffers are flat in every target, so `a[1][2]` has no C++
  // spelling; sim and cuda must reject it with the vm's text instead of
  // printing a subscript that does not compile.
  for (const char *Backend : {"sim", "cuda", "vm"}) {
    CompilerInvocation Inv;
    Inv.BufferName = "multi_dim.descend";
    Inv.BackendName = Backend;
    Session S(Inv);
    CompileResult R = S.run(R"(
fn main(a: &uniq cpu.mem [[f64; 4]; 2]) -[t: cpu.thread]-> () {
  a[1][2] = 3.0
}
)");
    EXPECT_FALSE(R.Ok) << Backend << "\n" << R.Artifact;
    EXPECT_NE(S.renderDiagnostics().find(
                  "place `a[1][2]` indexes more than one dimension"),
              std::string::npos)
        << Backend << "\n"
        << S.renderDiagnostics();
  }
}

//===----------------------------------------------------------------------===//
// hostgen API details
//===----------------------------------------------------------------------===//

TEST(HostGenApi, EmitNameMapsMainToRun) {
  FnDef Fn;
  Fn.Name = "main";
  EXPECT_EQ(hostgen::hostFnEmitName(Fn, ""), "run");
  EXPECT_EQ(hostgen::hostFnEmitName(Fn, "_small"), "run_small");
  Fn.Name = "stage_inputs";
  EXPECT_EQ(hostgen::hostFnEmitName(Fn, ""), "stage_inputs");
}

TEST(HostGenApi, HasHostFnsDistinguishesModules) {
  CompilerInvocation Inv;
  Inv.RunUntil = Stage::Typecheck;
  Session S(Inv);
  ASSERT_TRUE(S.run("fn host() -[t: cpu.thread]-> () { }").Ok)
      << S.renderDiagnostics();
  EXPECT_TRUE(hostgen::hasHostFns(*S.module()));

  Session S2(Inv);
  ASSERT_TRUE(S2.run(R"(
fn k(v: &uniq gpu.global [f64; 64])
-[grid: gpu.grid<X<1>, X<64>>]-> () {
  sched(X) block in grid {
    sched(X) thread in block { v.group::<64>[[block]][[thread]] = 1.0 }
  }
}
)")
                  .Ok)
      << S2.renderDiagnostics();
  EXPECT_FALSE(hostgen::hasHostFns(*S2.module()));
}

TEST(HostGenApi, HostFunctionsCanCallEachOther) {
  CompilerInvocation Inv;
  Inv.BufferName = "chain.descend";
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn prepare(buf: &uniq cpu.mem [f64; 16]) -[t: cpu.thread]-> () {
  for i in [0..16] { (*buf)[i] = 2.0 }
}
fn main(buf: &uniq cpu.mem [f64; 16]) -[t: cpu.thread]-> () {
  prepare(&uniq *buf)
}
)");
  ASSERT_TRUE(R.Ok) << S.renderDiagnostics();
  EXPECT_NE(R.Artifact.find("inline void prepare("), std::string::npos)
      << R.Artifact;
  EXPECT_NE(R.Artifact.find("prepare(_dev, buf);"), std::string::npos)
      << R.Artifact;
}

TEST(HostGenApi, ScalarCallArgumentsAreExpressions) {
  // A scalar parameter takes any host expression; an indexed place must
  // pass the element, not the whole buffer it indexes.
  for (const char *Backend : {"sim", "cuda"}) {
    CompilerInvocation Inv;
    Inv.BufferName = "call_expr.descend";
    Inv.BackendName = Backend;
    Session S(Inv);
    CompileResult R = S.run(R"(
fn set1(a: &uniq cpu.mem [f64; 4], s: f64) -[t: cpu.thread]-> () {
  (*a)[1] = s
}
fn main(a: &uniq cpu.mem [f64; 4], b: &uniq cpu.mem [f64; 4])
-[t: cpu.thread]-> () {
  set1(&uniq *a, 2.0 * 3.0);
  set1(&uniq *a, (*b)[3])
}
)");
    ASSERT_TRUE(R.Ok) << Backend << "\n" << S.renderDiagnostics();
    const std::string Dev = std::string(Backend) == "sim" ? "_dev, " : "";
    EXPECT_NE(R.Artifact.find("set1(" + Dev + "a, (2.0 * 3.0));"),
              std::string::npos)
        << R.Artifact;
    EXPECT_NE(R.Artifact.find("set1(" + Dev + "a, b[3]);"),
              std::string::npos)
        << R.Artifact;
  }
}

TEST(HostGenApi, UnsupportedHostConstructIsReported) {
  // Tuples are not part of the host fragment; the emitter reports a
  // descriptive error instead of emitting garbage.
  CompilerInvocation Inv;
  Inv.BufferName = "bad.descend";
  Inv.BackendName = "sim";
  Session S(Inv);
  CompileResult R = S.run(R"(
fn main(pair: &uniq cpu.mem (f64, f64)) -[t: cpu.thread]-> () { }
)");
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(S.diagnostics().contains(DiagCode::BackendFailed))
      << S.renderDiagnostics();
}

} // namespace
