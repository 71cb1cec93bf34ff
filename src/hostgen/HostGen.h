//===- hostgen/HostGen.h - Host-program code generation ---------*- C++ -*-===//
//
// Part of the Descend reproduction. Lowers the *host* side of a Descend
// program (Sections 2.3 / 3.4 / 3.5): `cpu.thread` functions that allocate
// heap and device memory, transfer data between cpu.mem and gpu.global and
// launch kernels with an explicit execution configuration. Where the type
// checker proves the transfers and launches correct, this layer turns the
// proven program into a runnable driver — exactly one synchronous C++
// function per host function, for one of two targets:
//
//   sim        C++ against runtime/HostRuntime.h + sim/Sim.h, taking the
//              sim::GpuDevice as its first parameter — rt::HostBuffer
//              allocations, rt::allocCopy / rt::copyToHost / rt::copyToGpu
//              transfers naming the host variables involved, and direct
//              calls of the generated simulator kernels in the same
//              header, each followed by an rt::checkDevice that turns a
//              sticky device error into a structured rt::Error.
//   cuda       CUDA runtime API host code — std::vector staging,
//              cudaMalloc / cudaMemcpy with statically computed byte
//              counts, real kernel<<<grid, block>>> launches and cudaFree
//              cleanup.
//
// A host function named `main` is emitted under the name `run` (plus the
// invocation's function suffix), which is the entry point tests and
// examples drive; every other host function keeps its own name so host
// functions can call each other.
//
// The emitters are deliberately structural: they only accept the host
// fragment of the language (lets, builtin allocation/transfer calls,
// launches, for-nat loops, scalar arithmetic and one-dimensional
// host-array indexing) and fail with a descriptive error otherwise —
// device-only constructs never reach them in type-checked modules. The
// vm backend (vm/Bytecode.cpp) compiles the same fragment with the same
// acceptance rules and error texts.
//
//===----------------------------------------------------------------------===//

#ifndef DESCEND_HOSTGEN_HOSTGEN_H
#define DESCEND_HOSTGEN_HOSTGEN_H

#include "ast/Item.h"

#include <string>

namespace descend {
namespace hostgen {

/// Which host substrate to emit for.
enum class HostTarget { Sim, Cuda };

/// Result of emitting one host function.
struct HostGenResult {
  bool Ok = false;
  std::string Code;  // one complete C++ function definition
  std::string Error; // set when !Ok
};

/// True when the module contains at least one cpu.thread function with a
/// body (i.e. the program has a host side worth emitting).
bool hasHostFns(const Module &M);

/// The C++ name \p Fn is emitted under: `main` becomes `run`, every other
/// function keeps its name; \p FnSuffix is appended in both cases (the
/// same suffix the kernel emitters use, so launches resolve).
std::string hostFnEmitName(const FnDef &Fn, const std::string &FnSuffix);

/// Emits \p Fn (a cpu.thread function of \p M, which must have passed the
/// type checker) as a host driver for \p Target.
HostGenResult emitHostFn(const Module &M, const FnDef &Fn, HostTarget Target,
                         const std::string &FnSuffix);

} // namespace hostgen
} // namespace descend

#endif // DESCEND_HOSTGEN_HOSTGEN_H
