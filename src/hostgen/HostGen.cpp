//===- hostgen/HostGen.cpp - Host-program code generation --------------------===//

#include "hostgen/HostGen.h"

#include "codegen/Lowerer.h" // cppScalarType, floatLiteral, arrayNest, containsPow
#include "support/StringUtils.h"

#include <map>
#include <optional>
#include <sstream>
#include <vector>

using namespace descend;
using namespace descend::hostgen;

namespace {

using codegen::arrayNest;
using codegen::containsPow;
using codegen::cppScalarType;
using codegen::floatLiteral;

/// What a host variable is, as far as the emitter cares.
struct HostVar {
  enum Kind { HostBuf, DevBuf, Scalar, LoopVar } K = Scalar;
  ScalarKind Elem = ScalarKind::F64;
  Nat Count;         // HostBuf / DevBuf: element count
  bool IsParam = false;
  bool Shared = false; // HostBuf: bound through a shared reference
};

class Emitter {
public:
  Emitter(const Module &M, const FnDef &Fn, HostTarget T,
          const std::string &FnSuffix)
      : M(M), Fn(Fn), T(T), FnSuffix(FnSuffix) {}

  HostGenResult run();

private:
  const Module &M;
  const FnDef &Fn;
  HostTarget T;
  const std::string &FnSuffix;

  std::ostringstream OS;
  std::string Error;
  unsigned Depth = 1;

  bool isSim() const { return T == HostTarget::Sim; }

  std::vector<std::map<std::string, HostVar>> Scopes;
  /// Device buffers allocated at function scope, in allocation order
  /// (cuda: released with cudaFree before returning).
  std::vector<std::string> DeviceBufs;

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    return false;
  }

  void indent() {
    for (unsigned I = 0; I != Depth; ++I)
      OS << "  ";
  }

  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }

  void bind(const std::string &Name, HostVar V) {
    Scopes.back()[Name] = std::move(V);
  }

  const HostVar *lookup(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It)
      if (auto Found = It->find(Name); Found != It->end())
        return &Found->second;
    return nullptr;
  }

  /// Spelling of a Nat as C++ (sizes are simplified first; unfolded pow
  /// has no C++ spelling and is rejected).
  std::optional<std::string> natCpp(const Nat &N) {
    Nat S = N.simplified();
    if (containsPow(S)) {
      fail("size expression `" + S.str() + "` contains an unfolded power");
      return std::nullopt;
    }
    return S.str();
  }

  /// The C++ expression denoting the raw host storage of \p Name for a
  /// cudaMemcpy argument (locals are std::vectors, parameters raw
  /// pointers).
  std::string hostRaw(const std::string &Name, const HostVar &V) const {
    return V.IsParam ? Name : Name + ".data()";
  }

  std::optional<std::string> exprCpp(const Expr &E);
  std::optional<std::string> placeCpp(const PlaceExpr &P);
  std::string argVar(const Expr &E);

  bool emitSignature();
  bool emitBlock(const BlockExpr &Blk);
  bool emitStmt(const Expr &E);
  bool emitLet(const LetExpr &L);
  bool emitAllocCall(const CallExpr &C, const std::string &Let);
  bool emitCall(const CallExpr &C);
  bool emitLaunch(const CallExpr &C);
  bool emitForNat(const ForNatExpr &F);
};

/// Root variable name of a borrow / place argument; empty for anything
/// else (the callers report the error with context).
std::string Emitter::argVar(const Expr &E) {
  const Expr *Inner = &E;
  if (const auto *B = dyn_cast<BorrowExpr>(Inner))
    Inner = B->Place.get();
  if (const auto *P = dyn_cast<PlaceExpr>(Inner))
    return P->rootVar();
  return "";
}

std::optional<std::string> Emitter::placeCpp(const PlaceExpr &P) {
  // Flatten root-to-leaf.
  std::vector<const PlaceExpr *> Chain;
  for (const PlaceExpr *Cur = &P; Cur; Cur = basePlace(Cur))
    Chain.push_back(Cur);
  std::reverse(Chain.begin(), Chain.end());

  std::string S;
  bool Indexed = false;
  for (const PlaceExpr *Step : Chain) {
    switch (Step->kind()) {
    case ExprKind::PlaceVar: {
      const auto *V = cast<PlaceVar>(Step);
      if (!lookup(V->Name)) {
        fail("unknown host variable `" + V->Name + "`");
        return std::nullopt;
      }
      S = V->Name;
      break;
    }
    case ExprKind::PlaceDeref:
      // Buffers index directly in both targets (HostBuffer::operator[],
      // raw pointers, std::vector); the deref is implicit.
      break;
    case ExprKind::PlaceIndex: {
      // Host buffers are flat in both targets (HostBuffer, raw pointers,
      // std::vector), so a second subscript would not compile.
      if (Indexed) {
        fail("place `" + P.str() + "` indexes more than one dimension");
        return std::nullopt;
      }
      Indexed = true;
      const auto *Idx = cast<PlaceIndex>(Step);
      auto I = exprCpp(*Idx->Index);
      if (!I)
        return std::nullopt;
      S += "[" + *I + "]";
      break;
    }
    default:
      fail("place `" + P.str() + "` is not addressable in host code");
      return std::nullopt;
    }
  }
  return S;
}

std::optional<std::string> Emitter::exprCpp(const Expr &E) {
  switch (E.kind()) {
  case ExprKind::Literal: {
    const auto *L = cast<LiteralExpr>(&E);
    switch (L->Scalar) {
    case ScalarKind::F32:
    case ScalarKind::F64:
      return floatLiteral(L->FloatValue, L->Scalar);
    case ScalarKind::Bool:
      return std::string(L->BoolValue ? "true" : "false");
    default:
      return std::to_string(L->IntValue);
    }
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    auto L = exprCpp(*B->Lhs);
    auto R = exprCpp(*B->Rhs);
    if (!L || !R)
      return std::nullopt;
    return "(" + *L + " " + binOpSpelling(B->Op) + " " + *R + ")";
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    auto S = exprCpp(*U->Sub);
    if (!S)
      return std::nullopt;
    return std::string(U->Op == UnOpKind::Neg ? "-" : "!") + *S;
  }
  case ExprKind::PlaceVar:
  case ExprKind::PlaceDeref:
  case ExprKind::PlaceIndex:
    return placeCpp(*cast<PlaceExpr>(&E));
  default:
    fail("unsupported host expression: " + exprToString(E));
    return std::nullopt;
  }
}

bool Emitter::emitSignature() {
  if (Fn.RetTy && !DataType::equal(Fn.RetTy, makeUnit()))
    return fail("host functions must return (), `" + Fn.Name + "` returns `" +
                Fn.RetTy->str() + "`");

  OS << "/// " << Fn.signature() << "\n";
  OS << (isSim() ? "inline void " : "void ")
     << hostFnEmitName(Fn, FnSuffix) << "(";
  bool First = true;
  auto Sep = [&]() {
    if (!First)
      OS << ",\n    ";
    else if (isSim())
      OS << ",\n    "; // after the device argument
    First = false;
  };
  if (isSim())
    OS << "descend::sim::GpuDevice &_dev";

  for (const FnParam &P : Fn.Params) {
    HostVar V;
    V.IsParam = true;
    if (const auto *Ref = dyn_cast<RefType>(P.Ty.get())) {
      std::vector<Nat> Dims;
      ScalarKind Elem = ScalarKind::F64;
      if (!arrayNest(Ref->Pointee, Dims, Elem))
        return fail("unsupported host parameter type `" + P.Ty->str() + "`");
      Nat Count = Nat::lit(1);
      for (const Nat &D : Dims)
        Count = Count * D;
      V.Elem = Elem;
      V.Count = Count.simplified();
      V.Shared = Ref->Own == Ownership::Shrd;
      if (Ref->Mem.Kind == MemoryKind::CpuMem) {
        V.K = HostVar::HostBuf;
        Sep();
        if (isSim())
          OS << (V.Shared ? "const descend::rt::HostBuffer<"
                          : "descend::rt::HostBuffer<")
             << cppScalarType(Elem) << "> &" << P.Name;
        else
          OS << (V.Shared ? "const " : "") << cppScalarType(Elem) << " *"
             << P.Name;
      } else if (Ref->Mem.Kind == MemoryKind::GpuGlobal) {
        V.K = HostVar::DevBuf;
        Sep();
        if (isSim())
          OS << "descend::sim::GpuDevice::Buffer<" << cppScalarType(Elem)
             << "> " << P.Name;
        else
          OS << (V.Shared ? "const " : "") << cppScalarType(Elem) << " *"
             << P.Name;
      } else {
        return fail("unsupported host parameter memory `" +
                    Ref->Mem.str() + "`");
      }
    } else if (const auto *S = dyn_cast<ScalarType>(P.Ty.get())) {
      V.K = HostVar::Scalar;
      V.Elem = S->Scalar;
      Sep();
      OS << cppScalarType(S->Scalar) << " " << P.Name;
    } else {
      return fail("unsupported host parameter type `" + P.Ty->str() + "`");
    }
    bind(P.Name, std::move(V));
  }
  OS << ") {\n";
  return true;
}

bool Emitter::emitBlock(const BlockExpr &Blk) {
  for (const ExprPtr &S : Blk.Stmts)
    if (!emitStmt(*S))
      return false;
  return true;
}

bool Emitter::emitStmt(const Expr &E) {
  switch (E.kind()) {
  case ExprKind::Let:
    return emitLet(*cast<LetExpr>(&E));
  case ExprKind::Call:
    return emitCall(*cast<CallExpr>(&E));
  case ExprKind::Assign: {
    const auto *A = cast<AssignExpr>(&E);
    auto L = placeCpp(*A->Lhs);
    auto R = exprCpp(*A->Rhs);
    if (!L || !R)
      return false;
    indent();
    OS << *L << " = " << *R << ";\n";
    return true;
  }
  case ExprKind::ForNat:
    return emitForNat(*cast<ForNatExpr>(&E));
  case ExprKind::Block: {
    indent();
    OS << "{\n";
    ++Depth;
    pushScope();
    bool Ok = emitBlock(*cast<BlockExpr>(&E));
    popScope();
    --Depth;
    indent();
    OS << "}\n";
    return Ok;
  }
  default:
    return fail("unsupported host statement: " + exprToString(E));
  }
}

bool Emitter::emitForNat(const ForNatExpr &F) {
  auto Lo = natCpp(F.Lo);
  auto Hi = natCpp(F.Hi);
  if (!Lo || !Hi)
    return false;
  indent();
  OS << "for (long long " << F.Var << " = " << *Lo << "; " << F.Var << " != "
     << *Hi << "; ++" << F.Var << ") {\n";
  ++Depth;
  pushScope();
  HostVar V;
  V.K = HostVar::LoopVar;
  V.Elem = ScalarKind::I64;
  bind(F.Var, std::move(V));
  bool Ok = F.Body->kind() == ExprKind::Block
                ? emitBlock(*cast<BlockExpr>(F.Body.get()))
                : emitStmt(*F.Body);
  popScope();
  --Depth;
  indent();
  OS << "}\n";
  return Ok;
}

bool Emitter::emitLet(const LetExpr &L) {
  if (const auto *C = dyn_cast<CallExpr>(L.Init.get()))
    if (C->Callee == "CpuHeap::new" || C->Callee == "GpuGlobal::alloc_copy")
      return emitAllocCall(*C, L.Name);
  if (const auto *A = dyn_cast<AllocExpr>(L.Init.get())) {
    // alloc::<cpu.mem, [T; n]>() — zero-initialized host heap array.
    std::vector<Nat> Dims;
    ScalarKind Elem = ScalarKind::F64;
    if (A->Mem.Kind != MemoryKind::CpuMem ||
        !arrayNest(A->AllocTy, Dims, Elem))
      return fail("unsupported host allocation: " + exprToString(*L.Init));
    Nat Count = Nat::lit(1);
    for (const Nat &D : Dims)
      Count = Count * D;
    auto N = natCpp(Count);
    if (!N)
      return false;
    indent();
    if (isSim())
      OS << "descend::rt::HostBuffer<" << cppScalarType(Elem) << "> "
         << L.Name << "(" << *N << ", " << cppScalarType(Elem) << "{});\n";
    else
      OS << "std::vector<" << cppScalarType(Elem) << "> " << L.Name << "("
         << *N << ", " << cppScalarType(Elem) << "{});\n";
    HostVar V;
    V.K = HostVar::HostBuf;
    V.Elem = Elem;
    V.Count = Count.simplified();
    bind(L.Name, std::move(V));
    return true;
  }
  // Scalar let.
  auto Init = exprCpp(*L.Init);
  if (!Init)
    return false;
  ScalarKind Elem = ScalarKind::F64;
  if (const auto *S = dyn_cast_if_present<ScalarType>(
          (L.Annotation ? L.Annotation : L.Init->Ty).get()))
    Elem = S->Scalar;
  else if (const auto *Lit = dyn_cast<LiteralExpr>(L.Init.get()))
    Elem = Lit->Scalar;
  indent();
  OS << cppScalarType(Elem) << " " << L.Name << " = " << *Init << ";\n";
  HostVar V;
  V.K = HostVar::Scalar;
  V.Elem = Elem;
  bind(L.Name, std::move(V));
  return true;
}

bool Emitter::emitAllocCall(const CallExpr &C, const std::string &Let) {
  if (C.Callee == "CpuHeap::new") {
    const auto *Init = dyn_cast<ArrayInitExpr>(C.Args.empty()
                                                   ? nullptr
                                                   : C.Args[0].get());
    if (!Init)
      return fail("CpuHeap::new expects an array initializer `[v; n]`");
    ScalarKind Elem = ScalarKind::F64;
    if (const auto *S =
            dyn_cast_if_present<ScalarType>(Init->Elem->Ty.get()))
      Elem = S->Scalar;
    else if (const auto *Lit = dyn_cast<LiteralExpr>(Init->Elem.get()))
      Elem = Lit->Scalar;
    auto Fill = exprCpp(*Init->Elem);
    auto N = natCpp(Init->Count);
    if (!Fill || !N)
      return false;
    indent();
    if (isSim())
      OS << "descend::rt::HostBuffer<" << cppScalarType(Elem) << "> " << Let
         << "(" << *N << ", " << *Fill << ");\n";
    else
      OS << "std::vector<" << cppScalarType(Elem) << "> " << Let << "(" << *N
         << ", " << *Fill << ");\n";
    HostVar V;
    V.K = HostVar::HostBuf;
    V.Elem = Elem;
    V.Count = Init->Count.simplified();
    bind(Let, std::move(V));
    return true;
  }

  // GpuGlobal::alloc_copy(&host_buf).
  std::string Src = argVar(*C.Args[0]);
  const HostVar *SrcVar = Src.empty() ? nullptr : lookup(Src);
  if (!SrcVar || SrcVar->K != HostVar::HostBuf)
    return fail("GpuGlobal::alloc_copy expects a reference to a host "
                "buffer variable");
  const char *CT = cppScalarType(SrcVar->Elem);
  indent();
  if (isSim()) {
    OS << "auto " << Let << " = descend::rt::allocCopy(_dev, " << Src
       << ");\n";
  } else {
    auto N = natCpp(SrcVar->Count);
    if (!N)
      return false;
    if (Scopes.size() > 1)
      return fail("device allocations must happen at host-function scope "
                  "(needed for cudaFree cleanup)");
    OS << CT << " *" << Let << " = nullptr;\n";
    indent();
    OS << "cudaMalloc(&" << Let << ", sizeof(" << CT << ") * (" << *N
       << "));\n";
    indent();
    OS << "cudaMemcpy(" << Let << ", " << hostRaw(Src, *SrcVar) << ", sizeof("
       << CT << ") * (" << *N << "), cudaMemcpyHostToDevice);\n";
    DeviceBufs.push_back(Let);
  }
  HostVar V;
  V.K = HostVar::DevBuf;
  V.Elem = SrcVar->Elem;
  V.Count = SrcVar->Count;
  bind(Let, std::move(V));
  return true;
}

bool Emitter::emitCall(const CallExpr &C) {
  if (C.IsLaunch)
    return emitLaunch(C);

  if (C.Callee == "copy_mem_to_host" || C.Callee == "copy_to_gpu") {
    bool ToHost = C.Callee == "copy_mem_to_host";
    std::string Dst = argVar(*C.Args[0]);
    std::string Src = argVar(*C.Args[1]);
    const HostVar *DstVar = Dst.empty() ? nullptr : lookup(Dst);
    const HostVar *SrcVar = Src.empty() ? nullptr : lookup(Src);
    if (!DstVar || !SrcVar)
      return fail("`" + C.Callee + "` expects buffer variable references");
    indent();
    if (isSim()) {
      // Pass the host-program variable names through so a size-mismatch
      // rt::Error names the offending buffers, not just the counts.
      OS << (ToHost ? "descend::rt::copyToHost(" : "descend::rt::copyToGpu(")
         << Dst << ", " << Src << ", \"" << Dst << "\", \"" << Src
         << "\");\n";
      return true;
    }
    const HostVar &HostSide = ToHost ? *DstVar : *SrcVar;
    const char *CT = cppScalarType(HostSide.Elem);
    auto N = natCpp(HostSide.Count);
    if (!N)
      return false;
    if (ToHost)
      OS << "cudaMemcpy(" << hostRaw(Dst, *DstVar) << ", " << Src
         << ", sizeof(" << CT << ") * (" << *N
         << "), cudaMemcpyDeviceToHost);\n";
    else
      OS << "cudaMemcpy(" << Dst << ", " << hostRaw(Src, *SrcVar)
         << ", sizeof(" << CT << ") * (" << *N
         << "), cudaMemcpyHostToDevice);\n";
    return true;
  }

  // Plain call of another host function.
  if (const FnDef *Callee = M.findFn(C.Callee); Callee && Callee->isCpuFn()) {
    std::vector<std::string> Args;
    for (size_t I = 0; I != C.Args.size(); ++I) {
      const Expr &A = *C.Args[I];
      // Scalar parameters take any host expression (`b[2]`, `2.0 * 3.0`);
      // reference parameters take the buffer their borrow names.
      const bool ScalarParam = I < Callee->Params.size() &&
                               isa<ScalarType>(Callee->Params[I].Ty.get());
      std::string Name = ScalarParam ? "" : argVar(A);
      if (!Name.empty()) {
        const HostVar *V = lookup(Name);
        if (!V)
          return fail("unknown host variable `" + Name + "`");
        // Cuda locals are std::vectors but host parameters are raw
        // pointers; decay at the call boundary.
        Args.push_back(T == HostTarget::Cuda && V->K == HostVar::HostBuf
                           ? hostRaw(Name, *V)
                           : Name);
        continue;
      }
      auto S = exprCpp(A);
      if (!S)
        return false;
      Args.push_back(*S);
    }
    indent();
    OS << hostFnEmitName(*Callee, FnSuffix) << "(";
    if (isSim())
      OS << "_dev" << (Args.empty() ? "" : ", ");
    for (size_t I = 0; I != Args.size(); ++I)
      OS << (I ? ", " : "") << Args[I];
    OS << ");\n";
    return true;
  }
  return fail("unsupported host call: " + C.Callee);
}

bool Emitter::emitLaunch(const CallExpr &C) {
  std::vector<std::string> Args;
  for (const ExprPtr &A : C.Args) {
    std::string Name = argVar(*A);
    if (Name.empty() || !lookup(Name))
      return fail("kernel launch arguments must be buffer variable "
                  "references");
    Args.push_back(Name);
  }
  indent();
  if (isSim()) {
    // The generated simulator kernel lives in the same emitted namespace;
    // its signature already encodes the (statically checked) launch
    // configuration.
    OS << C.Callee << FnSuffix << "(_dev";
    for (const std::string &A : Args)
      OS << ", " << A;
    OS << ");\n";
    // Synchronous launches complete before returning; surface a sticky
    // device error (trap, timeout) here as a structured rt::Error
    // instead of silently running the rest of the driver on a poisoned
    // device.
    indent();
    OS << "descend::rt::checkDevice(_dev, \"launch " << C.Callee << "\");\n";
    return true;
  }
  auto DimOf = [&](const Dim &D) -> std::optional<std::string> {
    // Each extent lands in its own axis slot (a Y-only grid is
    // dim3(1, n, 1)); absent axes default to 1.
    std::string Parts[3] = {"1", "1", "1"};
    for (Axis A : {Axis::X, Axis::Y, Axis::Z}) {
      if (!D.hasAxis(A))
        continue;
      auto S = natCpp(D.extent(A));
      if (!S)
        return std::nullopt;
      Parts[static_cast<unsigned>(A)] = *S;
    }
    return "dim3(" + Parts[0] + ", " + Parts[1] + ", " + Parts[2] + ")";
  };
  auto Grid = DimOf(C.LaunchGrid);
  auto Block = DimOf(C.LaunchBlock);
  if (!Grid || !Block)
    return false;
  OS << C.Callee << FnSuffix << "<<<" << *Grid << ", " << *Block << ">>>(";
  for (size_t I = 0; I != Args.size(); ++I)
    OS << (I ? ", " : "") << Args[I];
  OS << ");\n";
  indent();
  OS << "cudaDeviceSynchronize();\n";
  return true;
}

HostGenResult Emitter::run() {
  HostGenResult R;
  pushScope();
  bool Ok = emitSignature();
  if (Ok && Fn.Body)
    Ok = emitBlock(*cast<BlockExpr>(Fn.Body.get()));
  if (Ok && T == HostTarget::Cuda)
    for (const std::string &Buf : DeviceBufs) {
      indent();
      OS << "cudaFree(" << Buf << ");\n";
    }
  OS << "}\n";
  popScope();
  if (!Ok) {
    R.Error = Error.empty() ? "host emission failed" : Error;
    return R;
  }
  R.Ok = true;
  R.Code = OS.str();
  return R;
}

} // namespace

bool hostgen::hasHostFns(const Module &M) {
  for (const auto &Fn : M.Fns)
    if (Fn->isCpuFn() && Fn->Body)
      return true;
  return false;
}

std::string hostgen::hostFnEmitName(const FnDef &Fn,
                                    const std::string &FnSuffix) {
  return (Fn.Name == "main" ? "run" : Fn.Name) + FnSuffix;
}

HostGenResult hostgen::emitHostFn(const Module &M, const FnDef &Fn,
                                  HostTarget Target,
                                  const std::string &FnSuffix) {
  if (!Fn.isCpuFn()) {
    HostGenResult R;
    R.Error = "`" + Fn.Name + "` is not a cpu.thread function";
    return R;
  }
  return Emitter(M, Fn, Target, FnSuffix).run();
}
