//===- tests/generated_host_test.cpp - Generated host drivers, executed -----===//
//
// Executes the build-time generated host drivers (programs/*.descend
// compiled by descendc --emit=sim) and checks them bit-for-bit against the
// equivalent handwritten host code over runtime/HostRuntime.h — the
// acceptance gate for the host-program subsystem: the driver Descend
// generates must be indistinguishable from the driver a careful human
// writes.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostRuntime.h"

#include "gen_quickstart_host.h"      // scale_vec + run          (nb=8)
#include "gen_reduction_host_small.h" // reduce_small + run_small (nb=8)

#include <gtest/gtest.h>

#include <cstring>

using namespace descend;

namespace {

TEST(GeneratedHost, QuickstartDriverBitIdenticalToHandwritten) {
  const size_t N = 8 * 256;

  // Generated path: one call into the emitted driver.
  sim::GpuDevice DevGen;
  rt::HostBuffer<double> Gen(N, 0.0);
  for (size_t I = 0; I != N; ++I)
    Gen[I] = static_cast<double>(I) * 0.25;
  descend::gen::run(DevGen, Gen);

  // Handwritten path: the same host logic spelled by hand.
  sim::GpuDevice DevRef;
  rt::HostBuffer<double> Ref(N, 0.0);
  for (size_t I = 0; I != N; ++I)
    Ref[I] = static_cast<double>(I) * 0.25;
  auto DVec = rt::allocCopy(DevRef, Ref);
  descend::gen::scale_vec(DevRef, DVec);
  rt::copyToHost(Ref, DVec);

  EXPECT_EQ(0, std::memcmp(Gen.data(), Ref.data(), N * sizeof(double)));
  // And both actually computed the kernel.
  EXPECT_EQ(Gen[100], 100.0 * 0.25 * 3.0);
}

TEST(GeneratedHost, ReductionDriverBitIdenticalToHandwritten) {
  const unsigned NB = 8;
  const size_t N = static_cast<size_t>(NB) * 256;

  auto Fill = [N](rt::HostBuffer<double> &B) {
    for (size_t I = 0; I != N; ++I)
      B[I] = static_cast<double>(I % 1000) * 0.001;
  };

  // Generated path: transfers, launch, copy-back and the sequential CPU
  // finish all come out of the compiled host function.
  sim::GpuDevice DevGen;
  rt::HostBuffer<double> Data(N, 0.0), Partials(NB, 0.0), Total(1, 0.0);
  Fill(Data);
  descend::gen::run_small(DevGen, Data, Partials, Total);

  // Handwritten path, step for step.
  sim::GpuDevice DevRef;
  rt::HostBuffer<double> RData(N, 0.0), RPartials(NB, 0.0), RTotal(1, 0.0);
  Fill(RData);
  auto DIn = rt::allocCopy(DevRef, RData);
  auto DOut = rt::allocCopy(DevRef, RPartials);
  descend::gen::reduce_small(DevRef, DIn, DOut);
  rt::copyToHost(RPartials, DOut);
  RTotal[0] = 0.0;
  for (size_t I = 0; I != NB; ++I)
    RTotal[0] = RTotal[0] + RPartials[I];

  EXPECT_EQ(0,
            std::memcmp(Partials.data(), RPartials.data(),
                        NB * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(Total.data(), RTotal.data(), sizeof(double)));

  // Sanity: the reduction really reduced.
  double Expected = 0.0;
  for (size_t I = 0; I != N; ++I)
    Expected += static_cast<double>(I % 1000) * 0.001;
  EXPECT_NEAR(Total[0], Expected, 1e-9);
}

TEST(GeneratedHost, DriverIsRerunnable) {
  // The driver owns no global state: running it twice on fresh devices
  // gives identical results.
  const size_t N = 8 * 256;
  rt::HostBuffer<double> A(N, 1.5), B(N, 1.5);
  sim::GpuDevice D1, D2;
  descend::gen::run(D1, A);
  descend::gen::run(D2, B);
  EXPECT_EQ(0, std::memcmp(A.data(), B.data(), N * sizeof(double)));
  EXPECT_EQ(A[0], 4.5);
}

} // namespace
