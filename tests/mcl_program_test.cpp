//===- tests/mcl_program_test.cpp - Program / kernel-object tests ----------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "mcl/Program.h"

#include "mcl/CommandQueue.h"
#include "mcl/Context.h"

#include <gtest/gtest.h>

using namespace fcl;
using namespace fcl::mcl;

namespace {

TEST(ProgramTest, BuildsFromKernelNames) {
  Program P({"vec_add", "saxpy"});
  EXPECT_EQ(P.numKernels(), 2u);
  EXPECT_TRUE(P.hasKernel("vec_add"));
  EXPECT_TRUE(P.hasKernel("saxpy"));
  EXPECT_FALSE(P.hasKernel("syrk_kernel"));
}

TEST(ProgramTest, AllBuiltinsContainsEveryFamily) {
  Program P = Program::allBuiltins();
  for (const char *Name : {"atax_kernel1", "syrk_kernel", "md_merge_kernel",
                           "histogram_atomic", "gemm_kernel"})
    EXPECT_TRUE(P.hasKernel(Name)) << Name;
}

TEST(ProgramDeathTest, UnknownKernelAborts) {
  EXPECT_DEATH(Program({"not_a_kernel"}), "unknown kernel");
  Program P({"vec_add"});
  EXPECT_DEATH(P.kernel("saxpy"), "not in program");
}

TEST(KernelObjectTest, ArgCompletionTracking) {
  Program P({"saxpy"});
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  auto X = Ctx.createBuffer(Ctx.gpu(), 128);
  auto Y = Ctx.createBuffer(Ctx.gpu(), 128);
  KernelObject K(P, "saxpy");
  EXPECT_FALSE(K.argsComplete());
  K.setArgBuffer(0, X.get());
  K.setArgBuffer(1, Y.get());
  K.setArgFloat(2, 2.0);
  EXPECT_FALSE(K.argsComplete());
  K.setArgInt(3, 32);
  EXPECT_TRUE(K.argsComplete());
}

TEST(KernelObjectDeathTest, KindMismatchesRejected) {
  Program P({"saxpy"});
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  auto X = Ctx.createBuffer(Ctx.gpu(), 128);
  KernelObject K(P, "saxpy");
  EXPECT_DEATH(K.setArgInt(0, 5), "buffer argument");
  EXPECT_DEATH(K.setArgBuffer(2, X.get()), "scalar argument");
  EXPECT_DEATH(K.setArgBuffer(9, X.get()), "out of range");
}

TEST(KernelObjectDeathTest, IncompleteLaunchAborts) {
  Program P({"vec_add"});
  KernelObject K(P, "vec_add");
  EXPECT_DEATH(K.buildLaunch(kern::NDRange::of1D(64, 32)), "unset");
}

TEST(KernelObjectTest, EndToEndLaunchThroughQueue) {
  Program P({"vec_add"});
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  auto Queue = Ctx.createQueue(Ctx.gpu());
  const int64_t N = 128;
  auto A = Ctx.createBuffer(Ctx.gpu(), N * 4);
  auto B = Ctx.createBuffer(Ctx.gpu(), N * 4);
  auto C = Ctx.createBuffer(Ctx.gpu(), N * 4);
  std::vector<float> HA(N, 4.0f), HB(N, 5.0f), HC(N, 0.0f);
  Queue->enqueueWrite(*A, HA.data(), N * 4);
  Queue->enqueueWrite(*B, HB.data(), N * 4);

  KernelObject K(P, "vec_add");
  K.setArgBuffer(0, A.get());
  K.setArgBuffer(1, B.get());
  K.setArgBuffer(2, C.get());
  K.setArgInt(3, N);
  Queue->enqueueKernel(K.buildLaunch(kern::NDRange::of1D(N, 32)))->wait();
  Queue->enqueueRead(*C, HC.data(), N * 4)->wait();
  for (int64_t I = 0; I < N; ++I)
    EXPECT_FLOAT_EQ(HC[static_cast<size_t>(I)], 9.0f);
}

TEST(KernelObjectTest, ArgumentsRetainedAcrossLaunches) {
  Program P({"saxpy"});
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  auto Queue = Ctx.createQueue(Ctx.cpu());
  const int64_t N = 64;
  auto X = Ctx.createBuffer(Ctx.cpu(), N * 4);
  auto Y = Ctx.createBuffer(Ctx.cpu(), N * 4);
  std::vector<float> HX(N, 1.0f), HY(N, 0.0f);
  Queue->enqueueWrite(*X, HX.data(), N * 4);
  Queue->enqueueWrite(*Y, HY.data(), N * 4);

  KernelObject K(P, "saxpy");
  K.setArgBuffer(0, X.get());
  K.setArgBuffer(1, Y.get());
  K.setArgFloat(2, 3.0);
  K.setArgInt(3, N);
  // Launch twice with retained args: y = 3 + 3 = 6.
  Queue->enqueueKernel(K.buildLaunch(kern::NDRange::of1D(N, 32)));
  Queue->enqueueKernel(K.buildLaunch(kern::NDRange::of1D(N, 32)));
  Queue->enqueueRead(*Y, HY.data(), N * 4)->wait();
  for (float V : HY)
    EXPECT_FLOAT_EQ(V, 6.0f);
}

} // namespace
