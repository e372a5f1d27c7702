//===- tests/sweep_property_test.cpp - Parameterized property sweeps -------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Property-style TEST_P sweeps over configuration spaces: the chunk
/// controller across (total, units, init, step) combinations, FluidiCL
/// functional correctness across work-group sizes and machine models, and
/// restricted GPU launches across flat ranges.
///
//===----------------------------------------------------------------------===//

#include "fluidicl/ChunkController.h"
#include "fluidicl/Runtime.h"
#include "kern/Registry.h"
#include "mcl/CommandQueue.h"
#include "work/Driver.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace fcl;
using namespace fcl::work;

namespace {

// --- ChunkController invariants over its whole parameter space ------------------

class ChunkSweepTest
    : public ::testing::TestWithParam<
          std::tuple<uint64_t /*Total*/, int /*Units*/, double /*Init*/,
                     double /*Step*/>> {};

TEST_P(ChunkSweepTest, DrainsRangeWithValidChunks) {
  auto [Total, Units, Init, Step] = GetParam();
  fluidicl::ChunkController C(Total, Units, Init, Step);
  uint64_t Remaining = Total;
  int Guard = 0;
  // Simulate a subkernel stream with noisy-but-improving times.
  uint64_t Tick = 100;
  while (Remaining > 0) {
    uint64_t Chunk = C.nextChunk(Remaining);
    ASSERT_GT(Chunk, 0u);
    ASSERT_LE(Chunk, Remaining);
    // The floor: never below min(units, remaining).
    ASSERT_GE(Chunk, std::min<uint64_t>(Remaining,
                                        static_cast<uint64_t>(Units)));
    Remaining -= Chunk;
    C.reportSubkernel(Chunk, Duration::microseconds(
                                 static_cast<int64_t>(Chunk * Tick)));
    if (Tick > 10)
      Tick -= 5; // Time per group keeps improving -> chunk may grow.
    ASSERT_LT(++Guard, 10000) << "controller failed to drain";
  }
  EXPECT_EQ(C.nextChunk(0), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Space, ChunkSweepTest,
    ::testing::Combine(::testing::Values<uint64_t>(8, 100, 4096, 16384),
                       ::testing::Values(1, 8, 60),
                       ::testing::Values(2.0, 10.0, 75.0),
                       ::testing::Values(0.0, 2.0, 50.0)));

// --- FluidiCL functional across work-group shapes --------------------------------

class WgShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WgShapeTest, SyrkFunctionalAcrossLocalSizes) {
  auto [LX, LY] = GetParam();
  const int64_t N = 128;
  Workload W;
  W.Name = "SYRK-shape";
  W.Buffers = {{"A", static_cast<uint64_t>(N * N) * 4},
               {"C", static_cast<uint64_t>(N * N) * 4}};
  W.Calls = {{"syrk_kernel",
              kern::NDRange::of2D(static_cast<uint64_t>(N),
                                  static_cast<uint64_t>(N),
                                  static_cast<uint64_t>(LX),
                                  static_cast<uint64_t>(LY)),
              {runtime::KArg::buffer(0), runtime::KArg::buffer(1),
               runtime::KArg::f64(1.3), runtime::KArg::f64(0.7),
               runtime::KArg::i64(N), runtime::KArg::i64(N)}}};
  W.ResultBuffers = {1};
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  fluidicl::Runtime RT(Ctx);
  RunResult Res = runWorkload(RT, W, true);
  EXPECT_TRUE(Res.Valid) << LX << "x" << LY << " err " << Res.MaxAbsError;
}

std::string wgShapeName(
    const ::testing::TestParamInfo<std::tuple<int, int>> &Info) {
  return "L" + std::to_string(std::get<0>(Info.param)) + "x" +
         std::to_string(std::get<1>(Info.param));
}

INSTANTIATE_TEST_SUITE_P(Shapes, WgShapeTest,
                         ::testing::Values(std::make_tuple(32, 8),
                                           std::make_tuple(16, 16),
                                           std::make_tuple(8, 8),
                                           std::make_tuple(64, 2),
                                           std::make_tuple(128, 1)),
                         wgShapeName);

// --- FluidiCL functional across machine models ------------------------------------

class MachineSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(MachineSweepTest, SuiteFunctionalOnEveryMachine) {
  hw::Machine Machines[] = {hw::paperMachine(), hw::laptopMachine(),
                            hw::machineWithPhi()};
  hw::Machine M = Machines[GetParam()];
  for (const Workload &W : testSuite()) {
    mcl::Context Ctx(M, mcl::ExecMode::Functional);
    fluidicl::Runtime RT(Ctx);
    RunResult Res = runWorkload(RT, W, true);
    EXPECT_TRUE(Res.Valid) << W.Name << " machine " << GetParam();
  }
}

std::string machineName(const ::testing::TestParamInfo<int> &Info) {
  static const char *Names[] = {"Workstation", "Laptop", "Phi"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(Machines, MachineSweepTest, ::testing::Range(0, 3),
                         machineName);

// --- Restricted GPU launches across flat ranges --------------------------------------

class FlatRangeSweepTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(FlatRangeSweepTest, GpuExecutesExactlyTheRequestedGroups) {
  auto [Begin, End] = GetParam();
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  auto Queue = Ctx.createQueue(Ctx.gpu());
  const int64_t N = 1024; // 32 groups of 32.
  auto X = Ctx.createBuffer(Ctx.gpu(), N * 4);
  auto Y = Ctx.createBuffer(Ctx.gpu(), N * 4);
  std::vector<float> HX(N, 1.0f), HY(N, 0.0f);
  Queue->enqueueWrite(*X, HX.data(), N * 4);
  Queue->enqueueWrite(*Y, HY.data(), N * 4);
  mcl::LaunchDesc Desc;
  Desc.Kernel = &kern::Registry::builtin().get("vec_scale");
  Desc.Range = kern::NDRange::of1D(N, 32);
  Desc.Args = {mcl::LaunchArg::buffer(X.get()),
               mcl::LaunchArg::buffer(Y.get()),
               mcl::LaunchArg::scalarFp(5.0), mcl::LaunchArg::scalarInt(N)};
  Desc.FlatBegin = Begin;
  Desc.FlatEnd = End;
  mcl::EventPtr Done = Queue->enqueueKernel(std::move(Desc));
  Done->wait();
  EXPECT_EQ(Done->payload(), End - Begin);
  Queue->enqueueRead(*Y, HY.data(), N * 4)->wait();
  for (int64_t I = 0; I < N; ++I) {
    uint64_t Group = static_cast<uint64_t>(I) / 32;
    float Want = (Group >= Begin && Group < End) ? 5.0f : 0.0f;
    EXPECT_FLOAT_EQ(HY[static_cast<size_t>(I)], Want) << I;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, FlatRangeSweepTest,
    ::testing::Values(std::make_tuple<uint64_t, uint64_t>(0, 32),
                      std::make_tuple<uint64_t, uint64_t>(0, 1),
                      std::make_tuple<uint64_t, uint64_t>(31, 32),
                      std::make_tuple<uint64_t, uint64_t>(7, 23),
                      std::make_tuple<uint64_t, uint64_t>(16, 17)));

} // namespace
