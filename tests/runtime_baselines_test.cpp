//===- tests/runtime_baselines_test.cpp - Baseline runtime tests -----------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the non-FluidiCL runtimes: ManagedBuffer's validity state
/// machine, the single-device baselines, and the static-partition runtime
/// (functional correctness across split fractions, timing monotonicity).
///
//===----------------------------------------------------------------------===//

#include "runtime/ManagedBuffer.h"
#include "runtime/SingleDevice.h"
#include "runtime/ProfiledSplit.h"
#include "runtime/StaticPartition.h"
#include "work/Driver.h"

#include <gtest/gtest.h>

using namespace fcl;
using namespace fcl::runtime;
using namespace fcl::work;

namespace {

// --- ManagedBuffer ---------------------------------------------------------------

TEST(ManagedBufferTest, StartsHostValid) {
  mcl::Context Ctx;
  ManagedBuffer B(Ctx, 256, "b");
  EXPECT_TRUE(B.hostValid());
  EXPECT_FALSE(B.validOn(Ctx.gpu()));
  EXPECT_EQ(B.anyValidDevice(), nullptr);
}

TEST(ManagedBufferTest, EnsureOnUploadsOnce) {
  mcl::Context Ctx;
  ManagedBuffer B(Ctx, 256, "b");
  auto Queue = Ctx.createQueue(Ctx.gpu());
  std::vector<uint8_t> Data(256, 7);
  B.writeFromHost(Data.data(), Data.size());
  mcl::EventPtr E = B.ensureOn(Ctx.gpu(), *Queue);
  ASSERT_NE(E, nullptr);
  EXPECT_TRUE(B.validOn(Ctx.gpu()));
  // Second call: already valid, no transfer.
  EXPECT_EQ(B.ensureOn(Ctx.gpu(), *Queue), nullptr);
  Queue->finish();
  EXPECT_EQ(std::to_integer<int>(B.on(Ctx.gpu()).data()[0]), 7);
}

TEST(ManagedBufferTest, HostWriteInvalidatesDevices) {
  mcl::Context Ctx;
  ManagedBuffer B(Ctx, 64, "b");
  auto Queue = Ctx.createQueue(Ctx.gpu());
  B.ensureOn(Ctx.gpu(), *Queue);
  Queue->finish();
  uint8_t Byte = 1;
  B.writeFromHost(&Byte, 1);
  EXPECT_FALSE(B.validOn(Ctx.gpu()));
}

TEST(ManagedBufferTest, DeviceExclusiveThenReadBack) {
  mcl::Context Ctx;
  ManagedBuffer B(Ctx, 64, "b");
  auto Queue = Ctx.createQueue(Ctx.gpu());
  B.ensureOn(Ctx.gpu(), *Queue);
  Queue->finish();
  // Simulate a kernel writing on the GPU.
  B.on(Ctx.gpu()).data()[0] = std::byte{42};
  B.markDeviceExclusive(Ctx.gpu());
  EXPECT_FALSE(B.hostValid());
  EXPECT_EQ(B.anyValidDevice(), &Ctx.gpu());
  B.ensureHost(*Queue);
  EXPECT_TRUE(B.hostValid());
  EXPECT_EQ(std::to_integer<int>(B.hostData()[0]), 42);
}

TEST(ManagedBufferDeathTest, EnsureHostWithoutValidCopyAborts) {
  mcl::Context Ctx;
  ManagedBuffer B(Ctx, 64, "b");
  auto CpuQueue = Ctx.createQueue(Ctx.cpu());
  B.markDeviceExclusive(Ctx.gpu());
  // The CPU queue's device has no valid copy.
  EXPECT_DEATH(B.ensureHost(*CpuQueue), "valid");
}

// --- Single-device runtimes --------------------------------------------------------

class SingleDeviceWorkloadTest
    : public ::testing::TestWithParam<std::tuple<size_t, mcl::DeviceKind>> {};

TEST_P(SingleDeviceWorkloadTest, FunctionalMatchesReference) {
  auto [Idx, Kind] = GetParam();
  Workload W = testSuite()[Idx];
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  SingleDeviceRuntime RT(Ctx, Kind);
  RunResult Res = runWorkload(RT, W, /*Validate=*/true);
  EXPECT_TRUE(Res.Valid) << W.Name << " on " << RT.name() << " err "
                         << Res.MaxAbsError;
}

std::string singleDeviceTestName(
    const ::testing::TestParamInfo<std::tuple<size_t, mcl::DeviceKind>>
        &Info) {
  static const char *Names[] = {"ATAX", "BICG",  "CORR",
                                "GESUMMV", "SYRK", "SYR2K"};
  return std::string(Names[std::get<0>(Info.param)]) +
         (std::get<1>(Info.param) == mcl::DeviceKind::Cpu ? "_Cpu" : "_Gpu");
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadsBothDevices, SingleDeviceWorkloadTest,
    ::testing::Combine(::testing::Range<size_t>(0, 6),
                       ::testing::Values(mcl::DeviceKind::Cpu,
                                         mcl::DeviceKind::Gpu)),
    singleDeviceTestName);

TEST(SingleDeviceTest, KernelOnlyDurationPositiveAndDeviceDependent) {
  Workload W = makeBicg(1024, 1024);
  mcl::Context CtxC(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  SingleDeviceRuntime Cpu(CtxC, mcl::DeviceKind::Cpu);
  mcl::Context CtxG(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  SingleDeviceRuntime Gpu(CtxG, mcl::DeviceKind::Gpu);
  for (size_t B = 0; B < W.Buffers.size(); ++B) {
    Cpu.createBuffer(W.Buffers[B].Bytes, W.Buffers[B].Name);
    Gpu.createBuffer(W.Buffers[B].Bytes, W.Buffers[B].Name);
  }
  for (const KernelCall &Call : W.Calls) {
    Duration TC = Cpu.kernelOnlyDuration(Call.Kernel, Call.Range, Call.Args);
    Duration TG = Gpu.kernelOnlyDuration(Call.Kernel, Call.Range, Call.Args);
    EXPECT_GT(TC.nanos(), 0);
    EXPECT_GT(TG.nanos(), 0);
    EXPECT_NE(TC.nanos(), TG.nanos());
  }
}

// --- Static partition -----------------------------------------------------------

class StaticPartitionTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(StaticPartitionTest, FunctionalAtEverySplit) {
  auto [Idx, Pct] = GetParam();
  Workload W = testSuite()[Idx];
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  StaticPartitionRuntime RT(Ctx, Pct / 100.0);
  RunResult Res = runWorkload(RT, W, /*Validate=*/true);
  EXPECT_TRUE(Res.Valid) << W.Name << " at " << Pct << "% GPU, err "
                         << Res.MaxAbsError;
}

std::string staticPartitionTestName(
    const ::testing::TestParamInfo<std::tuple<size_t, int>> &Info) {
  static const char *Names[] = {"ATAX", "BICG",  "CORR",
                                "GESUMMV", "SYRK", "SYR2K"};
  return std::string(Names[std::get<0>(Info.param)]) + "_Gpu" +
         std::to_string(std::get<1>(Info.param));
}

INSTANTIATE_TEST_SUITE_P(
    SplitsAndWorkloads, StaticPartitionTest,
    ::testing::Combine(::testing::Range<size_t>(0, 6),
                       ::testing::Values(0, 30, 50, 70, 100)),
    staticPartitionTestName);

TEST(StaticPartitionTest, PureSplitsMatchSingleDeviceApproximately) {
  Workload W = makeSyrk(256, 256);
  RunConfig C;
  double Gpu100 = timeStaticPartition(W, 1.0, C).toSeconds();
  double GpuOnly = timeUnder(RuntimeKind::GpuOnly, W, C).toSeconds();
  // The pure split runs the same plan as the single-device baseline.
  EXPECT_NEAR(Gpu100, GpuOnly, GpuOnly * 0.02);
  double Cpu0 = timeStaticPartition(W, 0.0, C).toSeconds();
  double CpuOnly = timeUnder(RuntimeKind::CpuOnly, W, C).toSeconds();
  EXPECT_NEAR(Cpu0, CpuOnly, CpuOnly * 0.02);
}

TEST(StaticPartitionTest, InteriorSplitBeatsBothPureSplitsOnSyrk) {
  Workload W = makeSyrk(1024, 1024);
  RunConfig C;
  double S0 = timeStaticPartition(W, 0.0, C).toSeconds();
  double S60 = timeStaticPartition(W, 0.6, C).toSeconds();
  double S100 = timeStaticPartition(W, 1.0, C).toSeconds();
  EXPECT_LT(S60, S0);
  EXPECT_LT(S60, S100);
}

TEST(StaticPartitionTest, OracleReturnsMinimumOfSweep) {
  Workload W = makeSyrk(512, 512);
  RunConfig C;
  double BestFrac = -1;
  Duration Oracle = oracleStaticPartition(W, C, 20, &BestFrac);
  EXPECT_GE(BestFrac, 0.0);
  EXPECT_LE(BestFrac, 1.0);
  for (int Pct = 0; Pct <= 100; Pct += 20)
    EXPECT_LE(Oracle.nanos(),
              timeStaticPartition(W, Pct / 100.0, C).nanos());
}

// --- Qilin-style profiled splitter ---------------------------------------------

TEST(ProfiledSplitTest, ModelComputesRateProportionalFraction) {
  runtime::SplitModel M;
  EXPECT_FALSE(M.trained("k"));
  EXPECT_DOUBLE_EQ(M.gpuFraction("k"), 1.0); // Untrained -> GPU.
  M.record("k", mcl::DeviceKind::Cpu, Duration::milliseconds(30));
  M.record("k", mcl::DeviceKind::Gpu, Duration::milliseconds(10));
  ASSERT_TRUE(M.trained("k"));
  // GPU is 3x faster -> 75% of the work.
  EXPECT_NEAR(M.gpuFraction("k"), 0.75, 1e-9);
}

TEST(ProfiledSplitTest, TrainedFractionsMatchDeviceAffinity) {
  runtime::SplitModel M;
  trainSplitModel(makeBicg(4096, 4096), hw::paperMachine(), M);
  // Kernel 1 prefers the CPU (fraction < 0.5), kernel 2 the GPU.
  EXPECT_LT(M.gpuFraction("bicg_kernel1"), 0.55);
  EXPECT_GT(M.gpuFraction("bicg_kernel2"), 0.9);
}

TEST(ProfiledSplitTest, FunctionalMatchesReference) {
  Workload W = testSuite()[4]; // SYRK.
  runtime::SplitModel M;
  trainSplitModel(W, hw::paperMachine(), M);
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  runtime::ProfiledSplitRuntime RT(Ctx, M);
  RunResult Res = runWorkload(RT, W, true);
  EXPECT_TRUE(Res.Valid) << Res.MaxAbsError;
}

TEST(ProfiledSplitTest, ReportCountsEveryLaunch) {
  // The splitter's own registry must see every launch it splits, as the
  // static partition's does.
  Workload W = makeBicg(1024, 1024);
  runtime::SplitModel M;
  trainSplitModel(W, hw::paperMachine(), M);
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
  runtime::ProfiledSplitRuntime RT(Ctx, M);
  RunResult Res = runWorkload(RT, W, false);
  stats::RunReport Rep = collectRunReport(RT, W, Res.Total);
  EXPECT_EQ(Rep.RuntimeName, "ProfiledSplit");
  EXPECT_EQ(Rep.Counters.counter("kernel_launches"), W.Calls.size());
  uint64_t Groups = 0;
  for (const KernelCall &Call : W.Calls)
    Groups += Call.Range.totalGroups();
  EXPECT_EQ(Rep.Counters.counter("workgroups_total"), Groups);
  EXPECT_EQ(Rep.Counters.counter("gpu_workgroups_completed") +
                Rep.Counters.counter("cpu_workgroups_completed"),
            Groups);
  EXPECT_GT(Rep.Counters.counter("host_merge_bytes"), 0u);
}

TEST(ProfiledSplitTest, BeatsSingleFixedSplitOnBicg) {
  // BICG's two kernels want opposite splits: per-kernel trained fractions
  // must beat any single fixed fraction.
  Workload W = makeBicg(4096, 4096);
  RunConfig C;
  double Qilin = timeProfiledSplit(W, W, C).toSeconds();
  double Oracle = oracleStaticPartition(W, C).toSeconds();
  EXPECT_LT(Qilin, Oracle * 1.001);
}

TEST(ProfiledSplitTest, FluidiclBeatsQilinWithoutTraining) {
  RunConfig C;
  for (const Workload &W : {makeSyrk(1024, 1024), makeBicg(4096, 4096)}) {
    double Qilin = timeProfiledSplit(W, W, C).toSeconds();
    double Fcl = timeUnder(RuntimeKind::FluidiCL, W, C).toSeconds();
    EXPECT_LT(Fcl, Qilin) << W.Name;
  }
}

// --- Runtime factory -----------------------------------------------------------

TEST(RuntimeFactoryTest, EveryNamedKindBuildsItsRuntime) {
  const std::pair<const char *, const char *> Want[] = {
      {"cpu", "CPU"},
      {"gpu", "GPU"},
      {"static", "Static50"},
      {"socl-eager", "SOCL-eager"},
      {"socl-dmda", "SOCL-dmda"},
      {"fluidicl", "FluidiCL"}};
  ASSERT_EQ(runtimeTable().size(), std::size(Want));
  EXPECT_STREQ(runtimeNames(), "cpu|gpu|static|socl-eager|socl-dmda|fluidicl");
  Workload W = makeBicg(256, 256);
  for (size_t I = 0; I < std::size(Want); ++I) {
    const RuntimeName &R = runtimeTable()[I];
    EXPECT_STREQ(R.Name, Want[I].first);
    RuntimeKind K = RuntimeKind::CpuOnly;
    ASSERT_TRUE(runtimeByName(R.Name, K));
    EXPECT_EQ(K, R.Kind);
    mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::TimingOnly);
    BuiltRuntime Built = makeRuntime(K, Ctx, W, fluidicl::Options());
    EXPECT_EQ(Built.RT->name(), Want[I].second);
  }
  RuntimeKind K = RuntimeKind::CpuOnly;
  EXPECT_FALSE(runtimeByName("bogus", K));
  EXPECT_FALSE(runtimeByName("all", K));
}

TEST(RuntimeFactoryTest, StaticKindSplitsAtTheDefaultFraction) {
  Workload W = makeSyrk(256, 256);
  EXPECT_EQ(timeUnder(RuntimeKind::StaticPartition, W).nanos(),
            timeStaticPartition(W, DefaultGpuFraction).nanos());
  EXPECT_NE(timeStaticPartition(W, 0.6).nanos(),
            timeStaticPartition(W, DefaultGpuFraction).nanos());
}

TEST(StaticPartitionDeathTest, RejectsFractionOutOfRange) {
  mcl::Context Ctx;
  EXPECT_DEATH(StaticPartitionRuntime(Ctx, 1.5), "fraction");
}

} // namespace
