//===- tests/baseline_golden_test.cpp - Pinned baseline-runtime bytes -----===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Golden values for the paper's baseline runtimes on one small workload
/// (BICG 512x512): the exact simulated running time of every RuntimeKind
/// through timeUnder, of a 60% static partition and of the Qilin-style
/// profiled splitter, a validated functional run of each baseline, and
/// each runtime's counter registry (FluidiCL's with its per-launch work).
/// The simulator is deterministic, so any refactor of the runtime plumbing
/// that changes a command, its order or its size moves one of these
/// numbers.
///
//===----------------------------------------------------------------------===//

#include "runtime/ProfiledSplit.h"
#include "runtime/SingleDevice.h"
#include "runtime/StaticPartition.h"
#include "socl/SoclRuntime.h"
#include "work/Driver.h"

#include <gtest/gtest.h>

#include <string>

using namespace fcl;
using namespace fcl::work;

namespace {

Workload goldenWorkload() { return makeBicg(512, 512); }

/// "name=value;" for every counter and gauge, in name order.
std::string renderRegistry(const stats::Registry &R) {
  std::string Out;
  for (const auto &[Name, Value] : R.counters())
    Out += Name + "=" + std::to_string(Value) + ";";
  for (const auto &[Name, Value] : R.gauges())
    Out += Name + "=" + std::to_string(Value) + ";";
  return Out;
}

/// FluidiCL's per-launch work: which device completed and executed how
/// many work-groups, and the hd/dh bytes each launch moved.
std::string renderLaunches(const stats::RunReport &R) {
  std::string Out;
  for (const stats::LaunchStats &L : R.Launches)
    Out += L.KernelName + ": gpu " + std::to_string(L.GpuGroupsCompleted) +
           "/" + std::to_string(L.GpuGroupsExecuted) + " cpu " +
           std::to_string(L.CpuGroupsCompleted) + "/" +
           std::to_string(L.CpuGroupsExecuted) + " aborted " +
           std::to_string(L.GpuGroupsAborted) + " hd " +
           std::to_string(L.HdBytesSent) + "+" +
           std::to_string(L.StatusBytesSent) + " dh " +
           std::to_string(L.DhBytesReceived) + ";";
  return Out;
}

TEST(BaselineGoldenTest, TimeUnderEveryKind) {
  Workload W = goldenWorkload();
  EXPECT_EQ(timeUnder(RuntimeKind::CpuOnly, W).nanos(), 898471);
  EXPECT_EQ(timeUnder(RuntimeKind::GpuOnly, W).nanos(), 587763);
  EXPECT_EQ(timeUnder(RuntimeKind::FluidiCL, W).nanos(), 901597);
  EXPECT_EQ(timeUnder(RuntimeKind::SoclEager, W).nanos(), 1137355);
  EXPECT_EQ(timeUnder(RuntimeKind::SoclDmda, W).nanos(), 705155);
}

TEST(BaselineGoldenTest, StaticPartitionAndProfiledSplit) {
  Workload W = goldenWorkload();
  EXPECT_EQ(timeStaticPartition(W, 0.6).nanos(), 894525);
  EXPECT_EQ(timeProfiledSplit(W, W).nanos(), 872637);
}

TEST(BaselineGoldenTest, ReportCountersPerKind) {
  Workload W = goldenWorkload();
  EXPECT_EQ(renderRegistry(reportUnder(RuntimeKind::CpuOnly, W).Counters),
            "app_bytes_read=4096;app_bytes_written=1056768;"
            "cpu_workgroups_completed=32;kernel_launches=2;"
            "sim_events_executed=9;sim_tombstone_skips=0;workgroups_total=32;"
            "sim_pending_tombstones=0.000000;");
  EXPECT_EQ(renderRegistry(reportUnder(RuntimeKind::GpuOnly, W).Counters),
            "app_bytes_read=4096;app_bytes_written=1056768;"
            "gpu_workgroups_completed=32;kernel_launches=2;"
            "sim_events_executed=11;sim_tombstone_skips=0;"
            "workgroups_total=32;sim_pending_tombstones=0.000000;");
  EXPECT_EQ(renderRegistry(reportUnder(RuntimeKind::SoclEager, W).Counters),
            "cpu_workgroups_completed=16;gpu_workgroups_completed=16;"
            "kernel_launches=2;sim_events_executed=13;sim_tombstone_skips=0;"
            "tasks_cpu=1;tasks_gpu=1;workgroups_total=32;"
            "sim_pending_tombstones=0.000000;");
  EXPECT_EQ(renderRegistry(reportUnder(RuntimeKind::SoclDmda, W).Counters),
            "cpu_workgroups_completed=16;gpu_workgroups_completed=16;"
            "kernel_launches=2;sim_events_executed=13;sim_tombstone_skips=0;"
            "tasks_cpu=1;tasks_gpu=1;workgroups_total=32;"
            "sim_pending_tombstones=0.000000;");
  stats::RunReport Fcl = reportUnder(RuntimeKind::FluidiCL, W);
  EXPECT_EQ(renderRegistry(Fcl.Counters),
            "bufferpool_bytes_created=8192;bufferpool_hits=0;"
            "bufferpool_misses=4;reads_from_cpu=1;reads_from_cpu_bytes=2048;"
            "reads_from_gpu=1;reads_from_gpu_bytes=2048;"
            "sim_events_executed=77;sim_tombstone_skips=0;"
            "version_receives_applied=2;version_stale_drops=0;"
            "bufferpool_hit_rate=0.000000;sim_pending_tombstones=0.000000;");
  EXPECT_EQ(renderLaunches(Fcl),
            "bicg_kernel1: gpu 0/0 cpu 16/16 aborted 16 hd 4096+16 dh 0;"
            "bicg_kernel2: gpu 16/16 cpu 0/8 aborted 0 hd 0+0 dh 2048;");
}

/// One functional baseline run: validated result, running time and the
/// runtime's own counter registry.
struct FunctionalCase {
  const char *Name;
  int64_t Nanos;
  const char *Counters;
};

void expectFunctional(runtime::HeteroRuntime &RT, const FunctionalCase &Want) {
  RunResult Res = runWorkload(RT, goldenWorkload(), /*Validate=*/true);
  EXPECT_TRUE(Res.Validated) << Want.Name;
  EXPECT_TRUE(Res.Valid) << Want.Name << " err " << Res.MaxAbsError;
  EXPECT_EQ(Res.RuntimeName, Want.Name);
  EXPECT_EQ(Res.Total.nanos(), Want.Nanos) << Want.Name;
  EXPECT_EQ(renderRegistry(RT.statsRegistry()), Want.Counters) << Want.Name;
}

TEST(BaselineGoldenTest, FunctionalSingleDevice) {
  {
    mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
    runtime::SingleDeviceRuntime RT(Ctx, mcl::DeviceKind::Cpu);
    expectFunctional(RT, {"CPU", 898471,
                          "app_bytes_read=4096;app_bytes_written=1056768;"
                          "cpu_workgroups_completed=32;kernel_launches=2;"
                          "workgroups_total=32;"});
  }
  {
    mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
    runtime::SingleDeviceRuntime RT(Ctx, mcl::DeviceKind::Gpu);
    expectFunctional(RT, {"GPU", 587763,
                          "app_bytes_read=4096;app_bytes_written=1056768;"
                          "gpu_workgroups_completed=32;kernel_launches=2;"
                          "workgroups_total=32;"});
  }
}

TEST(BaselineGoldenTest, FunctionalStaticPartition) {
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  runtime::StaticPartitionRuntime RT(Ctx, 0.6);
  expectFunctional(RT, {"Static60", 894525,
                        "cpu_workgroups_completed=12;"
                        "gpu_workgroups_completed=20;host_merge_bytes=4096;"
                        "kernel_launches=2;workgroups_total=32;"});
}

TEST(BaselineGoldenTest, FunctionalSoclEager) {
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  socl::PerfModel Model;
  socl::SoclRuntime RT(Ctx, socl::Policy::Eager, Model);
  expectFunctional(RT, {"SOCL-eager", 1137355,
                        "cpu_workgroups_completed=16;"
                        "gpu_workgroups_completed=16;kernel_launches=2;"
                        "tasks_cpu=1;tasks_gpu=1;workgroups_total=32;"});
}

TEST(BaselineGoldenTest, FunctionalProfiledSplit) {
  Workload W = goldenWorkload();
  runtime::SplitModel Model;
  trainSplitModel(W, hw::paperMachine(), Model);
  mcl::Context Ctx(hw::paperMachine(), mcl::ExecMode::Functional);
  runtime::ProfiledSplitRuntime RT(Ctx, Model);
  RunResult Res = runWorkload(RT, W, /*Validate=*/true);
  EXPECT_TRUE(Res.Valid) << Res.MaxAbsError;
  EXPECT_EQ(Res.RuntimeName, "ProfiledSplit");
  EXPECT_EQ(Res.Total.nanos(), 872637);
}

} // namespace
