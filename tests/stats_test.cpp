//===- tests/stats_test.cpp - Metrics subsystem tests ----------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Covers the fcl::stats registry/report layer and the runtime
/// instrumentation: work-group accounting identities, the ablation toggles'
/// observable zeroes (UseCpu, BufferPool, DataLocationTracking), and the
/// JSON/CSV export surface.
///
//===----------------------------------------------------------------------===//

#include "stats/Registry.h"
#include "stats/Report.h"

#include "fluidicl/Runtime.h"
#include "work/Driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace fcl;
using namespace fcl::work;

namespace {

TEST(RegistryTest, CountersAccumulateAndAbsentReadsZero) {
  stats::Registry R;
  EXPECT_EQ(R.counter("never_written"), 0u);
  EXPECT_EQ(R.gauge("never_set"), 0.0);
  EXPECT_TRUE(R.empty());
  R.add("hits");
  R.add("hits", 4);
  EXPECT_EQ(R.counter("hits"), 5u);
  R.set("rate", 0.25);
  R.set("rate", 0.5);
  EXPECT_EQ(R.gauge("rate"), 0.5);
  EXPECT_FALSE(R.empty());
  R.clear();
  EXPECT_TRUE(R.empty());
}

TEST(RegistryTest, MergeAddsCountersOverwritesGauges) {
  stats::Registry A, B;
  A.add("shared", 2);
  A.set("g", 1.0);
  B.add("shared", 3);
  B.add("only_b", 7);
  B.set("g", 9.0);
  A.mergeFrom(B);
  EXPECT_EQ(A.counter("shared"), 5u);
  EXPECT_EQ(A.counter("only_b"), 7u);
  EXPECT_EQ(A.gauge("g"), 9.0);
}

stats::RunReport runFluidicl(const Workload &W, fluidicl::Options Opts) {
  RunConfig C;
  C.FclOpts = Opts;
  return reportUnder(RuntimeKind::FluidiCL, W, C);
}

// Acceptance identity of the PR: every work-group of every launch is
// completed by exactly one device, and the GPU either executes or aborts
// each of its groups.
TEST(StatsInstrumentationTest, WorkGroupAccountingCoversFullNDRange) {
  stats::RunReport Rep = runFluidicl(makeSyrk(1024, 1024), {});
  ASSERT_FALSE(Rep.Launches.empty());
  for (const stats::LaunchStats &L : Rep.Launches) {
    EXPECT_EQ(L.GpuGroupsCompleted + L.CpuGroupsCompleted, L.TotalGroups)
        << L.KernelName;
    EXPECT_EQ(L.GpuGroupsAborted + L.GpuGroupsExecuted, L.TotalGroups)
        << L.KernelName;
    EXPECT_LE(L.GpuGroupsWasted, L.GpuGroupsExecuted) << L.KernelName;
  }
  EXPECT_EQ(Rep.gpuWorkGroupsCompleted() + Rep.cpuWorkGroupsCompleted(),
            Rep.totalWorkGroups());
  // SYRK is the paper's cooperative showcase: the CPU finishes real work,
  // so the GPU aborts the covered tail.
  EXPECT_GT(Rep.cpuWorkGroupsCompleted(), 0u);
  EXPECT_GT(Rep.gpuWorkGroupsAborted(), 0u);
  // Each launch recorded its chunk trajectory.
  EXPECT_FALSE(Rep.Launches.front().ChunkTrajectory.empty());
}

TEST(StatsInstrumentationTest, UseCpuOffZeroesCpuSideCounters) {
  fluidicl::Options Opts;
  Opts.UseCpu = false;
  stats::RunReport Rep = runFluidicl(makeSyrk(1024, 1024), Opts);
  ASSERT_FALSE(Rep.Launches.empty());
  EXPECT_EQ(Rep.cpuWorkGroupsCompleted(), 0u);
  EXPECT_EQ(Rep.cpuWorkGroupsExecuted(), 0u);
  EXPECT_EQ(Rep.cpuWorkGroupsWasted(), 0u);
  EXPECT_EQ(Rep.gpuWorkGroupsCompleted(), Rep.totalWorkGroups());
  EXPECT_EQ(Rep.gpuWorkGroupsAborted(), 0u);
  for (const stats::LaunchStats &L : Rep.Launches) {
    EXPECT_EQ(L.CpuSubkernels, 0u);
    EXPECT_EQ(L.StatusBytesSent, 0u);
    EXPECT_EQ(L.MergeBytesDiffed, 0u);
  }
}

TEST(StatsInstrumentationTest, BufferPoolOffZeroesHits) {
  // BICG launches two kernels, so an enabled pool sees reuse.
  fluidicl::Options On;
  stats::RunReport WithPool = runFluidicl(makeBicg(1024, 1024), On);
  EXPECT_GT(WithPool.Counters.counter("bufferpool_hits"), 0u);
  EXPECT_GT(WithPool.Counters.gauge("bufferpool_hit_rate"), 0.0);

  fluidicl::Options Off;
  Off.BufferPool = false;
  stats::RunReport NoPool = runFluidicl(makeBicg(1024, 1024), Off);
  EXPECT_EQ(NoPool.Counters.counter("bufferpool_hits"), 0u);
  EXPECT_EQ(NoPool.Counters.gauge("bufferpool_hit_rate"), 0.0);
  // The disabled pool still creates every buffer it is asked for.
  EXPECT_GT(NoPool.Counters.counter("bufferpool_misses"), 0u);
}

TEST(StatsInstrumentationTest, DataLocationTrackingOffZeroesCpuReads) {
  fluidicl::Options Off;
  Off.DataLocationTracking = false;
  stats::RunReport Rep = runFluidicl(makeSyrk(1024, 1024), Off);
  EXPECT_EQ(Rep.Counters.counter("reads_from_cpu"), 0u);
  EXPECT_EQ(Rep.Counters.counter("reads_from_cpu_bytes"), 0u);
  EXPECT_GT(Rep.Counters.counter("reads_from_gpu"), 0u);
}

TEST(StatsInstrumentationTest, BaselineRuntimesReportPlacement) {
  Workload W = makeSyrk(1024, 1024);
  stats::RunReport Gpu = reportUnder(RuntimeKind::GpuOnly, W);
  EXPECT_EQ(Gpu.Counters.counter("gpu_workgroups_completed"),
            Gpu.Counters.counter("workgroups_total"));
  EXPECT_EQ(Gpu.Counters.counter("cpu_workgroups_completed"), 0u);

  stats::RunReport Socl = reportUnder(RuntimeKind::SoclEager, W);
  EXPECT_EQ(Socl.Counters.counter("gpu_workgroups_completed") +
                Socl.Counters.counter("cpu_workgroups_completed"),
            Socl.Counters.counter("workgroups_total"));
}

TEST(RunReportTest, JsonAndCsvExport) {
  trace::Tracer T;
  RunConfig C;
  stats::RunReport Rep =
      reportUnder(RuntimeKind::FluidiCL, makeSyrk(1024, 1024), C, &T);
  std::string Json = Rep.renderJson();
  EXPECT_NE(Json.find("\"schema\": \"fcl-run-report-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"total_workgroups\""), std::string::npos);
  EXPECT_NE(Json.find("\"chunk_trajectory\""), std::string::npos);
  EXPECT_NE(Json.find("\"device_utilization\""), std::string::npos);
  EXPECT_FALSE(Rep.Utilization.empty());

  CsvWriter Csv(stats::RunReport::csvHeader());
  Rep.appendCsvRows(Csv);
  std::string Rendered = Csv.render();
  // Header plus one row per launch.
  EXPECT_EQ(static_cast<size_t>(
                std::count(Rendered.begin(), Rendered.end(), '\n')),
            1 + Rep.Launches.size());

  std::string Path = ::testing::TempDir() + "/fcl_stats_test.json";
  ASSERT_TRUE(stats::writeReportsJson({Rep}, Path));
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), Rep.renderJson());
  std::remove(Path.c_str());
}

TEST(RunReportTest, ReportSetWrapsMultipleRuns) {
  std::vector<stats::RunReport> Reports(2);
  Reports[0].WorkloadName = "a";
  Reports[1].WorkloadName = "b";
  std::string Path = ::testing::TempDir() + "/fcl_stats_set_test.json";
  ASSERT_TRUE(stats::writeReportsJson(Reports, Path));
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_NE(SS.str().find("fcl-run-report-set-v1"), std::string::npos);
  std::remove(Path.c_str());
}

} // namespace
