//===- stats/Report.cpp - Structured run reports --------------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "stats/Report.h"

#include "prof/Profiler.h"
#include "support/File.h"
#include "support/Format.h"
#include "support/JsonWriter.h"
#include "trace/Tracer.h"

#include <cstdio>

using namespace fcl;
using namespace fcl::stats;

namespace {

uint64_t sumOver(const std::vector<LaunchStats> &Launches,
                 uint64_t LaunchStats::*Field) {
  uint64_t Sum = 0;
  for (const LaunchStats &L : Launches)
    Sum += L.*Field;
  return Sum;
}

std::string u64(uint64_t V) {
  return formatString("%llu", static_cast<unsigned long long>(V));
}

} // namespace

uint64_t RunReport::totalWorkGroups() const {
  return sumOver(Launches, &LaunchStats::TotalGroups);
}
uint64_t RunReport::gpuWorkGroupsCompleted() const {
  return sumOver(Launches, &LaunchStats::GpuGroupsCompleted);
}
uint64_t RunReport::cpuWorkGroupsCompleted() const {
  return sumOver(Launches, &LaunchStats::CpuGroupsCompleted);
}
uint64_t RunReport::gpuWorkGroupsExecuted() const {
  return sumOver(Launches, &LaunchStats::GpuGroupsExecuted);
}
uint64_t RunReport::cpuWorkGroupsExecuted() const {
  return sumOver(Launches, &LaunchStats::CpuGroupsExecuted);
}
uint64_t RunReport::gpuWorkGroupsAborted() const {
  return sumOver(Launches, &LaunchStats::GpuGroupsAborted);
}
uint64_t RunReport::gpuWorkGroupsWasted() const {
  return sumOver(Launches, &LaunchStats::GpuGroupsWasted);
}
uint64_t RunReport::cpuWorkGroupsWasted() const {
  return sumOver(Launches, &LaunchStats::CpuGroupsWasted);
}

void RunReport::addUtilizationFromTracer(const trace::Tracer &T,
                                         Duration WallTime) {
  Utilization.clear();
  // Lanes in first-appearance order, matching the trace's tid assignment.
  std::vector<std::string> Lanes;
  for (const trace::TraceEvent &E : T.events()) {
    bool Seen = false;
    for (const std::string &L : Lanes)
      if (L == E.Lane)
        Seen = true;
    if (!Seen)
      Lanes.push_back(E.Lane);
  }
  for (const std::string &Lane : Lanes) {
    LaneUtilization U;
    U.Lane = Lane;
    U.Busy = T.laneBusy(Lane);
    U.Utilization = WallTime.nanos() > 0
                        ? static_cast<double>(U.Busy.nanos()) /
                              static_cast<double>(WallTime.nanos())
                        : 0.0;
    Utilization.push_back(std::move(U));
  }
}

std::string RunReport::renderJson() const {
  FCL_PROF_SCOPE("stats.render_json");
  JsonWriter W;
  W.beginObject();
  W.key("schema").value("fcl-run-report-v1");
  W.key("runtime").value(RuntimeName);
  W.key("workload").value(WorkloadName);
  W.key("wall_seconds").value(Wall.toSeconds(), "%.9f");
  W.key("total_workgroups").value(totalWorkGroups());
  W.key("gpu_workgroups_completed").value(gpuWorkGroupsCompleted());
  W.key("cpu_workgroups_completed").value(cpuWorkGroupsCompleted());
  W.key("gpu_workgroups_executed").value(gpuWorkGroupsExecuted());
  W.key("cpu_workgroups_executed").value(cpuWorkGroupsExecuted());
  W.key("gpu_workgroups_aborted").value(gpuWorkGroupsAborted());
  W.key("gpu_workgroups_wasted").value(gpuWorkGroupsWasted());
  W.key("cpu_workgroups_wasted").value(cpuWorkGroupsWasted());

  W.members("counters", Counters.counters());
  W.members("gauges", Counters.gauges(), "%.9g");

  W.key("device_utilization").beginArray();
  for (const LaneUtilization &U : Utilization) {
    W.beginObject(JsonWriter::Layout::Inline);
    W.key("lane").value(U.Lane);
    W.key("busy_seconds").value(U.Busy.toSeconds(), "%.9f");
    W.key("utilization").value(U.Utilization);
    W.end();
  }
  W.end();

  W.key("launches").beginArray();
  for (const LaunchStats &L : Launches) {
    W.beginObject();
    W.key("kernel").value(L.KernelName);
    W.key("cpu_kernel_used").value(L.CpuKernelUsed);
    W.key("kernel_id").value(L.KernelId);
    W.key("total_workgroups").value(L.TotalGroups);
    W.key("gpu_workgroups_completed").value(L.GpuGroupsCompleted);
    W.key("cpu_workgroups_completed").value(L.CpuGroupsCompleted);
    W.key("gpu_workgroups_executed").value(L.GpuGroupsExecuted);
    W.key("cpu_workgroups_executed").value(L.CpuGroupsExecuted);
    W.key("gpu_workgroups_aborted").value(L.GpuGroupsAborted);
    W.key("gpu_workgroups_wasted").value(L.GpuGroupsWasted);
    W.key("cpu_workgroups_wasted").value(L.CpuGroupsWasted);
    W.key("cpu_subkernels").value(L.CpuSubkernels);
    W.key("final_chunk_pct").value(L.FinalChunkPct);
    W.key("chunk_growth_steps").value(L.ChunkGrowthSteps);
    W.key("cpu_ran_everything").value(L.CpuRanEverything);
    W.key("atomics_fallback").value(L.AtomicsFallback);
    W.key("hd_bytes_sent").value(L.HdBytesSent);
    W.key("status_bytes_sent").value(L.StatusBytesSent);
    W.key("dh_bytes_received").value(L.DhBytesReceived);
    W.key("merge_bytes_diffed").value(L.MergeBytesDiffed);
    W.key("merge_bytes_copied").value(L.MergeBytesCopied);
    W.key("kernel_seconds").value(L.KernelTime.toSeconds(), "%.9f");
    W.key("chunk_trajectory").beginArray();
    for (const ChunkPoint &P : L.ChunkTrajectory) {
      W.beginObject(JsonWriter::Layout::Inline);
      W.key("t_us").value(static_cast<double>(P.At.nanos()) / 1000.0, "%.3f");
      W.key("workgroups").value(P.Groups);
      W.key("pct_after").value(P.PctAfter, "%.4f");
      W.key("subkernel_us")
          .value(static_cast<double>(P.Took.nanos()) / 1000.0, "%.3f");
      W.end();
    }
    W.end();
    W.end();
  }
  W.end();
  W.end();
  return W.str();
}

std::vector<std::string> RunReport::csvHeader() {
  return {"runtime",
          "workload",
          "kernel",
          "kernel_id",
          "total_workgroups",
          "gpu_workgroups_completed",
          "cpu_workgroups_completed",
          "gpu_workgroups_executed",
          "cpu_workgroups_executed",
          "gpu_workgroups_aborted",
          "gpu_workgroups_wasted",
          "cpu_workgroups_wasted",
          "cpu_subkernels",
          "final_chunk_pct",
          "hd_bytes_sent",
          "status_bytes_sent",
          "dh_bytes_received",
          "merge_bytes_diffed",
          "merge_bytes_copied",
          "kernel_seconds"};
}

void RunReport::appendCsvRows(CsvWriter &Csv) const {
  for (const LaunchStats &L : Launches)
    Csv.addRow({RuntimeName, WorkloadName, L.KernelName, u64(L.KernelId),
                u64(L.TotalGroups), u64(L.GpuGroupsCompleted),
                u64(L.CpuGroupsCompleted), u64(L.GpuGroupsExecuted),
                u64(L.CpuGroupsExecuted), u64(L.GpuGroupsAborted),
                u64(L.GpuGroupsWasted), u64(L.CpuGroupsWasted),
                u64(L.CpuSubkernels), formatString("%.4f", L.FinalChunkPct),
                u64(L.HdBytesSent), u64(L.StatusBytesSent),
                u64(L.DhBytesReceived), u64(L.MergeBytesDiffed),
                u64(L.MergeBytesCopied),
                formatString("%.9f", L.KernelTime.toSeconds())});
}

void RunReport::printSummary() const {
  std::printf("  stats: %s on %s, wall %.6f s\n", RuntimeName.c_str(),
              WorkloadName.c_str(), Wall.toSeconds());
  if (!Launches.empty()) {
    uint64_t Total = totalWorkGroups();
    auto Pct = [Total](uint64_t V) {
      return Total ? 100.0 * static_cast<double>(V) /
                         static_cast<double>(Total)
                   : 0.0;
    };
    std::printf("    work-groups: %llu total; completed gpu %llu (%.1f%%) / "
                "cpu %llu (%.1f%%); gpu aborted %llu (wasted %llu), cpu "
                "wasted %llu\n",
                static_cast<unsigned long long>(Total),
                static_cast<unsigned long long>(gpuWorkGroupsCompleted()),
                Pct(gpuWorkGroupsCompleted()),
                static_cast<unsigned long long>(cpuWorkGroupsCompleted()),
                Pct(cpuWorkGroupsCompleted()),
                static_cast<unsigned long long>(gpuWorkGroupsAborted()),
                static_cast<unsigned long long>(gpuWorkGroupsWasted()),
                static_cast<unsigned long long>(cpuWorkGroupsWasted()));
  }
  for (const auto &[Name, Value] : Counters.counters())
    std::printf("    %-32s %llu\n", Name.c_str(),
                static_cast<unsigned long long>(Value));
  for (const auto &[Name, Value] : Counters.gauges())
    std::printf("    %-32s %.4f\n", Name.c_str(), Value);
  for (const LaneUtilization &U : Utilization)
    std::printf("    util %-22s busy %.6f s (%5.1f%%)\n", U.Lane.c_str(),
                U.Busy.toSeconds(), 100.0 * U.Utilization);
}

bool fcl::stats::writeReportsJson(const std::vector<RunReport> &Reports,
                                  const std::string &Path) {
  if (Reports.size() == 1)
    return writeFile(Path, Reports.front().renderJson());
  // Each run keeps its own document layout, spliced in at column 0.
  JsonWriter W;
  W.beginObject();
  W.key("schema").value("fcl-run-report-set-v1");
  W.key("runs").beginArray();
  for (const RunReport &R : Reports)
    W.raw(R.renderJson());
  W.end();
  W.end();
  return writeFile(Path, W.str());
}
