//===- stats/Report.h - Structured run reports ------------------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Run-level aggregation of per-launch stats plus runtime counters/gauges,
/// exported as JSON (schema "fcl-run-report-v1", see docs/OBSERVABILITY.md)
/// and CSV (one row per kernel launch). Per-device busy/idle utilization is
/// derived from an attached trace::Tracer's lanes, so the numbers line up
/// with the Chrome-trace timeline of the same run.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_STATS_REPORT_H
#define FCL_STATS_REPORT_H

#include "stats/LaunchStats.h"
#include "stats/Registry.h"
#include "support/Csv.h"

#include <string>
#include <vector>

namespace fcl {

namespace trace {
class Tracer;
}

namespace stats {

/// Busy share of one trace lane over the run.
struct LaneUtilization {
  std::string Lane;
  Duration Busy;
  /// Busy time over wall time, in [0, 1] (can exceed 1 only if a lane
  /// overlaps itself, which in-order queues never do).
  double Utilization = 0;
};

/// Everything one application run produced, ready for export.
class RunReport {
public:
  std::string RuntimeName;
  std::string WorkloadName;
  /// Application-observed total running time.
  Duration Wall;
  /// Per-kernel-launch records, in launch order (FluidiCL fills these;
  /// baseline runtimes report counters only).
  std::vector<LaunchStats> Launches;
  /// Runtime counters and gauges (buffer-pool hit rate, read routing,
  /// per-device task placement, ...).
  Registry Counters;
  /// Per-lane busy/idle breakdown (see addUtilizationFromTracer).
  std::vector<LaneUtilization> Utilization;

  // --- Aggregates over Launches -------------------------------------------
  uint64_t totalWorkGroups() const;
  uint64_t gpuWorkGroupsCompleted() const;
  uint64_t cpuWorkGroupsCompleted() const;
  uint64_t gpuWorkGroupsExecuted() const;
  uint64_t cpuWorkGroupsExecuted() const;
  uint64_t gpuWorkGroupsAborted() const;
  uint64_t gpuWorkGroupsWasted() const;
  uint64_t cpuWorkGroupsWasted() const;

  /// Computes per-lane utilization from \p T's slices against \p WallTime
  /// (replaces any previous utilization data).
  void addUtilizationFromTracer(const trace::Tracer &T, Duration WallTime);

  /// Renders the report as a JSON object (schema "fcl-run-report-v1").
  std::string renderJson() const;

  /// Appends one CSV row per launch to \p Csv (header from csvHeader()).
  void appendCsvRows(CsvWriter &Csv) const;

  /// Header matching appendCsvRows.
  static std::vector<std::string> csvHeader();

  /// Prints a human-readable summary to stdout (the --stats output).
  void printSummary() const;
};

/// Writes \p Reports to \p Path: a bare report object for a single run, or
/// {"schema":"fcl-run-report-set-v1","runs":[...]} for several. False if
/// the file cannot be written.
bool writeReportsJson(const std::vector<RunReport> &Reports,
                      const std::string &Path);

} // namespace stats
} // namespace fcl

#endif // FCL_STATS_REPORT_H
