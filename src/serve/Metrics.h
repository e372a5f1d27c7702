//===- serve/Metrics.h - Request-level serving metrics ----------*- C++ -*-===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-request latency accounting and the aggregate serve report. Latency
/// decomposes as
///
///   queue wait = start  - arrival   (admission queue residency)
///   service    = end    - start     (devices working on the job)
///   end-to-end = end    - arrival   (what the client sees; SLOs bind here)
///
/// with p50/p95/p99 computed by nearest rank. The report serializes to a
/// deterministic JSON document ("fcl-serve-report-v1") through
/// support/JsonWriter, so identical runs produce identical bytes - the
/// determinism gates in CI diff two same-seed runs directly. The latency
/// object, the text latency row and the verdict tail defined here are
/// shared with the cluster report.
///
//===----------------------------------------------------------------------===//

#ifndef FCL_SERVE_METRICS_H
#define FCL_SERVE_METRICS_H

#include "stats/Registry.h"
#include "support/SimTime.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace fcl {

class JsonWriter;

namespace serve {

/// Latency distribution summary in milliseconds.
struct LatencySummary {
  double P50 = 0;
  double P95 = 0;
  double P99 = 0;
  double Mean = 0;
  double Max = 0;
};

/// Summarizes \p ValuesMs (not required to be sorted).
LatencySummary summarizeLatency(const std::vector<double> &ValuesMs);

/// Writes \p S as the inline {"p50": ..., "max": ...} object.
void writeLatencyJson(JsonWriter &W, const LatencySummary &S);

/// One "  <name> p50 ... max ..." line of a text report.
std::string latencyRow(const char *Name, const LatencySummary &S);

/// The per-job fields both serving reports record: identity, size class
/// and the three timestamps the latencies decompose from.
struct JobRecord {
  uint64_t Id = 0;
  int Stream = 0;
  std::string Workload;
  uint64_t MaxGroups = 0;
  bool Large = false;
  bool Rejected = false;
  TimePoint ArrivalAt;
  TimePoint StartAt;
  TimePoint EndAt;

  double queueWaitMs() const { return (StartAt - ArrivalAt).toMillis(); }
  double serviceMs() const { return (EndAt - StartAt).toMillis(); }
  double e2eMs() const { return (EndAt - ArrivalAt).toMillis(); }
};

/// Final state of one request, as recorded by the engine.
struct RequestRecord : JobRecord {
  /// Where the job ran: "pair", "corun", "gpu", "cpu", "cpu-backfill".
  std::string Placement;
};

/// The verdicts both serving reports (serve and cluster) carry, and the
/// fcl::stats mirror of their numbers.
struct Verdicts {
  // SLO verdict (when an SLO was given); binds to e2e latency.
  bool SloChecked = false;
  double SloMs = 0;
  uint64_t SloViolations = 0; // Completed jobs with e2e > SloMs.

  // Functional-mode validation.
  bool Validated = false;
  uint64_t ValidationFailures = 0;

  // fcl::check / fcl::race outcome (--check / --races). The JSON emits
  // the "check"/"races" objects only when diagnostics exist, so a clean
  // analyzed run serializes to the exact bytes of an unanalyzed one (the
  // determinism gates rely on this).
  bool CheckEnabled = false;
  uint64_t CheckErrors = 0;
  uint64_t CheckWarnings = 0;
  std::vector<std::string> CheckDiags; // Rendered, deterministic order.
  bool RacesEnabled = false;
  uint64_t RaceFindings = 0;
  std::vector<std::string> RaceDiags; // Rendered, deterministic order.

  /// Counter/gauge mirror of the report's numbers (the fcl::stats view).
  stats::Registry Stats;

  /// The one race drain: disarms the fcl::race analyzer and records its
  /// findings (RacesEnabled, RaceFindings, RaceDiags).
  void takeRaceFindings();
};

/// Writes \p V as the closing members of an open report object: "slo" and
/// "validation", then whatever \p Extra writes, then "check"/"races" when
/// they hold diagnostics, then "stats".
void writeVerdictsJson(JsonWriter &W, const Verdicts &V,
                       const std::function<void()> &Extra = nullptr);

/// Aggregate outcome of one serve run.
struct ServeReport : Verdicts {
  // Configuration echo (what produced these numbers).
  std::string PolicyName;
  std::string ArrivalDesc;
  std::string Mix;
  std::string Machine;
  uint64_t Seed = 0;
  int Streams = 0;
  int QueueDepth = 0;
  uint64_t LargeThreshold = 0;
  double HorizonMs = 0;

  // Request counts.
  uint64_t Submitted = 0;
  uint64_t Rejected = 0;
  uint64_t Completed = 0;

  // Latency summaries over completed requests.
  LatencySummary QueueWait;
  LatencySummary Service;
  LatencySummary E2e;
  LatencySummary SmallE2e; // Completed small-class requests only.
  LatencySummary LargeE2e; // Completed large-class requests only.
  uint64_t SmallCompleted = 0;
  uint64_t LargeCompleted = 0;

  // Whole-run aggregates.
  double MakespanMs = 0;      // Last response time (first arrival is ~0).
  double ThroughputRps = 0;   // Completed / makespan.
  double GpuBusyMs = 0;       // Device lease occupancy.
  double CpuBusyMs = 0;       // Lease + cooperative-CPU busy time.
  double CorunCpuMs = 0;      // Cooperative-CPU share of CpuBusyMs.
  double GpuUtil = 0;
  double CpuUtil = 0;
  uint64_t CoopJobs = 0;      // Jobs run cooperatively across the pair.
  uint64_t GpuJobs = 0;       // Single-device GPU jobs.
  uint64_t CpuJobs = 0;       // Single-device CPU jobs (incl. backfills).
  uint64_t BackfillJobs = 0;  // CPU jobs slotted into corun yield windows.
  uint64_t ChunkYields = 0;   // Cooperative chunk boundaries observed.

  // Compound (DAG) job accounting, mirrored from dag::DagStats so this
  // header does not depend on the dag layer. The JSON emits the "dag"
  // object only when DAG jobs ran: plain mixes serialize to the exact
  // bytes they did before the dag subsystem existed.
  std::string DagPlacement;   // "residency" or "blind"; empty when unused.
  uint64_t DagJobs = 0;
  uint64_t DagNodes = 0;
  uint64_t DagGpuNodes = 0;
  uint64_t DagCpuNodes = 0;
  uint64_t DagTransfers = 0;
  uint64_t DagTransferBytes = 0;
  uint64_t DagPcieBytes = 0;
  uint64_t DagTransfersSkipped = 0;
  uint64_t DagBytesSaved = 0;

  /// Every request in submission order (rejected ones included).
  std::vector<RequestRecord> Requests;

  /// Deterministic JSON document (schema "fcl-serve-report-v1").
  std::string toJson() const;

  /// Human-readable report for the tool's stdout.
  std::string toText() const;

  /// Per-request CSV (header + one row per request).
  std::string toCsv() const;
};

} // namespace serve
} // namespace fcl

#endif // FCL_SERVE_METRICS_H
