//===- serve/Metrics.cpp - Request-level serving metrics ------------------===//
//
// Part of the FluidiCL reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Metrics.h"

#include "check/Diag.h"
#include "race/Bridge.h"
#include "support/Format.h"
#include "support/JsonWriter.h"
#include "support/Statistics.h"

using namespace fcl;
using namespace fcl::serve;

LatencySummary fcl::serve::summarizeLatency(
    const std::vector<double> &ValuesMs) {
  LatencySummary S;
  if (ValuesMs.empty())
    return S;
  S.P50 = percentile(ValuesMs, 50);
  S.P95 = percentile(ValuesMs, 95);
  S.P99 = percentile(ValuesMs, 99);
  S.Mean = mean(ValuesMs);
  S.Max = percentile(ValuesMs, 100);
  return S;
}

void fcl::serve::writeLatencyJson(JsonWriter &W, const LatencySummary &S) {
  W.beginObject(JsonWriter::Layout::Inline);
  W.key("p50").value(S.P50);
  W.key("p95").value(S.P95);
  W.key("p99").value(S.P99);
  W.key("mean").value(S.Mean);
  W.key("max").value(S.Max);
  W.end();
}

std::string fcl::serve::latencyRow(const char *Name,
                                   const LatencySummary &S) {
  return formatString(
      "  %-11s p50 %9.3f  p95 %9.3f  p99 %9.3f  mean %9.3f  max %9.3f\n",
      Name, S.P50, S.P95, S.P99, S.Mean, S.Max);
}

void fcl::serve::writeVerdictsJson(JsonWriter &W, const Verdicts &V,
                                   const std::function<void()> &Extra) {
  W.key("slo").beginObject();
  W.key("checked").value(V.SloChecked);
  W.key("slo_ms").value(V.SloMs);
  W.key("violations").value(V.SloViolations);
  W.end();
  W.key("validation").beginObject();
  W.key("validated").value(V.Validated);
  W.key("failures").value(V.ValidationFailures);
  W.end();
  if (Extra)
    Extra();
  auto Diags = [&W](const std::vector<std::string> &Lines) {
    W.key("diags").beginArray();
    for (const std::string &L : Lines)
      W.value(L);
    W.end();
  };
  // Analysis objects only when something was found (see Verdicts).
  if (!V.CheckDiags.empty()) {
    W.key("check").beginObject();
    W.key("errors").value(V.CheckErrors);
    W.key("warnings").value(V.CheckWarnings);
    Diags(V.CheckDiags);
    W.end();
  }
  if (!V.RaceDiags.empty()) {
    W.key("races").beginObject();
    W.key("findings").value(V.RaceFindings);
    Diags(V.RaceDiags);
    W.end();
  }
  // std::map iteration gives lexicographic, i.e. deterministic, key order.
  W.key("stats").beginObject();
  W.members("counters", V.Stats.counters());
  W.members("gauges", V.Stats.gauges());
  W.end();
}

void Verdicts::takeRaceFindings() {
  check::DiagSink Sink(check::Policy::Warn);
  race::disarmAnalyzer(Sink);
  RacesEnabled = true;
  RaceFindings = Sink.diags().size();
  for (const check::Diag &D : Sink.diags())
    RaceDiags.push_back(D.str());
}

std::string ServeReport::toJson() const {
  JsonWriter W;
  W.beginObject();
  W.key("schema").value("fcl-serve-report-v1");
  W.key("policy").value(PolicyName);
  W.key("arrival").value(ArrivalDesc);
  W.key("mix").value(Mix);
  W.key("machine").value(Machine);
  W.key("seed").value(Seed);
  W.key("streams").value(Streams);
  W.key("queue_depth").value(QueueDepth);
  W.key("large_threshold_groups").value(LargeThreshold);
  W.key("horizon_ms").value(HorizonMs);
  W.key("submitted").value(Submitted);
  W.key("rejected").value(Rejected);
  W.key("completed").value(Completed);
  W.key("latency_ms").beginObject();
  writeLatencyJson(W.key("queue_wait"), QueueWait);
  writeLatencyJson(W.key("service"), Service);
  writeLatencyJson(W.key("e2e"), E2e);
  W.end();
  W.key("per_class").beginObject();
  W.key("small").beginObject(JsonWriter::Layout::Inline);
  W.key("completed").value(SmallCompleted);
  writeLatencyJson(W.key("e2e"), SmallE2e);
  W.end();
  W.key("large").beginObject(JsonWriter::Layout::Inline);
  W.key("completed").value(LargeCompleted);
  writeLatencyJson(W.key("e2e"), LargeE2e);
  W.end();
  W.end();
  W.key("makespan_ms").value(MakespanMs);
  W.key("throughput_rps").value(ThroughputRps);
  W.key("occupancy").beginObject();
  W.key("gpu_busy_ms").value(GpuBusyMs);
  W.key("cpu_busy_ms").value(CpuBusyMs);
  W.key("corun_cpu_ms").value(CorunCpuMs);
  W.key("gpu_util").value(GpuUtil);
  W.key("cpu_util").value(CpuUtil);
  W.end();
  W.key("placement").beginObject();
  W.key("coop_jobs").value(CoopJobs);
  W.key("gpu_jobs").value(GpuJobs);
  W.key("cpu_jobs").value(CpuJobs);
  W.key("backfill_jobs").value(BackfillJobs);
  W.key("chunk_yields").value(ChunkYields);
  W.end();
  writeVerdictsJson(W, *this, [&] {
    // Compound-job accounting only when DAG jobs ran: plain mixes keep
    // their pre-dag bytes.
    if (!DagJobs)
      return;
    W.key("dag").beginObject();
    W.key("placement").value(DagPlacement);
    W.key("jobs").value(DagJobs);
    W.key("nodes").value(DagNodes);
    W.key("gpu_nodes").value(DagGpuNodes);
    W.key("cpu_nodes").value(DagCpuNodes);
    W.key("transfers").value(DagTransfers);
    W.key("transfer_bytes").value(DagTransferBytes);
    W.key("pcie_bytes").value(DagPcieBytes);
    W.key("transfers_skipped").value(DagTransfersSkipped);
    W.key("bytes_saved").value(DagBytesSaved);
    W.end();
  });
  W.end();
  return W.str();
}

std::string ServeReport::toText() const {
  std::string T;
  T += formatString("serve: policy=%s arrival=%s mix=%s machine=%s seed=%llu "
                    "streams=%d\n",
                    PolicyName.c_str(), ArrivalDesc.c_str(), Mix.c_str(),
                    Machine.c_str(), static_cast<unsigned long long>(Seed),
                    Streams);
  T += formatString(
      "requests: submitted=%llu rejected=%llu completed=%llu\n",
      static_cast<unsigned long long>(Submitted),
      static_cast<unsigned long long>(Rejected),
      static_cast<unsigned long long>(Completed));
  T += formatString("makespan %.3f ms, throughput %.1f req/s\n", MakespanMs,
                    ThroughputRps);
  T += "latency (ms):\n";
  T += latencyRow("queue-wait", QueueWait);
  T += latencyRow("service", Service);
  T += latencyRow("e2e", E2e);
  if (SmallCompleted)
    T += latencyRow("e2e/small", SmallE2e);
  if (LargeCompleted)
    T += latencyRow("e2e/large", LargeE2e);
  T += formatString("occupancy: gpu %.1f%% cpu %.1f%% (corun-cpu %.3f ms)\n",
                    GpuUtil * 100, CpuUtil * 100, CorunCpuMs);
  T += formatString(
      "placement: coop=%llu gpu=%llu cpu=%llu backfill=%llu yields=%llu\n",
      static_cast<unsigned long long>(CoopJobs),
      static_cast<unsigned long long>(GpuJobs),
      static_cast<unsigned long long>(CpuJobs),
      static_cast<unsigned long long>(BackfillJobs),
      static_cast<unsigned long long>(ChunkYields));
  if (DagJobs) {
    T += formatString(
        "dag (%s): jobs=%llu nodes=%llu (gpu %llu / cpu %llu)\n",
        DagPlacement.c_str(), static_cast<unsigned long long>(DagJobs),
        static_cast<unsigned long long>(DagNodes),
        static_cast<unsigned long long>(DagGpuNodes),
        static_cast<unsigned long long>(DagCpuNodes));
    T += formatString(
        "dag transfers: %llu (%llu bytes, %llu pcie), skipped %llu "
        "(%llu bytes saved)\n",
        static_cast<unsigned long long>(DagTransfers),
        static_cast<unsigned long long>(DagTransferBytes),
        static_cast<unsigned long long>(DagPcieBytes),
        static_cast<unsigned long long>(DagTransfersSkipped),
        static_cast<unsigned long long>(DagBytesSaved));
  }
  if (SloChecked)
    T += formatString("slo: %.3f ms -> %llu violation(s)\n", SloMs,
                      static_cast<unsigned long long>(SloViolations));
  if (Validated)
    T += formatString("validation: %llu failure(s)\n",
                      static_cast<unsigned long long>(ValidationFailures));
  if (CheckEnabled) {
    T += formatString("check: %llu error(s), %llu warning(s)\n",
                      static_cast<unsigned long long>(CheckErrors),
                      static_cast<unsigned long long>(CheckWarnings));
    for (const std::string &D : CheckDiags)
      T += "  " + D + "\n";
  }
  if (RacesEnabled) {
    T += formatString("races: %llu finding(s)\n",
                      static_cast<unsigned long long>(RaceFindings));
    for (const std::string &D : RaceDiags)
      T += "  " + D + "\n";
  }
  return T;
}

std::string ServeReport::toCsv() const {
  std::string C = "id,stream,workload,max_groups,class,state,placement,"
                  "arrival_ms,queue_wait_ms,service_ms,e2e_ms\n";
  for (const RequestRecord &R : Requests) {
    if (R.Rejected) {
      C += formatString("%llu,%d,%s,%llu,%s,rejected,,%.6f,,,\n",
                        static_cast<unsigned long long>(R.Id), R.Stream,
                        R.Workload.c_str(),
                        static_cast<unsigned long long>(R.MaxGroups),
                        R.Large ? "large" : "small",
                        (R.ArrivalAt - TimePoint()).toMillis());
      continue;
    }
    C += formatString("%llu,%d,%s,%llu,%s,done,%s,%.6f,%.6f,%.6f,%.6f\n",
                      static_cast<unsigned long long>(R.Id), R.Stream,
                      R.Workload.c_str(),
                      static_cast<unsigned long long>(R.MaxGroups),
                      R.Large ? "large" : "small", R.Placement.c_str(),
                      (R.ArrivalAt - TimePoint()).toMillis(),
                      R.queueWaitMs(), R.serviceMs(), R.e2eMs());
  }
  return C;
}
